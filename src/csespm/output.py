"""Model output map: overpotentials, electrolyte drop, cell voltage, SOC.

Effective solid concentration for the positive exchange current density is
the surface value in one-phase and the bulk value in two-phase; the
positive OCP is looked up at surface stoichiometry in one-phase and bulk
stoichiometry in two-phase (flat plateau there).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SaturationError
from .ocp import OcpSet
from .params import CellParameters
from .states import FullState, TWO_PHASE
from . import systems


@dataclass
class OutputSnapshot:
    """All voltage-map terms of one evaluation: floats for one state, (T,)
    arrays for rows."""

    V_cell: float
    U_p: float
    U_n: float
    eta_p: float
    eta_n: float
    dphi_e: float
    i0_p: float
    i0_n: float
    SOC_p: float
    SOC_n: float
    theta_p: float
    theta_n: float

    def recompose(self, current, R_l: float):
        """Cell voltage re-assembled from the stored terms."""
        return self.U_p + self.eta_p - self.U_n - self.eta_n + self.dphi_e - R_l * current


def exchange_current_density(params: CellParameters, electrode: str, c_eff, c_e_avg):
    """i0 = k F sqrt(c_e * c_eff * (c_max - c_eff)).

    ``c_eff`` is the surface concentration (negative electrode and one-phase
    positive) or the bulk concentration (two-phase positive).  A float
    c_eff outside (0, c_max), or beside a non-positive c_e_avg, raises
    SaturationError; arrays and jets of rows are taken as they are, each
    caller masking the rows outside the domain.
    """
    cmax = params.c_s_max(electrode)
    if np.isscalar(c_eff):
        if not 0.0 < c_eff < cmax:
            raise SaturationError(
                f"{electrode} effective concentration {c_eff:.6g} outside (0, {cmax:g})")
        if c_e_avg <= 0.0:
            raise SaturationError(f"non-positive electrolyte concentration {c_e_avg:.6g}")
    return params.k(electrode) * params.F * np.sqrt(c_e_avg * c_eff * (cmax - c_eff))


def overpotential(params: CellParameters, electrode: str, current, i0):
    """eta = (2RT/F) asinh(I p / (2 a_s A L i0)), p = -1 positive, +1 negative;
    a float i0 <= 0 raises SaturationError, arrays and jets are taken as
    they are."""
    if np.isscalar(i0) and i0 <= 0.0:
        raise SaturationError(f"exchange current density must be positive, got {i0!r}")
    p = -1.0 if electrode == "pos" else 1.0
    denom = 2.0 * params.a_s(electrode) * params.A_cell * params.L(electrode) * i0
    return (2.0 * params.R_gas * params.T / params.F) * np.arcsinh(current * p / denom)


def electrolyte_potential_drop(params: CellParameters, c_e: np.ndarray):
    """dphi_e = (2 R T nu / F) ln(c_e(L) / c_e(0)), end values taken from the
    boundary CVs by constant extrapolation; of one state or of (T, N_e) rows."""
    c0, cL = c_e[..., 0], c_e[..., -1]
    if np.any(c0 <= 0.0) or np.any(cL <= 0.0):
        raise SaturationError("non-positive electrolyte boundary concentration")
    return (2.0 * params.R_gas * params.T * params.nu / params.F) * np.log(cL / c0)


def electrode_c_e_avg(c_e: np.ndarray, electrode: str):
    """Arithmetic mean of the electrolyte CVs in one electrode region, the
    first or last third of a state's (or of each row's) CVs."""
    n = systems.electrolyte_third(c_e.shape[-1])
    region = c_e[..., :n] if electrode == "neg" else c_e[..., 2 * n:]
    avg = region.sum(axis=-1) / region.shape[-1]
    return float(avg) if avg.ndim == 0 else avg


def soc_from_theta(params: CellParameters, theta_bulk, electrode: str,
                   direction: str):
    """Affine SOC map of bulk stoichiometry, direction-specific window.
    Values near the window edges may slightly exceed [0, 1]; reported
    unclamped."""
    t0 = params.theta(electrode, "0", direction)
    t100 = params.theta(electrode, "100", direction)
    if electrode == "pos":
        return (t0 - theta_bulk) / (t0 - t100)
    return (theta_bulk - t0) / (t100 - t0)


def _domain_error(params, c_eff_p, c_e_p, c_surf_n, c_e_n, c_e) -> SaturationError:
    """The SaturationError of one state with these values."""
    try:
        i0_p = exchange_current_density(params, "pos", c_eff_p, c_e_p)
        i0_n = exchange_current_density(params, "neg", c_surf_n, c_e_n)
        overpotential(params, "pos", 0.0, i0_p)
        overpotential(params, "neg", 0.0, i0_n)
        electrolyte_potential_drop(params, c_e)
    except SaturationError as exc:
        return exc
    raise AssertionError("row inside the output map's domain")


def cell_voltage(state: FullState, current, params: CellParameters, ocp: OcpSet,
                 counters: dict | None = None) -> OutputSnapshot:
    """Compose the full output map of one state (floats) or of a FullState
    of T rows under (T,) currents ((T,) arrays).

    The first row outside the map's domain (an effective concentration
    outside (0, c_s_max), a non-positive electrolyte value) raises the
    SaturationError a single state raises; its ``before`` holds the
    snapshot of the rows ahead of it.  ``counters`` tallies OCP
    extrapolations (records.tally).
    """
    single = state.pos.ndim == 1
    rows = FullState(state.neg[None], state.pos[None], state.elec[None],
                     np.array([state.regime]), np.array([state.r_p]),
                     np.array([state.core_conc]), None,
                     np.array([state.direction])) if single else state
    current = np.broadcast_to(np.asarray(current, dtype=float), rows.r_p.shape)
    one = rows.regime != TWO_PHASE
    cmax_p, cmax_n = params.c_s_max_p, params.c_s_max_n

    # effective positive concentration: bulk in two-phase, surface in one-phase
    c_bulk_p = systems.solid_moles(rows.pos, params.R_s_p, rows.r_p, rows.core_conc) / (
        systems.FOUR_THIRDS_PI * params.R_s_p**3)
    c_eff_p = c_bulk_p.copy()
    c_eff_p[one] = systems.surface_concentration(rows.pos[one], current[one], params, "pos")
    c_surf_n = systems.surface_concentration(rows.neg, current, params, "neg")
    c_e_p = electrode_c_e_avg(rows.elec, "pos")
    c_e_n = electrode_c_e_avg(rows.elec, "neg")
    with np.errstate(invalid="ignore", divide="ignore"):
        i0_p = exchange_current_density(params, "pos", c_eff_p, c_e_p)
        i0_n = exchange_current_density(params, "neg", c_surf_n, c_e_n)
    # per row, the checks of the scalar helpers
    ok = ((0.0 < c_eff_p) & (c_eff_p < cmax_p) & ~(c_e_p <= 0.0)
          & (0.0 < c_surf_n) & (c_surf_n < cmax_n) & ~(c_e_n <= 0.0)
          & ~(i0_p <= 0.0) & ~(i0_n <= 0.0)
          & ~(rows.elec[:, 0] <= 0.0) & ~(rows.elec[:, -1] <= 0.0))
    n = len(ok) if ok.all() else int(np.argmin(ok))
    error = None if n == len(ok) else _domain_error(
        params, c_eff_p[n], c_e_p[n], c_surf_n[n], c_e_n[n], rows.elec[n])

    current, c_eff_p, c_surf_n, i0_p, i0_n = (
        a[:n] for a in (current, c_eff_p, c_surf_n, i0_p, i0_n))
    dis = np.where(current != 0.0, current > 0.0, rows.direction[:n] == "dis")
    eta_p = overpotential(params, "pos", current, i0_p)
    eta_n = overpotential(params, "neg", current, i0_n)
    dphi = electrolyte_potential_drop(params, rows.elec[:n])
    theta_p, theta_n = c_eff_p / cmax_p, c_surf_n / cmax_n
    U_p = np.empty(n)
    for direction, sel in (("dis", dis), ("ch", ~dis)):
        if sel.any():
            U_p[sel] = ocp.pick("pos", direction).lookup(
                np.clip(theta_p[sel], 0.0, 1.0), counters)
    U_n = ocp.neg.lookup(np.clip(theta_n, 0.0, 1.0), counters)
    V = U_p + eta_p - U_n - eta_n + dphi - params.R_l * current

    bulk_p = c_bulk_p[:n] / cmax_p
    bulk_n = systems.solid_moles(rows.neg[:n], params.R_s_n) / (
        systems.FOUR_THIRDS_PI * params.R_s_n**3 * cmax_n)
    soc = {e: np.where(dis, soc_from_theta(params, b, e, "dis"),
                       soc_from_theta(params, b, e, "ch"))
           for e, b in (("pos", bulk_p), ("neg", bulk_n))}
    snap = OutputSnapshot(V_cell=V, U_p=U_p, U_n=U_n, eta_p=eta_p, eta_n=eta_n,
                          dphi_e=dphi, i0_p=i0_p, i0_n=i0_n, SOC_p=soc["pos"],
                          SOC_n=soc["neg"], theta_p=theta_p, theta_n=theta_n)
    if error is not None:
        error.before = snap
        raise error
    if single:
        return OutputSnapshot(*(float(v[0]) for v in vars(snap).values()))
    return snap
