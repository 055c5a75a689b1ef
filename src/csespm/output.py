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
    """All voltage-map terms of one evaluation."""

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

    def recompose(self, current: float, R_l: float) -> float:
        """Cell voltage re-assembled from the stored terms."""
        return self.U_p + self.eta_p - self.U_n - self.eta_n + self.dphi_e - R_l * current


def exchange_current_density(params: CellParameters, electrode: str,
                             c_eff: float, c_e_avg: float) -> float:
    """i0 = k F sqrt(c_e * c_eff * (c_max - c_eff)).

    ``c_eff`` is the surface concentration (negative electrode and one-phase
    positive) or the bulk concentration (two-phase positive).
    """
    cmax = params.c_s_max(electrode)
    if not 0.0 < c_eff < cmax:
        raise SaturationError(
            f"{electrode} effective concentration {c_eff:.6g} outside (0, {cmax:g})")
    if c_e_avg <= 0.0:
        raise SaturationError(f"non-positive electrolyte concentration {c_e_avg:.6g}")
    return params.k(electrode) * params.F * np.sqrt(c_e_avg * c_eff * (cmax - c_eff))


def overpotential(params: CellParameters, electrode: str, current: float,
                  i0: float) -> float:
    """eta = (2RT/F) asinh(I p / (2 a_s A L i0)), p = -1 positive, +1 negative."""
    if i0 <= 0.0:
        raise SaturationError(f"exchange current density must be positive, got {i0!r}")
    p = -1.0 if electrode == "pos" else 1.0
    denom = 2.0 * params.a_s(electrode) * params.A_cell * params.L(electrode) * i0
    return (2.0 * params.R_gas * params.T / params.F) * np.arcsinh(current * p / denom)


def electrolyte_potential_drop(params: CellParameters, c_e: np.ndarray) -> float:
    """dphi_e = (2 R T nu / F) ln(c_e(L) / c_e(0)), end values taken from the
    boundary CVs by constant extrapolation."""
    c0, cL = float(c_e[0]), float(c_e[-1])
    if c0 <= 0.0 or cL <= 0.0:
        raise SaturationError("non-positive electrolyte boundary concentration")
    return (2.0 * params.R_gas * params.T * params.nu / params.F) * np.log(cL / c0)


def electrode_c_e_avg(params: CellParameters, c_e: np.ndarray, electrode: str,
                      split: tuple[int, int, int]) -> float:
    """Arithmetic mean of the electrolyte CVs in one electrode region."""
    n_a, n_s, _ = split
    region = c_e[:n_a] if electrode == "neg" else c_e[n_a + n_s:]
    return float(region.sum()) / len(region)


def soc_from_theta(params: CellParameters, theta_bulk: float, electrode: str,
                   direction: str) -> float:
    """Affine SOC map of bulk stoichiometry, direction-specific window.
    Values near the window edges may slightly exceed [0, 1]; reported
    unclamped."""
    t0 = params.theta(electrode, "0", direction)
    t100 = params.theta(electrode, "100", direction)
    if electrode == "pos":
        return (t0 - theta_bulk) / (t0 - t100)
    return (theta_bulk - t0) / (t100 - t0)


def positive_effective_theta(state: FullState, params: CellParameters,
                             current: float, N_r: int) -> tuple[float, float]:
    """(theta for the OCP lookup, c_eff for i0) of the positive electrode."""
    if state.regime == TWO_PHASE:
        c_bulk = systems.two_phase_bulk(state.pos, state.r_p, state.core_conc,
                                        params.R_s_p)
        return c_bulk / params.c_s_max_p, c_bulk
    dr = params.R_s_p / N_r
    c_surf = systems.surface_concentration(state.pos, current, params, "pos", dr)
    return c_surf / params.c_s_max_p, c_surf


def cell_voltage(state: FullState, current: float, params: CellParameters,
                 ocp: OcpSet, split: tuple[int, int, int],
                 smooth_ocp: bool = False) -> OutputSnapshot:
    """Compose the full output map for one state and current."""
    direction = systems.direction_for_current(current, state.direction)
    N_r = len(state.pos)

    theta_p, c_eff_p = positive_effective_theta(state, params, current, N_r)
    dr_n = params.R_s_n / len(state.neg)
    c_surf_n = systems.surface_concentration(state.neg, current, params, "neg", dr_n)
    theta_n = c_surf_n / params.c_s_max_n

    c_e_avg_p = electrode_c_e_avg(params, state.elec, "pos", split)
    c_e_avg_n = electrode_c_e_avg(params, state.elec, "neg", split)
    i0_p = exchange_current_density(params, "pos", c_eff_p, c_e_avg_p)
    i0_n = exchange_current_density(params, "neg", c_surf_n, c_e_avg_n)
    eta_p = overpotential(params, "pos", current, i0_p)
    eta_n = overpotential(params, "neg", current, i0_n)
    dphi = electrolyte_potential_drop(params, state.elec)

    U_p = ocp.pick("pos", direction)(min(max(theta_p, 0.0), 1.0), smooth=smooth_ocp)
    U_n = ocp.pick("neg", direction)(min(max(theta_n, 0.0), 1.0), smooth=smooth_ocp)
    V = U_p + eta_p - U_n - eta_n + dphi - params.R_l * current

    if state.regime == TWO_PHASE:
        theta_p_bulk = theta_p
    else:
        theta_p_bulk = systems.one_phase_bulk(state.pos, params.R_s_p) / params.c_s_max_p
    theta_n_bulk = systems.one_phase_bulk(state.neg, params.R_s_n) / params.c_s_max_n
    return OutputSnapshot(
        V_cell=float(V), U_p=float(U_p), U_n=float(U_n),
        eta_p=float(eta_p), eta_n=float(eta_n), dphi_e=float(dphi),
        i0_p=float(i0_p), i0_n=float(i0_n),
        SOC_p=soc_from_theta(params, theta_p_bulk, "pos", direction),
        SOC_n=soc_from_theta(params, theta_n_bulk, "neg", direction),
        theta_p=float(theta_p), theta_n=float(theta_n),
    )
