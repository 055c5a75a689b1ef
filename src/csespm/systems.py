"""Discretized state-space systems for solid and electrolyte diffusion.

The builders return affine systems dx/dt = A x + B I.  The solid
assembly itself (`solid_block`, `shell_block`) returns the three bands of
its tridiagonal A, which the two-phase substep steps without a dense
matrix; `tridiagonal` makes the dense A where one is needed.  Finite
volume assemblies balance face fluxes over spherical control volumes, so
volume-weighted row sums vanish except where a physical boundary flux
enters through B; that is what makes the scheme conservative.

The solid assembly and the helpers below it take one member (float radii
and parameters, 1-D cell arrays) or B members at once (`params.
ParameterColumns`, (B, 1) columns of radii, (B, N) rows of cells) with the
same arithmetic, so the batched simulation of `simulate.simulate_many`
reproduces each member's serial run bit for bit.  The geometry, the solid
assembly and the front rate also take jets (`taylor.Jet`) of radii, whose
values they compute by the same float operations: the observability model
differentiates the simulation's own assembly along the flow.

Both schemes share one solid assembly (`solid_block`) and differ only in
the geometry it is fed (`cell_geometry`): the FVM's CV volumes and 4 pi f^2
faces, or the FDM's node capacities r_i^2 h and faces r_{k-1} r_k, on which
the same balance is the central-difference stencil.  The FDM thus balances
lithium over capacities that are not the particle's volumes, and the mass
audit, which counts CV volumes, sees it drift.

Two-phase positive electrode: the shell spans [r_p, R_s_p] with N_r equal
width CVs (width recomputed from r_p), a Dirichlet interface value g at the
inner face and the applied current flux at the outer face.  The extra state
r_p obeys the Stefan balance
    dr_p/dt = D_s_p / (c_core - g) * dc/dr|_{r_p}
with the gradient taken one-sided over the half cell next to the interface.
g and c_core are the plateau edges of the shell and core phases, set by the
stored core phase (`interface_values`), never by the sign of the current:
after a reversal inside two-phase the same front moves back.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, PhaseDomainError
from .params import CellParameters
from .taylor import join

# with I > 0 on discharge, lithium enters the positive particle and leaves
# the negative particle
FLUX_SIGN = {"pos": +1.0, "neg": -1.0}

FOUR_THIRDS_PI = 4.0 / 3.0 * np.pi      # sphere volume per cubed radius


@dataclass(frozen=True)
class AffineSystem:
    """Matrices of dx/dt = A x + B I."""

    A: np.ndarray
    B: np.ndarray


_UNIT_FACES: dict[int, np.ndarray] = {}


def unit_faces(n: int) -> np.ndarray:
    f = _UNIT_FACES.get(n)
    if f is None:
        f = _UNIT_FACES[n] = np.linspace(0.0, 1.0, n + 1)
    return f


def cell_value(a: np.ndarray, k: int):
    """Cell k of one member's cells (a float) or of rows (a column: (B, 1)
    of B members' (B, N) rows), arrays or jets."""
    return a[k] if a.ndim == 1 else a[..., k, None]


def set_cell(a: np.ndarray, k: int, value):
    """Set cell k of one member's cells to a float, or of B members' rows to
    a (B, 1) column."""
    if a.ndim == 1:
        a[k] = value
    else:
        a[:, k, None] = value


def cell_dot(a: np.ndarray, b: np.ndarray):
    """Cell sum of a * b: a float for one member, a (B, 1) column for rows
    (the same BLAS dot per member)."""
    return float(a.dot(b)) if a.ndim == 1 else np.vecdot(a, b)[:, None]


def cell_sum(a: np.ndarray):
    """Cell sum of one member's cells, or the (B, 1) column of B members' rows."""
    return a.sum() if a.ndim == 1 else a.sum(axis=-1, keepdims=True)


def spherical_cells(r_inner, r_outer, n: int):
    """Faces, face areas and CV volumes of n equal-width spherical shells:
    faces r_inner + (r_outer - r_inner) u_k, areas (4 pi f) f, volumes
    4/3 pi (f_{k+1}^3 - f_k^3) with f^3 = (f f) f.  A column of B inner or
    outer radii gives (B, n + 1) and (B, n) rows.  The arrays are fresh."""
    faces = r_inner + (r_outer - r_inner) * unit_faces(n)
    areas = 4.0 * np.pi * faces * faces
    f3 = faces * faces * faces
    return faces, areas, FOUR_THIRDS_PI * (f3[..., 1:] - f3[..., :-1])


def cell_volumes(R: float, n: int, r_inner=0.0) -> np.ndarray:
    """CV volumes of n equal-width shells over [r_inner, R] (spherical_cells);
    (T, n) rows for a (T,) array of inner radii."""
    if isinstance(r_inner, np.ndarray):
        r_inner = r_inner[:, None]
    return spherical_cells(r_inner, R, n)[2]


def tridiagonal(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Dense matrix of three bands: A[i + 1, i] = lower[i], A[i, i] = diag[i],
    A[i, i + 1] = upper[i].  Rows of bands give the (m, n, n) stack of their
    matrices."""
    n = diag.shape[-1]
    A = np.zeros(diag.shape[:-1] + (n, n))
    flat = A.reshape(diag.shape[:-1] + (-1,))
    flat[..., n::n + 1] = lower
    flat[..., 1::n + 1] = upper
    flat[..., ::n + 1] = diag
    return A


def exchange_diagonal(w_lo: np.ndarray, w_hi: np.ndarray) -> np.ndarray:
    """Diagonal of a nearest-neighbour coupling: row i + 1 gains w_lo[i] x_i,
    row i gains w_hi[i] x_{i+1}, and each diagonal entry loses what its row
    gains, so every exchange between neighbours balances.  Entry i is
    (0 - w_lo[i - 1]) - w_hi[i], an absent weight counting 0; of arrays or
    jets."""
    return (0.0 - join(0.0, w_lo)) - join(w_hi, 0.0)


def cell_geometry(r_inner: float, r_outer: float, n: int, scheme: str = "fvm"):
    """(faces, face areas, cell capacities) of n equal widths over
    [r_inner, r_outer].

    FVM: the 4 pi f^2 faces and CV volumes of `spherical_cells`.  FDM: the
    capacity r_i^2 h of each cell-center node r_i and the area r_{k-1} r_k of
    each face, with one ghost node h/2 outside either end.  On that
    collocated geometry the volume balance is the central-difference stencil
    of D (c_rr + 2/r c_r), because D/h^2 +- D/(r_i h) = D r_{i+-1}/(r_i h^2)
    (Patankar, Numerical Heat Transfer and Fluid Flow, 1980, ch. 4).
    """
    if scheme == "fvm":
        return spherical_cells(r_inner, r_outer, n)
    if scheme != "fdm":
        raise ParameterError(f"unknown scheme {scheme!r}")
    h = (r_outer - r_inner) / n
    r = r_inner + (np.arange(-1, n + 1) + 0.5) * h
    return (r_inner + (r_outer - r_inner) * unit_faces(n), r[..., :-1] * r[..., 1:],
            r[..., 1:-1] * r[..., 1:-1] * h)


def molar_flux_density(params: CellParameters, electrode: str, current: float) -> float:
    """Surface molar influx density [mol/(m^2 s)], positive into the particle."""
    s = FLUX_SIGN[electrode]
    return s * current / (params.F * params.A_cell * params.L(electrode) * params.a_s(electrode))


class SolidBlock(NamedTuple):
    """Diffusion rows of one solid block: the bands of its tridiagonal A, its
    surface-flux entry, the weight of a value held on its inner face, and
    the geometry it was assembled on."""

    lower: np.ndarray       # A[i + 1, i]
    diag: np.ndarray        # A[i, i]
    upper: np.ndarray       # A[i, i + 1]
    surface: float          # B[-1], the applied current's flux into the last cell
    inner: float            # w: a value g held on the inner face adds -w to
                            # A[0, 0] and w g to the first row's constant
    faces: np.ndarray
    caps: np.ndarray        # cell capacities; caps-weighted A is symmetric


def solid_block(params: CellParameters, electrode: str, r_inner: float, N_r: int,
                scheme: str = "fvm") -> SolidBlock:
    """Diffusion rows of N_r equal widths from r_inner to the particle surface.

    Each interior face carries D * area * (c_j - c_i) / dr, divided by the
    capacity of the cell it enters, so capacity-weighted column sums of A
    vanish; the inner face carries no flux in A, and the applied current's
    flux through the surface enters through B only.  A value held on the
    inner face is one-sided over a half cell.
    """
    if electrode not in FLUX_SIGN:
        raise ParameterError(f"unknown electrode {electrode!r}")
    if N_r < 2:
        raise ParameterError("N_r must be >= 2")
    R = params.R_s(electrode)
    D = params.D_s(electrode)
    dr = (R - r_inner) / N_r
    faces, areas, caps = cell_geometry(r_inner, R, N_r, scheme)
    flow = D * areas[..., 1:-1]
    dr_caps = dr * caps
    w_lo = flow / dr_caps[..., 1:]
    w_hi = flow / dr_caps[..., :-1]
    surface = FLUX_SIGN[electrode] * cell_value(areas, N_r) / (
        cell_value(caps, N_r - 1) * params.F * params.A_cell * params.L(electrode)
        * params.a_s(electrode))
    return SolidBlock(w_lo, exchange_diagonal(w_lo, w_hi), w_hi, surface,
                      2.0 * D * cell_value(areas, 0) / (dr * cell_value(caps, 0)), faces, caps)


def build_one_phase_solid_system(params: CellParameters, electrode: str,
                                 N_r: int, scheme: str = "fvm") -> AffineSystem:
    """Fixed-grid diffusion in a spherical particle: zero flux at the center
    and the applied current flux at the surface, entering through B only."""
    blk = solid_block(params, electrode, 0.0, N_r, scheme)
    B = np.zeros(N_r)
    B[N_r - 1] = blk.surface
    return AffineSystem(tridiagonal(blk.lower, blk.diag, blk.upper), B)


def entry_core_phase(direction: str) -> str:
    """Core phase of a particle that enters two-phase in this direction: a
    discharge lithiates alpha from the surface in, a charge delithiates beta."""
    return "alpha" if direction == "dis" else "beta"


def interface_values(params: CellParameters, core_phase: str,
                     direction: str) -> tuple[float, float]:
    """(g, c_core): plateau edges of the shell and core phases.

    g, the interface value of the shell, is c_beta around an alpha core and
    c_alpha around a beta core; the direction only picks the hysteresis
    branch.  The front speed D dc/dr / (c_core - g) thus carries the factor
    +1/(c_alpha - c_beta) for an alpha core and -1/(c_alpha - c_beta) for a
    beta core, whatever the sign of the current.  A (B, 1) column of B
    members' core phases, beside `params.ParameterColumns`, gives (B, 1)
    columns, each entry picked from its member's plateau edges.
    """
    c_a, c_b = params.c_alpha(direction), params.c_beta(direction)
    alpha = core_phase == "alpha"
    if isinstance(core_phase, np.ndarray):
        odd = core_phase[~alpha & (core_phase != "beta")].tolist()
        if not odd:
            return np.where(alpha, c_b, c_a), np.where(alpha, c_a, c_b)
        core_phase = odd[0]
    elif alpha:
        return c_b, c_a
    elif core_phase == "beta":
        return c_a, c_b
    raise PhaseDomainError(f"core phase {core_phase!r} is neither 'alpha' nor 'beta'")


def direction_for_current(current: float, fallback: str = "dis") -> str:
    if current > 0.0:
        return "dis"
    if current < 0.0:
        return "ch"
    return fallback


def shell_block(params: CellParameters, r_p: float, current: float, N_r: int,
                g: float, scheme: str = "fvm") -> tuple[SolidBlock, float]:
    """The shell's solid block on its N_r cells, with the interface held at g
    under current and zero flux at rest, and the first row's constant (w g
    under current, 0 at rest)."""
    inside = (0.0 < r_p) & (r_p < params.R_s_p)
    if not (inside if isinstance(inside, bool) else inside.all()):
        raise PhaseDomainError(f"r_p={r_p!r} outside (0, R_s_p); transition regimes first")
    blk = solid_block(params, "pos", r_p, N_r, scheme)
    if current == 0.0:
        return blk, 0.0
    set_cell(blk.diag, 0, cell_value(blk.diag, 0) - blk.inner)
    return blk, blk.inner * g


def front_rate(params: CellParameters, r_p: float, N_r: int, g: float,
               c_core: float) -> tuple[float, float]:
    """(k, k0) of the Stefan balance dr_p/dt = k c_1 + k0 under current:
    D / (c_core - g) times the one-sided gradient 2 (c_1 - g) / dr."""
    dr = (params.R_s_p - r_p) / N_r
    dc = c_core - g
    return 2.0 * params.D_s_p / (dr * dc), -2.0 * params.D_s_p * g / (dr * dc)


def build_electrolyte_system(params: CellParameters, N_e: int) -> AffineSystem:
    """FVM electrolyte diffusion across anode/separator/cathode.

    Effective diffusivity D_e * eps^brugg per region, series (harmonic mean)
    face conductances at region interfaces, zero flux at both cell ends, and
    a uniform volumetric source +-(1 - t_plus) I / (F A L eps_e) in the two
    electrode regions.
    """
    dx, eps, region = electrolyte_geometry(params, N_e)
    deff = np.array([params.D_e * e**params.brugg
                     for e in (params.eps_e_n, params.eps_e_s, params.eps_e_p)])[region]
    # series resistance of the two half cells meeting at each face
    cond = 1.0 / (0.5 * dx[:-1] / deff[:-1] + 0.5 * dx[1:] / deff[1:])
    cap = eps * dx
    w_lo, w_hi = cond / cap[1:], cond / cap[:-1]
    A = tridiagonal(w_lo, exchange_diagonal(w_lo, w_hi), w_hi)
    src = (1.0 - params.t_plus) / (params.F * params.A_cell)
    B = np.select([region == 0, region == 2],
                  [src / (params.L_n * eps), -src / (params.L_p * eps)])
    return AffineSystem(A, B)


def electrolyte_third(N_e: int) -> int:
    """CVs per region: the N_e electrolyte CVs lie in equal thirds over
    anode, separator and cathode, so N_e must be a positive multiple of 3."""
    if N_e < 3 or N_e % 3:
        raise ParameterError(f"N_e must be a positive multiple of 3, got {N_e}")
    return N_e // 3


def electrolyte_geometry(params: CellParameters, N_e: int):
    """Per-CV width, porosity and region index (0=anode, 1=sep, 2=cathode)."""
    n = electrolyte_third(N_e)
    return (np.repeat([params.L_n / n, params.L_s / n, params.L_p / n], n),
            np.repeat([params.eps_e_n, params.eps_e_s, params.eps_e_p], n),
            np.repeat([0, 1, 2], n))


# --- concentration reconstructions -----------------------------------------

def surface_concentration(c_bar: np.ndarray, current, params: CellParameters,
                          electrode: str):
    """Surface value from the outermost CV average plus the half-cell
    extrapolation along the flux boundary gradient, of one state or of rows
    (c_bar (T, N), current (T,)), on the fixed grid of N CVs of width R / N.
    Not clamped: the output map rejects a value outside (0, c_s_max)."""
    dr = params.R_s(electrode) / c_bar.shape[-1]
    grad = molar_flux_density(params, electrode, current) / params.D_s(electrode)
    return c_bar[..., -1] + 0.5 * dr * grad


def one_phase_bulk(c_bar: np.ndarray, R: float) -> float:
    """Volume-weighted particle average on the fixed grid: a float, or the
    (B, 1) column of B members' rows under a column of radii."""
    v = cell_volumes(R, c_bar.shape[-1])
    bulk = cell_dot(v, c_bar) / cell_sum(v)
    return bulk if c_bar.ndim > 1 else float(bulk)


def solid_moles(c_bar: np.ndarray, R: float, r_p=0.0, core_conc=0.0):
    """Total lithium in a particle state [mol per particle volume basis], or
    in each row of (T, N) states with (T,) r_p and core_conc (r_p = 0 in
    one-phase rows)."""
    if c_bar.ndim == 2:
        v = cell_volumes(R, c_bar.shape[1], r_inner=r_p)
        core = np.where(r_p > 0.0, FOUR_THIRDS_PI * r_p**3 * core_conc, 0.0)
        return (v * c_bar).sum(axis=1) + core
    if r_p > 0.0:
        v = cell_volumes(R, len(c_bar), r_inner=r_p)
        return float(np.dot(v, c_bar)) + FOUR_THIRDS_PI * r_p**3 * core_conc
    v = cell_volumes(R, len(c_bar))
    return float(np.dot(v, c_bar))
