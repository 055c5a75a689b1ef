"""Discretized state-space systems for solid and electrolyte diffusion.

All builders return affine systems dx/dt = A x + B I (+ G).  Finite
volume assemblies balance face fluxes over spherical control volumes, so
volume-weighted row sums vanish except where a physical boundary flux
enters through B or G; that is what makes the scheme conservative.

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

import numpy as np

from .errors import ParameterError, PhaseDomainError
from .params import CellParameters

# with I > 0 on discharge, lithium enters the positive particle and leaves
# the negative particle
FLUX_SIGN = {"pos": +1.0, "neg": -1.0}


@dataclass(frozen=True)
class AffineSystem:
    """Matrices of dx/dt = A x + B I + G (G optional)."""

    A: np.ndarray
    B: np.ndarray
    G: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def rhs(self, x: np.ndarray, current: float) -> np.ndarray:
        out = self.A @ x + self.B * current
        if self.G is not None:
            out = out + self.G
        return out


_UNIT_FACES: dict[int, np.ndarray] = {}


def unit_faces(n: int) -> np.ndarray:
    f = _UNIT_FACES.get(n)
    if f is None:
        f = _UNIT_FACES[n] = np.linspace(0.0, 1.0, n + 1)
    return f


_CELLS: dict[tuple[float, float, int], tuple] = {}


def spherical_cells(r_inner: float, r_outer: float, n: int):
    """Faces, face areas and CV volumes of n equal-width spherical shells.

    The last few geometries are memoized: a moving shell grid is asked for
    by the substep that makes it, by the next substep and by the output
    map.  The returned arrays are shared and read-only.
    """
    key = (r_inner, r_outer, n)
    cells = _CELLS.get(key)
    if cells is None:
        faces = r_inner + (r_outer - r_inner) * unit_faces(n)
        areas = 4.0 * np.pi * faces * faces
        f3 = faces * faces * faces
        volumes = (4.0 / 3.0) * np.pi * (f3[1:] - f3[:-1])
        for a in (faces, areas, volumes):
            a.flags.writeable = False
        if len(_CELLS) >= 16:
            del _CELLS[next(iter(_CELLS))]
        cells = _CELLS[key] = (faces, areas, volumes)
    return cells


def cell_volumes(R: float, n: int, r_inner=0.0) -> np.ndarray:
    """CV volumes of n equal-width shells over [r_inner, R]; (T, n) rows for
    a (T,) array of inner radii."""
    if not isinstance(r_inner, np.ndarray):
        return spherical_cells(r_inner, R, n)[2]
    faces = r_inner[:, None] + (R - r_inner)[:, None] * unit_faces(n)
    f3 = faces * faces * faces
    return (4.0 / 3.0) * np.pi * (f3[:, 1:] - f3[:, :-1])


def tridiagonal(w_lo: np.ndarray, w_hi: np.ndarray) -> np.ndarray:
    """Nearest-neighbour coupling matrix: row i + 1 gains w_lo[i] x_i, row i
    gains w_hi[i] x_{i+1}, and each diagonal entry loses what its row gains,
    so every exchange between neighbours balances."""
    n = len(w_lo) + 1
    diag = np.zeros(n)
    diag[1:] -= w_lo
    diag[:-1] -= w_hi
    A = np.zeros((n, n))
    flat = A.reshape(-1)
    flat[n::n + 1] = w_lo
    flat[1::n + 1] = w_hi
    flat[::n + 1] = diag
    return A


def spherical_fvm_block(D: float, dr: float, areas: np.ndarray,
                        volumes: np.ndarray) -> np.ndarray:
    """Tridiagonal diffusion matrix of equal-width spherical CVs.

    Each interior face carries D * area * (c_j - c_i) / dr, divided by the
    volume of the CV it enters; the two outer faces carry no flux here, so
    volume-weighted column sums vanish.
    """
    return tridiagonal(D * areas[1:-1] / (dr * volumes[1:]),
                       D * areas[1:-1] / (dr * volumes[:-1]))


def molar_flux_density(params: CellParameters, electrode: str, current: float) -> float:
    """Surface molar influx density [mol/(m^2 s)], positive into the particle."""
    s = FLUX_SIGN[electrode]
    return s * current / (params.F * params.A_cell * params.L(electrode) * params.a_s(electrode))


def build_one_phase_solid_system(params: CellParameters, electrode: str,
                                 N_r: int) -> AffineSystem:
    """Fixed-grid FVM diffusion in a spherical particle.

    Zero flux at the center (the r = 0 face has zero area) and the applied
    current flux at the surface, entering through B only.  Interior rows of
    A sum to zero.
    """
    if electrode not in FLUX_SIGN:
        raise ParameterError(f"unknown electrode {electrode!r}")
    if N_r < 2:
        raise ParameterError("N_r must be >= 2")
    R = params.R_s(electrode)
    dr = R / N_r
    _, areas, volumes = spherical_cells(0.0, R, N_r)
    A = spherical_fvm_block(params.D_s(electrode), dr, areas, volumes)
    B = np.zeros(N_r)
    B[N_r - 1] = FLUX_SIGN[electrode] * areas[N_r] / (
        volumes[N_r - 1] * params.F * params.A_cell * params.L(electrode) * params.a_s(electrode))
    return AffineSystem(A, B)


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
    beta core, whatever the sign of the current.
    """
    c_a, c_b = params.c_alpha(direction), params.c_beta(direction)
    if core_phase == "alpha":
        return c_b, c_a
    if core_phase == "beta":
        return c_a, c_b
    raise PhaseDomainError(f"core phase {core_phase!r} is neither 'alpha' nor 'beta'")


def direction_for_current(current: float, fallback: str = "dis") -> str:
    if current > 0.0:
        return "dis"
    if current < 0.0:
        return "ch"
    return fallback


def shell_block(params: CellParameters, r_p: float, current: float, N_r: int,
                g: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shell rows (A, B, G) of the two-phase system on the N_r shell CVs,
    with the interface held at g under current and zero flux at rest."""
    R = params.R_s_p
    if not 0.0 < r_p < R:
        raise PhaseDomainError(f"r_p={r_p!r} outside (0, R_s_p); transition regimes first")
    if N_r < 2:
        raise ParameterError("N_r must be >= 2")
    D = params.D_s_p
    dr = (R - r_p) / N_r
    _, areas, volumes = spherical_cells(r_p, R, N_r)
    A = spherical_fvm_block(D, dr, areas, volumes)
    B = np.zeros(N_r)
    G = np.zeros(N_r)
    if current != 0.0:
        # Dirichlet value g at the inner face, one-sided over a half cell
        w = 2.0 * D * areas[0] / (dr * volumes[0])
        A[0, 0] -= w
        G[0] = w * g
    B[N_r - 1] = areas[N_r] / (
        volumes[N_r - 1] * params.F * params.A_cell * params.L_p * params.a_s("pos"))
    return A, B, G


def build_two_phase_system(params: CellParameters, r_p: float, current: float,
                           N_r: int, direction: str | None = None,
                           core_phase: str | None = None) -> AffineSystem:
    """Shell FVM diffusion plus the moving-boundary ODE, state [c_1..c_N, r_p].

    The interface Dirichlet value g of `interface_values` enters through G;
    at I = 0 the interface carries no flux (no conversion) and the front is
    frozen, so a uniform shell stays uniform and dr_p/dt = 0.  direction
    defaults to the current's, core_phase to the one entered in it.
    """
    if direction is None:
        direction = direction_for_current(current)
    if core_phase is None:
        core_phase = entry_core_phase(direction)
    g, c_core = interface_values(params, core_phase, direction)
    A_c, B_c, G_c = shell_block(params, r_p, current, N_r, g)
    R = params.R_s_p
    D = params.D_s_p
    dr = (R - r_p) / N_r

    n = N_r + 1
    A = np.zeros((n, n))
    A[:N_r, :N_r] = A_c
    B = np.append(B_c, 0.0)
    G = np.append(G_c, 0.0)
    if current != 0.0:
        # front row: dr_p/dt = D / (c_core - g) * 2 (c_1 - g) / dr
        dc = c_core - g
        A[N_r, 0] = 2.0 * D / (dr * dc)
        G[N_r] = -2.0 * D * g / (dr * dc)
    return AffineSystem(A, B, G)


def build_electrolyte_system(params: CellParameters, N_e: int,
                             split: tuple[int, int, int]) -> AffineSystem:
    """FVM electrolyte diffusion across anode/separator/cathode.

    Effective diffusivity D_e * eps^brugg per region, series (harmonic mean)
    face conductances at region interfaces, zero flux at both cell ends, and
    a uniform volumetric source +-(1 - t_plus) I / (F A L eps_e) in the two
    electrode regions.
    """
    if len(split) != 3 or any(n < 1 for n in split) or sum(split) != N_e:
        raise ParameterError("electrolyte split must be three counts >= 1 summing to N_e")

    dx, eps, region = electrolyte_geometry(params, N_e, split)
    deff = np.array([params.D_e * e**params.brugg
                     for e in (params.eps_e_n, params.eps_e_s, params.eps_e_p)])[region]
    # series resistance of the two half cells meeting at each face
    cond = 1.0 / (0.5 * dx[:-1] / deff[:-1] + 0.5 * dx[1:] / deff[1:])
    cap = eps * dx
    A = tridiagonal(cond / cap[1:], cond / cap[:-1])
    src = (1.0 - params.t_plus) / (params.F * params.A_cell)
    B = np.select([region == 0, region == 2],
                  [src / (params.L_n * eps), -src / (params.L_p * eps)])
    return AffineSystem(A, B)


def electrolyte_geometry(params: CellParameters, N_e: int,
                         split: tuple[int, int, int]):
    """Per-CV width, porosity and region index (0=anode, 1=sep, 2=cathode)."""
    widths = [length / n for length, n in zip((params.L_n, params.L_s, params.L_p), split)]
    return (np.repeat(widths, split),
            np.repeat([params.eps_e_n, params.eps_e_s, params.eps_e_p], split),
            np.repeat([0, 1, 2], split))


# --- concentration reconstructions -----------------------------------------

def surface_concentration(c_bar: np.ndarray, current, params: CellParameters,
                          electrode: str, dr: float):
    """Surface value from the outermost CV average plus the half-cell
    extrapolation along the flux boundary gradient, of one state or of rows
    (c_bar (T, N), current (T,)).  Not clamped: the output map rejects a
    value outside (0, c_s_max)."""
    D = params.D_s(electrode)
    grad = molar_flux_density(params, electrode, current) / D
    return c_bar[..., -1] + 0.5 * dr * grad


def one_phase_bulk(c_bar: np.ndarray, R: float) -> float:
    """Volume-weighted particle average on the fixed grid."""
    return float(solid_moles(c_bar, R) / cell_volumes(R, len(c_bar)).sum())


def two_phase_bulk(c_shell: np.ndarray, r_p: float, core_conc: float,
                   R: float) -> float:
    """Particle average: uniform core plus shell CV averages."""
    return solid_moles(c_shell, R, r_p, core_conc) / ((4.0 / 3.0) * np.pi * R**3)


def solid_moles(c_bar: np.ndarray, R: float, r_p=0.0, core_conc=0.0):
    """Total lithium in a particle state [mol per particle volume basis], or
    in each row of (T, N) states with (T,) r_p and core_conc (r_p = 0 in
    one-phase rows)."""
    if c_bar.ndim == 2:
        v = cell_volumes(R, c_bar.shape[1], r_inner=r_p)
        core = np.where(r_p > 0.0, (4.0 / 3.0) * np.pi * r_p**3 * core_conc, 0.0)
        return (v * c_bar).sum(axis=1) + core
    if r_p > 0.0:
        v = cell_volumes(R, len(c_bar), r_inner=r_p)
        return float(np.dot(v, c_bar)) + (4.0 / 3.0) * np.pi * r_p**3 * core_conc
    v = cell_volumes(R, len(c_bar))
    return float(np.dot(v, c_bar))


# --- finite difference reference scheme -------------------------------------

def _fdm_laplacian(D: float, h: float, r: np.ndarray):
    """Central differences of D (c_rr + 2/r c_r) on nodes r spaced h, with
    (lap_lo, lap_hi), the weights of the ghost nodes below and above each
    node; the boundary rows' ghost weights are left to the caller."""
    lap_lo = D / h**2 - D / (r * h)
    lap_hi = D / h**2 + D / (r * h)
    A = (np.diag(np.full(len(r), -2.0 * D / h**2))
         + np.diag(lap_lo[1:], -1) + np.diag(lap_hi[:-1], 1))
    return A, lap_lo, lap_hi


def fdm_nodes(r_inner: float, r_outer: float, n: int) -> tuple[float, np.ndarray]:
    """Spacing and positions of n FDM nodes at the cell centers of n equal
    widths over [r_inner, r_outer]."""
    h = (r_outer - r_inner) / n
    return h, r_inner + (np.arange(n) + 0.5) * h


def build_fdm_one_phase(params: CellParameters, electrode: str,
                        N_r: int) -> AffineSystem:
    """Central-difference FDM of c_t = D (c_rr + 2/r c_r) on N_r nodes.

    Nodes sit at the same cell-center positions as the FVM averages, so
    state vectors are interchangeable between the schemes.  Ghost nodes
    carry the symmetry condition at the center and the applied current
    flux at the surface.  Node values are collocated, so the scheme does
    not telescope and mass is not conserved exactly.
    """
    if N_r < 2:
        raise ParameterError("N_r must be >= 2")
    D = params.D_s(electrode)
    h, r = fdm_nodes(0.0, params.R_s(electrode), N_r)
    A, lap_lo, lap_hi = _fdm_laplacian(D, h, r)
    # symmetry ghost below the center, c_{-1} = c_0; flux ghost at the
    # surface, c_N = c_{N-1} + h dc/dr|_R
    A[0, 0] += lap_lo[0]
    A[-1, -1] += lap_hi[-1]
    B = np.zeros(N_r)
    B[-1] = lap_hi[-1] * h * (FLUX_SIGN[electrode] / (
        D * params.F * params.A_cell * params.L(electrode) * params.a_s(electrode)))
    return AffineSystem(A, B)


def build_fdm_two_phase(params: CellParameters, r_p: float, current: float,
                        N_r: int, direction: str | None = None,
                        core_phase: str | None = None) -> AffineSystem:
    """FDM counterpart of the two-phase system on shell cell-center nodes.

    The ghost node below the interface realizes the Dirichlet value g of
    `interface_values` (zero flux at rest), the surface ghost carries the
    applied current, and the front row uses the same one-sided half-cell
    gradient as the FVM.  Defaults as in `build_two_phase_system`.
    """
    R = params.R_s_p
    if not 0.0 < r_p < R:
        raise PhaseDomainError(f"r_p={r_p!r} outside (0, R_s_p)")
    if direction is None:
        direction = direction_for_current(current)
    if core_phase is None:
        core_phase = entry_core_phase(direction)
    D = params.D_s_p
    h, r = fdm_nodes(r_p, R, N_r)
    g, c_core = interface_values(params, core_phase, direction)

    A_c, lap_lo, lap_hi = _fdm_laplacian(D, h, r)
    n = N_r + 1
    A = np.zeros((n, n))
    A[:N_r, :N_r] = A_c
    B = np.zeros(n)
    G = np.zeros(n)
    A[N_r - 1, N_r - 1] += lap_hi[-1]
    B[N_r - 1] = lap_hi[-1] * h * (1.0 / (
        D * params.F * params.A_cell * params.L_p * params.a_s("pos")))
    if current == 0.0:
        A[0, 0] += lap_lo[0]   # rest: zero-flux interface, frozen front
        return AffineSystem(A, B, G)
    # Dirichlet ghost c_{-1} = 2 g - c_0, and the front row
    A[0, 0] -= lap_lo[0]
    G[0] = 2.0 * lap_lo[0] * g
    dc = c_core - g
    A[N_r, 0] = 2.0 * D / (h * dc)
    G[N_r] = -2.0 * D * g / (h * dc)
    return AffineSystem(A, B, G)


# builders by discretization scheme
SOLID_BUILDERS = {"fvm": build_one_phase_solid_system, "fdm": build_fdm_one_phase}
SHELL_BUILDERS = {"fvm": build_two_phase_system, "fdm": build_fdm_two_phase}
