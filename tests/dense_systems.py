"""Dense references the tests compare the package against: the two-phase
system [A | B | G], assembled from the shell primitives the model and the
simulation use (`systems.shell_block`, `systems.front_rate`), the
right-hand side of a dense affine system, and the two-phase particle
average."""
from dataclasses import dataclass

import numpy as np

from csespm import systems
from csespm.systems import FOUR_THIRDS_PI


@dataclass(frozen=True)
class DenseSystem:
    """Matrices of dx/dt = A x + B I + G."""

    A: np.ndarray
    B: np.ndarray
    G: np.ndarray


def rhs(sysm, x: np.ndarray, current) -> np.ndarray:
    """dx/dt of a dense system (a DenseSystem, or a `systems.AffineSystem`
    without G) at one state under a float current, or at (m, n) rows under
    an (m,) current column, each row by the matrix-vector product of its
    own A (a stack, or one A shared by all rows) as for one state."""
    if x.ndim == 1:
        out = sysm.A @ x + sysm.B * current
    else:
        out = (sysm.A @ x[..., None])[..., 0] + sysm.B * current[:, None]
    G = getattr(sysm, "G", None)
    return out if G is None else out + G


def two_phase_system(params, r_p, current, N_r, direction=None, core_phase=None,
                     scheme="fvm") -> DenseSystem:
    """Shell diffusion plus the moving-boundary ODE, state [c_1..c_N, r_p].

    The interface Dirichlet value g of `interface_values` enters through G;
    at I = 0 the interface carries no flux (no conversion) and the front is
    frozen.  direction defaults to the current's, core_phase to the one
    entered in it.  (m, 1) columns of r_p and of currents give each row's
    system: (m, n, n) A and (m, n) B and G, which `rhs` takes with (m, n)
    rows.
    """
    if direction is None:
        direction = systems.direction_for_current(current)
    if core_phase is None:
        core_phase = systems.entry_core_phase(direction)
    g, c_core = systems.interface_values(params, core_phase, direction)
    # each row's interface held under current, free at rest
    on = current != 0.0
    blk, g_row = systems.shell_block(params, r_p, 1.0, N_r, g, scheme)
    free, _ = systems.shell_block(params, r_p, 0.0, N_r, g, scheme)
    shell = systems.tridiagonal(blk.lower, np.where(on, blk.diag, free.diag), blk.upper)
    A = np.zeros(shell.shape[:-2] + (N_r + 1, N_r + 1))
    A[..., :N_r, :N_r] = shell
    B = np.zeros(A.shape[:-1])
    systems.set_cell(B, N_r - 1, blk.surface)
    G = np.zeros(A.shape[:-1])
    systems.set_cell(G, 0, np.where(on, g_row, 0.0))
    k, k0 = systems.front_rate(params, r_p, N_r, g, c_core)
    systems.set_cell(A[..., N_r, :], 0, np.where(on, k, 0.0))
    systems.set_cell(G, N_r, np.where(on, k0, 0.0))
    return DenseSystem(A, B, G)


def two_phase_bulk(c_shell: np.ndarray, r_p, core_conc: float, R: float):
    """Particle average: uniform core plus shell CV averages; of one state, or
    the (m,) averages of (m, N) shell rows with (m,) radii, each by the
    arithmetic of one state (a BLAS dot per row, Python's r_p**3, which
    numpy's vectorized power can miss by an ulp; a row with r_p <= 0 has
    no core)."""
    if c_shell.ndim == 1:
        return systems.solid_moles(c_shell, R, r_p, core_conc) / (FOUR_THIRDS_PI * R**3)
    core = [FOUR_THIRDS_PI * r**3 * core_conc if r > 0.0 else 0.0 for r in r_p.tolist()]
    v = systems.cell_volumes(R, c_shell.shape[1], r_inner=np.where(r_p > 0.0, r_p, 0.0))
    return (np.vecdot(v, c_shell) + core) / (FOUR_THIRDS_PI * R**3)
