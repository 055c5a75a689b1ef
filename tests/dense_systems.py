"""The dense two-phase system [A | B | G], assembled from the shell
primitives the model and the simulation use (`systems.shell_block`,
`systems.front_rate`): the tests' reference for the shell rows, the front
row and their FDM form."""
import numpy as np

from csespm import systems


def two_phase_system(params, r_p, current, N_r, direction=None, core_phase=None,
                     scheme="fvm") -> systems.AffineSystem:
    """Shell diffusion plus the moving-boundary ODE, state [c_1..c_N, r_p].

    The interface Dirichlet value g of `interface_values` enters through G;
    at I = 0 the interface carries no flux (no conversion) and the front is
    frozen.  direction defaults to the current's, core_phase to the one
    entered in it.  (m, 1) columns of r_p and of currents give each row's
    system: (m, n, n) A and (m, n) B and G, whose `rhs` takes (m, n) rows.
    """
    if direction is None:
        direction = systems.direction_for_current(current)
    if core_phase is None:
        core_phase = systems.entry_core_phase(direction)
    g, c_core = systems.interface_values(params, core_phase, direction)
    blk, g_row = systems.shell_block(params, r_p, current, N_r, g, scheme)
    n = N_r + 1
    A = systems.tridiagonal(blk.lower, blk.diag, blk.upper, size=n)
    B = np.zeros(A.shape[:-1])
    systems.set_cell(B, N_r - 1, blk.surface)
    G = np.zeros(A.shape[:-1])
    systems.set_cell(G, 0, g_row)
    k, k0 = systems.front_rate(params, r_p, N_r, g, c_core)
    on = current != 0.0
    systems.set_cell(A[..., N_r, :], 0, np.where(on, k, 0.0))
    systems.set_cell(G, N_r, np.where(on, k0, 0.0))
    return systems.AffineSystem(A, B, G)
