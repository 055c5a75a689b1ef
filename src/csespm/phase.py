"""Transitions between one-phase and two-phase positive electrode regimes.

Lithium mass is preserved across every transition: two-phase states are
seeded with the core fixed at the crossing plateau concentration, one-phase
states are rebuilt by conservative overlap-volume remapping, and any
residual is deposited into the shell CVs proportionally to volume.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, TransitionError
from .params import CellParameters
from .states import (FullState, TransitionEvent, ONE_PHASE_ALPHA,
                     ONE_PHASE_BETA, TWO_PHASE)
from . import systems
from .systems import FOUR_THIRDS_PI


def annulus_remap(old_edges: np.ndarray, old_values: np.ndarray,
                  new_edges: np.ndarray) -> np.ndarray:
    """Remap a piecewise-constant spherical profile onto a new grid.

    ``old_values[i]`` holds on [old_edges[i], old_edges[i+1]].  New cells
    outside the old domain pick up zero.  Returns new CV averages; total
    content over the intersection is preserved exactly up to rounding.
    """
    w_old = FOUR_THIRDS_PI * old_edges**3
    # cumulative lithium at the old edges
    cum = np.empty(old_edges.shape)
    cum[0] = 0.0
    (old_values * (w_old[1:] - w_old[:-1])).cumsum(out=cum[1:])

    # cumulative lithium at the new edges, clipped to the old domain
    r = np.minimum(np.maximum(new_edges, old_edges[0]), old_edges[-1])
    # old cell of each: the count of interior old edges at or below it
    idx = old_edges[1:-1].searchsorted(r, side="right")
    w = FOUR_THIRDS_PI * r**3
    cum_new = cum[idx] + old_values[idx] * (w - w_old[idx])
    v_new = new_edges**3
    return (cum_new[1:] - cum_new[:-1]) / (FOUR_THIRDS_PI * (v_new[1:] - v_new[:-1]))


@dataclass(frozen=True)
class PhaseConfig:
    """Seeding and exit thresholds of the moving boundary."""

    delta_init: float = 1e-3    # initial shell thickness, relative to R_s_p
    r_eps_rel: float = 1e-3     # core-consumed exit threshold, relative
    # shell-consumed exit threshold; must sit well below delta_init because
    # right after entry the front legitimately sweeps back out through half
    # the seeded shell while the shell equilibrates to the interface value
    shell_eps_rel: float = 1e-4
    mass_tol: float = 1e-10     # relative mass-audit tolerance per event

    def __post_init__(self):
        if not self.mass_tol > 0.0:
            raise ParameterError("phase mass_tol must be positive")
        if not 0.0 < self.delta_init < 1.0:
            raise ParameterError("phase delta_init must lie in (0, 1)")
        if not 0.0 < self.r_eps_rel < 1.0:
            raise ParameterError("phase r_eps_rel must lie in (0, 1)")
        if not 0.0 < self.shell_eps_rel < self.delta_init:
            raise ParameterError("phase shell_eps_rel must lie in (0, delta_init)")


def entry_bulk_threshold(params: CellParameters, direction: str,
                         cfg: PhaseConfig) -> float:
    """Bulk concentration at which the two-phase regime is seeded.

    The seed places the core at the crossing plateau edge and the nucleated
    shell at the interface value g; mass then fixes the front radius by
    the lever rule.  Entry triggers at the bulk value whose lever-rule
    front sits exactly at the configured initial shell thickness, so the
    transition is mass-exact and free of seed transients.
    """
    f_core = (1.0 - cfg.delta_init) ** 3
    c_a, c_b = params.c_alpha(direction), params.c_beta(direction)
    if direction == "dis":
        return f_core * c_a + (1.0 - f_core) * c_b
    return f_core * c_b + (1.0 - f_core) * c_a


def transition_margin(kind: str, state: FullState, current: float,
                      params: CellParameters, cfg: PhaseConfig) -> float:
    """Signed distance past the threshold of one transition kind.

    Margins are continuous along a trajectory, so a sign change between two
    states brackets the crossing time for bisection.  The (T, N) one-phase
    rows of one run give its T entry margins.
    """
    R = params.R_s_p
    if kind == "exit_two_phase_core":
        return cfg.r_eps_rel * R - state.r_p
    if kind == "exit_two_phase_shell":
        return state.r_p - (1.0 - cfg.shell_eps_rel) * R
    bulk = systems.one_phase_bulk(state.pos, R)
    if current > 0.0:
        return bulk - entry_bulk_threshold(params, "dis", cfg)
    return entry_bulk_threshold(params, "ch", cfg) - bulk


def transition_kinds(regime: str, current: float) -> tuple[str, ...]:
    """The transitions a state of this regime can make under this current,
    in the order they are checked: a two-phase particle exits when its core
    or its shell is consumed; a one-phase particle enters two-phase only
    when the current drives it into the plateau."""
    if regime == TWO_PHASE:
        return ("exit_two_phase_core", "exit_two_phase_shell")
    if (regime == ONE_PHASE_ALPHA and current > 0.0) or (regime == ONE_PHASE_BETA
                                                          and current < 0.0):
        return ("enter_two_phase",)
    return ()


def detect_transition(state: FullState, current: float,
                      params: CellParameters, cfg: PhaseConfig) -> str | None:
    """Kind of the regime change that is due at this state, else None."""
    for kind in transition_kinds(state.regime, current):
        if transition_margin(kind, state, current, params, cfg) >= 0.0:
            return kind
    return None


def enter_two_phase(state: FullState, current: float, params: CellParameters,
                    cfg: PhaseConfig, time: float) -> tuple[FullState, TransitionEvent]:
    """Seed the two-phase regime from a one-phase state.

    The core is fixed at the crossing plateau edge and the shell CVs start
    uniform at the nucleating phase value g; the front radius follows
    from the lever rule so total particle lithium is preserved exactly.
    Any remainder (zero at a bisected crossing, small on hysteretic
    re-entry deep inside the plateau) is deposited into the shell CVs
    proportionally to volume.
    """
    R = params.R_s_p
    N_r = len(state.pos)
    direction = systems.direction_for_current(current, state.direction)
    core_phase = systems.entry_core_phase(direction)
    shell_conc, core_conc = systems.interface_values(params, core_phase, direction)

    pre_mass = systems.solid_moles(state.pos, R)
    bulk = systems.one_phase_bulk(state.pos, R)

    f_core = (shell_conc - bulk) / (shell_conc - core_conc)
    f_min = max(cfg.r_eps_rel, 1e-6) ** 3
    f_core = min(max(f_core, f_min), (1.0 - cfg.delta_init) ** 3)
    r_p = R * f_core ** (1.0 / 3.0)
    shell_vols = systems.cell_volumes(R, N_r, r_inner=r_p)
    shell = np.full(N_r, shell_conc)
    v_core = FOUR_THIRDS_PI * r_p**3
    residual = pre_mass - core_conc * v_core - shell_conc * shell_vols.sum()
    shell += residual / shell_vols.sum()

    new = state.copy()
    new.pos = shell
    new.r_p = r_p
    new.core_conc = core_conc
    new.core_phase = core_phase
    new.regime = TWO_PHASE
    new.direction = direction

    post_mass = systems.solid_moles(shell, R, r_p=r_p, core_conc=core_conc)
    event = TransitionEvent(time=time, kind="enter_two_phase",
                            pre_mass=pre_mass, post_mass=post_mass,
                            r_p_pre=R, r_p_post=r_p,
                            detail={"core_phase": core_phase, "core_conc": core_conc})
    _audit(event, cfg)
    if shell.min() < 0.0:
        raise TransitionError(
            f"two-phase entry produced a negative shell concentration "
            f"({shell.min():.4g}); bulk {bulk:.6g} too far from the plateau edge")
    return new, event


def exit_two_phase(state: FullState, params: CellParameters, cfg: PhaseConfig,
                   time: float, vanished: str = "core") -> tuple[FullState, TransitionEvent]:
    """Collapse a two-phase state back to one-phase.

    ``vanished`` names the region that was consumed: 'core' (the usual path,
    r_p reached its lower threshold) or 'shell' (front swept back to the
    surface after a sign flip).  CV averages on the fixed grid come from
    conservative remapping of core plus shell.
    """
    R = params.R_s_p
    N_r = len(state.pos)
    pre_mass = systems.solid_moles(state.pos, R, r_p=state.r_p,
                                   core_conc=state.core_conc)

    shell_edges = np.linspace(state.r_p, R, N_r + 1)
    old_edges = np.concatenate([[0.0], shell_edges])
    old_values = np.concatenate([[state.core_conc], state.pos])
    new_edges = np.linspace(0.0, R, N_r + 1)
    c_bar = annulus_remap(old_edges, old_values, new_edges)

    # close rounding residue so the remap is exact
    vols = systems.cell_volumes(R, N_r)
    c_bar += (pre_mass - float(vols @ c_bar)) / vols.sum()

    if vanished == "core":
        regime = ONE_PHASE_BETA if state.core_phase == "alpha" else ONE_PHASE_ALPHA
    else:
        regime = ONE_PHASE_ALPHA if state.core_phase == "alpha" else ONE_PHASE_BETA

    new = state.copy()
    new.pos = c_bar
    new.r_p = 0.0
    new.core_conc = float("nan")
    new.core_phase = None
    new.regime = regime

    post_mass = systems.solid_moles(c_bar, R)
    event = TransitionEvent(time=time, kind="exit_two_phase",
                            pre_mass=pre_mass, post_mass=post_mass,
                            r_p_pre=state.r_p, r_p_post=0.0,
                            detail={"vanished": vanished, "regime": regime})
    _audit(event, cfg)
    return new, event


def apply_sign_flip(state: FullState, new_current: float, time: float) -> tuple[FullState, TransitionEvent]:
    """Current sign change inside two-phase: the state is continuous and the
    core phase is retained, so the interface value g and the front's sign,
    both set by the core phase, stay; only the hysteresis branch follows the
    new direction and the same front moves back."""
    pre_mass = post_mass = float("nan")
    new = state.copy()
    new.direction = systems.direction_for_current(new_current, state.direction)
    event = TransitionEvent(time=time, kind="sign_flip",
                            pre_mass=pre_mass, post_mass=post_mass,
                            r_p_pre=state.r_p, r_p_post=state.r_p,
                            detail={"direction": new.direction})
    return new, event


def _audit(event: TransitionEvent, cfg: PhaseConfig):
    if event.mass_error_rel > cfg.mass_tol:
        raise TransitionError(
            f"{event.kind} at t={event.time:.3f}s lost mass: "
            f"relative error {event.mass_error_rel:.3e} > {cfg.mass_tol:.1e}")
