"""State containers for the coupled cell model."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ONE_PHASE_ALPHA = "one_phase_alpha"
ONE_PHASE_BETA = "one_phase_beta"
TWO_PHASE = "two_phase"


@dataclass
class FullState:
    """Composite cell state.

    ``pos`` holds CV averages over the whole positive particle in one-phase
    and over the shell only in two-phase.  ``r_p`` is the core-shell
    interface radius (0 in one-phase).  ``core_conc`` is the uniform core
    concentration, fixed at two-phase entry.  ``direction`` is the sign of
    the last nonzero current ('dis' for I > 0) and selects the hysteresis
    branch of OCP curves and stoichiometric windows.  The output map also
    takes T states as rows: (T, N) concentrations and (T,) arrays of the
    rest (core_phase unused).  The simulation's time loop steps states of
    the positive particle only, with ``neg`` and ``elec`` None.
    """

    neg: np.ndarray
    pos: np.ndarray
    elec: np.ndarray
    regime: str = ONE_PHASE_ALPHA
    r_p: float = 0.0
    core_conc: float = float("nan")
    core_phase: str | None = None   # 'alpha' or 'beta' while two-phase
    direction: str = "dis"

    def copy(self) -> "FullState":
        return FullState(*(None if a is None else a.copy()
                           for a in (self.neg, self.pos, self.elec)),
                         self.regime, self.r_p, self.core_conc, self.core_phase,
                         self.direction)

    @property
    def two_phase(self) -> bool:
        return self.regime == TWO_PHASE


@dataclass
class TransitionEvent:
    """Logged regime change with its mass audit."""

    time: float
    kind: str                      # 'enter_two_phase' | 'exit_two_phase' | 'sign_flip'
    pre_mass: float                # positive-electrode lithium before [mol]
    post_mass: float               # and after [mol]
    r_p_pre: float
    r_p_post: float
    detail: dict = field(default_factory=dict)

    @property
    def mass_error_rel(self) -> float:
        scale = max(abs(self.pre_mass), 1e-300)
        return abs(self.post_mass - self.pre_mass) / scale
