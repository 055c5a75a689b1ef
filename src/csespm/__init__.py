"""Core-shell single particle model of LFP cells.

Conservative finite-volume discretization with a moving phase boundary,
cell voltage and SOC output with OCP hysteresis, nonlinear observability
analysis, and voltage-based parameter identification.
"""

from .params import CellParameters, DiscretizationConfig, params_for_rate
from .systems import (AffineSystem, build_electrolyte_system,
                      build_one_phase_solid_system, interface_values)
from .ocp import OcpSet, OcpTable, synthetic_ocp_set
from .output import OutputSnapshot, cell_voltage
from .states import FullState, TransitionEvent
from .phase import PhaseConfig
from .simulate import (LoadProfile, SimulationResult, SolverConfig,
                       cc_profile, cycle_profile, initial_state, mass_audit,
                       simulate, synthetic_dynamic_profile)

__version__ = "0.1.0"

__all__ = [
    "AffineSystem", "CellParameters", "DiscretizationConfig", "FullState",
    "LoadProfile", "OcpSet", "OcpTable", "OutputSnapshot", "PhaseConfig",
    "SimulationResult", "SolverConfig", "TransitionEvent",
    "build_electrolyte_system", "build_one_phase_solid_system",
    "cc_profile", "cell_voltage", "cycle_profile",
    "initial_state", "interface_values", "mass_audit",
    "params_for_rate", "simulate", "synthetic_dynamic_profile",
    "synthetic_ocp_set",
]
