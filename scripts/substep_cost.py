#!/usr/bin/env python3
"""Print the cost of one FVM two-phase substep, per size, and of one
serial two-phase step.

    python3 scripts/substep_cost.py                      # the whole table
    python3 scripts/substep_cost.py --nr 4               # chosen sizes

The FVM substep (`simulate._fvm_two_phase_substep`, one member on Python
floats) is timed at each N_r of --nr.  The states are drawn from a fixed
seed: fronts inside the particle, shells at the interface value to within
1e-9 relative, and a C/4 current, half of them charging and half
discharging, for 1 s steps as in `cycle_c4`.  Each line is the best of
--repeat passes over the states, in microseconds per substep.  The last
line times `simulate` at N_r = 4 from the two-phase state at SOC 0.5 under
a C/4 discharge of SERIAL_STEPS 1 s steps, which stays inside the plateau,
and divides by the steps: the substep plus the time loop's cost per step,
set-up and output map included.  The script imports csespm from
src/ of the checkout it sits in and runs one BLAS thread unless
OPENBLAS_NUM_THREADS says otherwise.
"""
import argparse
import importlib
import os
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from csespm import systems  # noqa: E402
from csespm.params import CellParameters, DiscretizationConfig  # noqa: E402
from csespm.states import FullState, TWO_PHASE  # noqa: E402

# the module; the package attribute csespm.simulate is the function
simulate = importlib.import_module("csespm.simulate")

PARAMS = CellParameters()
STATES = 16         # drawn states per size
SERIAL_N_R = 4
SERIAL_STEPS = 1800


def _current(rng):
    """A C/4 charge or discharge current."""
    return rng.choice([-1.0, 1.0]) * PARAMS.current_for_c_rate(0.25)


def _draw(rng, N_r, current):
    """A state under the current, its core phase the one entered in the
    current's direction, and its interface value g."""
    direction = systems.direction_for_current(current)
    core_phase = systems.entry_core_phase(direction)
    g, c_core = systems.interface_values(PARAMS, core_phase, direction)
    shell = g * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, N_r))
    r_p = rng.uniform(0.1, 0.9) * PARAMS.R_s_p
    return FullState(None, shell, None, TWO_PHASE, r_p, c_core, core_phase, direction), g


def _best(run, repeat: int) -> float:
    """Best wall time of ``repeat`` calls of run, in seconds."""
    best = float("inf")
    for _ in range(repeat):
        a = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - a)
    return best


def float_cost(N_r: int, repeat: int) -> float:
    """Microseconds per FVM substep at N_r."""
    rng = np.random.default_rng(N_r)
    currents = [_current(rng) for _ in range(STATES)]
    cases = [(*_draw(rng, N_r, current), current) for current in currents]

    def run():
        for state, g, current in cases:
            simulate._fvm_two_phase_substep(state, current, 1.0, PARAMS, N_r, g,
                                            state.core_conc)
    return 1e6 * _best(run, repeat) / STATES


def serial_cost(repeat: int) -> float:
    """Microseconds per step of a serial run at N_r = 4 whose every step is
    two-phase: `simulate` of SERIAL_STEPS 1 s steps of C/4 discharge from
    SOC 0.5, after one untimed run that checks that no row leaves
    two-phase."""
    disc = DiscretizationConfig(N_r=SERIAL_N_R, N_e=6)
    profile = simulate.cc_profile(PARAMS, 0.25, "dis", duration=float(SERIAL_STEPS))
    init = simulate.initial_state(PARAMS, disc, 0.5, "dis")
    solver = simulate.SolverConfig(dt=1.0, cutoffs_enabled=False)

    def run():
        return simulate.simulate(profile, init, PARAMS, disc, solver)
    if set(run().regime) != {TWO_PHASE}:
        raise RuntimeError("the serial run leaves two-phase")
    return 1e6 * _best(run, repeat) / SERIAL_STEPS


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nr", type=int, nargs="*", default=[2, 3, 4, 8, 16, 200],
                        help="N_r of the FVM substep")
    parser.add_argument("--repeat", type=int, default=7, help="passes; the best counts")
    args = parser.parse_args(argv)
    for N_r in args.nr:
        print(f"float N_r={N_r:<4d} {float_cost(N_r, args.repeat):10.1f} us per substep",
              flush=True)
    print(f"serial N_r={SERIAL_N_R:<3d} {serial_cost(args.repeat):10.1f} us per step "
          f"(simulate, C/4 in two-phase)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
