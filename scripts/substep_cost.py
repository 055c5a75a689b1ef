#!/usr/bin/env python3
"""Print the cost of one FVM two-phase substep, per kernel and size.

    python3 scripts/substep_cost.py                      # the whole table
    python3 scripts/substep_cost.py --nr 4 --batch 8     # chosen sizes

The float kernel (`simulate._member_substep`, one member on Python floats)
is timed at each N_r of --nr, the rows kernel (`simulate._rows_substep`,
the lockstep batch's kernel) on B members at N_r = 4 for each B of --batch.
The states are drawn from a fixed seed: fronts inside the particle, shells
at the interface value to within 1e-9 relative, and a C/4 current, half of
them charging and half discharging, for 1 s steps as in `cycle_c4`; the
batch's members each have their own D_s_p and k_p (x 10^U(-1, 1)), and
their core phases come as a column, as in the lockstep batch.  Each
line is the best of --repeat passes over the states, in microseconds per
substep (float) or per batched substep (rows).  The script imports csespm
from src/ of the checkout it sits in and runs one BLAS thread unless
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
from csespm.params import CellParameters, ParameterColumns  # noqa: E402
from csespm.states import FullState, TWO_PHASE  # noqa: E402

# the module; the package attribute csespm.simulate is the function
simulate = importlib.import_module("csespm.simulate")

PARAMS = CellParameters()
STATES = 16         # drawn states per size
BATCH_N_R = 4


def _current(rng):
    """A C/4 charge or discharge current."""
    return rng.choice([-1.0, 1.0]) * PARAMS.current_for_c_rate(0.25)


def _draw(rng, params, N_r, current):
    """One member's state under the current, its core phase the one entered
    in the current's direction."""
    direction = systems.direction_for_current(current)
    core_phase = systems.entry_core_phase(direction)
    g, c_core = systems.interface_values(params, core_phase, direction)
    shell = g * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, N_r))
    r_p = rng.uniform(0.1, 0.9) * params.R_s_p
    return FullState(None, shell, None, TWO_PHASE, r_p, c_core, core_phase, direction)


def _best(run, repeat: int) -> float:
    """Best wall time of ``repeat`` calls of run, in seconds."""
    best = float("inf")
    for _ in range(repeat):
        a = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - a)
    return best


def float_cost(N_r: int, repeat: int) -> float:
    """Microseconds per substep of the float kernel at N_r."""
    rng = np.random.default_rng(N_r)
    currents = [_current(rng) for _ in range(STATES)]
    cases = [(_draw(rng, PARAMS, N_r, current), current) for current in currents]

    def run():
        for state, current in cases:
            simulate._member_substep(state, current, 1.0, PARAMS, N_r)
    return 1e6 * _best(run, repeat) / STATES


def rows_cost(B: int, repeat: int) -> float:
    """Microseconds per batched substep of the rows kernel on B members at
    N_r = 4, each of the drawn batches stepping at one current."""
    rng = np.random.default_rng(1000 + B)
    batches = []
    for _ in range(STATES):
        members = [PARAMS.replace(D_s_p=PARAMS.D_s_p * 10.0**rng.uniform(-1.0, 1.0),
                                  k_p=PARAMS.k_p * 10.0**rng.uniform(-1.0, 1.0))
                   for _ in range(B)]
        current = _current(rng)
        drawn = [_draw(rng, p, BATCH_N_R, current) for p in members]
        rows = FullState(None, np.array([s.pos for s in drawn]), None, TWO_PHASE,
                         np.array([[s.r_p] for s in drawn]),
                         np.array([[s.core_conc] for s in drawn]),
                         np.array([[s.core_phase] for s in drawn]), drawn[0].direction)
        batches.append((rows, current, ParameterColumns(members)))

    def run():
        for rows, current, columns in batches:
            simulate._rows_substep(rows, current, 1.0, columns, BATCH_N_R)
    return 1e6 * _best(run, repeat) / STATES


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nr", type=int, nargs="*", default=[2, 3, 4, 8, 16, 200],
                        help="N_r of the float kernel")
    parser.add_argument("--batch", type=int, nargs="*", default=[1, 8, 24],
                        help="members B of the rows kernel, at N_r = 4")
    parser.add_argument("--repeat", type=int, default=7, help="passes; the best counts")
    args = parser.parse_args(argv)
    for N_r in args.nr:
        print(f"float N_r={N_r:<4d} {float_cost(N_r, args.repeat):10.1f} us per substep",
              flush=True)
    for B in args.batch:
        print(f"rows  B={B:<6d} {rows_cost(B, args.repeat):10.1f} us per substep "
              f"(N_r={BATCH_N_R})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
