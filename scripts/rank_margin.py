#!/usr/bin/env python3
"""Print how far each two-phase point of criterion 6 sits from a rank flip.

Criterion 6 (tests/test_acceptance.py) simulates a 1C charge from SOC 0 at
N_r = 3 with the synthetic OCP and cutoffs off, sweeps it at a 30 s stride,
and asks that the rank-deficient two-phase points form one block from the
two-phase entry.  `observability.rank_and_condition` counts the singular
values of each point's scaled observability matrix above the threshold
rank_tol * sigma_max * max(shape).  A change that moves only the last bits
of the trajectory can carry a point across that threshold; the margin
log10(sigma_min / threshold) says how far each point is from it:

    python3 scripts/rank_margin.py

Each line is `<time s> <rank> <margin>`: a point of full rank (4) has a
positive margin, a deficient one a margin of at most 0.  The last two
lines name the points closest to the threshold among those whose flip
would break the window, one inside it and one after it; the last
deficient and the first full-rank point may flip without breaking it,
since the window then only moves its edge.  The script imports csespm
from src/ of the checkout it sits in.
"""
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from csespm.observability import (ObservabilityConfig, observability_matrix,  # noqa: E402
                                  positive_model, scale_columns, sweep)
from csespm.ocp import synthetic_ocp_set  # noqa: E402
from csespm.output import electrode_c_e_avg  # noqa: E402
from csespm.params import CellParameters, DiscretizationConfig  # noqa: E402
from csespm.simulate import SolverConfig, cc_profile, initial_state, simulate  # noqa: E402
from csespm.states import TWO_PHASE  # noqa: E402


def criterion6_run():
    """(result, params, ocp) of criterion 6's 1C charge."""
    params = CellParameters()
    ocp = synthetic_ocp_set(params)
    disc = DiscretizationConfig(N_r=3, N_e=6)
    res = simulate(cc_profile(params, 1.0, "ch"), initial_state(params, disc, 0.0, "ch"),
                   params, disc, SolverConfig(cutoffs_enabled=False), ocp=ocp)
    return res, params, ocp


def margins(res, params, ocp):
    """(time, rank, log10(sigma_min / threshold)) of each two-phase point of
    the result's 30 s sweep, from the matrix the sweep ranks."""
    config = ObservabilityConfig(stride_s=30.0)
    out = []
    for p in sweep(res, params, config, ocp=ocp).points:
        if p.regime != TWO_PHASE:
            continue
        i = int(np.searchsorted(res.time, p.time))     # the row the sweep took
        state = res.state_at(i)
        c_e_avg = electrode_c_e_avg(state.elec, "pos")
        f, h, x0, scales = positive_model(state, params, ocp, c_e_avg, config)
        O = scale_columns(observability_matrix(f, h, x0, float(res.current[i]), 0.0, scales),
                          scales)
        s = np.linalg.svd(O, compute_uv=False)
        threshold = config.rank_tol * s[0] * max(O.shape)
        assert int(np.sum(s > threshold)) == p.rank
        out.append((p.time, p.rank, math.log10(s[-1] / threshold)))
    return out


def main():
    rows = margins(*criterion6_run())
    for t, rank, margin in rows:
        print(f"{t:7.1f} {rank} {margin:+.3f}")
    lead = next((k for k, (_, _, margin) in enumerate(rows) if margin > 0.0), len(rows))
    for name, part in (("inside", rows[:max(lead - 1, 0)]), ("after", rows[lead + 1:])):
        if part:
            t, _, margin = min(part, key=lambda row: abs(row[2]))
            print(f"closest point whose flip breaks the window, {name} it: t = {t:.1f} s, "
                  f"margin {margin:+.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
