"""Property tests of the invariants, on drawn inputs: the lockstep batch
equals each member's serial run, every FVM run keeps its lithium to the
rounding level, and the two two-phase substep kernels agree bit for bit.
Each test draws derandomized, so a run of the suite is repeatable."""
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from csespm.params import CellParameters, DiscretizationConfig, ParameterColumns
from csespm.ocp import synthetic_ocp_set
from csespm.simulate import (LoadProfile, SolverConfig, _fvm_two_phase_substep,
                             initial_state, mass_audit, simulate, simulate_many)
from csespm.states import FullState, TWO_PHASE
from csespm import systems

from test_lockstep import _assert_same, _run

PARAMS = CellParameters()
OCP = synthetic_ocp_set(PARAMS)
ONE_C = PARAMS.current_for_c_rate(1.0)
C_RATES = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))


@st.composite
def profiles(draw):
    """1-5 segments of 30-3000 s, each at rest or at -2C to 2C."""
    n = draw(st.integers(1, 5))
    durations = draw(st.lists(st.floats(30.0, 3000.0), min_size=n, max_size=n))
    currents = [ONE_C * c for c in draw(st.lists(C_RATES, min_size=n, max_size=n))]
    times = np.concatenate([[0.0], np.cumsum(durations)])
    return LoadProfile(times, np.array(currents + currents[-1:]))


@st.composite
def members(draw, count):
    """count parameter sets with D_s_p and k_p spread over +-1 decade, and
    each one's start SOC."""
    sets = [PARAMS.replace(D_s_p=PARAMS.D_s_p * 10.0**draw(st.floats(-1.0, 1.0)),
                           k_p=PARAMS.k_p * 10.0**draw(st.floats(-1.0, 1.0)))
            for _ in range(count)]
    return sets, [draw(st.floats(0.0, 1.0)) for _ in range(count)]


def _setup(profile, N_r, scheme, dt, cutoffs):
    """(discretization, solver, direction of the first segment) of a draw."""
    disc = DiscretizationConfig(N_r=N_r, N_e=6, scheme=scheme)
    solver = SolverConfig(dt=dt, cutoffs_enabled=cutoffs)
    return disc, solver, systems.direction_for_current(profile.currents[0])


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(profile=profiles(), drawn=st.integers(1, 4).flatmap(members),
       N_r=st.integers(2, 5), scheme=st.sampled_from(["fvm", "fdm"]),
       dt=st.sampled_from([1.0, 5.0, 10.0]), cutoffs=st.booleans())
def test_simulate_many_equals_simulate(profile, drawn, N_r, scheme, dt, cutoffs):
    """Each member of a lockstep batch is bit for bit its `simulate`, or
    raises its error: states, voltages, events, status, counters and
    closure (test_lockstep._assert_same)."""
    disc, solver, direction = _setup(profile, N_r, scheme, dt, cutoffs)
    sets, socs = drawn
    inits = [initial_state(p, disc, soc, direction) for p, soc in zip(sets, socs)]
    with np.errstate(all="ignore"):
        want = [_run(simulate, profile, x0, p, disc, solver, ocp=OCP)
                for x0, p in zip(inits, sets)]
        got = simulate_many(profile, inits, sets, disc, solver, ocp=OCP)
    for g, w in zip(got, want):
        _assert_same(g, w)


# Each fixed-grid step x + D x + c and each two-phase substep's closure
# leave an electrode's lithium off by rounding only: a dot product of at most
# n cells and a few operations per cell, each within n eps of the content
# (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 3), and
# D = e^{Ah} - I is bounded by 2 in the capacity-weighted norm.  The errors
# of K rows add at worst linearly, as does the coulomb count q the audit
# compares against, so the drift of a run of K rows stays below
# DRIFT_ULPS_PER_CELL_ROW (n + 4) K eps, n = max(N_r, N_e).
DRIFT_ULPS_PER_CELL_ROW = 4


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(profile=profiles(), drawn=st.integers(1, 4).flatmap(members), N_r=st.integers(2, 5),
       dt=st.sampled_from([1.0, 5.0, 10.0]), cutoffs=st.booleans())
def test_fvm_runs_keep_their_lithium(profile, drawn, N_r, dt, cutoffs):
    """Every FVM run that returns a result (completed or stopped at a
    cutoff) keeps its mass-audit drift under the rounding bound above: the
    first member's `simulate` (the float substep kernel) and every member of
    the lockstep batch of all of them (the row kernel).  The FDM is the
    non-conservative reference and is exempt."""
    disc, solver, direction = _setup(profile, N_r, "fvm", dt, cutoffs)
    sets, socs = drawn
    inits = [initial_state(p, disc, soc, direction) for p, soc in zip(sets, socs)]
    with np.errstate(all="ignore"):
        runs = [_run(simulate, profile, inits[0], sets[0], disc, solver, ocp=OCP)]
        runs += simulate_many(profile, inits, sets, disc, solver, ocp=OCP)
    for res, p in zip(runs, sets[:1] + sets):
        if isinstance(res, Exception):
            continue
        n, K = max(N_r, disc.N_e), len(res.time)
        bound = DRIFT_ULPS_PER_CELL_ROW * (n + 4) * K * np.finfo(float).eps
        assert mass_audit(res, p).max_drift_rel <= bound, (K, bound)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(N_r=st.integers(2, 50), rp_frac=st.floats(1e-6, 1.0 - 1e-6),
       core_phase=st.sampled_from(["alpha", "beta"]), c_rate=C_RATES,
       rest_direction=st.sampled_from(["dis", "ch"]), h=st.floats(1e-3, 60.0),
       seed=st.integers(0, 2**32 - 1), near_g=st.booleans())
def test_member_substep_equals_its_row_on_drawn_states(N_r, rp_frac, core_phase, c_rate,
                                                       rest_direction, h, seed, near_g):
    """One member's FVM substep (the float kernel) equals, bit for bit, the
    array kernel's substep of the same state as a (1, N_r) row: shell, r_p
    and closure, on drawn fronts, shells, currents (or rest), step lengths
    and grids (widening test_simulate.test_member_substep_equals_its_row)."""
    R = PARAMS.R_s_p
    current = c_rate * ONE_C
    direction = systems.direction_for_current(current, rest_direction)
    g, c_core = systems.interface_values(PARAMS, core_phase, direction)
    rng = np.random.default_rng(seed)
    if near_g:
        x = g * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, N_r))
    else:
        x = PARAMS.c_s_max_p * rng.uniform(0.02, 0.98, N_r)
    r_p = rp_frac * R
    member = FullState(None, x, None, TWO_PHASE, r_p, c_core, core_phase, direction)
    row = FullState(None, x[None, :], None, TWO_PHASE, np.array([[r_p]]),
                    np.array([[c_core]]), core_phase, direction)
    shell, r_new, closure = _fvm_two_phase_substep(member, current, h, PARAMS, N_r)
    want = [np.ravel(a) for a in _fvm_two_phase_substep(row, current, h,
                                                         ParameterColumns([PARAMS]), N_r)]
    assert shell.tobytes() == want[0].tobytes()
    assert (r_new, closure) == (want[1][0], want[2][0])
    assert math.isfinite(r_new)
