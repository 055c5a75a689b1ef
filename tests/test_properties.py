"""Property tests of the invariants, on drawn inputs: each member of
simulate_many equals its serial run, every FVM run keeps its lithium to the
rounding level, and each FVM substep changes the particle's lithium by the
surface influx.  Each test draws derandomized, so a run of the suite is
repeatable."""
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from csespm.params import CellParameters, DiscretizationConfig
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
    """Each member of simulate_many is bit for bit its `simulate`, or
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
    cutoff) keeps its mass-audit drift under the rounding bound above, for
    each drawn member.  The FDM is the non-conservative reference and is
    exempt."""
    disc, solver, direction = _setup(profile, N_r, "fvm", dt, cutoffs)
    sets, socs = drawn
    inits = [initial_state(p, disc, soc, direction) for p, soc in zip(sets, socs)]
    with np.errstate(all="ignore"):
        runs = simulate_many(profile, inits, sets, disc, solver, ocp=OCP)
    for res, p in zip(runs, sets):
        if isinstance(res, Exception):
            continue
        n, K = max(N_r, disc.N_e), len(res.time)
        bound = DRIFT_ULPS_PER_CELL_ROW * (n + 4) * K * np.finfo(float).eps
        assert mass_audit(res, p).max_drift_rel <= bound, (K, bound)


# One substep's closure leaves the positive particle's lithium, core plus
# shell, changed by the surface influx q_surf h up to the rounding of a few
# sums over the N_r cells: the kernel's two sequential cell sums of the old
# and the new shell, each within (N_r - 1) eps of the content (Higham, 2002,
# sec. 4.2), the products and the additions of the closure, and the test's
# own products.  The bound is per step, so it does not grow with the steps.
def _balance_bound(N_r: int) -> float:
    return (2 * N_r + 8) * np.finfo(float).eps


def _lithium(shell, r, core_conc, R):
    """Core plus shell lithium of one member, the shell's cell products
    summed exactly (math.fsum) on the CV volumes of `systems.cell_volumes`."""
    vols = systems.cell_volumes(R, len(shell), r_inner=r)
    return math.fsum((vols * shell).tolist()) + systems.FOUR_THIRDS_PI * r**3 * core_conc


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(N_r=st.sampled_from([2, 3, 4, 8]), c_rate=st.sampled_from([-1.0, 0.0, 1.0]),
       scale=st.floats(0.05, 2.0), core_phase=st.sampled_from(["alpha", "beta"]),
       rest_direction=st.sampled_from(["dis", "ch"]), h=st.floats(1e-3, 10.0),
       rp_fracs=st.lists(st.floats(0.05, 0.95), min_size=3, max_size=3),
       decades=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1), near_g=st.booleans())
def test_substep_changes_lithium_by_the_surface_influx(N_r, c_rate, scale, core_phase,
                                                       rest_direction, h, rp_fracs, decades,
                                                       seed, near_g):
    """The FVM substep of drawn two-phase states, under charge, discharge
    and rest, changes core plus shell lithium by q_surf h to within
    `_balance_bound` of its magnitude: on each of three members with their
    own D_s_p, fronts and shells."""
    current = c_rate * scale * ONE_C
    direction = systems.direction_for_current(current, rest_direction)
    g, c_core = systems.interface_values(PARAMS, core_phase, direction)
    rng = np.random.default_rng(seed)
    if near_g:
        shells = g * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, (3, N_r)))
    else:
        shells = PARAMS.c_s_max_p * rng.uniform(0.02, 0.98, (3, N_r))
    sets = [PARAMS.replace(D_s_p=PARAMS.D_s_p * 10.0**d) for d in decades]
    R = PARAMS.R_s_p
    radii = [f * R for f in rp_fracs]
    for p, shell, r_p in zip(sets, shells, radii):
        member = FullState(None, shell, None, TWO_PHASE, r_p, c_core, core_phase, direction)
        new_shell, r_new, _ = _fvm_two_phase_substep(member, current, h, p, N_r, g, c_core)
        q_surf = systems.molar_flux_density(p, "pos", current) * 4.0 * np.pi * R * R
        before = _lithium(shell, r_p, c_core, R)
        after = _lithium(new_shell, r_new, c_core, R)
        magnitude = max(abs(before), abs(after))
        assert abs(after - before - q_surf * h) <= _balance_bound(N_r) * magnitude, (
            (after - before - q_surf * h) / magnitude / np.finfo(float).eps)
