"""Lockstep simulation of many members (simulate_many) and the identification
that uses it: every member and every fit equals its one-at-a-time run bit for
bit."""
import dataclasses
import sys

import numpy as np
import pytest

from csespm import identify as identify_module
from csespm.errors import ParameterError
from csespm.identify import (ParameterSubset, PENALTY_RMSE,
                             generation_rmse, identify, make_synthetic_dataset,
                             voltage_rmse)
from csespm.ocp import synthetic_ocp_set
from csespm.params import DiscretizationConfig
from csespm.simulate import (LoadProfile, SolverConfig, cc_profile, cycle_profile,
                             initial_state, simulate, simulate_many)

SOLVER = SolverConfig(dt=10.0, cutoffs_enabled=False)


def _profile(params):
    """C/4 discharge from SOC 1 into two-phase, a rest, then a C/2 charge
    that reverses the front inside two-phase and consumes the shell."""
    i = params.current_for_c_rate(0.25)
    return LoadProfile(np.array([0.0, 3000.0, 3200.0, 4000.0]),
                       np.array([i, 0.0, -2.0 * i, -2.0 * i]))


def _members(params):
    """D_s_p x {0.3, 1, 3} and k_p x {0.25, 1}, one larger particle, and one
    member whose small negative capacity saturates it mid-run."""
    out = [params.replace(D_s_p=params.D_s_p * d, k_p=params.k_p * k)
           for d in (0.3, 1.0, 3.0) for k in (0.25, 1.0)]
    return out + [params.replace(R_s_p=1.25 * params.R_s_p),
                  params.replace(c_s_max_n=3000.0)]


def _run(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


def _assert_same(got, want):
    """Equal bits of everything a SimulationResult holds, or equal errors:
    type, message, a BlowupError's last good time, and the same of the
    error they were raised in the handling of."""
    if isinstance(want, Exception):
        assert [(type(e), str(e), getattr(e, "last_good_time", None))
                for e in (got, got.__context__)] == [
                    (type(e), str(e), getattr(e, "last_good_time", None))
                    for e in (want, want.__context__)]
        return
    for name in ("time", "current", "voltage", "soc_p", "soc_n", "r_p", "neg_c", "pos_c",
                 "elec_c", "core_conc", "charge", "mass_pos", "mass_neg", "mass_elec",
                 "drift_rel"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
    assert (got.regime, got.direction, got.core_phase, got.status) == (
        want.regime, want.direction, want.core_phase, want.status)
    assert [(e.kind, e.detail) for e in got.events] == [(e.kind, e.detail) for e in want.events]
    assert np.array_equal(*([[e.time, e.pre_mass, e.post_mass, e.r_p_pre, e.r_p_post]
                             for e in r.events] for r in (got, want)), equal_nan=True)
    assert got.meta == want.meta


def _check_mixed_batch(params, ocp, disc, profile):
    """Each member of the mixed batch on the profile equals `simulate` run
    on it alone, with cutoffs off and with a lower cutoff between the two
    lowest voltage minima, which stops members early."""
    members = _members(params)
    inits = [initial_state(p, disc, 1.0, "dis") for p in members]
    free = [_run(simulate, profile, x0, p, disc, SOLVER, ocp=ocp)
            for x0, p in zip(inits, members)]
    assert isinstance(free[-1], Exception)
    kinds = {e.kind for r in free[:-1] for e in r.events}
    assert {"enter_two_phase", "sign_flip", "exit_two_phase"} <= kinds
    # a cutoff between the two lowest voltage minima stops members early
    lows = sorted({r.voltage[1:].min() for r in free[:-1]})
    cut = dataclasses.replace(SOLVER, cutoffs_enabled=True, v_min=0.5 * (lows[0] + lows[1]))
    for solver in (SOLVER, cut):
        want = [_run(simulate, profile, x0, p, disc, solver, ocp=ocp)
                for x0, p in zip(inits, members)]
        got = simulate_many(profile, inits, members, disc, solver, ocp=ocp)
        for g, w in zip(got, want):
            _assert_same(g, w)
    assert {r.status for r in want[:-1]} == {"completed", "cutoff_low"}


@pytest.mark.parametrize("N_r, scheme", [(2, "fvm"), (4, "fvm"), (8, "fvm"), (4, "fdm")])
def test_members_equal_their_serial_runs(params, ocp, N_r, scheme):
    """Each member of a mixed batch equals `simulate` run on it alone:
    states, voltages, r_p, events, status and counters, with cutoffs off
    and with a lower cutoff that stops one member early, and the member
    that raises raises the same error."""
    _check_mixed_batch(params, ocp, DiscretizationConfig(N_r=N_r, N_e=6, scheme=scheme),
                       _profile(params))


def test_members_equal_their_serial_runs_off_the_step_grid(params, ocp, disc4):
    """The same with segments that are not multiples of dt: every
    segment's last step is shorter, and the blocks end there."""
    i = params.current_for_c_rate(0.25)
    profile = LoadProfile(np.array([0.0, 3003.7, 3207.25, 4001.9]),
                          np.array([i, 0.0, -2.0 * i, -2.0 * i]))
    assert all(np.diff(profile.times) % SOLVER.dt)
    _check_mixed_batch(params, ocp, disc4, profile)


def test_member_that_fails_its_first_step(params, ocp, disc4):
    """A member whose state turns non-finite in the batched step raises the
    BlowupError of its serial run; the others are untouched."""
    members = [params, params.replace(D_s_n=1e292), params.replace(k_p=2.0 * params.k_p)]
    inits = [initial_state(p, disc4, 1.0, "dis") for p in members]
    profile = _profile(params)
    with np.errstate(all="ignore"):
        got = simulate_many(profile, inits, members, disc4, SOLVER, ocp=ocp)
        for g, x0, p in zip(got, inits, members):
            _assert_same(g, _run(simulate, profile, x0, p, disc4, SOLVER, ocp=ocp))
    assert type(got[1]).__name__ == "BlowupError"


def test_member_that_fails_in_set_up(params, ocp, disc4, monkeypatch):
    """A member whose integrator cannot be built gets the error `simulate`
    raises for it as its outcome; the others run on."""
    sim = sys.modules["csespm.simulate"]
    real = sim.Integrator.__init__
    members = [params, params.replace(k_p=2.0 * params.k_p), params.replace(D_s_p=3.0 * params.D_s_p)]

    def init(self, p, *args):
        if p is members[1]:
            raise ParameterError("no integrator for this member")
        real(self, p, *args)

    monkeypatch.setattr(sim.Integrator, "__init__", init)
    inits = [initial_state(p, disc4, 1.0, "dis") for p in members]
    profile = _profile(params)
    got = simulate_many(profile, inits, members, disc4, SOLVER, ocp=ocp)
    for g, x0, p in zip(got, inits, members):
        _assert_same(g, _run(simulate, profile, x0, p, disc4, SOLVER, ocp=ocp))
    assert isinstance(got[1], ParameterError) and not isinstance(got[0], Exception)


def test_member_that_turns_non_finite_later(params, ocp, disc4):
    """A member whose negative electrode overflows a few steps in stops
    with its serial run's error; its rows before the failing step reach
    the output map, which raises in the BlowupError's handling, as alone."""
    members = [params, params.replace(eps_n=1e-306), params.replace(k_p=2.0 * params.k_p)]
    inits = [initial_state(p, disc4, 1.0, "dis") for p in members]
    profile = _profile(params)
    with np.errstate(all="ignore"):
        got = simulate_many(profile, inits, members, disc4, SOLVER, ocp=ocp)
        for g, x0, p in zip(got, inits, members):
            _assert_same(g, _run(simulate, profile, x0, p, disc4, SOLVER, ocp=ocp))
    blowup = got[1].__context__
    assert type(blowup).__name__ == "BlowupError" and blowup.last_good_time > 0.0


def test_batched_step_that_raises_is_taken_alone(params, ocp, disc4, monkeypatch):
    """When the batched two-phase substep raises, every member takes that
    step alone, through its own integrator, and still equals its serial
    run."""
    sim = sys.modules["csespm.simulate"]
    real = sim._fvm_two_phase_substep

    def one_at_a_time(state, *args):
        if state.pos.ndim > 1:
            raise ZeroDivisionError("a batched substep")
        return real(state, *args)

    monkeypatch.setattr(sim, "_fvm_two_phase_substep", one_at_a_time)
    members = _members(params)[:3]
    inits = [initial_state(p, disc4, 1.0, "dis") for p in members]
    profile = _profile(params)
    got = simulate_many(profile, inits, members, disc4, SOLVER, ocp=ocp)
    for g, x0, p in zip(got, inits, members):
        _assert_same(g, simulate(profile, x0, p, disc4, SOLVER, ocp=ocp))
    assert all("two_phase" in g.regime for g in got)


def test_one_block_per_segment_and_step_taken_alone(params, ocp, disc4, monkeypatch):
    """With cutoffs off, each run's blocks, served alone or in lockstep, are
    one per profile segment: a step a lockstep member takes alone, mid-block
    or at a block's end, starts no block of its own.  Segments that go on
    at the same current, starting where the last step ended, share a
    block."""
    sim = sys.modules["csespm.simulate"]
    real_serve, real_batch = sim._serve, sim._Batch.serve
    real_step = sim.Integrator.advance_with_events
    served, alone = [], {}

    def counted_serve(runs, s, b):
        served.append(("alone", len(runs)))
        return real_serve(runs, s, b)

    def counted_batch(self, runs, s, b):
        served.append(("lockstep", len(runs)))
        return real_batch(self, runs, s, b)

    def counted_step(self, s, current, t, h, events):
        alone.setdefault(id(self.params), []).append(t + h)
        return real_step(self, s, current, t, h, events)

    monkeypatch.setattr(sim, "_serve", counted_serve)
    monkeypatch.setattr(sim._Batch, "serve", counted_batch)
    monkeypatch.setattr(sim.Integrator, "advance_with_events", counted_step)
    i = params.current_for_c_rate(0.25)
    # _profile with its discharge cut into three segments
    profile = LoadProfile(np.array([0.0, 1000.0, 2000.0, 3000.0, 3200.0, 4000.0]),
                          np.array([i, i, i, 0.0, -2.0 * i, -2.0 * i]))
    members = _members(params)[:-1]
    inits = [initial_state(p, disc4, 1.0, "dis") for p in members]
    for x0, p in zip(inits, members):
        simulate(profile, x0, p, disc4, SOLVER, ocp=ocp)
    assert served == [("alone", 1)] * 3 * len(members)
    served.clear()
    alone.clear()
    simulate_many(profile, inits, members, disc4, SOLVER, ocp=ocp)
    assert served == [("lockstep", len(members))] * 3
    block_ends = {3000.0, 3200.0, 4000.0}
    assert any(t not in block_ends for ts in alone.values() for t in ts)


@pytest.mark.parametrize("offset", [-1, 1])
def test_cutoff_next_to_a_step_taken_alone(params, ocp, disc4, offset):
    """A cutoff row in the same output-map chunk as a step taken alone
    mid-block, the row just before that step or just after it: each member
    stops where its serial run stops, with the events, counters and
    closure of its run up to that row."""
    profile = cc_profile(params, 0.25, "dis", duration=3600.0)
    members = [params, params.replace(D_s_p=3.0 * params.D_s_p),
               params.replace(k_p=0.25 * params.k_p)]
    inits = [initial_state(p, disc4, 1.0, "dis") for p in members]
    free = simulate(profile, inits[0], params, disc4, SOLVER, ocp=ocp)
    entry = int(np.searchsorted(free.time, free.events[0].time))    # its step's row
    stop = entry + offset
    assert stop // 64 == entry // 64        # one output-map chunk of 64 rows
    assert np.all(np.diff(free.voltage[1:stop + 1]) < 0.0)
    solver = dataclasses.replace(SOLVER, cutoffs_enabled=True,
                                 v_min=0.5 * (free.voltage[stop - 1] + free.voltage[stop]))
    want = [simulate(profile, x0, p, disc4, solver, ocp=ocp) for x0, p in zip(inits, members)]
    assert (len(want[0]), want[0].status) == (stop + 1, "cutoff_low")
    assert [e.kind for e in want[0].events] == ([] if offset < 0 else ["enter_two_phase"])
    got = simulate_many(profile, inits, members, disc4, solver, ocp=ocp)
    for g, w in zip(got, want):
        _assert_same(g, w)


def _same_as_serial(profile, inits, members, disc, solver, ocp):
    """The members' serial runs, after checking that simulate_many gives
    each of them bit for bit."""
    want = [_run(simulate, profile, x0, p, disc, solver, ocp=ocp)
            for x0, p in zip(inits, members)]
    got = simulate_many(profile, inits, members, disc, solver, ocp=ocp)
    for g, w in zip(got, want):
        _assert_same(g, w)
    return want


def test_members_enter_in_different_rows_of_one_block(params, ocp, disc4):
    """Members with D_s_p spread over a decade, from three start SOCs, enter
    two-phase in three different rows of one block (one segment, cutoffs
    off): each writes its one-phase rows alone and takes its entry step
    alone, then steps in lockstep with those already in two-phase; each
    equals its serial run."""
    profile = cc_profile(params, 0.25, "dis", duration=3600.0)
    members = [params.replace(D_s_p=params.D_s_p * f) for f in (0.3, 1.0, 3.0)]
    inits = [initial_state(p, disc4, soc, "dis") for p, soc in zip(members, (1.0, 0.97, 0.94))]
    want = _same_as_serial(profile, inits, members, disc4, SOLVER, ocp)
    rows = [int(np.searchsorted(w.time, e.time)) for w in want for e in w.events]
    assert [e.kind for w in want for e in w.events] == ["enter_two_phase"] * 3
    assert len(set(rows)) == 3 and all(w.regime[-1] == "two_phase" for w in want)


def test_exit_then_one_phase_rows_in_one_block(params, ocp, disc4):
    """On a C/4 cycle from SOC 0 each member's front exits two-phase during
    the charge (near 11,740 s) and the one-phase rows after the exit step
    fill the rest of that block, written alone in closed form from the row
    after the exit step; each member equals its serial run."""
    profile = cycle_profile(params, 0.25, 1)
    members = [params, params.replace(D_s_p=2.0 * params.D_s_p, k_p=0.5 * params.k_p)]
    inits = [initial_state(p, disc4, 0.0, "ch") for p in members]
    want = _same_as_serial(profile, inits, members, disc4, SOLVER, ocp)
    for w in want:
        exit_time, = [e.time for e in w.events if e.kind == "exit_two_phase" and e.time < 14400.0]
        assert 11000.0 < exit_time < 12500.0
        row = int(np.searchsorted(w.time, exit_time))
        assert w.regime[row - 1] == "two_phase"
        assert set(w.regime[row:int(np.searchsorted(w.time, 14400.0)) + 1]) == {"one_phase_alpha"}


def test_cutoff_inside_a_one_phase_stretch(params, ocp, disc4):
    """A lower cutoff crossed in the members' one-phase rows, inside an
    output chunk and well before their entries: each member stops at its
    serial run's row, with no event, counter or closure of the rows the
    closed form wrote past it."""
    profile = cc_profile(params, 0.25, "dis", duration=3600.0)
    members = [params.replace(k_p=params.k_p * f) for f in (1.0, 0.5, 2.0)]
    inits = [initial_state(p, disc4, 1.0, "dis") for p in members]
    free = simulate(profile, inits[0], members[0], disc4, SOLVER, ocp=ocp)
    stop = 90
    assert stop % 64 and np.all(np.diff(free.voltage[1:stop + 2]) < 0.0)
    solver = dataclasses.replace(SOLVER, cutoffs_enabled=True,
                                 v_min=0.5 * (free.voltage[stop - 1] + free.voltage[stop]))
    want = _same_as_serial(profile, inits, members, disc4, solver, ocp)
    assert (want[0].status, len(want[0]), want[0].events) == ("cutoff_low", stop + 1, [])
    assert want[0].regime[-1] == "one_phase_alpha" and want[0].meta["max_closure"] == 0.0
    assert free.events[0].time > free.time[stop + 64]


def test_nonfinite_row_inside_a_one_phase_stretch(params, ocp, disc4):
    """Members whose rows overflow inside a one-phase stretch of a C/4
    charge from SOC 1 (one-phase alpha throughout, so no entry cuts the
    stretch): a negative block, and a positive one, driven past the float
    range by a tiny porosity after a few finite rows.  Each raises its
    serial run's BlowupError, with its last good time, as the context of
    the output map's error on its rows; the other member runs on."""
    profile = cc_profile(params, 0.25, "ch", duration=600.0)
    members = [params.replace(eps_n=3e-307), params.replace(eps_p=1e-306), params]
    inits = [initial_state(p, disc4, 1.0, "ch") for p in members]
    assert {x.regime for x in inits} == {"one_phase_alpha"}
    with np.errstate(all="ignore"):
        want = _same_as_serial(profile, inits, members, disc4, SOLVER, ocp)
    blowups = [w.__context__ for w in want[:2]]
    assert [type(b).__name__ for b in blowups] == ["BlowupError"] * 2
    assert all(SOLVER.dt <= b.last_good_time < 600.0 - SOLVER.dt for b in blowups)
    assert want[2].status == "completed"


def test_rejected_batched_front_step_leaves_no_closure(params, ocp, disc4, monkeypatch):
    """On a 2C discharge into two-phase, members whose batched step moves the
    front too far take that step alone, halved.  The closure of the
    rejected batched substep, above the member's whole serial run's
    max_closure, stays out of its run: each member equals its serial run,
    max_closure included."""
    sim = sys.modules["csespm.simulate"]
    real = sim._rows_substep
    rejected = []       # (D_s_p, closure) of each rejected batched substep

    def recorded(state, current, h, params, N_r):
        shell, r_new, closure = real(state, current, h, params, N_r)
        out = ~sim._front_ok(state.r_p, r_new, params.R_s_p)
        rejected.extend(zip(params.D_s_p[out].tolist(), closure[out].tolist()))
        return shell, r_new, closure

    monkeypatch.setattr(sim, "_rows_substep", recorded)
    profile = cc_profile(params, 2.0, "dis", duration=360.0)
    members = [params.replace(D_s_p=params.D_s_p * f) for f in (0.3, 1.0, 3.0)]
    inits = [initial_state(p, disc4, 1.0, "dis") for p in members]
    want = _same_as_serial(profile, inits, members, disc4, SOLVER, ocp)
    top = {p.D_s_p: w.meta["max_closure"] for p, w in zip(members, want)}
    assert any(closure > top[d] for d, closure in rejected)


# --- identification -------------------------------------------------------------

def _serial_identify(datasets, subset, base, disc, solver, seed, budget, ocp):
    """The particle swarm as it evaluated one candidate at a time, kept as the
    reference: (best values, best RMSE, trace, evaluations)."""
    rng = np.random.default_rng(seed)
    d = subset.dim
    P = min(min(24, max(8, 4 + 2 * d)), budget)
    logm = subset.log_mask()
    lo = np.where(logm, np.log10(subset.lower), subset.lower)
    hi = np.where(logm, np.log10(subset.upper), subset.upper)
    span = hi - lo

    def decode(z):
        x = lo + z * span
        return np.where(logm, 10.0**x, x)

    def objective(z):
        try:
            cand = subset.apply(base, decode(z))
        except ParameterError:
            return PENALTY_RMSE * len(datasets)
        return sum(voltage_rmse(cand, ds, disc, solver, ocp) for ds in datasets)

    z = rng.random((P, d))
    base_vals = np.array([getattr(base, n) for n in subset.names])
    z[0] = np.clip((np.where(logm, np.log10(base_vals), base_vals) - lo) / span, 0.0, 1.0)
    v = 0.1 * (rng.random((P, d)) - 0.5)
    pbest_z, pbest_f = z.copy(), np.full(P, np.inf)
    gbest_z, gbest_f, trace, n_evals = None, np.inf, [], 0
    w, c1, c2 = 0.72, 1.49, 1.49
    while n_evals < budget:
        for k in range(P):
            if n_evals >= budget:
                break
            f = objective(z[k])
            n_evals += 1
            if f < pbest_f[k]:
                pbest_f[k], pbest_z[k] = f, z[k].copy()
            if f < gbest_f:
                gbest_f, gbest_z = f, z[k].copy()
                trace.append((n_evals, gbest_f))
        if n_evals >= budget:
            break
        r1, r2 = rng.random((P, d)), rng.random((P, d))
        v = w * v + c1 * r1 * (pbest_z - z) + c2 * r2 * (gbest_z[None, :] - z)
        z = z + v
        over, under = z > 1.0, z < 0.0
        z[over] = 2.0 - z[over]
        z[under] = -z[under]
        z = np.clip(z, 0.0, 1.0)
        v[over | under] *= -0.5
    return decode(gbest_z), float(gbest_f), trace, n_evals


@pytest.fixture(scope="module")
def two_rates(params, disc4):
    """Short C/4 and C/2 discharges, each made and scored with its rate's
    parameters (params_for_rate), and a subset of two names that neither
    rate's table sets."""
    sets = [make_synthetic_dataset(params, disc4, 0.25, "dis", duration=2400.0,
                                   c_rate_label="C/4"),
            make_synthetic_dataset(params, disc4, 0.5, "dis", duration=1200.0,
                                   c_rate_label="C/2")]
    return sets, ParameterSubset.preset("c4", params, decades=0.3).subset(("R_s_p", "R_l"))


@pytest.mark.parametrize("budget", [1, 12, 40])
def test_identify_equals_one_candidate_at_a_time(params, disc4, two_rates, budget):
    """A generation in lockstep gives the serial swarm's best values, best
    RMSE and whole trace: budget 1, a partial last generation (12 of 8 + 8)
    and five full generations, over two datasets of different rates."""
    datasets, sub = two_rates
    base = params.replace(R_s_p=1.3 * params.R_s_p, R_l=0.6 * params.R_l)
    ocp = synthetic_ocp_set(base)
    fit = identify(datasets, sub, base, disc4, SOLVER, seed=5, budget=budget, ocp=ocp)
    values, rmse, trace, n_evals = _serial_identify(datasets, sub, base, disc4, SOLVER, 5,
                                                    budget, ocp)
    assert np.array_equal(fit.best_values, values)
    assert fit.best_rmse == rmse
    assert fit.trace == trace
    assert fit.n_evals == n_evals == budget


def test_objective_calls_voltage_rmse_once_per_evaluation(params, disc4, two_rates,
                                                          monkeypatch):
    """identify scores every candidate on every dataset through the module's
    voltage_rmse, one call per evaluation and dataset, each a float."""
    datasets, sub = two_rates
    real, seen = identify_module.voltage_rmse, []

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append(out)
        return out

    monkeypatch.setattr(identify_module, "voltage_rmse", counted)
    fit = identify(datasets, sub, params, disc4, SOLVER, seed=2, budget=12)
    assert len(seen) == fit.n_evals * len(datasets) == 24
    assert all(type(r) is float for r in seen)


def test_penalties_are_counted_by_cause(params, disc4):
    """One generation holding an invalid-parameter member, a member whose
    simulation raises and a member that stops at a cutoff: each scores
    PENALTY_RMSE and is counted under its cause, and the other members'
    scores equal their serial voltage_rmse."""
    ds = make_synthetic_dataset(params, disc4, 0.25, "dis", duration=3600.0,
                                c_rate_label="C/4")
    solver = SolverConfig(dt=10.0, v_min=float(ds.voltage.min()) - 0.02)
    names = ("D_s_p", "k_p", "D_s_n", "theta_p_alpha_dis")
    sub = ParameterSubset(names, np.full(4, 1e-30), np.full(4, 1e30))
    true = np.array([getattr(params, n) for n in names])
    rows = [true, true * [2.0, 1.0, 1.0, 1.0],
            true * [1.0, 1.0, 1.0, 4.5],       # theta_alpha above theta_beta
            true * [1.0, 1.0, 1e307, 1.0],     # the negative block's rows overflow
            true * [1.0, 1e-3, 1.0, 1.0]]      # the overpotential hits v_min
    penalties = {}
    ocp = synthetic_ocp_set(params)
    with np.errstate(all="ignore"):
        got = generation_rmse(rows, sub, params, [ds], disc4, solver, ocp,
                              penalties=penalties)
    assert got[2:] == [PENALTY_RMSE] * 3
    assert penalties == {"ParameterError": 1, "BlowupError": 1, "cutoff": 1}
    for f, values in zip(got[:2], rows[:2]):
        assert f == voltage_rmse(sub.apply(params, values), ds, disc4, solver, ocp) < 0.01


def test_fit_reports_penalties(params, disc4, monkeypatch):
    """FitResult.penalties counts every PENALTY_RMSE the objective returned,
    by cause, and its dict carries them to fit.json."""
    ds = make_synthetic_dataset(params, disc4, 0.25, "dis", duration=1200.0,
                                c_rate_label="C/4")
    solver = SolverConfig(dt=10.0, v_min=float(ds.voltage.min()) + 0.001)
    sub = ParameterSubset.preset("c2-1c", params).subset(("D_s_p", "k_p"))
    real, seen = identify_module.voltage_rmse, []
    monkeypatch.setattr(identify_module, "voltage_rmse",
                        lambda *a, **k: seen.append(real(*a, **k)) or seen[-1])
    fit = identify([ds], sub, params, disc4, solver, seed=3, budget=16)
    assert fit.penalties == {"cutoff": seen.count(PENALTY_RMSE)}
    assert fit.penalties["cutoff"] > 0
    assert fit.to_dict()["penalties"] == fit.penalties
