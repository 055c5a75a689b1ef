import numpy as np
import pytest

from csespm import observability as observability_mod
from csespm.observability import (LieDerivativeError, ObservabilityConfig,
                                  lie_stack, observability_matrix,
                                  positive_model, rank_and_condition,
                                  scale_columns, sweep)
from csespm.ocp import OcpSet, OcpTable
from csespm.output import electrode_c_e_avg
from csespm.params import DiscretizationConfig
from csespm.simulate import (SolverConfig, cc_profile, initial_state, simulate,
                             synthetic_dynamic_profile)
from csespm.states import FullState, TWO_PHASE
from csespm import systems

from dense_systems import two_phase_system

CFG = ObservabilityConfig()


def linearized_output(h, x0, u0, scales, u_scale):
    """Freeze h to its tangent plane at (x0, u0), of rows or of one state."""
    eps = 1e-6
    g = np.empty(len(x0))
    for j in range(len(x0)):
        d = eps * max(abs(x0[j]), scales[j])
        xp, xm = x0.copy(), x0.copy()
        xp[j] += d
        xm[j] -= d
        g[j] = (h(xp, u0) - h(xm, u0)) / (2 * d)
    du = eps * max(abs(u0), u_scale)
    d_u = (h(x0, u0 + du) - h(x0, u0 - du)) / (2 * du)
    h0 = h(x0, u0)
    return (lambda x, u: h0 + (x - x0) @ g + d_u * (u - u0)), g


# --- rank and condition -----------------------------------------------------------

def test_rank_and_condition_basics():
    assert rank_and_condition(np.eye(3)) == (3, 1.0, 1.0)
    rank, cond, smin = rank_and_condition(np.diag([1.0, 10.0]))
    assert rank == 2 and cond == pytest.approx(10.0) and smin == pytest.approx(1.0)
    m = np.array([[1.0, 2.0], [1.0, 2.0]])
    rank, cond, smin = rank_and_condition(m)
    assert rank == 1 and cond == np.inf and smin == pytest.approx(0.0, abs=1e-12)
    assert rank_and_condition(np.zeros((2, 2))) == (0, np.inf, 0.0)


def test_rank_and_condition_of_a_stack(rng):
    """A stack of matrices gives each matrix's rank, cond and sigma_min, as
    alone."""
    O = rng.standard_normal((6, 4, 4))
    O[1, -1] = O[1, 0]
    O[4] = 0.0
    ranks, conds, smins = rank_and_condition(O)
    for k in range(len(O)):
        assert (ranks[k], conds[k], smins[k]) == rank_and_condition(O[k])
    assert list(ranks[[1, 4]]) == [3, 0]


def test_rank_invariant_under_column_scaling(rng):
    for _ in range(25):
        n = rng.integers(2, 5)
        O = rng.standard_normal((n, n))
        if rng.random() < 0.4:
            O[-1] = O[0] * rng.uniform(0.5, 2.0)   # force deficiency
        base_rank = rank_and_condition(O)[0]
        scales = rng.uniform(0.5, 2.0, n)
        scaled_rank = rank_and_condition(O * scales[None, :])[0]
        assert scaled_rank == base_rank


# --- Lie stack --------------------------------------------------------------------

def test_dimension_contracts(params, ocp):
    for N_r, soc, want in ((2, 1.0, 2), (2, 0.5, 3), (3, 0.5, 4)):
        disc = DiscretizationConfig(N_r=N_r, N_e=6)
        st = initial_state(params, disc, soc, "dis")
        f, h, x0, scales = positive_model(st, params, ocp, params.c_e0, CFG)
        O = observability_matrix(f, h, x0, 10.0, 0.0, CFG, scales)
        assert O.shape == (want, want)


def test_order_zero_is_ocp_at_rest(params, ocp):
    disc = DiscretizationConfig(N_r=2, N_e=6)
    st = initial_state(params, disc, 0.9, "dis")
    f, h, x0, scales = positive_model(st, params, ocp, params.c_e0, CFG)
    vals, _ = lie_stack(f, h, x0, 0.0, 0.0, 1, CFG, scales)
    theta = systems.surface_concentration(
        st.pos, 0.0, params, "pos", params.R_s_p / 2) / params.c_s_max_p
    assert vals[0] == pytest.approx(ocp.pos_dis(theta), abs=1e-12)


def test_linear_oracle_gradient(params, ocp):
    """For the linear one-phase dynamics and a linear output the stack is
    [C; CA; CA^2; CA^3] to 1e-10 of each row's largest entry, also with
    u' != 0, which moves the values but not the gradients.  A linear stack
    has no truncation error, so the step is 1e-3: at 1e-6 the rounding of
    the 3.4 V output alone moves row 0 by 4e-10."""
    cfg = ObservabilityConfig(jacobian_step=1e-3)
    disc = DiscretizationConfig(N_r=4, N_e=6)
    st = initial_state(params, disc, 0.9, "ch")
    f, h, x0, scales = positive_model(st, params, ocp, params.c_e0, cfg)
    u0 = -params.current_for_c_rate(1.0)
    h_lin, C = linearized_output(h, x0, u0, scales, abs(u0))
    A = systems.build_one_phase_solid_system(params, "pos", 4).A
    want = np.vstack([C @ np.linalg.matrix_power(A, k) for k in range(4)])
    for u_dot in (0.0, 0.05):
        O = observability_matrix(f, h_lin, x0, u0, u_dot, cfg, scales)
        assert np.all(np.abs(O - want).max(axis=1) <= 1e-10 * np.abs(want).max(axis=1))


def test_input_derivative_terms_enter(params, ocp):
    """With a linear output the first-order Lie value includes d h/du * u',
    while its state gradient stays C A regardless of u'."""
    disc = DiscretizationConfig(N_r=2, N_e=6)
    st = initial_state(params, disc, 0.9, "ch")
    f, h, x0, scales = positive_model(st, params, ocp, params.c_e0, CFG)
    u0 = -params.current_for_c_rate(1.0)
    u_scale = abs(u0)
    h_lin, C = linearized_output(h, x0, u0, scales, u_scale)
    vals0, grads0 = lie_stack(f, h_lin, x0, u0, 0.0, 2, CFG, scales)
    vals1, grads1 = lie_stack(f, h_lin, x0, u0, 0.5, 2, CFG, scales)
    assert vals1[1] != pytest.approx(vals0[1])
    assert np.allclose(grads1[1], grads0[1], rtol=1e-6)


def test_richardson_step_halving(params, ocp):
    """The gradients are one central difference of exact values: halving the
    step divides the error of every order's gradient by about 4."""
    disc = DiscretizationConfig(N_r=2, N_e=6)
    st = initial_state(params, disc, 0.45, "dis")
    assert st.regime == TWO_PHASE
    u0 = params.current_for_c_rate(1.0)
    f, h, x0, scales = positive_model(st, params, ocp, params.c_e0, CFG)

    def grads(step):
        cfg = ObservabilityConfig(jacobian_step=step)
        return lie_stack(f, h, x0, u0, 0.0, len(x0), cfg, scales)[1]

    g1, g2, g4 = grads(4e-4), grads(2e-4), grads(1e-4)
    for order in range(len(x0)):
        err1 = np.abs(g1[order] - g4[order])
        err2 = np.abs(g2[order] - g4[order])
        mask = err1 > np.abs(g4[order]).max() * 1e-9
        assert mask.any()
        ratio = err1[mask] / np.maximum(err2[mask], 1e-300)
        # second order: errors e(4d) - e(d) = 15 c d^2 and e(2d) - e(d) = 3 c d^2
        assert 4.0 < np.median(ratio) < 6.0


def test_nonfinite_reports_failing_order(params, ocp):
    def f(x, u):
        return x * np.nan

    def h(x, u):
        return x[..., 0]

    with pytest.raises(LieDerivativeError, match="order 1"):
        lie_stack(f, h, np.array([1.0, 2.0]), 1.0, 0.0, 2, CFG, np.ones(2))


def test_thin_shell_degeneracy(params, ocp):
    """Normalized smallest singular value collapses as the shell thins at a
    fixed uniform shell concentration."""
    ratios = []
    for frac in (0.10, 0.01, 0.001):
        st = FullState(neg=np.full(3, 0.5 * params.c_s_max_n),
                       pos=np.full(3, params.c_alpha("ch")),
                       elec=np.full(6, params.c_e0), regime=TWO_PHASE,
                       r_p=(1 - frac) * params.R_s_p,
                       core_conc=params.c_beta("ch"), core_phase="beta",
                       direction="ch")
        f, h, x0, scales = positive_model(st, params, ocp, params.c_e0, CFG)
        u0 = -params.current_for_c_rate(1.0)
        O = observability_matrix(f, h, x0, u0, 0.0, CFG, scales)
        s = np.linalg.svd(scale_columns(O, scales), compute_uv=False)
        ratios.append(s[-1] / s[0])
    assert ratios[0] > ratios[1] > ratios[2]


def test_sweep_emits_points_and_csv(tmp_path, params, ocp):
    disc = DiscretizationConfig(N_r=2, N_e=6)
    prof = cc_profile(params, 1.0, "ch", duration=900.0)
    init = initial_state(params, disc, 0.0, "ch")
    res = simulate(prof, init, params, disc, SolverConfig(cutoffs_enabled=False))
    sw = sweep(res, params, ObservabilityConfig(stride_s=100.0), ocp=ocp)
    assert len(sw) >= 9
    assert all(p.rank <= p.full_rank_needed for p in sw.points)
    path = tmp_path / "sweep.csv"
    sw.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == ("time_s,soc_p,regime,rank,full_rank_needed,"
                      "log10_cond_scaled,log10_cond_raw")


def test_sweep_counts_skipped_points(params, ocp, monkeypatch, caplog):
    """A point whose output leaves its domain (here a non-positive
    electrolyte average at the second and fourth points) is skipped and
    recorded with its time and reason; the sweep logs one warning for all
    its skips."""
    disc = DiscretizationConfig(N_r=2, N_e=6)
    res = simulate(cc_profile(params, 1.0, "ch", duration=900.0),
                   initial_state(params, disc, 0.0, "ch"), params, disc,
                   SolverConfig(cutoffs_enabled=False))
    points = []

    def c_e_avg(*args):
        points.append(len(points))
        return -1.0 if points[-1] in (1, 3) else electrode_c_e_avg(*args)

    monkeypatch.setattr(observability_mod, "electrode_c_e_avg", c_e_avg)
    with caplog.at_level("WARNING", logger="csespm.observability"):
        sw = sweep(res, params, ObservabilityConfig(stride_s=100.0), ocp=ocp)
    reason = "non-positive electrolyte concentration -1"
    assert sw.skipped == [(100.0, reason), (300.0, reason)]
    assert len(sw) == len(points) - 2 == 8
    assert [r.getMessage() for r in caplog.records] == [
        f"2 sweep points skipped, the first at t=100.0s: {reason}"]




# --- the nested recursion: the reference ------------------------------------------

def nested_lie_stack(f, h, x0, u0, u_dot, orders, eps, x_scales, u_scale):
    """The extended Lie derivatives by the paper's nested central differences
    in (x, u), every level recomputed from scratch on one state at a time:
    steps eps * max(|x_j|, x_scale_j) in x and eps * max(|u|, u_scale) in u."""
    def grad_x(fun, x, u):
        g = np.empty(len(x))
        for j in range(len(x)):
            d = eps * max(abs(x[j]), x_scales[j])
            xp = x.copy(); xp[j] += d
            xm = x.copy(); xm[j] -= d
            g[j] = (fun(xp, u) - fun(xm, u)) / (2.0 * d)
        return g

    def d_du(fun, x, u):
        d = eps * max(abs(u), u_scale)
        return (fun(x, u + d) - fun(x, u - d)) / (2.0 * d)

    def lift(prev):
        def nxt(x, u):
            val = grad_x(prev, x, u) @ f(x, u)
            if u_dot != 0.0:
                val += d_du(prev, x, u) * u_dot
            return val
        return nxt

    L = h
    values, grads = [], []
    for order in range(orders):
        values.append(float(L(x0, u0)))
        grads.append(grad_x(L, x0, u0))
        if order < orders - 1:
            L = lift(L)
    return np.array(values), np.array(grads)


def plateau_zero(ocp):
    """The OCP set with each positive table moved to 0 V on its plateau: it
    changes L^0 by a constant and no other order or gradient, and keeps the
    nested differences clear of the rounding of a 3.4 V output."""
    def moved(t):
        return OcpTable(t.electrode, t.direction, t.theta, t.volts - np.median(t.volts))
    return OcpSet(ocp.neg, moved(ocp.pos_ch), moved(ocp.pos_dis))


def input_rate(res, i):
    """The sweep's backward difference of the recorded current at row i."""
    if i == 0 or res.time[i] == res.time[i - 1]:
        return 0.0
    return float((res.current[i] - res.current[i - 1]) / (res.time[i] - res.time[i - 1]))


@pytest.fixture(scope="module")
def charge_1c(params, ocp):
    """1C charges from SOC 0 at N_r = 3 and 4 (FVM) and at N_r = 3 (FDM),
    keyed by (scheme, N_r), and the 600 s synthetic drive profile from SOC
    0.6 at N_r = 3 (fingerprint fixture sweep_dynamic_nr3), keyed "dynamic"."""
    out = {}
    for scheme, N_r in (("fvm", 3), ("fvm", 4), ("fdm", 3)):
        disc = DiscretizationConfig(N_r=N_r, N_e=6, scheme=scheme)
        out[scheme, N_r] = simulate(cc_profile(params, 1.0, "ch"),
                                    initial_state(params, disc, 0.0, "ch"), params, disc,
                                    SolverConfig(cutoffs_enabled=False), ocp=ocp)
    disc = DiscretizationConfig(N_r=3, N_e=6)
    out["dynamic"] = simulate(synthetic_dynamic_profile(params, duration=600.0),
                              initial_state(params, disc, 0.6, "dis"), params, disc,
                              SolverConfig(cutoffs_enabled=False), ocp=ocp)
    return out


def model_at(res, i, params, ocp):
    state = res.state_at(i)
    c_e_avg = electrode_c_e_avg(params, state.elec, "pos", res.meta["split"])
    return positive_model(state, params, ocp, c_e_avg, CFG, res.meta["scheme"])


def first_two_phase(res):
    """A record 300 s into the two-phase section."""
    return next(i for i in range(len(res)) if res.regime[i] == TWO_PHASE) + 300


def dynamic_rows(res):
    """Rows of the drive profile's 7 s sweep where the current changes."""
    picked, next_t = [], -np.inf
    for i, t in enumerate(res.time):
        if t >= next_t:
            next_t = t + 7.0
            if input_rate(res, i) != 0.0:
                picked.append(i)
    return picked


CASES = [pytest.param(*case, id="-".join(map(str, case[:3])) + ("" if case[3] == "fvm" else "-fdm"))
         for case in ((3, "one_phase", 0.0, "fvm"), (3, "one_phase", 0.02, "fvm"),
                      (3, TWO_PHASE, 0.0, "fvm"), (3, TWO_PHASE, 0.02, "fvm"),
                      (4, TWO_PHASE, 0.0, "fvm"), (4, TWO_PHASE, 0.02, "fvm"),
                      (3, "one_phase", 0.0, "fdm"), (3, "one_phase", 0.02, "fdm"),
                      (3, TWO_PHASE, 0.0, "fdm"), (3, TWO_PHASE, 0.02, "fdm"))]


def case_row(charge_1c, N_r, regime, scheme):
    res = charge_1c[scheme, N_r]
    i = 200 if regime == "one_phase" else first_two_phase(res)
    assert (res.regime[i] == TWO_PHASE) == (regime == TWO_PHASE)
    return res, i


@pytest.mark.parametrize("N_r, regime, u_dot, scheme", CASES)
def test_memoized_lie_stack_is_bit_identical(params, ocp, charge_1c, N_r, regime, u_dot,
                                             scheme):
    """A point's Lie values and gradients evaluated among its neighbours, as
    the sweep evaluates a group of points in one pass, are bit for bit those
    of the point alone, for both schemes and with u' != 0."""
    res, i = case_row(charge_1c, N_r, regime, scheme)
    rows = [i - 30, i, i + 30]
    assert len({res.regime[k] for k in rows}) == 1
    split = res.meta["split"]
    c_e_avg = np.array([electrode_c_e_avg(params, res.elec_c[k], "pos", split) for k in rows])
    state = FullState(res.neg_c[rows], res.pos_c[rows], res.elec_c[rows], res.regime[i],
                      res.r_p[rows] * res.meta["R_s_p"], res.core_conc[rows],
                      res.core_phase[i], res.direction[i])
    f, h, x0, scales = positive_model(state, params, ocp, c_e_avg, CFG, scheme)
    u0, u_dot_rows = res.current[rows], np.array([0.01, u_dot, -0.01])
    vals, grads = lie_stack(f, h, x0, u0, u_dot_rows, x0.shape[1], CFG, scales)
    f1, h1, x1, _ = model_at(res, i, params, ocp)
    assert x1.tobytes() == x0[1].tobytes()
    alone_vals, alone_grads = lie_stack(f1, h1, x1, float(res.current[i]), u_dot, len(x1),
                                        CFG, scales)
    assert vals[1].tobytes() == alone_vals.tobytes()
    assert grads[1].tobytes() == alone_grads.tobytes()


@pytest.mark.parametrize("N_r, regime, u_dot, scheme", CASES + [
    pytest.param(3, "dynamic", None, "fvm", id="dynamic")])
def test_orders_up_to_two_match_the_nested_reference(params, ocp, charge_1c, N_r, regime,
                                                     u_dot, scheme):
    """Values and gradients of L^0..L^2 match the nested recursion,
    Richardson-extrapolated over the steps 3e-4 and 1.5e-4, to 1e-6 of each
    order's largest entry (gradients in scaled states).  The "dynamic" case
    is the second row of the drive profile's sweep where the current changes
    (two-phase, u' = 0.008 A/s from the recorded current).  At the first
    (u' = 0.98 A/s) the reference's L^2 gradient moves by 4e-6 to 1e-2
    between steps 1e-3 and 3e-5, the Taylor one by 2e-8 between 1e-5 and
    1e-7."""
    moved = plateau_zero(ocp)
    if regime == "dynamic":
        res = charge_1c["dynamic"]
        i = dynamic_rows(res)[1]
        u_dot = input_rate(res, i)
        assert res.regime[i] == TWO_PHASE and u_dot != 0.0
    else:
        res, i = case_row(charge_1c, N_r, regime, scheme)
    f, h, x0, scales = model_at(res, i, params, moved)
    u0 = float(res.current[i])
    vals, grads = lie_stack(f, h, x0, u0, u_dot, 3, CFG, scales)
    ref = [nested_lie_stack(f, h, x0, u0, u_dot, 3, eps, scales,
                            params.current_for_c_rate(1.0)) for eps in (3e-4, 1.5e-4)]
    ref_vals, ref_grads = ((4.0 * b - a) / 3.0 for a, b in zip(*ref))
    assert np.all(np.abs(vals - ref_vals) <= 1e-6 * np.abs(ref_vals))
    err = np.abs((grads - ref_grads) * scales).max(axis=1)
    assert np.all(err <= 1e-6 * np.abs(ref_grads * scales).max(axis=1))


def test_sweep_matrix_equals_the_point_alone(params, ocp, charge_1c, monkeypatch):
    """Each point's scaled matrix from the sweep's batched pass equals
    `observability_matrix` of that point alone to 1e-12, u' != 0 included."""
    res = charge_1c["dynamic"]
    stacks = []
    rank_and_condition_ = observability_mod.rank_and_condition

    def recorded(O, config=None):
        stacks.append(O)
        return rank_and_condition_(O, config)

    monkeypatch.setattr(observability_mod, "rank_and_condition", recorded)
    sw = sweep(res, params, ObservabilityConfig(stride_s=7.0), ocp=ocp)
    assert not sw.skipped
    groups = {}
    for p in sw.points:
        i = int(np.searchsorted(res.time, p.time))
        groups.setdefault((res.regime[i], res.direction[i], res.core_phase[i]), []).append(i)
    # the sweep ranks each group's scaled stack, then its raw stack
    assert len(stacks) == 2 * len(groups)
    assert any(input_rate(res, i) != 0.0 for rows in groups.values() for i in rows)
    for scaled, rows in zip(stacks[::2], groups.values()):
        assert len(scaled) == len(rows)
        for O, i in zip(scaled, rows):
            f, h, x0, scales = model_at(res, i, params, ocp)
            alone = scale_columns(observability_matrix(
                f, h, x0, float(res.current[i]), input_rate(res, i), CFG, scales), scales)
            assert np.abs(O - alone).max() <= 1e-12 * np.abs(alone).max()


def test_flux_rows_equal_the_dense_system(params, ocp, rng):
    """The model's f, written as fluxes w (c_j - c_i) between neighbours, is
    the dense two-phase system A x + B u + G to rounding, for both schemes,
    under current and at rest."""
    N = 3
    for scheme in ("fvm", "fdm"):
        for current in (-3.0, 0.0, 2.0):
            r_p = params.R_s_p * rng.uniform(0.2, 0.9)
            st = FullState(np.full(3, 1e4), params.c_s_max_p * rng.uniform(0.1, 0.9, N),
                           np.full(6, params.c_e0), TWO_PHASE, r_p, params.c_beta("ch"),
                           "beta", "ch")
            f, _, x0, _ = positive_model(st, params, ocp, params.c_e0, CFG, scheme)
            dense = two_phase_system(params, r_p, current, N, "ch", "beta", scheme)
            scale = np.abs(dense.A) @ np.abs(x0) + np.abs(dense.B * current) + np.abs(dense.G)
            assert np.all(np.abs(f(x0, current) - dense.rhs(x0, current)) <= 1e-14 * scale)


def test_lie_stack_evaluates_each_perturbed_state_once(params, ocp, charge_1c):
    """At a two-phase N_r = 3 point (n = 4 states, orders 0..3) f runs three
    times, once per order it feeds, and h once, each on the jets of the point
    and of its 8 stencil states together: 9 rows, where the nested
    recursion reached 321 states for h and 129 for f."""
    res = charge_1c["fvm", 3]
    i = first_two_phase(res)
    f, h, x0, scales = model_at(res, i, params, ocp)
    counts = new_counts()
    fc, hc = counting(f, h, counts)
    observability_matrix(fc, hc, x0, float(res.current[i]), 0.0, CFG, scales)
    assert counts == {"f_calls": 3, "f_rows": 27, "h_calls": 1, "h_rows": 9}


def counting(f, h, counts):
    """f and h that tally their calls and the rows they evaluate."""
    def counted(fun, key):
        def call(x, u):
            counts[key + "_calls"] += 1
            counts[key + "_rows"] += int(np.prod(x.shape[:-1]))
            return fun(x, u)
        return call
    return counted(f, "f"), counted(h, "h")


def new_counts():
    return {"f_calls": 0, "f_rows": 0, "h_calls": 0, "h_rows": 0}


def test_sweep_evaluation_counts(params, ocp, charge_1c, monkeypatch):
    """The 1C N_r = 3 sweep at a 30 s stride builds one model per group of
    points (one-phase before and after the two-phase section, two-phase) and
    runs f n - 1 times and h once per group, on 2 n + 1 rows per point:
    1,021 h rows for 121 points, where the nested recursion evaluated h on
    ~36,000 states."""
    counts = new_counts()
    counts["models"] = 0
    model = observability_mod.positive_model

    def counted_model(*args, **kwargs):
        f, h, x0, scales = model(*args, **kwargs)
        counts["models"] += 1
        return (*counting(f, h, counts), x0, scales)

    monkeypatch.setattr(observability_mod, "positive_model", counted_model)
    sw = sweep(charge_1c["fvm", 3], params, ObservabilityConfig(stride_s=30.0), ocp=ocp)
    two = sum(p.regime == TWO_PHASE for p in sw.points)
    assert len(sw) == 121 and two == 87
    assert counts == {"models": 3, "f_calls": 2 + 3 + 2, "h_calls": 3,
                      "f_rows": 2 * 7 * (121 - two) + 3 * 9 * two,
                      "h_rows": 7 * (121 - two) + 9 * two}


def test_criterion_6_window_survives_a_1ulp_perturbation(params, ocp, charge_1c):
    """Criterion 6's run from an initial state moved by 1 ulp in every entry
    gives the same rank at every sweep point, so the same rank-loss window:
    the ranks no longer read the rounding of the top Lie order."""
    disc = DiscretizationConfig(N_r=3, N_e=6)
    init = initial_state(params, disc, 0.0, "ch")
    for name in ("neg", "pos", "elec"):
        setattr(init, name, np.nextafter(getattr(init, name), np.inf))
    moved = simulate(cc_profile(params, 1.0, "ch"), init, params, disc,
                     SolverConfig(cutoffs_enabled=False), ocp=ocp)
    assert not np.array_equal(moved.pos_c, charge_1c["fvm", 3].pos_c)
    ranks = []
    for res in (charge_1c["fvm", 3], moved):
        sw = sweep(res, params, ObservabilityConfig(stride_s=30.0), ocp=ocp)
        ranks.append([(p.time, p.regime, p.rank) for p in sw.points])
    window = [t for t, regime, rank in ranks[0] if regime == TWO_PHASE and rank < 4]
    assert window == [420.0, 450.0, 480.0]
    assert ranks[0] == ranks[1]
