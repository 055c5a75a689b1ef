import numpy as np
import pytest

from csespm import observability as observability_mod
from csespm.observability import (LieDerivativeError, ObservabilityConfig,
                                  lie_stack, observability_matrix,
                                  positive_model, rank_and_condition,
                                  scale_columns, sweep)
from csespm.output import electrode_c_e_avg
from csespm.params import DiscretizationConfig
from csespm.simulate import SolverConfig, cc_profile, initial_state, simulate
from csespm.states import FullState, TWO_PHASE
from csespm import systems

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
        O = observability_matrix(f, h, x0, 10.0, 0.0, CFG, scales,
                                 params.current_for_c_rate(1.0))
        assert O.shape == (want, want)


def test_order_zero_is_ocp_at_rest(params, ocp):
    disc = DiscretizationConfig(N_r=2, N_e=6)
    st = initial_state(params, disc, 0.9, "dis")
    f, h, x0, scales = positive_model(st, params, ocp, params.c_e0, CFG)
    vals, _ = lie_stack(f, h, x0, 0.0, 0.0, 1, CFG, scales,
                        params.current_for_c_rate(1.0))
    theta = systems.surface_concentration(
        st.pos, 0.0, params, "pos", params.R_s_p / 2) / params.c_s_max_p
    assert vals[0] == pytest.approx(ocp.pos_dis(theta), abs=1e-12)


def test_linear_oracle_gradient(params, ocp):
    """For linear dynamics and a linearized output, dL1/dx must equal C A."""
    disc = DiscretizationConfig(N_r=2, N_e=6)
    st = initial_state(params, disc, 0.9, "ch")
    f, h, x0, scales = positive_model(st, params, ocp, params.c_e0, CFG)
    u0 = -params.current_for_c_rate(1.0)
    u_scale = abs(u0)
    h_lin, C = linearized_output(h, x0, u0, scales, u_scale)
    A = systems.build_one_phase_solid_system(params, "pos", 2).A
    _, grads = lie_stack(f, h_lin, x0, u0, 0.0, 2, CFG, scales, u_scale)
    assert np.allclose(grads[0], C, rtol=1e-8)
    assert np.allclose(grads[1], C @ A, rtol=1e-4)


def test_input_derivative_terms_enter(params, ocp):
    """With a linear output the first-order Lie value includes d h/du * u',
    while its state gradient stays C A regardless of u'."""
    disc = DiscretizationConfig(N_r=2, N_e=6)
    st = initial_state(params, disc, 0.9, "ch")
    f, h, x0, scales = positive_model(st, params, ocp, params.c_e0, CFG)
    u0 = -params.current_for_c_rate(1.0)
    u_scale = abs(u0)
    h_lin, C = linearized_output(h, x0, u0, scales, u_scale)
    vals0, grads0 = lie_stack(f, h_lin, x0, u0, 0.0, 2, CFG, scales, u_scale)
    vals1, grads1 = lie_stack(f, h_lin, x0, u0, 0.5, 2, CFG, scales, u_scale)
    assert vals1[1] != pytest.approx(vals0[1])
    assert np.allclose(grads1[1], grads0[1], rtol=1e-6)


def test_richardson_step_halving(params, ocp):
    """Central differences: halving the step divides the error by about 4."""
    disc = DiscretizationConfig(N_r=2, N_e=6)
    st = initial_state(params, disc, 0.45, "dis")
    assert st.regime == TWO_PHASE
    u0 = params.current_for_c_rate(1.0)
    u_scale = abs(u0)
    f, h, x0, scales = positive_model(st, params, ocp, params.c_e0, CFG)

    def grad_h(step):
        cfg = ObservabilityConfig(jacobian_step=step)
        _, grads = lie_stack(f, h, x0, u0, 0.0, 1, cfg, scales, u_scale)
        return grads[0]

    g1 = grad_h(4e-4)
    g2 = grad_h(2e-4)
    g4 = grad_h(1e-4)
    err1 = np.abs(g1 - g4)
    err2 = np.abs(g2 - g4)
    mask = err1 > np.abs(g4).max() * 1e-9
    ratio = err1[mask] / np.maximum(err2[mask], 1e-300)
    # second-order convergence: expect roughly 4 (Richardson uses the
    # difference-to-finer as the error proxy, giving ~ (4-1)/(1-1/4) bands)
    assert np.median(ratio) > 2.5


def test_nonfinite_reports_failing_order(params, ocp):
    def f(x, u):
        return np.full_like(x, np.nan)

    def h(x, u):
        return x[:, 0]

    with pytest.raises(LieDerivativeError, match="order 1"):
        lie_stack(f, h, np.array([1.0, 2.0]), 1.0, 0.0, 2, CFG,
                  np.ones(2), 1.0)


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
        O = observability_matrix(f, h, x0, u0, 0.0, CFG, scales, abs(u0))
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


# --- level-set Lie stack -------------------------------------------------------------

def nested_lie_stack(f, h, x0, u0, u_dot, orders, config, x_scales, u_scale):
    """The plain nested central-difference recursion in (u0, u'), every level
    recomputed from scratch on one state at a time; the reference the
    level-set ``lie_stack`` must reproduce."""
    eps = config.jacobian_step

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
    return values, grads


@pytest.fixture(scope="module")
def charge_1c(params, ocp):
    """1C charges from SOC 0 at N_r = 3 and 4 (FVM) and at N_r = 3 (FDM),
    keyed by (scheme, N_r)."""
    out = {}
    for scheme, N_r in (("fvm", 3), ("fvm", 4), ("fdm", 3)):
        disc = DiscretizationConfig(N_r=N_r, N_e=6, scheme=scheme)
        out[scheme, N_r] = simulate(cc_profile(params, 1.0, "ch"),
                                    initial_state(params, disc, 0.0, "ch"), params, disc,
                                    SolverConfig(cutoffs_enabled=False), ocp=ocp)
    return out


def model_at(res, i, params, ocp):
    state = res.state_at(i)
    c_e_avg = electrode_c_e_avg(params, state.elec, "pos", res.meta["split"])
    return positive_model(state, params, ocp, c_e_avg, CFG, res.meta["scheme"])


def first_two_phase(res):
    """A record 300 s into the two-phase section."""
    return next(i for i in range(len(res)) if res.regime[i] == TWO_PHASE) + 300


@pytest.mark.parametrize("N_r, regime, u_dot, scheme", [
    pytest.param(*case, id="-".join(map(str, case[:3])) + ("" if case[3] == "fvm" else "-fdm"))
    for case in ((3, "one_phase", 0.0, "fvm"), (3, "one_phase", 0.02, "fvm"),
                 (3, TWO_PHASE, 0.0, "fvm"), (3, TWO_PHASE, 0.02, "fvm"),
                 (4, TWO_PHASE, 0.0, "fvm"), (4, TWO_PHASE, 0.02, "fvm"),
                 (3, "one_phase", 0.0, "fdm"), (3, "one_phase", 0.02, "fdm"),
                 (3, TWO_PHASE, 0.0, "fdm"), (3, TWO_PHASE, 0.02, "fdm"))])
def test_memoized_lie_stack_is_bit_identical(params, ocp, charge_1c, N_r, regime, u_dot,
                                             scheme):
    """Each point of a level set is made by the float operations of the
    scalar recursion, and f and h work on each row as on one state, so every
    Lie value and gradient equals the plain recursion's exactly, for both
    schemes.  A nonzero u' exercises the input-derivative term."""
    res = charge_1c[scheme, N_r]
    i = 200 if regime == "one_phase" else first_two_phase(res)
    assert (res.regime[i] == TWO_PHASE) == (regime == TWO_PHASE)
    f, h, x0, scales = model_at(res, i, params, ocp)
    args = (x0, float(res.current[i]), u_dot, len(x0), CFG, scales,
            params.current_for_c_rate(1.0))
    vals, grads = lie_stack(f, h, *args)
    ref_vals, ref_grads = nested_lie_stack(f, h, *args)
    assert vals == ref_vals
    for g, ref in zip(grads, ref_grads):
        assert g.tobytes() == ref.tobytes()


def counting(f, h, counts):
    """f and h that tally their calls and the rows they evaluate."""
    def counted(fun, key):
        def call(x, u):
            counts[key + "_calls"] += 1
            counts[key + "_rows"] += len(x) if x.ndim == 2 else 1
            return fun(x, u)
        return call
    return counted(f, "f"), counted(h, "h")


def new_counts():
    return {"f_calls": 0, "f_rows": 0, "h_calls": 0, "h_rows": 0}


def test_lie_stack_evaluates_each_perturbed_state_once(params, ocp, charge_1c):
    """At a two-phase N_r = 3 point (n = 4 states, orders 0..3) the nested
    stencil reaches the lattice points x0 + sum_j k_j d_j e_j with
    |k|_1 <= 4 for h (321 points) and |k|_1 <= 3 for f (129 points): one h
    call on 321 rows and one f call on 129 rows, where the plain recursion
    evaluates h 5,265 and f 747 times."""
    res = charge_1c["fvm", 3]
    i = first_two_phase(res)
    f, h, x0, scales = model_at(res, i, params, ocp)
    counts = new_counts()
    fc, hc = counting(f, h, counts)
    observability_matrix(fc, hc, x0, float(res.current[i]), 0.0, CFG,
                         scales, params.current_for_c_rate(1.0))
    assert counts == {"f_calls": 1, "f_rows": 129, "h_calls": 1, "h_rows": 321}


def test_sweep_evaluation_counts(params, ocp, charge_1c, monkeypatch):
    """Over the 1C N_r = 3 sweep at a 30 s stride each point makes one h call
    and one f call, on at most 300 h and 120 f rows per point on average
    (the plain recursion needs ~3,870 and ~553 evaluations)."""
    counts = new_counts()
    counts["points"] = 0
    model = observability_mod.positive_model

    def counted_model(*args, **kwargs):
        f, h, x0, scales = model(*args, **kwargs)
        counts["points"] += 1
        return (*counting(f, h, counts), x0, scales)

    monkeypatch.setattr(observability_mod, "positive_model", counted_model)
    sw = sweep(charge_1c["fvm", 3], params, ObservabilityConfig(stride_s=30.0), ocp=ocp)
    assert counts["points"] == len(sw) == 121
    assert counts["h_calls"] == counts["f_calls"] == len(sw)
    assert counts["h_rows"] <= 300 * len(sw) and counts["f_rows"] <= 120 * len(sw)
