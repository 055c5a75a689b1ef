"""Acceptance criteria.

One test per criterion; each prints a PASS/FAIL line with the measured
numbers.  Tolerances are pinned here.  Criterion 7 is implemented exactly
as stated and is expected to fail with the in-scope finite-difference
reference scheme; see the notes in the repository README.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from csespm.identify import ParameterSubset, identify, make_synthetic_dataset
from csespm.observability import (ObservabilityConfig, observability_matrix,
                                  positive_model, scale_columns, sweep)
from csespm.output import (cell_voltage, electrolyte_potential_drop,
                           overpotential, soc_from_theta)
from csespm.params import DiscretizationConfig, params_for_rate
from csespm.phase import PhaseConfig
from csespm.simulate import (SolverConfig, cc_profile, cycle_profile,
                             initial_state, mass_audit, simulate,
                             synthetic_dynamic_profile)
from csespm.states import FullState, TWO_PHASE
from csespm import systems

DATA = Path(__file__).parent / "data"
PHASE_CFG = PhaseConfig()


def report(num, ok, detail):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# --- shared expensive runs ------------------------------------------------------

@pytest.fixture(scope="module")
def cycling_fvm(params):
    disc = DiscretizationConfig(N_r=4, N_e=6)
    prof = cycle_profile(params, 0.25, 3)
    init = initial_state(params, disc, 0.0, "ch")
    t0 = time.perf_counter()
    res = simulate(prof, init, params, disc, SolverConfig(dt=1.0, cutoffs_enabled=False))
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cycling_fdm(params):
    disc = DiscretizationConfig(N_r=4, N_e=6, scheme="fdm")
    prof = cycle_profile(params, 0.25, 3)
    init = initial_state(params, disc, 0.0, "ch")
    return simulate(prof, init, params, disc, SolverConfig(dt=1.0, cutoffs_enabled=False))


def charge_sweep(params, ocp, c_rate, N_r, scheme="fvm", stride=None):
    disc = DiscretizationConfig(N_r=N_r, N_e=6, scheme=scheme)
    prof = cc_profile(params, c_rate, "ch")
    init = initial_state(params, disc, 0.0, "ch")
    res = simulate(prof, init, params, disc, SolverConfig(cutoffs_enabled=False),
                   ocp=ocp)
    stride = stride or max(30.0, 3600.0 / c_rate / 120.0)
    sw = sweep(res, params, ObservabilityConfig(stride_s=stride), ocp=ocp,
               scheme=scheme)
    return res, sw


@pytest.fixture(scope="module")
def sweep_1c_n2(params, ocp):
    return charge_sweep(params, ocp, 1.0, 2)


def cycle_boundary_drift(res, params, c_rate=0.25, cycles=3):
    """Per-cycle return error of the bulk concentration, relative to c_max."""
    half = 3600.0 / c_rate
    worst_p = worst_n = 0.0
    for k in range(1, cycles + 1):
        i = int(np.searchsorted(res.time, 2 * k * half))
        i = min(i, len(res.time) - 1)
        dp = abs(res.mass_pos[i] - res.mass_pos[0]) / (
            params.c_s_max_p * params.eps_p * params.A_cell * params.L_p)
        dn = abs(res.mass_neg[i] - res.mass_neg[0]) / (
            params.c_s_max_n * params.eps_n * params.A_cell * params.L_n)
        worst_p = max(worst_p, dp)
        worst_n = max(worst_n, dn)
    return worst_p, worst_n


# --- criteria ---------------------------------------------------------------------

def test_criterion_1_mass_conservation(params, cycling_fvm):
    res, elapsed = cycling_fvm
    worst_p, worst_n = cycle_boundary_drift(res, params)
    rep = mass_audit(res, params)
    elec = float(rep.res_elec_rel.max())
    ok = (worst_p <= 1e-6 and worst_n <= 1e-6 and elec <= 1e-9
          and elapsed < 30.0)
    assert report(1, ok,
                  f"per-cycle bulk drift pos {worst_p:.2e} neg {worst_n:.2e} "
                  f"(tol 1e-6), electrolyte {elec:.2e} (tol 1e-9), "
                  f"runtime {elapsed:.1f}s (< 30s)")


def test_criterion_2_fdm_nonconservation(params, cycling_fvm, cycling_fdm):
    fvm_drift = mass_audit(cycling_fvm[0], params).max_drift_rel
    fdm_drift = mass_audit(cycling_fdm, params).max_drift_rel
    ratio = fdm_drift / max(fvm_drift, 1e-300)
    ok = ratio >= 10.0
    assert report(2, ok, f"mass drift FDM {fdm_drift:.2e} vs FVM {fvm_drift:.2e} "
                         f"(ratio {ratio:.1e} >= 10)")


def test_criterion_3_grid_fidelity(params):
    worst_v, worst_f = 0.0, 0.0
    details = []
    for label, c_rate, tag in (("C/4", 0.25, "c4"), ("C/2", 0.5, "c2"), ("1C", 1.0, "1c")):
        golden = np.genfromtxt(DATA / f"golden_nr200_{tag}_discharge.csv",
                               delimiter=",", names=True)
        p_rate = params_for_rate(params, label)
        disc = DiscretizationConfig(N_r=4, N_e=6)
        prof = cc_profile(p_rate, c_rate, "dis")
        init = initial_state(p_rate, disc, 1.0, "dis")
        res = simulate(prof, init, p_rate, disc, SolverConfig())
        n = min(len(res), len(golden))
        dv = res.voltage[:n] - golden["voltage_V"][:n]
        rms = 1e3 * np.sqrt(np.mean(dv**2))
        # front deviation measured on the core volume fraction: the radius
        # itself has a cube-root singularity at the core collapse, so any
        # exit-time offset shows up unbounded in radius units
        dfrac = np.abs(res.r_p[:n]**3 - golden["r_p_over_R"][:n]**3)
        worst_v = max(worst_v, rms)
        worst_f = max(worst_f, float(dfrac.max()))
        details.append(f"{label} {rms:.2f}mV/{100 * dfrac.max():.3f}%")
    ok = worst_v <= 5.0 and worst_f <= 0.02
    assert report(3, ok, "V RMSE (tol 5 mV) and core volume fraction dev "
                         f"(tol 2%): {', '.join(details)}")


def test_criterion_4_transition_continuity(params, cycling_fvm):
    res, _ = cycling_fvm
    R = params.R_s_p
    worst_jump, worst_mass = 0.0, 0.0
    n_trans = 0
    for e in res.events:
        if e.kind == "sign_flip":
            continue
        n_trans += 1
        worst_jump = max(worst_jump, abs(e.r_p_post - e.r_p_pre) / R)
        worst_mass = max(worst_mass, e.mass_error_rel)
    # the entry seed sits exactly at delta_init * R; events are localized by
    # bisection to event_tol = 1e-3 s, which lets the seed radius move by a
    # few 1e-6 relative before the transition executes
    tol_jump = PHASE_CFG.delta_init * (1 + 1e-4)
    ok = (n_trans >= 12 and worst_jump <= tol_jump
          and worst_mass <= PHASE_CFG.mass_tol)
    assert report(4, ok, f"{n_trans} transitions, max |dr_p|/R {worst_jump:.6e} "
                         f"(tol {PHASE_CFG.delta_init:.0e} + localization slack), "
                         f"max bulk jump {worst_mass:.2e} "
                         f"(tol {PHASE_CFG.mass_tol:.0e})")


def test_criterion_5_full_rank_and_rate_ordering(params, ocp, sweep_1c_n2):
    _, sw_1c = sweep_1c_n2
    _, sw_c4 = charge_sweep(params, ocp, 0.25, 2)
    full_1c = sw_1c.full_rank_everywhere()
    full_c4 = sw_c4.full_rank_everywhere()
    m_1c = float(np.mean(sw_1c.finite_log10_cond()))
    m_c4 = float(np.mean(sw_c4.finite_log10_cond()))
    ok = full_1c and full_c4 and m_c4 > m_1c
    assert report(5, ok, f"full rank: 1C {full_1c}, C/4 {full_c4}; mean log10 "
                         f"cond C/4 {m_c4:.2f} > 1C {m_1c:.2f}")


def test_criterion_6_rank_loss_window(params, ocp):
    disc = DiscretizationConfig(N_r=3, N_e=6)
    prof = cc_profile(params, 1.0, "ch")
    init = initial_state(params, disc, 0.0, "ch")
    res = simulate(prof, init, params, disc, SolverConfig(cutoffs_enabled=False),
                   ocp=ocp)
    enter = [e for e in res.events if e.kind == "enter_two_phase"][0]
    sw = sweep(res, params, ObservabilityConfig(stride_s=30.0), ocp=ocp)
    two_phase_pts = [p for p in sw.points if p.regime == TWO_PHASE]
    flags = [p.rank < p.full_rank_needed for p in two_phase_pts]
    n_def = sum(flags)
    # the deficient points must form a contiguous leading block of the
    # two-phase section, i.e. the window starts at the entry event
    leading = 0
    for f in flags:
        if not f:
            break
        leading += 1
    left_edge = two_phase_pts[0].time if two_phase_pts else float("inf")
    ok = (n_def > 0 and leading == n_def
          and left_edge - enter.time <= 30.0 + 1e-9)
    soc_lo = two_phase_pts[0].soc_p if two_phase_pts else float("nan")
    soc_hi = two_phase_pts[leading - 1].soc_p if leading else float("nan")
    assert report(6, ok, f"rank<4 window: {n_def} points, contiguous from entry "
                         f"(t={enter.time:.0f}s), SOC {soc_lo:.3f}..{soc_hi:.3f}")


@pytest.mark.xfail(strict=True, reason=(
    "With the in-scope untransformed FDM reference (same cell-center state "
    "meaning and output reconstructions as the FVM), matched-state "
    "conditioning is near identical and the trajectory median comes out "
    "lower for the FDM, because its mass leak biases the shell gradients "
    "and its state trajectory; the direction reported for the transformed-"
    "coordinate FDM is not reproduced.  Implemented as stated; see the "
    "README notes."))
def test_criterion_7_scheme_conditioning(params, ocp, sweep_1c_n2):
    _, sw_fvm = sweep_1c_n2
    _, sw_fdm = charge_sweep(params, ocp, 1.0, 2, scheme="fdm")
    med_fvm = float(np.median(sw_fvm.finite_log10_cond()))
    med_fdm = float(np.median(sw_fdm.finite_log10_cond()))
    ok = med_fvm < med_fdm
    assert report(7, ok, f"median log10 cond FVM {med_fvm:.2f} vs FDM {med_fdm:.2f} "
                         f"(require FVM < FDM)")


def test_criterion_8_dynamic_input_fluctuation(params, ocp, sweep_1c_n2):
    _, sw_cc = sweep_1c_n2
    disc = DiscretizationConfig(N_r=2, N_e=6)
    prof = synthetic_dynamic_profile(params)
    init = initial_state(params, disc, 0.6, "dis")
    res = simulate(prof, init, params, disc, SolverConfig(cutoffs_enabled=False),
                   ocp=ocp)
    sw_dyn = sweep(res, params, ObservabilityConfig(stride_s=20.0), ocp=ocp)
    std_dyn = float(np.std(sw_dyn.finite_log10_cond()))
    std_cc = float(np.std(sw_cc.finite_log10_cond()))
    ok = std_dyn > std_cc
    assert report(8, ok, f"std log10 cond dynamic {std_dyn:.3f} > CC {std_cc:.3f}")


def test_criterion_9_thin_shell_degeneracy(params, ocp):
    cfg = ObservabilityConfig()
    sigmas, trend = [], []
    for frac in (0.10, 0.01, 0.001):
        st = FullState(neg=np.full(3, 0.5 * params.c_s_max_n),
                       pos=np.full(3, params.c_alpha("ch")),
                       elec=np.full(6, params.c_e0), regime=TWO_PHASE,
                       r_p=(1 - frac) * params.R_s_p,
                       core_conc=params.c_beta("ch"), core_phase="beta",
                       direction="ch")
        f, h, x0, scales = positive_model(st, params, ocp, params.c_e0, cfg)
        u0 = -params.current_for_c_rate(1.0)
        O = observability_matrix(f, h, x0, u0, 0.0, scales)
        s = np.linalg.svd(scale_columns(O, scales), compute_uv=False)
        sigmas.append(float(s[-1] / s[0]))
        trend.append(float(s[-2] / s[0]))
    # the uniform shell at g is structurally rank n - 1, so sigma_min lies
    # below what an SVD resolves (eps * n of sigma_max); the resolved
    # degeneracy trend is sigma_{n-1}
    resolved = np.finfo(float).eps * len(x0)
    ok = (sigmas[0] > sigmas[1] > sigmas[2]
          and trend[0] > trend[1] > trend[2] > resolved)
    assert report(9, ok, "normalized sigma_min at shell 10%/1%/0.1%: "
                         + "/".join(f"{s:.1e}" for s in sigmas)
                         + "; sigma_{n-1}: " + "/".join(f"{s:.1e}" for s in trend))


def test_criterion_10_lie_derivative_oracle(params, ocp):
    cfg = ObservabilityConfig()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        p = params.replace(
            D_s_p=params.D_s_p * 10**rng.uniform(-0.3, 0.3),
            k_p=params.k_p * 10**rng.uniform(-0.3, 0.3),
            R_l=params.R_l * 10**rng.uniform(-0.2, 0.2))
        disc = DiscretizationConfig(N_r=2, N_e=6)
        theta = rng.uniform(0.08, 0.18)
        st = initial_state(p, disc, 0.5, "dis")
        st.pos = p.c_s_max_p * np.array([theta, theta * rng.uniform(0.98, 1.02)])
        st.regime = "one_phase_alpha"
        st.r_p, st.core_conc, st.core_phase = 0.0, float("nan"), None
        u0 = float(rng.uniform(-1.0, 1.0)) * p.current_for_c_rate(1.0)
        f, h, x0, scales = positive_model(st, p, ocp, p.c_e0, cfg)
        u_scale = p.current_for_c_rate(1.0)
        # linearize the true output at the expansion point, then the Lie
        # stack must reproduce the analytic [C; C A] stack
        eps = 1e-6
        C = np.empty(2)
        for j in range(2):
            d = eps * max(abs(x0[j]), scales[j])
            xp, xm = x0.copy(), x0.copy()
            xp[j] += d
            xm[j] -= d
            C[j] = (h(xp, u0) - h(xm, u0)) / (2 * d)
        du = eps * max(abs(u0), u_scale)
        d_u = (h(x0, u0 + du) - h(x0, u0 - du)) / (2 * du)
        h0 = h(x0, u0)
        h_lin = lambda x, u: h0 + (x - x0) @ C + d_u * (u - u0)  # noqa: E731
        A = systems.build_one_phase_solid_system(p, "pos", 2).A
        O = observability_matrix(f, h_lin, x0, u0, 0.0, scales)
        O_true = np.vstack([C, C @ A])
        err = np.abs(O - O_true).max() / np.abs(O_true).max()
        worst = max(worst, float(err))
    ok = worst <= 1e-4
    assert report(10, ok, f"max relative error vs [C; CA] over 100 draws: {worst:.2e} "
                          f"(tol 1e-4)")


def test_criterion_11_identification_recovery(params):
    t0 = time.perf_counter()
    disc = DiscretizationConfig(N_r=4, N_e=6)
    solver = SolverConfig(dt=10.0, cutoffs_enabled=False)
    dataset = make_synthetic_dataset(params, disc, 0.25, "dis",
                                     duration=3600.0, dt=10.0,
                                     c_rate_label="C/4")
    subset = ParameterSubset.preset("c2-1c", params, decades=1.0).subset(
        ("D_s_p", "k_p"))
    start = params.replace(D_s_p=params.D_s_p * 3.0, k_p=params.k_p / 4.0)
    fit = identify([dataset], subset, start, disc, solver, seed=7, budget=2000)
    elapsed = time.perf_counter() - t0
    d_err = abs(fit.best_params.D_s_p / params.D_s_p - 1.0)
    k_err = abs(fit.best_params.k_p / params.k_p - 1.0)
    ok = (d_err <= 0.20 and k_err <= 0.20 and fit.best_rmse < 1e-3
          and elapsed < 300.0)
    assert report(11, ok, f"D_s_p err {100 * d_err:.1f}%, k_p err {100 * k_err:.1f}% "
                          f"(tol 20%), RMSE {1e3 * fit.best_rmse:.3f} mV (< 1 mV), "
                          f"runtime {elapsed:.0f}s (< 300s)")


def test_criterion_12_output_map_identities(params, ocp):
    rng = np.random.default_rng(99)
    n = 1000
    worst_recompose = 0.0
    for _ in range(n):
        # eta oddness
        i0 = 10**rng.uniform(-3, 0)
        current = rng.uniform(-80, 80)
        el = "pos" if rng.random() < 0.5 else "neg"
        assert overpotential(params, el, -current, i0) == pytest.approx(
            -overpotential(params, el, current, i0), rel=1e-10, abs=1e-18)
        # dphi_e = 0 on uniform electrolyte
        level = rng.uniform(500, 2000)
        assert electrolyte_potential_drop(params, np.full(6, level)) == 0.0
        # V recomposition on a random valid state
        direction = "dis" if rng.random() < 0.5 else "ch"
        soc = rng.uniform(0.05, 0.95)
        disc = DiscretizationConfig(N_r=4, N_e=6)
        st = initial_state(params, disc, soc, direction)
        st.neg = st.neg * rng.uniform(0.95, 1.05)
        st.elec = st.elec * rng.uniform(0.9, 1.1, 6)
        cur = rng.uniform(-1.0, 1.0) * params.current_for_c_rate(1.0)
        snap = cell_voltage(st, cur, params, ocp)
        worst_recompose = max(worst_recompose, abs(
            snap.V_cell - snap.recompose(cur, params.R_l)))
    # SOC affine endpoints per the identified window values
    assert soc_from_theta(params, 0.925, "pos", "dis") == pytest.approx(0.0, abs=1e-12)
    assert soc_from_theta(params, 0.066, "pos", "dis") == pytest.approx(1.0, abs=1e-12)
    assert soc_from_theta(params, 0.910, "pos", "ch") == pytest.approx(0.0, abs=1e-12)
    assert soc_from_theta(params, 0.065, "pos", "ch") == pytest.approx(1.0, abs=1e-12)
    ok = worst_recompose < 1e-12
    assert report(12, ok, f"{n} random states: recomposition max err "
                          f"{worst_recompose:.1e}; eta odd, dphi uniform-zero, "
                          f"SOC endpoints exact")
