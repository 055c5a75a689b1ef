import numpy as np
import pytest

from csespm.errors import ParameterError
from csespm.phase import (PhaseConfig, annulus_remap, apply_sign_flip,
                          detect_transition, enter_two_phase,
                          entry_bulk_threshold, exit_two_phase)
from csespm.params import DiscretizationConfig
from csespm.simulate import (LoadProfile, SolverConfig, cc_profile,
                             initial_state, mass_audit, simulate,
                             synthetic_dynamic_profile)
from csespm.states import TWO_PHASE
from csespm import systems

from dense_systems import two_phase_system

CFG = PhaseConfig()


def one_phase_state(params, disc, theta, regime, direction):
    st = initial_state(params, disc, 0.5, direction)
    st.pos = np.full(disc.N_r, theta * params.c_s_max_p)
    st.regime = regime
    st.r_p, st.core_conc, st.core_phase = 0.0, float("nan"), None
    return st


# --- conservative remap ---------------------------------------------------------

def test_annulus_remap_preserves_total(rng):
    for _ in range(30):
        edges_old = np.sort(rng.uniform(0.0, 1.0, 6))
        edges_old[0] = 0.0
        vals = rng.uniform(100.0, 1000.0, 5)
        edges_new = np.linspace(edges_old[0], edges_old[-1], 8)
        out = annulus_remap(edges_old, vals, edges_new)
        w_old = (4 / 3) * np.pi * np.diff(edges_old**3)
        w_new = (4 / 3) * np.pi * np.diff(edges_new**3)
        assert float(w_new @ out) == pytest.approx(float(w_old @ vals), rel=1e-12)


def test_annulus_remap_uniform_identity():
    edges_old = np.linspace(0.2, 1.0, 5)
    out = annulus_remap(edges_old, np.full(4, 42.0), np.linspace(0.2, 1.0, 9))
    assert np.allclose(out, 42.0)


def _remap_reference(old_edges, old_values, new_edges):
    """The remap as first written, with its concatenated cumulative sum and
    clipped searchsorted indices."""
    w_old = (4.0 / 3.0) * np.pi * old_edges**3
    cum = np.concatenate([[0.0], np.cumsum(old_values * (w_old[1:] - w_old[:-1]))])
    r = np.minimum(np.maximum(new_edges, old_edges[0]), old_edges[-1])
    idx = np.minimum(np.maximum(np.searchsorted(old_edges, r, side="right") - 1, 0),
                     len(old_values) - 1)
    w = (4.0 / 3.0) * np.pi * r**3
    cum_new = cum[idx] + old_values[idx] * (w - w_old[idx])
    v_new = new_edges**3
    return (cum_new[1:] - cum_new[:-1]) / ((4.0 / 3.0) * np.pi * (v_new[1:] - v_new[:-1]))


@pytest.mark.parametrize("n_old, n_new", [(1, 3), (2, 2), (4, 4), (5, 4), (4, 9), (50, 50)])
def test_annulus_remap_matches_reference(rng, n_old, n_new):
    """The remap is bit for bit the reference: on the substep's grids (a
    swept annulus before an old shell, remapped onto the shell from the new
    front), on grids that share edges, and with new edges outside the old
    domain on either side."""
    for k in range(40):
        old_edges = np.sort(rng.uniform(0.1, 1.0, n_old + 1))
        vals = rng.uniform(100.0, 1000.0, n_old)
        if k % 4 == 0:
            new_edges = np.linspace(old_edges[0], old_edges[-1], n_new + 1)
        elif k % 4 == 1:
            new_edges = np.sort(rng.uniform(0.0, 1.2, n_new + 1))
        elif k % 4 == 2:
            shared = rng.choice(old_edges, min(n_new - 1, n_old + 1), replace=False)
            new_edges = np.unique(np.concatenate([shared, rng.uniform(0.1, 1.0, n_new),
                                                  [0.05, 1.1]]))
        else:
            faces = np.linspace(old_edges[1], 1.0, n_old)
            old_edges = np.concatenate([[old_edges[0]], faces])
            new_edges = np.linspace(old_edges[0], 1.0, n_new + 1)
        got = annulus_remap(old_edges, vals, new_edges)
        assert np.array_equal(got, _remap_reference(old_edges, vals, new_edges)), k


# --- entry ------------------------------------------------------------------------

def test_entry_threshold_is_lever_rule_point(params):
    thr = entry_bulk_threshold(params, "dis", CFG)
    f = (1 - CFG.delta_init) ** 3
    want = f * params.c_alpha("dis") + (1 - f) * params.c_beta("dis")
    assert thr == pytest.approx(want, rel=1e-14)
    assert thr > params.c_alpha("dis")
    thr_ch = entry_bulk_threshold(params, "ch", CFG)
    assert thr_ch < params.c_beta("ch")


def test_enter_two_phase_discharge(params, disc4):
    thr = entry_bulk_threshold(params, "dis", CFG)
    st = one_phase_state(params, disc4, thr / params.c_s_max_p, "one_phase_alpha", "dis")
    pre_bulk = systems.one_phase_bulk(st.pos, params.R_s_p)
    new, ev = enter_two_phase(st, 10.0, params, CFG, time=100.0)
    assert new.regime == TWO_PHASE
    assert new.core_phase == "alpha"
    assert new.core_conc == pytest.approx(params.c_alpha("dis"))
    assert new.r_p == pytest.approx((1 - CFG.delta_init) * params.R_s_p, rel=1e-9)
    # shell seeded at the nucleating phase value
    assert np.allclose(new.pos, params.c_beta("dis"), rtol=1e-6)
    post_bulk = systems.two_phase_bulk(new.pos, new.r_p, new.core_conc, params.R_s_p)
    assert post_bulk == pytest.approx(pre_bulk, rel=1e-12)
    assert ev.kind == "enter_two_phase"
    assert ev.mass_error_rel <= CFG.mass_tol


def test_enter_two_phase_charge(params, disc4):
    thr = entry_bulk_threshold(params, "ch", CFG)
    st = one_phase_state(params, disc4, thr / params.c_s_max_p, "one_phase_beta", "ch")
    new, ev = enter_two_phase(st, -10.0, params, CFG, time=5.0)
    assert new.core_phase == "beta"
    assert new.core_conc == pytest.approx(params.c_beta("ch"))
    assert np.allclose(new.pos, params.c_alpha("ch"), rtol=1e-6)
    assert ev.mass_error_rel <= CFG.mass_tol


def test_entry_with_gradient_preserves_bulk(params, disc4, rng):
    thr = entry_bulk_threshold(params, "dis", CFG)
    st = one_phase_state(params, disc4, thr / params.c_s_max_p, "one_phase_alpha", "dis")
    st.pos = st.pos + rng.uniform(-30.0, 30.0, disc4.N_r)
    pre = systems.one_phase_bulk(st.pos, params.R_s_p)
    new, ev = enter_two_phase(st, 10.0, params, CFG, time=0.0)
    post = systems.two_phase_bulk(new.pos, new.r_p, new.core_conc, params.R_s_p)
    assert post == pytest.approx(pre, rel=1e-12)


# --- exit --------------------------------------------------------------------------

def test_exit_uniform_shell(params, disc4):
    cb = params.c_beta("dis")
    st = initial_state(params, disc4, 0.5, "dis")
    st.pos = np.full(disc4.N_r, cb)
    st.r_p = CFG.r_eps_rel * params.R_s_p * 0.5
    st.core_conc = params.c_alpha("dis")
    st.core_phase = "alpha"
    st.regime = TWO_PHASE
    new, ev = exit_two_phase(st, params, CFG, time=50.0, vanished="core")
    assert new.regime == "one_phase_beta"
    assert new.r_p == 0.0
    assert np.allclose(new.pos, cb, rtol=1e-6)
    assert ev.mass_error_rel <= CFG.mass_tol


def test_exit_random_shell_preserves_mass(params, disc4, rng):
    for _ in range(20):
        st = initial_state(params, disc4, 0.5, "dis")
        st.regime = TWO_PHASE
        st.r_p = rng.uniform(1e-4, 5e-3) * params.R_s_p
        st.core_conc = params.c_alpha("dis")
        st.core_phase = "alpha"
        st.pos = rng.uniform(params.c_alpha("dis"), params.c_beta("dis"), disc4.N_r)
        pre = systems.solid_moles(st.pos, params.R_s_p, st.r_p, st.core_conc)
        new, ev = exit_two_phase(st, params, CFG, time=0.0)
        post = systems.solid_moles(new.pos, params.R_s_p)
        assert post == pytest.approx(pre, rel=1e-12)


def test_exit_shell_vanished_returns_core_phase(params, disc4):
    st = initial_state(params, disc4, 0.5, "dis")
    st.regime = TWO_PHASE
    st.r_p = (1 - 5e-5) * params.R_s_p
    st.core_conc = params.c_alpha("dis")
    st.core_phase = "alpha"
    st.pos = np.full(disc4.N_r, params.c_beta("dis"))
    new, _ = exit_two_phase(st, params, CFG, time=0.0, vanished="shell")
    assert new.regime == "one_phase_alpha"


# --- sign flips ----------------------------------------------------------------------

def test_sign_flip_keeps_state(params, disc4):
    st = initial_state(params, disc4, 0.5, "dis")
    assert st.regime == TWO_PHASE
    new, ev = apply_sign_flip(st, -3.0, time=7.0)
    assert np.array_equal(new.pos, st.pos)
    assert new.r_p == st.r_p
    assert new.core_phase == st.core_phase
    assert new.direction == "ch"
    assert ev.kind == "sign_flip"


def test_sign_flip_reverses_front_velocity(params, disc4):
    """After a discharge-to-charge flip the alpha core keeps g = c_beta and
    the front factor 1/(c_core - g): the front reverses because the shell
    drains below g at the interface, not through a sign(I) factor."""
    st = initial_state(params, disc4, 0.5, "dis")
    assert st.core_phase == "alpha"
    flipped, _ = apply_sign_flip(st, -5.0, time=0.0)
    assert flipped.core_phase == "alpha" and flipped.direction == "ch"
    N = disc4.N_r
    dr = (params.R_s_p - st.r_p) / N
    for s, current in ((st, +5.0), (flipped, -5.0)):
        sysm = two_phase_system(params, s.r_p, current, N,
                                              s.direction, s.core_phase)
        g, c_core = systems.interface_values(params, s.core_phase, s.direction)
        assert g == params.c_beta(s.direction)
        # lithium arriving (c_1 > g) shrinks the core, draining (c_1 < g)
        # grows it, under either current sign
        velocities = []
        for c_1 in (g + 100.0, g - 100.0):
            x = np.concatenate([[c_1], s.pos[1:], [s.r_p]])
            v = float(sysm.A[-1] @ x + sysm.G[-1])
            assert v == pytest.approx(2 * params.D_s_p * (c_1 - g) / (dr * (c_core - g)))
            velocities.append(v)
        assert velocities[0] < 0.0 < velocities[1]


def test_micro_cycling_tracks_coulomb_count(params, disc4):
    """Charge/discharge bursts inside the plateau: electrode lithium follows
    the ampere-hour throughput within the mass tolerance."""
    init = initial_state(params, disc4, 0.5, "dis")
    mag = params.current_for_c_rate(0.5)
    times, currents = [0.0], []
    for k in range(10):
        currents.append(mag if k % 2 == 0 else -mag)
        times.append(times[-1] + 60.0)
    currents.append(currents[-1])
    res = simulate(LoadProfile(np.array(times), np.array(currents)), init,
                   params, disc4, SolverConfig(cutoffs_enabled=False))
    rep = mass_audit(res, params)
    assert rep.max_drift_rel < 1e-9
    kinds = {e.kind for e in res.events}
    assert "sign_flip" in kinds


# --- detection --------------------------------------------------------------------

def test_detect_transition_states(params, disc4):
    st = one_phase_state(params, disc4, 0.10, "one_phase_alpha", "dis")
    assert detect_transition(st, 5.0, params, CFG) is None
    thr = entry_bulk_threshold(params, "dis", CFG) / params.c_s_max_p
    st2 = one_phase_state(params, disc4, thr * 1.0001, "one_phase_alpha", "dis")
    assert detect_transition(st2, 5.0, params, CFG) == "enter_two_phase"
    # no entry while charging out of the alpha phase
    assert detect_transition(st2, -5.0, params, CFG) is None
    st3 = initial_state(params, disc4, 0.5, "dis")
    st3.r_p = 0.5 * CFG.r_eps_rel * params.R_s_p
    assert detect_transition(st3, 5.0, params, CFG) == "exit_two_phase_core"
    st3.r_p = (1 - 0.5 * CFG.shell_eps_rel) * params.R_s_p
    assert detect_transition(st3, 5.0, params, CFG) == "exit_two_phase_shell"


def test_entry_bisection_matches_fine_steps(params, disc4):
    """The bisected entry time at dt = 1 s agrees with a fine-step run."""
    prof = cc_profile(params, 1.0, "dis", duration=700.0)
    init = initial_state(params, disc4, 1.0, "dis")
    t_events = {}
    for dt in (1.0, 0.05):
        res = simulate(prof, init, params, disc4,
                       SolverConfig(dt=dt, cutoffs_enabled=False))
        enters = [e for e in res.events if e.kind == "enter_two_phase"]
        assert len(enters) == 1
        t_events[dt] = enters[0].time
    assert abs(t_events[1.0] - t_events[0.05]) < 0.1


def test_event_sequence_deterministic(params, disc4):
    prof = cc_profile(params, 1.0, "dis", duration=800.0)
    init = initial_state(params, disc4, 1.0, "dis")
    runs = [simulate(prof, init, params, disc4, SolverConfig(cutoffs_enabled=False))
            for _ in range(2)]
    seq = [[(e.kind, e.time) for e in r.events] for r in runs]
    assert seq[0] == seq[1]


@pytest.mark.parametrize("field, value", [
    ("mass_tol", -1.0), ("mass_tol", 0.0), ("delta_init", 0.0), ("delta_init", 1.0),
    ("r_eps_rel", 0.0), ("r_eps_rel", 1.0), ("shell_eps_rel", 0.0),
    ("shell_eps_rel", 1e-3), ("mass_tol", float("nan"))])
def test_phase_config_rejects_bad_settings(field, value):
    """mass_tol > 0, 0 < delta_init < 1, 0 < r_eps_rel < 1 and
    0 < shell_eps_rel < delta_init, or a ParameterError naming the field."""
    with pytest.raises(ParameterError, match=field):
        PhaseConfig(**{field: value})


def test_delta_init_sensitivity(params, disc4):
    """Halving delta_init changes the 1C voltage trajectory by < 1 mV RMS."""
    prof = cc_profile(params, 1.0, "dis")
    init = initial_state(params, disc4, 1.0, "dis")
    out = {}
    for delta in (1e-3, 5e-4):
        cfg = PhaseConfig(delta_init=delta)
        out[delta] = simulate(prof, init, params, disc4,
                              SolverConfig(cutoffs_enabled=False), phase_cfg=cfg)
    n = min(len(out[1e-3]), len(out[5e-4]))
    dv = out[1e-3].voltage[:n] - out[5e-4].voltage[:n]
    assert 1e3 * np.sqrt(np.mean(dv**2)) < 1.0


def test_full_discharge_front_shape(params, disc4):
    """Full C/4 discharge from 100% SOC: a single two-phase excursion with a
    monotone shrinking core."""
    prof = cc_profile(params, 0.25, "dis")
    init = initial_state(params, disc4, 1.0, "dis")
    res = simulate(prof, init, params, disc4, SolverConfig(cutoffs_enabled=False))
    kinds = [e.kind for e in res.events]
    assert kinds == ["enter_two_phase", "exit_two_phase"]
    inside = res.r_p > 0
    rp = res.r_p[inside]
    assert rp.max() <= 1.0
    assert np.all(np.diff(rp) <= 1e-12)
    # SOC decreases monotonically on discharge
    assert np.all(np.diff(res.soc_p) <= 1e-9)


def test_reversals_inside_two_phase_stay_bounded(params):
    """Charge-sustaining drive profiles with reversals both ways inside
    two-phase: the shell stays inside (0, c_s_max), lithium follows the
    coulomb count, and a reversal never ends in a shell exit and re-entry."""
    rng = np.random.default_rng(2024)
    for k in range(8):
        disc = DiscretizationConfig(N_r=3 + k % 2, N_e=6)
        seed = int(rng.integers(2**31))
        soc = float(rng.uniform(0.3, 0.6))
        prof = synthetic_dynamic_profile(params, duration=600.0, seed=seed, mean_c=0.0)
        res = simulate(prof, initial_state(params, disc, soc, "dis"), params, disc,
                       SolverConfig(cutoffs_enabled=False))
        where = f"seed {seed}, N_r {disc.N_r}, SOC {soc:.3f}"
        assert res.status == "completed", where
        for c, cmax in ((res.pos_c, params.c_s_max_p), (res.neg_c, params.c_s_max_n)):
            assert np.all(c > 0.0) and np.all(c < cmax), where
        assert mass_audit(res, params).max_drift_rel <= 1e-12, where
        assert all(r == TWO_PHASE for r in res.regime), where
        flips = [e.detail["direction"] for e in res.events if e.kind == "sign_flip"]
        assert len(flips) == len(res.events), where
        assert {"ch", "dis"} <= set(flips), where
