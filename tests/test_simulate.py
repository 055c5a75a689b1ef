import dataclasses
import math
import signal
import sys

import numpy as np
import pytest

from csespm.errors import BlowupError, CsespmError, ParameterError, PhaseDomainError
from csespm.params import DiscretizationConfig
from csespm.ocp import synthetic_ocp_set
from csespm.simulate import (AffinePropagator, Integrator, LoadProfile,
                             SolverConfig, _fdm_two_phase_substep, _finite,
                             _first_nonfinite, _float_dot, _fvm_two_phase_substep,
                             cc_profile,
                             cycle_profile, initial_state, mass_audit,
                             read_result_csv, simulate, symmetric_band,
                             synthetic_dynamic_profile)
from csespm.states import FullState, TWO_PHASE
from csespm import systems

from dense_systems import rhs, two_phase_bulk, two_phase_system


def test_load_profile_validation():
    with pytest.raises(ParameterError):
        LoadProfile(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ParameterError):
        LoadProfile(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ParameterError):
        LoadProfile(np.array([0.0, 1.0]), np.array([1.0, np.nan]))
    p = LoadProfile(np.array([0.0, 10.0, 20.0]), np.array([1.0, -2.0, -2.0]))
    assert list(p.segments()) == [(0.0, 10.0, 1.0), (10.0, 20.0, -2.0)]


def test_step_grid_too_long_or_too_fine_is_rejected(params, disc4, monkeypatch):
    """A profile whose step grid would take over MAX_STEPS steps, or whose
    times a step of dt cannot move, raises ParameterError before the grid
    is built: either grid would fill memory, the second without end."""
    with pytest.raises(ParameterError, match="steps"):
        LoadProfile(np.array([0.0, np.inf]), np.array([1.0, 1.0])).check_steps(60.0)
    with pytest.raises(ParameterError, match="float spacing"):
        LoadProfile(np.array([1e20, 1e20 + 1e5]), np.array([1.0, 1.0])).check_steps(1.0)
    monkeypatch.setattr(sys.modules["csespm.simulate"], "MAX_STEPS", 100)
    init = initial_state(params, disc4, 1.0, "dis")
    with pytest.raises(ParameterError, match="steps"):
        simulate(cc_profile(params, 1.0, "dis", duration=1000.0), init, params, disc4)


def test_profile_csv_round_trip(tmp_path, params):
    p = synthetic_dynamic_profile(params, duration=200.0)
    path = tmp_path / "p.csv"
    p.to_csv(path)
    back = LoadProfile.from_csv(path)
    assert np.allclose(back.times, p.times)
    assert np.allclose(back.currents, p.currents)


def _bands(A):
    """(lower, diag, upper) bands of a tridiagonal matrix."""
    return np.diag(A, -1), np.diag(A), np.diag(A, 1)


def _van_loan_increment(A, x, b, h):
    """Reference increment x(h) - x of dx/dt = A x + b: A Gamma x + Gamma b,
    Gamma = integral of e^{As} ds over [0, h], from one dense exponential of
    [[A h, I h], [0, 0]] (Van Loan, IEEE TAC 1978)."""
    import scipy.linalg
    n = len(x)
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = A * h
    M[:n, n:] = np.eye(n) * h
    gamma = scipy.linalg.expm(M)[:n, n:]
    return A @ (gamma @ x) + gamma @ b


@pytest.mark.parametrize("rp_frac", [0.05, 0.5, 0.99])
@pytest.mark.parametrize("N_r", [2, 4, 50])
@pytest.mark.parametrize("scheme", ["fvm", "fdm"])
def test_affine_propagator_matches_expm(params, scheme, N_r, rp_frac):
    """The propagator's step of the two-phase shell under current equals a
    dense Van Loan step, for a full step and a bisection-sized step: the FVM
    shell symmetrized by its CV volumes, and the FDM substep, which must
    symmetrize its shell by its node capacities r_i^2 h."""
    R = params.R_s_p
    r_p = rp_frac * R
    current = params.current_for_c_rate(1.0)
    x = params.c_s_max_p * np.random.default_rng(N_r).uniform(0.2, 0.8, N_r)
    g, c_core = systems.interface_values(params, "alpha", "dis")
    blk, g_row = systems.shell_block(params, r_p, current, N_r, g, scheme)
    A = systems.tridiagonal(blk.lower, blk.diag, blk.upper)
    b = np.zeros(N_r)
    b[0] = g_row
    b[-1] = blk.surface * current
    if scheme == "fvm":
        vols = systems.spherical_cells(r_p, R, N_r)[2]
    else:
        state = FullState(neg=np.zeros(2), pos=x, elec=np.zeros(3), regime=TWO_PHASE,
                          r_p=r_p, core_conc=params.c_alpha("dis"),
                          core_phase="alpha", direction="dis")
    for h in (1.0, 0.3171875):
        if scheme == "fvm":
            got = AffinePropagator(blk.lower, blk.diag, blk.upper, vols).step(x, b, h)
        else:
            got = _fdm_two_phase_substep(state, current, h, params, N_r, g, c_core)[0]
        want = _van_loan_increment(A, x, b, h)
        err = np.linalg.norm((got - x) - want) / np.linalg.norm(want)
        assert err <= 1e-10, (h, err)


def _dense_eigh_step(A, w, x, b, h):
    """The propagator as first written for a dense A: scaled by sqrt w,
    symmetrized as 0.5 (As + As^T) and diagonalized by np.linalg.eigh.
    Returns (symmetric matrix, step)."""
    s = np.sqrt(w)
    As = A * (s[:, None] / s[None, :])
    sym = 0.5 * (As + As.T)
    lam, Q = np.linalg.eigh(sym)
    lh = lam * h
    elh = np.exp(lh)
    small = np.abs(lh) < 1e-8
    phi = np.where(small, h * (1.0 + 0.5 * lh), (elh - 1.0) / np.where(small, 1.0, lam))
    return sym, (Q / s[:, None]) @ (elh * ((Q.T * s) @ x) + phi * ((Q.T * s) @ b))


@pytest.mark.parametrize("current_c, core_phase", [(1.0, "alpha"), (-1.0, "alpha"),
                                                   (-1.0, "beta"), (0.0, "alpha")])
@pytest.mark.parametrize("rp_frac", [0.05, 0.5, 0.99])
@pytest.mark.parametrize("N_r", [2, 3, 4, 8, 50])
@pytest.mark.parametrize("scheme", ["fvm", "fdm"])
def test_banded_propagator_matches_dense_eigh(params, scheme, N_r, rp_frac,
                                             current_c, core_phase):
    """The shell's symmetric band is entry for entry the dense symmetrization
    of its A, and the banded step lies within 1e-14 of the dense eigh step:
    with the front moving in (discharge around an alpha core) and out (a
    charge around it), around a beta core, and at rest, where A has a zero
    eigenvalue; for a full and a bisection-sized step."""
    R = params.R_s_p
    r_p = rp_frac * R
    current = current_c * params.current_for_c_rate(1.0)
    direction = systems.direction_for_current(current)
    g, _ = systems.interface_values(params, core_phase, direction)
    blk, g_row = systems.shell_block(params, r_p, current, N_r, g, scheme)
    A = systems.tridiagonal(blk.lower, blk.diag, blk.upper)
    b = np.zeros(N_r)
    b[0] = g_row
    b[-1] = blk.surface * current
    x = params.c_s_max_p * np.random.default_rng(N_r).uniform(0.2, 0.8, N_r)
    band = symmetric_band(blk.lower, blk.upper, np.sqrt(blk.caps))
    prop = AffinePropagator(blk.lower, blk.diag, blk.upper, blk.caps)
    for h in (1.0, 0.3171875):
        sym, want = _dense_eigh_step(A, blk.caps, x, b, h)
        assert np.array_equal(systems.tridiagonal(band, blk.diag, band), sym)
        got = prop.step(x, b, h)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), h


@pytest.mark.parametrize("n", [1, 2, 4, 200, 600])
def test_float_dot_is_the_sequential_sum(n):
    """The float kernel's compiled dot, and its reduce form past the
    compiled length, add the products left to right, bit for bit the last
    partial sum of np.cumsum (a sequential accumulation)."""
    rng = np.random.default_rng(n)
    a, b = rng.uniform(-1.0, 1.0, (2, n)) * 10.0**rng.uniform(-3.0, 3.0, (2, n))
    acc = a[0] * b[0]
    for x, y in zip(a[1:].tolist(), b[1:].tolist()):
        acc += x * y
    got = _float_dot(n)(a.tolist(), b.tolist())
    assert got == acc == np.cumsum(a * b)[-1]


@pytest.mark.parametrize("rp_frac", [0.0, -0.5, 1.0, 1.5, math.nan])
def test_substep_outside_the_particle_raises(params, rp_frac):
    """A front outside (0, R) raises PhaseDomainError from the FVM substep."""
    r_p = rp_frac * params.R_s_p
    x = np.full(4, params.c_beta("dis"))
    state = FullState(None, x, None, TWO_PHASE, r_p, params.c_alpha("dis"), "alpha", "dis")
    with pytest.raises(PhaseDomainError, match="outside"):
        _fvm_two_phase_substep(state, 1.0, 1.0, params, 4,
                               *systems.interface_values(params, "alpha", "dis"))


def test_zero_current_is_fixed_point(params, disc4):
    init = initial_state(params, disc4, 0.7, "dis")
    prof = LoadProfile(np.array([0.0, 50.0]), np.zeros(2))
    res = simulate(prof, init, params, disc4, SolverConfig(cutoffs_enabled=False))
    assert np.allclose(res.neg_c[-1], res.neg_c[0], rtol=1e-14)
    assert np.allclose(res.pos_c[-1], res.pos_c[0], rtol=1e-14)
    assert np.ptp(res.voltage) < 1e-12
    assert np.ptp(res.r_p) == 0.0


def test_euler_single_step_mass_exact(params, disc4):
    """One Euler step of the negative electrode: the volume-weighted mass
    change equals flux * dt exactly."""
    sysm = systems.build_one_phase_solid_system(params, "neg", disc4.N_r)
    v = systems.cell_volumes(params.R_s_n, disc4.N_r)
    c = np.full(disc4.N_r, 0.5 * params.c_s_max_n)
    current, dt = 20.0, 1.0
    c1 = c + dt * rhs(sysm, c, current)
    flux = systems.molar_flux_density(params, "neg", current) * 4 * np.pi * params.R_s_n**2
    assert float(v @ (c1 - c)) == pytest.approx(flux * dt, rel=1e-12)


def _fixed_grid_blocks(params, disc, integ):
    """(block, capacity weights, concentration scale) of the three blocks."""
    dx, eps, _ = systems.electrolyte_geometry(params, disc.N_e)
    return ((integ.neg, systems.cell_volumes(params.R_s_n, disc.N_r), params.c_s_max_n),
            (integ.pos1p, systems.cell_volumes(params.R_s_p, disc.N_r), params.c_s_max_p),
            (integ.elec, dx * eps, params.c_e0))


def _substep_loop(A, b, x, h, n_sub, method):
    """Reference: n_sub explicit substeps of dx/dt = A x + b."""
    hs = h / n_sub
    for _ in range(n_sub):
        if method == "euler":
            x = x + hs * (A @ x + b)
        else:
            k1 = A @ x + b
            k2 = A @ (x + 0.5 * hs * k1) + b
            k3 = A @ (x + 0.5 * hs * k2) + b
            k4 = A @ (x + hs * k3) + b
            x = x + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_cached_step_map_matches_substep_loop(params, disc4, method):
    """An explicit substep loop of each fixed-grid block converges to the
    block's exact step at the method's order (halving the substep cuts the
    gap by 2 for Euler, 16 for RK4), so the step is the loop's limit, and
    the finer loop lies within (rho h_sub)^p / (p + 1)! of it; checked for a
    full step and a bisection-sized step, each from two states."""
    order, rho_hs = {"euler": (1, 0.01), "rk4": (4, 0.1)}[method]
    integ = Integrator(params, disc4, SolverConfig(dt=10.0))
    rng = np.random.default_rng(5)
    current = params.current_for_c_rate(1.0)
    for block, _, scale in _fixed_grid_blocks(params, disc4, integ):
        A, b = block.A, block.B * current
        rho = float(np.max(np.abs(np.linalg.eigvals(A))))
        for h in (10.0, 10.0 * 0.6171875):
            n_sub = int(np.ceil(rho * h / rho_hs))
            for _ in range(2):
                x = scale * rng.uniform(0.2, 0.8, len(b))
                got = block.step(x, current, h)
                gaps = [np.linalg.norm(_substep_loop(A, b, x, h, n, method) - got)
                        / np.linalg.norm(got - x) for n in (n_sub, 2 * n_sub)]
                ratio = gaps[1] / gaps[0]
                assert abs(ratio * 2**order - 1.0) <= 0.1, (len(b), h, gaps)
                bound = (0.5 * rho_hs)**order / math.factorial(order + 1)
                assert gaps[1] <= bound, (len(b), h, gaps)


def test_cached_step_map_matches_propagator(params, disc4):
    """Each fixed-grid block's exact step reproduces the dense Van Loan step
    (one expm of the augmented matrix) and the eigenbasis propagator of the
    whole block (checked against dense expm above), each to 1e-12 of the
    increment, for a full step and a bisection-sized step."""
    rng = np.random.default_rng(5)
    current = params.current_for_c_rate(1.0)
    integ = Integrator(params, disc4, SolverConfig(dt=10.0))
    for block, w, scale in _fixed_grid_blocks(params, disc4, integ):
        ref = AffinePropagator(*_bands(block.A), weights=w)
        b = block.B * current
        for h in (10.0, 10.0 * 0.6171875):
            for _ in range(2):
                x = scale * rng.uniform(0.2, 0.8, len(b))
                got = block.step(x, current, h)
                for want in (ref.step(x, b, h), x + _van_loan_increment(block.A, x, b, h)):
                    err = np.linalg.norm(got - want) / np.linalg.norm(want - x)
                    assert err <= 1e-12, (len(b), h, err)


def test_forced_response_cache_equals_uncached_step(params, disc4):
    """Each fixed-grid block's rows at K offsets from one state are bit for
    bit its steps of each offset alone, so a row does not depend on the
    other rows asked for with it; and each equals x + D x + N b, with
    N = Gamma_h and D = A N from the Van Loan exponential, to 1e-12 of the
    increment: at rest and under both signs of current, for full and
    bisection-sized offsets."""
    import scipy.linalg
    integ = Integrator(params, disc4, SolverConfig(dt=10.0))
    rng = np.random.default_rng(3)
    i = params.current_for_c_rate(1.0)
    taus = np.array([10.0, 10.0 * 0.3171875, 1.0])
    for block, _, scale in _fixed_grid_blocks(params, disc4, integ):
        A, n = block.A, len(block.B)
        x = scale * rng.uniform(0.2, 0.8, n)
        for current in (0.0, i, -i):
            b = block.B * current
            rows = block.rows(x, current, taus)
            for h, row in zip(taus, rows):
                assert row.tobytes() == block.step(x, current, h).tobytes(), (n, current, h)
                M = np.zeros((2 * n, 2 * n))
                M[:n, :n] = A * h
                M[:n, n:] = np.eye(n) * h
                N = scipy.linalg.expm(M)[:n, n:]
                want = A @ N @ x + N @ b
                assert np.linalg.norm(row - x - want) <= 1e-12 * np.linalg.norm(want), (n, h)


def test_cached_step_map_keeps_exact_fallback(params):
    """The identified C/2 negative block at dt = 1 s lies far past the RK4
    stability limit (rho h ~ 1e4 > 2.79); its step is still the exact one,
    equal to the eigenbasis propagator and to the dense Van Loan step, for a
    full step and a bisection-sized step."""
    from csespm.params import params_for_rate
    p2 = params_for_rate(params, "C/2")
    disc = DiscretizationConfig(N_r=4, N_e=6)
    block = Integrator(p2, disc, SolverConfig(dt=1.0)).neg
    assert float(np.max(np.abs(np.linalg.eigvals(block.A)))) * 1.0 > 2.79
    ref = AffinePropagator(*_bands(block.A),
                           weights=systems.cell_volumes(p2.R_s_n, disc.N_r))
    x = np.linspace(0.3, 0.6, disc.N_r) * p2.c_s_max_n
    current = 10.0
    b = block.B * current
    for h in (1.0, 0.3171875):
        got = block.step(x, current, h)
        assert np.isfinite(got).all()
        for want in (ref.step(x, b, h), x + _van_loan_increment(block.A, x, b, h)):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want - x), h


def test_event_probes_keep_the_fixed_grid_maps(params, disc4, monkeypatch):
    """Bisection probes of a transition step only the positive particle: the
    crossing step of the simulation, taken again from its recorded row,
    steps neither the negative nor the electrolyte block, whose arrays it
    leaves as they were, and gives the recorded row."""
    solver = SolverConfig(dt=1.0, cutoffs_enabled=False)
    prof = cc_profile(params, 1.0, "dis", duration=700.0)
    res = simulate(prof, initial_state(params, disc4, 1.0, "dis"), params, disc4, solver)
    entry = next(e for e in res.events if e.kind == "enter_two_phase")
    i = int(np.searchsorted(res.time, entry.time)) - 1
    integ = Integrator(params, disc4, solver)
    lengths = {}
    for name in ("neg", "pos1p", "elec"):
        block = getattr(integ, name)
        monkeypatch.setattr(block, "rows", lambda x, current, taus, name=name, rows=block.rows:
                            lengths.setdefault(name, []).extend(taus.tolist())
                            or rows(x, current, taus))
    state = res.state_at(i)
    events = []
    new = integ.advance_with_events(state, float(res.current[i + 1]), float(res.time[i]),
                                    1.0, events)
    assert [(e.kind, e.time) for e in events] == [("enter_two_phase", entry.time)]
    assert set(lengths) == {"pos1p"} and len(lengths["pos1p"]) > 3   # the probes' lengths
    assert (new.neg.tobytes(), new.elec.tobytes()) == (state.neg.tobytes(), state.elec.tobytes())
    assert new.pos.tobytes() == res.pos_c[i + 1].tobytes()
    assert new.r_p / params.R_s_p == res.r_p[i + 1]


def test_cached_step_conserves_content(params, disc4):
    """One exact step changes the volume-weighted content by h times the
    boundary influx to 1e-12 (the electrolyte source cancels)."""
    integ = Integrator(params, disc4, SolverConfig(dt=10.0))
    rng = np.random.default_rng(11)
    current = 20.0
    for block, w, scale in _fixed_grid_blocks(params, disc4, integ):
        for h in (10.0, 3.3):
            x = scale * rng.uniform(0.2, 0.8, len(block.B))
            b = block.B * current
            dx = block.step(x, current, h) - x
            assert abs(float(w @ dx) - h * float(w @ b)) <= 1e-12 * h * float(w @ np.abs(b))


# The rows of one constant-current block lie on the block's conservation
# line w . x_k = w . x_0 + t_k w . B I: each row is x_0 plus one increment,
# whose uniform (conserved) part t_k (w . B I) / sum(w) is exact to a few
# roundings and whose other modes carry no content up to their eigenvectors'
# rounding; the sum x_0 + increment rounds each cell once.  No error adds
# over rows, so the bound is a fixed count of ulps per cell of the content
# and of the line's rise, whatever the number of rows K.  A per-step
# recurrence adds one rounding of the content per row, and A applied after
# Gamma multiplies the rounding of Gamma x_0, whose uniform part grows like
# t_k, by A: both leave the line by far more at K = 14,400.
LINE_ULPS_PER_CELL = 4


@pytest.mark.parametrize("c_rate", [0.25, -2.0, 0.0])
@pytest.mark.parametrize("scheme", ["fvm", "fdm"])
def test_block_rows_stay_on_the_conservation_line(params, scheme, c_rate):
    """Over one block of K = 14,400 rows (a C/4 step grid at dt = 1 s) from
    random and uniform states, each fixed-grid block's content stays on its
    line within LINE_ULPS_PER_CELL n eps (w . |x_0| + t_k w . |B I|): charge,
    discharge and rest, N_r 2, 4 and 8 with N_e 3, 6 and 12."""
    eps = np.finfo(float).eps
    current = c_rate * params.current_for_c_rate(1.0)
    taus = np.arange(1.0, 14401.0)
    rng = np.random.default_rng(17)
    for N_r, N_e in ((2, 3), (4, 6), (8, 12)):
        disc = DiscretizationConfig(N_r=N_r, N_e=N_e, scheme=scheme)
        integ = Integrator(params, disc, SolverConfig())
        w_solid = [systems.cell_geometry(0.0, R, N_r, scheme)[2]
                   for R in (params.R_s_n, params.R_s_p)]
        dx, e, _ = systems.electrolyte_geometry(params, N_e)
        for block, w, scale in zip((integ.neg, integ.pos1p, integ.elec), w_solid + [dx * e],
                                   (params.c_s_max_n, params.c_s_max_p, params.c_e0)):
            b = block.B * current
            for x0 in (scale * rng.uniform(0.02, 0.98, len(w)), np.full(len(w), 0.5 * scale)):
                rows = block.rows(x0, current, taus)
                line = w @ x0 + taus * (w @ b)
                bound = LINE_ULPS_PER_CELL * len(w) * eps * (w @ np.abs(x0)
                                                             + taus * (w @ np.abs(b)))
                off = np.abs(rows @ w - line)
                assert np.all(off <= bound), (N_r, len(w), int(np.argmax(off / bound)),
                                              float(np.max(off / bound)))


@pytest.mark.parametrize("scheme", ["fvm", "fdm"])
def test_rows_do_not_depend_on_where_blocks_end(params, scheme):
    """With cutoffs on, blocks also end at every output-map chunk; each
    closed form still starts from the first row of its run of segments at
    one current or the row after the last step taken alone, so a 1C cycle
    and a drive profile with cutoffs out of reach give, bit for bit, the
    rows, events, counters and closure of the same runs with cutoffs off."""
    disc = DiscretizationConfig(N_r=4, N_e=6, scheme=scheme)
    for prof, soc, direction in ((cycle_profile(params, 1.0, 1), 0.0, "ch"),
                                 (synthetic_dynamic_profile(params, duration=1200.0), 0.6,
                                  "dis")):
        init = initial_state(params, disc, soc, direction)
        free = simulate(prof, init, params, disc, SolverConfig(cutoffs_enabled=False))
        chunked = simulate(prof, init, params, disc, SolverConfig(v_min=-10.0, v_max=10.0))
        for name in ("voltage", "r_p", "neg_c", "pos_c", "elec_c", "core_conc"):
            assert np.array_equal(getattr(chunked, name), getattr(free, name), equal_nan=True)
        assert _event_keys(chunked.events) == _event_keys(free.events)
        assert chunked.meta == free.meta


def test_coarse_dt_against_fine_dt(params, disc4):
    """dt = 1 s tracks a dt = 0.01 s reference within 0.5 mV RMS over a
    one-phase C/4 window."""
    prof = cc_profile(params, 0.25, "dis", duration=300.0)
    init = initial_state(params, disc4, 1.0, "dis")
    coarse = simulate(prof, init, params, disc4,
                      SolverConfig(dt=1.0, cutoffs_enabled=False))
    fine = simulate(prof, init, params, disc4,
                    SolverConfig(dt=0.01, cutoffs_enabled=False))
    v_fine = np.interp(coarse.time, fine.time, fine.voltage)
    rms = 1e3 * np.sqrt(np.mean((coarse.voltage - v_fine) ** 2))
    assert rms < 0.5


def test_determinism_bit_identical(params, disc4):
    prof = cc_profile(params, 1.0, "dis", duration=700.0)
    init = initial_state(params, disc4, 1.0, "dis")
    a = simulate(prof, init, params, disc4, SolverConfig(cutoffs_enabled=False))
    b = simulate(prof, init, params, disc4, SolverConfig(cutoffs_enabled=False))
    assert np.array_equal(a.voltage, b.voltage)
    assert np.array_equal(a.r_p, b.r_p)
    assert np.array_equal(a.pos_c, b.pos_c)


def test_checkpoint_replay(params, disc4):
    """Restarting from a logged state reproduces the suffix trajectory."""
    prof = cc_profile(params, 1.0, "dis", duration=900.0)
    init = initial_state(params, disc4, 1.0, "dis")
    full = simulate(prof, init, params, disc4, SolverConfig(cutoffs_enabled=False))
    k = 700  # inside two-phase
    assert full.regime[k] == "two_phase"
    t_k = float(full.time[k])
    rest = LoadProfile(np.array([t_k, prof.times[-1]]),
                       np.array([full.current[k]] * 2))
    replay = simulate(rest, full.state_at(k), params, disc4,
                      SolverConfig(cutoffs_enabled=False))
    n = len(replay)
    assert np.allclose(replay.voltage[1:], full.voltage[k + 1:k + n], atol=1e-12)
    assert np.allclose(replay.r_p[1:], full.r_p[k + 1:k + n], atol=1e-14)


def test_cutoff_termination(params, disc4):
    prof = cc_profile(params, 1.0, "dis")
    init = initial_state(params, disc4, 1.0, "dis")
    res = simulate(prof, init, params, disc4, SolverConfig())
    assert res.status == "cutoff_low"
    assert res.voltage[-1] < 2.0
    assert res.time[-1] < prof.times[-1]


def test_coulomb_consistency_at_all_times(params, disc4):
    prof = cc_profile(params, 1.0, "dis", duration=1200.0)
    init = initial_state(params, disc4, 1.0, "dis")
    res = simulate(prof, init, params, disc4, SolverConfig(cutoffs_enabled=False))
    rep = mass_audit(res, params)
    assert rep.res_pos_rel.max() < 1e-9
    assert rep.res_neg_rel.max() < 1e-9
    assert rep.res_elec_rel.max() < 1e-9


def test_multi_cycle_peaks_constant(params, disc4):
    """Peak electrode lithium repeats across equal-Ah cycles (3x 1C here;
    the acceptance suite runs the C/4 protocol)."""
    prof = cycle_profile(params, 1.0, 3)
    init = initial_state(params, disc4, 0.0, "ch")
    res = simulate(prof, init, params, disc4, SolverConfig(cutoffs_enabled=False))
    half = 3600.0
    peaks_pos, peaks_neg = [], []
    for k in range(3):
        i0 = np.searchsorted(res.time, 2 * k * half)
        i1 = np.searchsorted(res.time, 2 * (k + 1) * half)
        peaks_pos.append(res.mass_pos[i0:i1].max())
        peaks_neg.append(res.mass_neg[i0:i1].max())
    assert np.ptp(peaks_pos) / peaks_pos[0] < 1e-6
    assert np.ptp(peaks_neg) / peaks_neg[0] < 1e-6


def test_result_csv_round_trip(tmp_path, params, disc4):
    prof = cc_profile(params, 1.0, "dis", duration=120.0)
    init = initial_state(params, disc4, 0.8, "dis")
    res = simulate(prof, init, params, disc4, SolverConfig(cutoffs_enabled=False))
    path = tmp_path / "result.csv"
    res.to_csv(path)
    back = read_result_csv(path)
    assert np.allclose(back["time_s"], res.time)
    assert np.allclose(back["voltage_V"], res.voltage)
    assert np.allclose(back["r_p_over_R"], res.r_p)
    assert back["regime"] == list(res.regime)


def test_stiff_subsystem_fallback(params):
    """The identified C/2 negative diffusivity makes its block stiff at
    dt = 1 s (rho h ~ 1e4); the exact step takes it on the one path and
    stays finite."""
    from csespm.params import params_for_rate
    p2 = params_for_rate(params, "C/2")
    disc = DiscretizationConfig(N_r=4, N_e=6)
    prof = cc_profile(p2, 0.5, "dis", duration=400.0)
    init = initial_state(p2, disc, 1.0, "dis")
    res = simulate(prof, init, p2, disc, SolverConfig())
    assert res.status in ("completed", "cutoff_low")
    assert np.isfinite(res.voltage).all()


def test_dynamic_profile_runs_through_flips(params, disc4):
    prof = synthetic_dynamic_profile(params, duration=600.0)
    init = initial_state(params, disc4, 0.6, "dis")
    res = simulate(prof, init, params, disc4, SolverConfig(cutoffs_enabled=False))
    rep = mass_audit(res, params)
    assert rep.max_drift_rel < 1e-9
    assert np.isfinite(res.voltage).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["neg", "pos", "elec", "r_p"])
def test_state_is_finite(params, disc4, where, bad):
    """A NaN or an infinity in any concentration or in r_p reads as
    non-finite to the checks the time loop runs: `_finite` on the positive
    particle and its front, `_first_nonfinite` on negative and electrolyte
    rows; the NaN core_conc of a one-phase state does not."""
    state = initial_state(params, disc4, 0.9, "dis")
    assert state.regime != "two_phase" and np.isnan(state.core_conc)
    rows = {k: np.tile(getattr(state, k), (3, 1)) for k in ("neg", "elec")}
    assert _finite(state.pos, state.r_p)
    assert [_first_nonfinite(r) for r in rows.values()] == [3, 3]
    if where == "r_p":
        assert not _finite(state.pos, bad)
    elif where == "pos":
        state.pos[1] = bad
        assert not _finite(state.pos, state.r_p)
    else:
        rows[where][1, 1] = bad
        assert _first_nonfinite(rows[where]) == 1


def test_zero_current_zero_drift(params, disc4):
    prof = LoadProfile(np.array([0.0, 40.0]), np.zeros(2))
    init = initial_state(params, disc4, 0.5, "dis")
    res = simulate(prof, init, params, disc4, SolverConfig(cutoffs_enabled=False))
    # identically zero up to the quadrature rounding of the audit itself
    assert mass_audit(res, params).max_drift_rel < 1e-14


def test_grid_convergence_toward_reference(params):
    """Voltage and front trajectories at N_r in {2,4,8,16} approach the
    committed N_r = 200 reference with shrinking differences."""
    from pathlib import Path
    from csespm.params import params_for_rate
    golden = np.genfromtxt(Path(__file__).parent / "data" /
                           "golden_nr200_1c_discharge.csv",
                           delimiter=",", names=True)
    p_rate = params_for_rate(params, "1C")
    v_err, f_err = [], []
    for N in (2, 4, 8, 16):
        disc = DiscretizationConfig(N_r=N, N_e=6)
        prof = cc_profile(p_rate, 1.0, "dis")
        init = initial_state(p_rate, disc, 1.0, "dis")
        res = simulate(prof, init, p_rate, disc, SolverConfig())
        n = min(len(res), len(golden))
        v_err.append(np.sqrt(np.mean((res.voltage[:n] - golden["voltage_V"][:n])**2)))
        f_err.append(np.abs(res.r_p[:n]**3 - golden["r_p_over_R"][:n]**3).max())
    assert all(a > b for a, b in zip(v_err, v_err[1:]))
    assert all(a > b for a, b in zip(f_err, f_err[1:]))


@pytest.mark.parametrize("duration, mean_c, soc", [(3600.0, 0.0, 0.3), (13700.0, 0.15, 0.6)])
def test_reversal_inside_two_phase_regressions(params, disc4, duration, mean_c, soc):
    """Two drive profiles whose discharge-to-charge reversals inside
    two-phase once drove the shell to 1.9 c_s_max (3600 s) and into a mid-run
    SaturationError (13,700 s, cutoffs on).  Both complete inside
    (0, c_s_max) on the coulomb count."""
    prof = synthetic_dynamic_profile(params, duration=duration, seed=7, mean_c=mean_c)
    res = simulate(prof, initial_state(params, disc4, soc, "dis"), params, disc4,
                   SolverConfig(dt=1.0))
    assert res.status == "completed" and res.time[-1] == duration
    assert 0.0 < res.pos_c.min() and res.pos_c.max() < params.c_s_max_p
    assert mass_audit(res, params).max_drift_rel <= 1e-12
    assert [e.kind for e in res.events].count("enter_two_phase") == 0


def test_one_direction_charge_matches_current_sign_rule(params):
    """Without a reversal the stored core phase gives, bit for bit, the
    systems of the rule that took g, the core value and the front sign from
    the sign of the current; so one-direction trajectories are unchanged."""
    disc = DiscretizationConfig(N_r=3, N_e=6)
    res = simulate(cc_profile(params, 1.0, "ch", duration=2400.0),
                   initial_state(params, disc, 0.0, "ch"), params, disc,
                   SolverConfig(cutoffs_enabled=False))
    rows = [i for i, r in enumerate(res.regime) if r == "two_phase"]
    assert len(rows) > 100
    D, N = params.D_s_p, disc.N_r
    for i in rows[::10]:
        st = res.state_at(i)
        assert (st.core_phase, st.direction) == ("beta", "ch")
        current = float(res.current[i])
        # the current-sign rule, kept here as the reference
        g, sgn = params.c_alpha("ch"), float(np.sign(current))
        dc = params.c_alpha("ch") - params.c_beta("ch")
        dr = (params.R_s_p - st.r_p) / N
        for scheme in ("fvm", "fdm"):
            stored = two_phase_system(params, st.r_p, current, N,
                                                    st.direction, st.core_phase, scheme)
            default = two_phase_system(params, st.r_p, current, N,
                                                     scheme=scheme)
            assert stored.A[N, 0] == 2.0 * sgn * D / (dr * dc)
            assert stored.G[N] == -2.0 * sgn * D * g / (dr * dc)
            for a, b in ((stored.A, default.A), (stored.B, default.B), (stored.G, default.G)):
                assert np.array_equal(a, b)
        _, c_core = systems.interface_values(params, st.core_phase, st.direction)
        assert c_core == params.c_beta("ch") == st.core_conc


# --- the columnar output pass ------------------------------------------------------

def _scalar_outputs(state, current, params, ocp):
    """(V, SOC_p, SOC_n) of one state composed from the scalar helpers, the
    way the output map was evaluated one recorded step at a time."""
    from csespm.output import (electrode_c_e_avg, electrolyte_potential_drop,
                               exchange_current_density, overpotential,
                               soc_from_theta)
    direction = systems.direction_for_current(current, state.direction)
    if state.regime == "two_phase":
        c_eff = bulk_p = two_phase_bulk(state.pos, state.r_p, state.core_conc, params.R_s_p)
    else:
        c_eff = systems.surface_concentration(state.pos, current, params, "pos")
        bulk_p = systems.one_phase_bulk(state.pos, params.R_s_p)
    c_n = systems.surface_concentration(state.neg, current, params, "neg")
    i0_p = exchange_current_density(params, "pos", c_eff, electrode_c_e_avg(state.elec, "pos"))
    i0_n = exchange_current_density(params, "neg", c_n, electrode_c_e_avg(state.elec, "neg"))
    U_p = ocp.pick("pos", direction).lookup(np.clip([c_eff / params.c_s_max_p], 0.0, 1.0))[0]
    U_n = ocp.neg.lookup(np.clip([c_n / params.c_s_max_n], 0.0, 1.0))[0]
    v = (U_p + overpotential(params, "pos", current, i0_p)
         - U_n - overpotential(params, "neg", current, i0_n)
         + electrolyte_potential_drop(params, state.elec) - params.R_l * current)
    bulk_n = systems.one_phase_bulk(state.neg, params.R_s_n)
    return (v, soc_from_theta(params, bulk_p / params.c_s_max_p, "pos", direction),
            soc_from_theta(params, bulk_n / params.c_s_max_n, "neg", direction))


@pytest.mark.parametrize("run", ["c4_cycle", "dynamic"])
def test_columnar_outputs_match_scalar_replay(params, ocp, disc4, run):
    """Every row's voltage and SOC equal those of its state replayed alone,
    through cell_voltage and through the scalar helpers, to 1e-12."""
    from csespm.output import cell_voltage
    if run == "c4_cycle":
        prof, soc, direction = cycle_profile(params, 0.25, 1), 0.0, "ch"
        solver = SolverConfig(dt=10.0, cutoffs_enabled=False)
    else:
        prof, soc, direction = synthetic_dynamic_profile(params), 0.6, "dis"
        solver = SolverConfig(cutoffs_enabled=False)
    res = simulate(prof, initial_state(params, disc4, soc, direction), params, disc4,
                   solver, ocp=ocp)
    # both regimes in one pass; both directions (hysteresis branches) in one pass
    assert len(set(res.regime)) == 3 if run == "c4_cycle" else set(res.direction) == {"ch", "dis"}
    for i in range(len(res)):
        state, current = res.state_at(i), float(res.current[i])
        snap = cell_voltage(state, current, params, ocp)
        for got, want in zip((res.voltage[i], res.soc_p[i], res.soc_n[i]),
                             _scalar_outputs(state, current, params, ocp)):
            assert abs(got - want) <= 1e-12, (i, got, want)
        assert abs(snap.V_cell - res.voltage[i]) <= 1e-12
        assert abs(snap.SOC_p - res.soc_p[i]) <= 1e-12
    if run == "c4_cycle":
        # a normal cycle takes none of the counted fallbacks; it bisects its
        # events and halves a few front steps
        assert res.meta["counters"] == {"ocp_extrapolations": 0, "event_cap_hits": 0,
                                        "front_floor_accepts": 0, "bisection_probes": 56,
                                        "front_halvings": 3, "two_phase_substeps": 2082}


def _per_step_run(profile, init, params, disc, solver, ocp):
    """Reference for the cutoff logic: the output map after every step, the
    run ending at the first row past a cutoff.  Each step is taken on its
    own, from the anchors of the time loop's closed forms, so its rows are
    the time loop's bits: the negative and electrolyte rows by
    LinearBlock.step from the first row; a one-phase positive row by
    LinearBlock.step from the first row or from the row after the last
    step taken through advance_with_events, unless that row detects a
    transition; then, and in two-phase, the step goes through
    advance_with_events from the row before.  The offsets are those of the
    rows' times, accumulated step by step.  One-segment profiles; returns
    (status, rows, last time, charge, events, max_closure)."""
    from csespm.output import cell_voltage
    from csespm.phase import detect_transition
    integ = Integrator(params, disc, solver)
    (t0, t1, current), = profile.segments()
    v_lo = -np.inf if solver.v_min is None else solver.v_min
    v_hi = np.inf if solver.v_max is None else solver.v_max
    state, events, t, q, rows = init.copy(), [], t0, 0.0, 1
    anchor, t_a = init.pos, t0
    cell_voltage(state, current, params, ocp)
    while t < t1 - 1e-9:
        h = min(solver.dt, t1 - t)
        t_next = t + h
        new = None
        if not state.two_phase:
            new = dataclasses.replace(state, pos=integ.pos1p.step(anchor, current, t_next - t_a))
            if detect_transition(new, current, params, integ.phase_cfg) is not None:
                new = None
        if new is None:
            new = integ.advance_with_events(state, current, t, h, events)
            anchor, t_a = new.pos, t_next
        new.neg = integ.neg.step(init.neg, current, t_next - t0)
        new.elec = integ.elec.step(init.elec, current, t_next - t0)
        state, t, q, rows = new, t_next, q + current * h, rows + 1
        v = cell_voltage(state, current, params, ocp).V_cell
        if solver.cutoffs_enabled and (v < v_lo or v > v_hi):
            status = "cutoff_low" if v < v_lo else "cutoff_high"
            return status, rows, t, q, events, integ.max_closure
    return "completed", rows, t, q, events, integ.max_closure


def _summary(res):
    return (res.status, len(res), float(res.time[-1]), float(res.charge[-1]),
            res.events, res.meta["max_closure"])


def _event_keys(events):
    return [(e.time, e.kind, e.r_p_pre, e.r_p_post) for e in events]


@pytest.mark.parametrize("N_r", [3, 4])
@pytest.mark.parametrize("direction", ["dis", "ch"])
def test_cutoff_stop_matches_per_step_loop(params, ocp, N_r, direction):
    """1C to v_min and to v_max: the chunked output pass stops at the same
    row with the same status, time, charge, events and max_closure as a
    per-step loop."""
    disc = DiscretizationConfig(N_r=N_r, N_e=6)
    prof = cc_profile(params, 1.0, direction)
    init = initial_state(params, disc, 1.0 if direction == "dis" else 0.0, direction)
    res = simulate(prof, init, params, disc, SolverConfig(), ocp=ocp)
    want = _per_step_run(prof, init, params, disc, SolverConfig(), ocp)
    got = _summary(res)
    assert got[0] == ("cutoff_low" if direction == "dis" else "cutoff_high")
    assert got[:4] == want[:4] and got[5] == want[5]
    assert _event_keys(got[4]) == _event_keys(want[4])
    assert len(want[4]) == 2


def test_steps_past_the_cutoff_leave_nothing(params, ocp, monkeypatch):
    """Steps integrated after the stop row inside its output chunk leave no
    event, closure or error: a cutoff placed one row before two-phase
    entry keeps the entry out, and a step that raises after the stop row
    still ends the run at the cutoff.  The one-phase rows before the entry
    take no step alone; the steps taken alone start with the entry step
    from the stop row, and are at most one chunk of steps."""
    from csespm.simulate import _CHUNK
    disc = DiscretizationConfig(N_r=3, N_e=6)
    prof = cc_profile(params, 1.0, "dis", duration=900.0)
    init = initial_state(params, disc, 1.0, "dis")
    free = simulate(prof, init, params, disc, SolverConfig(cutoffs_enabled=False), ocp=ocp)
    e = int(np.searchsorted(free.time, free.events[0].time))   # row of the entry step
    assert free.events[0].kind == "enter_two_phase" and e % _CHUNK
    k = e - 1
    assert free.voltage[1:k].min() > free.voltage[k]
    solver = SolverConfig(v_min=0.5 * (free.voltage[k] + free.voltage[1:k].min()))
    step = Integrator.advance_with_events
    steps = []

    def counted(self, s, current, t, h, events):
        steps.append(t)
        return step(self, s, current, t, h, events)

    monkeypatch.setattr(Integrator, "advance_with_events", counted)
    res = simulate(prof, init, params, disc, solver, ocp=ocp)
    assert steps[0] == free.time[k] and len(steps) <= _CHUNK
    assert (res.status, len(res), res.events) == ("cutoff_low", k + 1, [])
    assert res.meta["max_closure"] == 0.0 < free.meta["max_closure"]
    assert _summary(res)[:4] == _per_step_run(prof, init, params, disc, solver, ocp)[:4]

    def failing(self, s, current, t, h, events):
        if t >= free.time[k]:
            raise RuntimeError("step after the stop row")
        return step(self, s, current, t, h, events)

    monkeypatch.setattr(Integrator, "advance_with_events", failing)
    again = simulate(prof, init, params, disc, solver, ocp=ocp)
    assert (again.status, len(again)) == ("cutoff_low", k + 1)
    assert np.array_equal(again.voltage, res.voltage)


def test_cutoff_counts_only_rows_it_keeps(params, disc4):
    """OCP extrapolations are counted on the rows up to the stop row, those
    of its own output chunk included, and not on the rows past it; the
    initial row is never tested against the cutoffs."""
    from csespm.ocp import OcpSet, OcpTable
    from csespm.simulate import _CHUNK
    neg = synthetic_ocp_set(params).neg
    prof = cc_profile(params, 1.0, "dis", duration=400.0)
    init = initial_state(params, disc4, 1.0, "dis")
    free = simulate(prof, init, params, disc4, SolverConfig(cutoffs_enabled=False))
    theta = systems.surface_concentration(free.pos_c, free.current, params,
                                          "pos") / params.c_s_max_p
    assert np.all(np.diff(theta) > 0.0)
    k = 200
    assert k // _CHUNK == (k - 4) // _CHUNK
    # a table that covers rows k - 3 .. k only: rows before extrapolate low,
    # rows after extrapolate high
    lo, hi = 0.5 * (theta[k - 4] + theta[k - 3]), 0.5 * (theta[k] + theta[k + 1])
    table = OcpTable("pos", "dis", np.array([lo, hi]), np.array([3.45, 3.40]))
    ocp = OcpSet(neg=neg, pos_ch=table, pos_dis=table)
    v = simulate(prof, init, params, disc4, SolverConfig(cutoffs_enabled=False),
                 ocp=ocp).voltage
    assert v[1:k].min() > v[k]
    res = simulate(prof, init, params, disc4,
                   SolverConfig(v_min=0.5 * (v[1:k].min() + v[k])), ocp=ocp)
    assert (res.status, len(res)) == ("cutoff_low", k + 1)
    assert res.meta["counters"]["ocp_extrapolations"] == k - 3
    # the first row alone is past this upper cutoff
    v_max = 0.5 * (v[0] + v[1])
    assert v[0] > v_max > v[1:].max()
    res = simulate(prof, init, params, disc4, SolverConfig(v_max=v_max), ocp=ocp)
    assert (res.status, len(res)) == ("completed", len(free))


def test_saturating_row_before_a_crossing_raises(params, ocp):
    """A nearly empty negative electrode at 1C saturates two rows after its
    voltage passes 2 V.  Without a lower cutoff the saturating row raises
    the per-step loop's SaturationError; with it the run ends at the
    crossing although the saturating row lies in the same output chunk."""
    from csespm.errors import SaturationError
    disc = DiscretizationConfig(N_r=3, N_e=6)
    init = initial_state(params, disc, 1.0, "dis")
    init.neg = np.full(3, 0.02 * params.c_s_max_n)
    prof = cc_profile(params, 1.0, "dis", duration=600.0)
    for solver in (SolverConfig(v_min=None), SolverConfig(v_min=None, cutoffs_enabled=False)):
        with pytest.raises(SaturationError) as want:
            _per_step_run(prof, init, params, disc, solver, ocp)
        with pytest.raises(SaturationError) as got:
            simulate(prof, init, params, disc, solver, ocp=ocp)
        # the error names the unclamped surface value
        assert str(got.value) == str(want.value) == (
            f"neg effective concentration -4.79396 outside (0, {params.c_s_max_n:g})")
    res = simulate(prof, init, params, disc, SolverConfig(), ocp=ocp)
    assert _summary(res)[:4] == _per_step_run(prof, init, params, disc, SolverConfig(), ocp)[:4]
    assert res.status == "cutoff_low" and len(res) == 49


@pytest.mark.parametrize("cutoffs", [False, True])
def test_one_row_per_step_and_at_each_segment_end(params, disc4, cutoffs):
    """One row per step, at zero current too, and a row at the end of each
    segment, also of one that is not a whole number of steps long."""
    init = initial_state(params, disc4, 0.5, "dis")
    rest = simulate(LoadProfile(np.array([0.0, 50.0]), np.zeros(2)), init, params, disc4,
                    SolverConfig(cutoffs_enabled=cutoffs))
    assert len(rest) == 51 and np.array_equal(rest.time, np.arange(51.0))
    current = params.current_for_c_rate(0.5)
    prof = LoadProfile(np.array([0.0, 100.5, 130.0]), np.array([current, -current, -current]))
    res = simulate(prof, init, params, disc4, SolverConfig(cutoffs_enabled=cutoffs))
    want = np.concatenate([np.arange(101.0), np.arange(100.5, 130.0), [130.0]])
    assert np.array_equal(res.time, want)
    assert res.charge[-1] == pytest.approx(100.5 * current - 29.5 * current)


def test_event_cap_and_front_floor_are_counted(params, monkeypatch):
    """The 8-event cap of one step and a front move accepted at the substep
    floor each count once in Integrator.counters."""
    import sys
    sim = sys.modules["csespm.simulate"]
    disc = DiscretizationConfig(N_r=3, N_e=6)
    state = initial_state(params, disc, 0.5, "dis")
    assert state.regime == "two_phase"
    current = params.current_for_c_rate(1.0)
    integ = Integrator(params, disc, SolverConfig())
    real = sim._fvm_two_phase_substep
    calls = []

    def jumpy(s, current, h, params, N_r, g, c_core):
        # a front move too large to accept until the halving reaches its floor
        shell, r_new, closure = real(s, current, h, params, N_r, g, c_core)
        calls.append(h)
        return shell, (0.5 * s.r_p if len(calls) <= 21 else r_new), closure

    monkeypatch.setattr(sim, "_fvm_two_phase_substep", jumpy)
    integ.advance(state, current, 1.0)
    assert integ.counters["front_floor_accepts"] == 1 and calls[20] <= 1e-6
    monkeypatch.setattr(sim, "_fvm_two_phase_substep", real)

    flip = lambda s, *args, **kw: (s, "event")   # noqa: E731
    monkeypatch.setattr(sim, "detect_transition", lambda *args: "exit_two_phase_core")
    monkeypatch.setattr(sim, "transition_margin", lambda *args: 0.0)
    monkeypatch.setattr(sim, "exit_two_phase", flip)
    events = []
    integ.advance_with_events(state, current, 0.0, 1.0, events)
    assert events == ["event"] * 8
    # the 20 halvings before the floor; no probe, as every margin reads 0
    assert integ.counters == {"ocp_extrapolations": 0, "event_cap_hits": 1,
                              "front_floor_accepts": 1, "bisection_probes": 0,
                              "front_halvings": 20}


@pytest.mark.parametrize("current", [1e20, -1e20])
def test_front_step_off_the_radial_clip_raises(params, current):
    """A front that the substep floor must move off the radial clip it was
    driven onto ends the step with CsespmError instead of bouncing between
    clip and interior, 1e-6 of the step at a time."""
    disc = DiscretizationConfig(N_r=4, N_e=6)
    state = initial_state(params, disc, 0.5, "dis" if current > 0.0 else "ch")
    integ = Integrator(params, disc, SolverConfig())
    previous = signal.signal(signal.SIGALRM, lambda *args: pytest.fail("the step hangs"))
    signal.alarm(60)
    try:
        with pytest.raises(CsespmError, match="from the radial clip"):
            integ.advance(state, current, 1.0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_bisection_below_float_spacing_returns(params, ocp):
    """An event_tol below the float spacing of the step ends the bisection
    once its bracket's ends are adjacent floats: the run through a
    two-phase entry returns, with the event time of the default run to
    1e-3 s.  Each probe counts as bisection_probes."""
    disc = DiscretizationConfig(N_r=3, N_e=6)
    profile = cc_profile(params, 1.0, "dis", duration=600.0)
    init = initial_state(params, disc, 1.0, "dis")
    runs = []
    previous = signal.signal(signal.SIGALRM, lambda *args: pytest.fail("bisection hangs"))
    signal.alarm(60)
    try:
        for tol in (1e-3, 1e-20):
            runs.append(simulate(profile, init, params, disc,
                                 SolverConfig(event_tol=tol, cutoffs_enabled=False), ocp=ocp))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    default, tight = runs
    assert [e.kind for e in tight.events] == [e.kind for e in default.events] == ["enter_two_phase"]
    assert abs(tight.events[0].time - default.events[0].time) <= 1e-3
    assert default.meta["counters"]["bisection_probes"] == 10
    assert tight.meta["counters"]["bisection_probes"] > 40


# --- serial two-phase stretches ---------------------------------------------------

def _stepped(monkeypatch, *args, **kwargs):
    """Reference for the serial two-phase stretch (`_two_phase_rows`): the
    run, or its error, with every two-phase step taken through
    Integrator.advance_with_events from the state of its row
    (`_step_alone`), one step per call of the time loop."""
    from test_lockstep import _run
    sim = sys.modules["csespm.simulate"]
    with monkeypatch.context() as m:
        m.setattr(sim, "_two_phase_rows", lambda run, k, end: sim._step_alone(run, k))
        return _run(simulate, *args, **kwargs)


def _two_phase_case(params, case):
    """(profile, initial state, discretization, solver) of each case."""
    disc = DiscretizationConfig(N_r=4, N_e=6, scheme="fdm" if case == "fdm_1c" else "fvm")
    free = SolverConfig(cutoffs_enabled=False)
    if case == "cycle_c4":
        return cycle_profile(params, 0.25, 1), initial_state(params, disc, 0.0, "ch"), disc, free
    if case == "drive_flips":
        profile = synthetic_dynamic_profile(params, duration=1200.0, seed=71, mean_c=0.0)
        return profile, initial_state(params, disc, 0.5, "dis"), disc, SolverConfig()
    if case == "fdm_1c":
        return cycle_profile(params, 1.0, 1), initial_state(params, disc, 0.0, "ch"), disc, free
    # a 1C discharge whose lower cutoff lies between rows k - 1 and k, mid-plateau
    # and mid-chunk, so the stretch runs past row k before the output map stops it
    profile, init = cc_profile(params, 1.0, "dis"), initial_state(params, disc, 1.0, "dis")
    v = simulate(profile, init, params, disc, free).voltage
    k = 1000
    assert v[1:k].min() > v[k]
    return profile, init, disc, SolverConfig(v_min=0.5 * (v[1:k].min() + v[k]))


@pytest.mark.parametrize("case", ["cycle_c4", "drive_flips", "fdm_1c", "cutoff_mid_stretch"])
def test_serial_two_phase_rows_match_per_step_loop(params, ocp, monkeypatch, case):
    """A serial run's two-phase stretches, one substep a step, give bit for
    bit the rows, events, counters, max_closure, substep count and status
    of a loop that takes every two-phase step through
    Integrator.advance_with_events: on the C/4 N_r = 4 cycle, a
    charge-sustaining drive profile whose current flips sign inside
    two-phase, an FDM 1C cycle, and a run that a cutoff stops mid-stretch."""
    from test_lockstep import _assert_same
    profile, init, disc, solver = _two_phase_case(params, case)
    got = simulate(profile, init, params, disc, solver, ocp=ocp)
    _assert_same(got, _stepped(monkeypatch, profile, init, params, disc, solver, ocp=ocp))
    kinds = [e.kind for e in got.events]
    assert "two_phase" in got.regime and got.meta["counters"]["two_phase_substeps"] > 0
    if case == "drive_flips":
        assert "sign_flip" in kinds and got.status == "completed"
    if case == "cutoff_mid_stretch":
        assert (got.status, len(got), kinds) == ("cutoff_low", 1001, ["enter_two_phase"])
        assert got.regime[-1] == "two_phase"


def _steps_alone(monkeypatch) -> list:
    """The start times of the steps taken through
    Integrator.advance_with_events from now on."""
    step = Integrator.advance_with_events
    starts = []

    def counted(self, s, current, t, h, events):
        starts.append(t)
        return step(self, s, current, t, h, events)

    monkeypatch.setattr(Integrator, "advance_with_events", counted)
    return starts


def test_serial_two_phase_steps_alone_only_at_events(params, ocp, monkeypatch):
    """On the C/4 cycle, Integrator.advance_with_events runs only for the
    steps that enter or leave two-phase; every other two-phase step is its
    stretch's one substep."""
    profile, init, disc, solver = _two_phase_case(params, "cycle_c4")
    starts = _steps_alone(monkeypatch)
    res = simulate(profile, init, params, disc, solver, ocp=ocp)
    kinds = [e.kind for e in res.events]
    assert kinds == ["enter_two_phase", "exit_two_phase"] * 2
    assert starts == [math.floor(e.time / solver.dt) * solver.dt for e in res.events]


def _failing_kernel(monkeypatch, failure):
    """Replace the FVM substep by one that fails, by ``failure``, on every
    state whose front lies below half the radius."""
    sim = sys.modules["csespm.simulate"]
    real = sim._fvm_two_phase_substep

    def kernel(state, current, h, params, N_r, g, c_core):
        shell, r_new, closure = real(state, current, h, params, N_r, g, c_core)
        if state.r_p < 0.5 * params.R_s_p:
            return failure(state, shell, r_new, closure)
        return shell, r_new, closure

    monkeypatch.setattr(sim, "_fvm_two_phase_substep", kernel)


def _raises(state, *out):
    raise ZeroDivisionError(f"front at {state.r_p!r}")


def _nonfinite_shell(state, shell, r_new, closure):
    return shell * math.nan, r_new, closure


@pytest.mark.parametrize("failure", [_raises, _nonfinite_shell])
def test_failing_two_phase_substep_ends_the_run_as_per_step(params, ocp, monkeypatch,
                                                            failure):
    """A substep that raises mid-stretch, or returns a non-finite shell,
    ends the serial run with the error, at the step, of the loop that
    takes each two-phase step through Integrator.advance_with_events: the
    kernel's own error, or BlowupError with its last good time."""
    from test_lockstep import _assert_same
    sim = sys.modules["csespm.simulate"]
    serve = sim._serve
    stops = []

    def recorded(runs, s, b):
        stopped = serve(runs, s, b)
        stops.extend(k for k, _ in stopped.values())
        return stopped

    monkeypatch.setattr(sim, "_serve", recorded)
    _failing_kernel(monkeypatch, failure)
    disc = DiscretizationConfig(N_r=4, N_e=6)
    args = (cc_profile(params, 1.0, "dis"), initial_state(params, disc, 1.0, "dis"), params,
            disc, SolverConfig(cutoffs_enabled=False))
    with pytest.raises(ZeroDivisionError if failure is _raises else BlowupError) as got:
        simulate(*args, ocp=ocp)
    want = _stepped(monkeypatch, *args, ocp=ocp)
    _assert_same(got.value, want)
    # both stop at one step inside the two-phase stretch, which starts at row 553
    assert len(stops) == 2 and stops[0] == stops[1] > 553


def test_front_step_that_must_halve_is_taken_alone(params, ocp, monkeypatch):
    """A 1C discharge at dt = 10 s moves the front too far for one substep in
    the steps after its entry: each is taken alone and halved
    (front_halvings), bit for bit the per-step loop's run."""
    from test_lockstep import _assert_same
    disc = DiscretizationConfig(N_r=4, N_e=6)
    args = (cc_profile(params, 1.0, "dis", duration=900.0),
            initial_state(params, disc, 1.0, "dis"), params, disc,
            SolverConfig(dt=10.0, cutoffs_enabled=False))
    starts = _steps_alone(monkeypatch)
    got = simulate(*args, ocp=ocp)
    assert [e.kind for e in got.events] == ["enter_two_phase"]
    assert len(starts) > 1 and got.meta["counters"]["front_halvings"] > 0
    _assert_same(got, _stepped(monkeypatch, *args, ocp=ocp))


def test_rejected_front_step_leaves_no_closure(params, ocp, monkeypatch):
    """On a 2C discharge into two-phase at dt = 10 s, stretch substeps that
    `_keeps_substep` rejects move the front too far, and the step is taken
    alone, halved.  The closure of a rejected substep, above the run's final
    max_closure, stays out of the run: each run equals the per-step loop's,
    max_closure included."""
    from test_lockstep import _assert_same
    sim = sys.modules["csespm.simulate"]
    real, keeps = sim._fvm_two_phase_substep, sim._keeps_substep
    last, rejected = [], []     # the last substep's closure; (D_s_p, closure) of each rejected

    def recorded(state, current, h, params, N_r, g, c_core):
        out = real(state, current, h, params, N_r, g, c_core)
        last[:] = [out[2]]
        return out

    def judged(r_old, post, current, params, cfg):
        kept = keeps(r_old, post, current, params, cfg)
        if not kept:
            rejected.append((params.D_s_p, last[0]))
        return kept

    monkeypatch.setattr(sim, "_fvm_two_phase_substep", recorded)
    monkeypatch.setattr(sim, "_keeps_substep", judged)
    disc = DiscretizationConfig(N_r=4, N_e=6)
    solver = SolverConfig(dt=10.0, cutoffs_enabled=False)
    profile = cc_profile(params, 2.0, "dis", duration=360.0)
    top = {}
    for p in [params.replace(D_s_p=params.D_s_p * f) for f in (0.3, 1.0, 3.0)]:
        args = (profile, initial_state(p, disc, 1.0, "dis"), p, disc, solver)
        got = simulate(*args, ocp=ocp)
        _assert_same(got, _stepped(monkeypatch, *args, ocp=ocp))
        top[p.D_s_p] = got.meta["max_closure"]
    assert any(closure > top[d] for d, closure in rejected)
