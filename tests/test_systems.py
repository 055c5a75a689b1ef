import itertools

import numpy as np
import pytest

from csespm.errors import ParameterError, PhaseDomainError
from csespm.output import cell_voltage, electrode_c_e_avg
from csespm.params import DiscretizationConfig, ParameterColumns
from csespm.simulate import SolverConfig, cc_profile, initial_state, simulate
from csespm import systems

from dense_systems import rhs, two_phase_bulk, two_phase_system


def boundary_influx(params, electrode, current):
    """Independent oracle: total molar influx through the particle surface."""
    R = params.R_s(electrode)
    return systems.molar_flux_density(params, electrode, current) * 4 * np.pi * R**2


# --- one-phase builder --------------------------------------------------------

def test_center_row_zero_sum_n2(params):
    sys2 = systems.build_one_phase_solid_system(params, "pos", 2)
    assert sys2.A.shape == (2, 2)
    assert sys2.A[0, 0] == pytest.approx(-sys2.A[0, 1])


def test_uniform_field_at_rest_is_stationary(params):
    for electrode in ("neg", "pos"):
        sysm = systems.build_one_phase_solid_system(params, electrode, 5)
        c = np.full(5, 1234.5)
        floor = np.abs(sysm.A).max() * c[0] * 1e-12
        assert np.abs(rhs(sysm, c, 0.0)).max() < floor


def test_row_sums_zero(params):
    sysm = systems.build_one_phase_solid_system(params, "neg", 6)
    scale = np.abs(sysm.A).max()
    assert np.abs(sysm.A.sum(axis=1)).max() < 1e-12 * scale


def test_mass_rate_equals_boundary_influx(params, rng):
    """d(sum V_i c_i)/dt from (A c + B I) must equal the surface influx
    exactly, for random states and currents."""
    for electrode in ("neg", "pos"):
        for N in (2, 4, 9):
            sysm = systems.build_one_phase_solid_system(params, electrode, N)
            v = systems.cell_volumes(params.R_s(electrode), N)
            for _ in range(20):
                c = rng.uniform(0, params.c_s_max(electrode), N)
                current = rng.uniform(-100, 100)
                got = float(v @ rhs(sysm, c, current))
                want = boundary_influx(params, electrode, current)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-30)


def test_step_response_mass_rate_identified_values(params):
    # C/4 transport values, N_r = 4, constant current
    assert params.D_s_p == pytest.approx(4.05e-18)
    assert params.R_s_p == pytest.approx(1.67e-8)
    sysm = systems.build_one_phase_solid_system(params, "pos", 4)
    v = systems.cell_volumes(params.R_s_p, 4)
    current = 7.0
    c = np.full(4, 0.4 * params.c_s_max_p)
    rate = float(v @ rhs(sysm, c, current))
    q = current / (params.F * params.A_cell * params.L_p * params.a_s("pos"))
    assert rate == pytest.approx(q * 4 * np.pi * params.R_s_p**2, rel=1e-12)


def test_builder_rejects_bad_inputs(params):
    with pytest.raises(ParameterError):
        systems.build_one_phase_solid_system(params, "pos", 1)
    with pytest.raises(ParameterError):
        systems.build_one_phase_solid_system(params, "sep", 4)


# --- interface value g and front sign, set by the stored core phase ----------

def test_interface_concentration_trichotomy(params):
    """g is the shell phase's edge (c_beta around an alpha core, c_alpha
    around a beta core) and the front factor is +1/(c_alpha - c_beta) for an
    alpha core, -1/(c_alpha - c_beta) for a beta core and 0 at rest, under
    either sign of the current."""
    cmax = params.c_s_max_p
    assert systems.interface_values(params, "alpha", "dis") == (
        pytest.approx(0.804 * cmax), pytest.approx(0.196 * cmax))
    assert systems.interface_values(params, "beta", "ch") == (
        pytest.approx(0.220 * cmax), pytest.approx(0.817 * cmax))
    for direction in ("dis", "ch"):
        ca, cb = params.c_alpha(direction), params.c_beta(direction)
        assert systems.interface_values(params, "alpha", direction) == (cb, ca)
        assert systems.interface_values(params, "beta", direction) == (ca, cb)
    with pytest.raises(PhaseDomainError):
        systems.interface_values(params, None, "dis")
    # a column of members' core phases: each entry picked as for its member
    members = ParameterColumns([params, params.replace(theta_p_alpha_dis=0.2)] * 2)
    phases = np.array(["alpha", "alpha", "beta", "beta"])[:, None]
    g, c_core = systems.interface_values(members, phases, "dis")
    assert list(zip(g[:, 0].tolist(), c_core[:, 0].tolist())) == [
        systems.interface_values(p, c, "dis") for p, c in zip(members.members, phases[:, 0])]
    for odd in (None, "gamma"):
        with pytest.raises(PhaseDomainError, match=repr(odd)):
            systems.interface_values(members, np.array(["alpha", odd, "beta", "beta"])[:, None],
                                     "dis")

    N, r_p = 4, 0.5 * params.R_s_p
    dr = (params.R_s_p - r_p) / N
    for direction, current in itertools.product(("dis", "ch"), (1.0, -1.0, 0.0)):
        dc = params.c_alpha(direction) - params.c_beta(direction)
        for core_phase, sign in (("alpha", 1.0), ("beta", -1.0)):
            sysm = two_phase_system(params, r_p, current, N,
                                                  direction, core_phase)
            g, _ = systems.interface_values(params, core_phase, direction)
            want = sign if current != 0.0 else 0.0
            assert sysm.A[N, 0] * dr * dc / (2.0 * params.D_s_p) == pytest.approx(want)
            # Dirichlet face at g under current, zero flux at rest
            rest = two_phase_system(params, r_p, 0.0, N,
                                                  direction, core_phase)
            w = rest.A[0, 0] - sysm.A[0, 0]
            assert sysm.G[0] == pytest.approx(w * g)
            assert (w > 0.0) == (current != 0.0)


# --- two-phase builder -----------------------------------------------------------

def test_shell_width_formula(params):
    r_p = params.R_s_p / 2
    sysm = two_phase_system(params, r_p, 1.0, 4)
    assert len(sysm.A) == 5
    # dr recovered from the front row: A[N,0] = 2 sign D / (dr (ca - cb))
    dr = 2.0 * params.D_s_p / (sysm.A[4, 0] * (params.c_alpha("dis") - params.c_beta("dis")))
    assert dr == pytest.approx((params.R_s_p - r_p) / 4)
    assert dr == pytest.approx(2.0875e-9)
    # dr * N + r_p = R exactly
    assert dr * 4 + r_p == pytest.approx(params.R_s_p, rel=1e-14)


def test_two_phase_rest_branch(params):
    r_p = 0.6 * params.R_s_p
    sysm = two_phase_system(params, r_p, 0.0, 4)
    assert sysm.G[-1] == 0.0
    assert np.all(sysm.G == 0.0)
    # uniform shell is stationary and the front is frozen at rest
    x = np.concatenate([np.full(4, 9000.0), [r_p]])
    dx = rhs(sysm, x, 0.0)
    assert np.abs(dx).max() < np.abs(sysm.A).max() * 9000.0 * 1e-12


def test_front_row_matches_linear_profile_gradient(params):
    """Shell linear between the plateau edges, pinned at the interface value:
    the front row reproduces sign(I) D/(ca-cb) times the analytic gradient.

    The cell average of a linear profile equals its midpoint value, so the
    one-sided half-cell difference recovers the gradient exactly when the
    profile meets g(I) at the interface (charge pins c_alpha there;
    discharge pins c_beta, i.e. a decreasing profile toward the surface).
    """
    N = 8
    r_p = params.R_s_p / 2
    dr = (params.R_s_p - r_p) / N
    centers = r_p + dr * (np.arange(N) + 0.5)
    grad_span = params.R_s_p - r_p

    # charge: g = c_alpha(ch); profile rises from it toward the surface
    ca, cb = params.c_alpha("ch"), params.c_beta("ch")
    grad = (cb - ca) / grad_span
    lin = ca + grad * (centers - r_p)
    sysm = two_phase_system(params, r_p, -1.0, N)
    rdot = float(sysm.A[N] @ np.concatenate([lin, [r_p]]) + sysm.G[N])
    assert rdot == pytest.approx(-params.D_s_p / (ca - cb) * grad, rel=1e-12)

    # discharge: g = c_beta(dis); profile falls from it toward the surface
    ca, cb = params.c_alpha("dis"), params.c_beta("dis")
    grad = (ca - cb) / grad_span
    lin = cb + grad * (centers - r_p)
    sysm = two_phase_system(params, r_p, +1.0, N)
    rdot = float(sysm.A[N] @ np.concatenate([lin, [r_p]]) + sysm.G[N])
    assert rdot == pytest.approx(params.D_s_p / (ca - cb) * grad, rel=1e-12)


def test_two_phase_rejects_bad_radius(params):
    with pytest.raises(PhaseDomainError):
        two_phase_system(params, 0.0, 1.0, 4)
    with pytest.raises(PhaseDomainError):
        two_phase_system(params, params.R_s_p, 1.0, 4)


def test_two_phase_interior_row_sums(params):
    sysm = two_phase_system(params, 0.3 * params.R_s_p, 1.0, 5)
    A_c = sysm.A[:5, :5]
    scale = np.abs(A_c).max()
    # interior rows telescope; the first row carries the Dirichlet face
    assert np.abs(A_c[1:5].sum(axis=1)).max() < 1e-12 * scale
    assert A_c[0].sum() < -1e-6 * scale


def test_two_phase_b_vector_on_outermost_cell(params):
    N = 4
    r_p = 0.4 * params.R_s_p
    sysm = two_phase_system(params, r_p, 1.0, N)
    assert np.all(sysm.B[:N - 1] == 0.0)
    assert sysm.B[N] == 0.0
    # magnitude: 3 R^2 / (R^3 - r_{N-1}^3) / (F A L a), lithium entering on
    # discharge
    dr = (params.R_s_p - r_p) / N
    r_in = r_p + (N - 1) * dr
    expect = 3 * params.R_s_p**2 / (params.R_s_p**3 - r_in**3) / (
        params.F * params.A_cell * params.L_p * params.a_s("pos"))
    assert sysm.B[N - 1] == pytest.approx(expect, rel=1e-12)
    assert sysm.B[N - 1] > 0.0


# --- electrolyte builder -----------------------------------------------------------

def test_electrolyte_rest_uniform_stationary(params):
    sysm = systems.build_electrolyte_system(params, 9)
    c = np.full(9, params.c_e0)
    assert np.abs(rhs(sysm, c, 0.0)).max() < np.abs(sysm.A).max() * params.c_e0 * 1e-12


def test_electrolyte_source_cancels(params):
    for N_e in (6, 12):
        sysm = systems.build_electrolyte_system(params, N_e)
        dx, eps, _ = systems.electrolyte_geometry(params, N_e)
        v = dx * eps * params.A_cell
        assert abs(float(v @ sysm.B)) < 1e-12 * np.abs(v * sysm.B).max()
        assert np.abs(sysm.A.sum(axis=1)).max() < 1e-10 * np.abs(sysm.A).max()


def test_electrolyte_relaxes_to_uniform(params):
    """Step current then rest: conserved lithium forces relaxation back to a
    spatially uniform state at the initial mean."""
    from csespm.simulate import AffinePropagator
    N_e = 6
    sysm = systems.build_electrolyte_system(params, N_e)
    dx, eps, _ = systems.electrolyte_geometry(params, N_e)
    w = dx * eps
    prop = AffinePropagator(np.diag(sysm.A, -1), np.diag(sysm.A), np.diag(sysm.A, 1),
                            weights=w)
    c = np.full(N_e, params.c_e0)
    c = prop.step(c, sysm.B * 35.0, 600.0)          # polarize
    assert c.std() > 1.0
    c_end = prop.step(c, sysm.B * 0.0, 1e6)         # relax at rest
    assert np.allclose(c_end, c_end.mean(), atol=1e-6)
    mean0 = float(w @ np.full(N_e, params.c_e0)) / w.sum()
    mean_end = float(w @ c_end) / w.sum()
    assert mean_end == pytest.approx(mean0, rel=1e-8)


def test_electrolyte_bad_split(params):
    for N_e in (7, 5, 2):
        with pytest.raises(ParameterError):
            systems.build_electrolyte_system(params, N_e)


def test_electrolyte_thirds(params):
    """N_e = 9 lies in thirds of 3 CVs: the geometry's regions and the
    electrode averages of a state and of rows read them."""
    _, _, region = systems.electrolyte_geometry(params, 9)
    assert region.tolist() == [0] * 3 + [1] * 3 + [2] * 3
    c_e = np.arange(9.0)
    assert electrode_c_e_avg(c_e, "neg") == 1.0
    assert electrode_c_e_avg(c_e, "pos") == 7.0
    assert electrode_c_e_avg(np.stack([c_e, 2 * c_e]), "pos").tolist() == [7.0, 14.0]


@pytest.mark.parametrize("N_e", [-3, 0, 1, 2, 4, 7, 10])
def test_electrolyte_width_not_in_thirds(params, ocp, N_e):
    """An N_e, or a row width, that is not a positive multiple of 3 raises
    ParameterError in the builder, the geometry, the electrode averages and
    the output map, rather than reading a wrong region."""
    with pytest.raises(ParameterError, match="positive multiple of 3"):
        systems.build_electrolyte_system(params, N_e)
    with pytest.raises(ParameterError, match="positive multiple of 3"):
        systems.electrolyte_geometry(params, N_e)
    rows = np.full((2, max(N_e, 0)), params.c_e0)
    for c_e in (rows[0], rows):
        for electrode in ("neg", "pos"):
            with pytest.raises(ParameterError, match="positive multiple of 3"):
                electrode_c_e_avg(c_e, electrode)
    state = initial_state(params, DiscretizationConfig(N_r=4, N_e=6), 0.5, "dis")
    state.elec = rows[0]
    with pytest.raises(ParameterError, match="positive multiple of 3"):
        cell_voltage(state, 1.0, params, ocp)


# --- reconstructions ------------------------------------------------------------

def test_surface_concentration_rest_and_slope(params):
    c = np.full(4, 10000.0)
    dr = params.R_s_p / 4
    assert systems.surface_concentration(c, 0.0, params, "pos") == 10000.0
    c_s1 = systems.surface_concentration(c, 2.0, params, "pos")
    slope = dr / (2 * params.D_s_p * params.F * params.A_cell
                  * params.L_p * params.a_s("pos"))
    assert c_s1 - 10000.0 == pytest.approx(2.0 * slope, rel=1e-12)
    # negative electrode loses lithium on discharge
    c_n = systems.surface_concentration(c, 2.0, params, "neg")
    assert c_n < 10000.0


def test_surface_concentration_fine_grid_oracle(params):
    """N_r = 4 surface value tracks an N_r = 200 reference within 2 percent
    of c_s_max after the initial transient at 1C discharge."""
    runs = {}
    for N in (4, 200):
        disc = DiscretizationConfig(N_r=N, N_e=6)
        init = initial_state(params, disc, 1.0, "dis")
        prof = cc_profile(params, 1.0, "dis", duration=500.0)
        runs[N] = simulate(prof, init, params, disc,
                           SolverConfig(cutoffs_enabled=False))
    for N in (4, 200):
        r = runs[N]
        runs[N] = np.array([
            systems.surface_concentration(r.pos_c[i], r.current[i], params, "pos")
            for i in range(len(r))])
    diff = np.abs(runs[4][100:] - runs[200][100:]) / params.c_s_max_p
    assert diff.max() < 0.02


def test_spherical_cells_are_fresh_and_row_for_row(params):
    """Each call builds its own writable arrays, and a column of radii (or
    cell_volumes' (T,) array) gives, row for row, the bits of each radius
    alone."""
    R = params.R_s_p
    radii = R * np.array([1e-9, 0.3, 0.61803, 0.999])
    first, again = systems.spherical_cells(0.3 * R, R, 4), systems.spherical_cells(0.3 * R, R, 4)
    for a, b in zip(first, again):
        assert a is not b and a.flags.writeable and np.array_equal(a, b)
    rows = systems.spherical_cells(radii[:, None], R, 4)
    vols = systems.cell_volumes(R, 4, r_inner=radii)
    for k, r in enumerate(radii.tolist()):
        alone = systems.spherical_cells(r, R, 4)
        assert all(a.tobytes() == row[k].tobytes() for a, row in zip(alone, rows))
        assert vols[k].tobytes() == alone[2].tobytes() == systems.cell_volumes(R, 4, r).tobytes()


def test_bulk_concentration(params):
    assert systems.one_phase_bulk(np.full(5, 777.0), params.R_s_p) == pytest.approx(777.0)
    # vanishing core: shell-only average
    c_shell = np.array([100.0, 200.0, 300.0])
    tiny = 1e-12 * params.R_s_p
    v = systems.cell_volumes(params.R_s_p, 3, r_inner=tiny)
    want = float(v @ c_shell) / ((4 / 3) * np.pi * params.R_s_p**3)
    got = two_phase_bulk(c_shell, tiny, 5000.0, params.R_s_p)
    assert got == pytest.approx(want, rel=1e-9)
    # equal core and shell volumes, uniform shell at c_beta, core at c_alpha
    r_half = params.R_s_p * 0.5**(1 / 3)
    ca, cb = params.c_alpha("dis"), params.c_beta("dis")
    got = two_phase_bulk(np.full(4, cb), r_half, ca, params.R_s_p)
    assert got == pytest.approx(0.5 * (ca + cb), rel=1e-12)


# --- FDM reference scheme ----------------------------------------------------------

def _central_difference_system(params, electrode, N_r, r_p=0.0, current=0.0):
    """Reference (A, B, G): central differences of D (c_rr + 2/r c_r) on N_r
    cell-center nodes over [r_p, R], written node by node with one ghost
    node at each end: c_{-1} = c_0 at the center or at a front at rest,
    c_{-1} = 2 g - c_0 at a front under current, c_N = c_{N-1} + h dc/dr|_R
    at the surface.  With a front (r_p > 0) the state gains r_p and its row
    2 D (c_0 - g) / (h (c_core - g))."""
    R, D = params.R_s(electrode), params.D_s(electrode)
    h = (R - r_p) / N_r
    r = r_p + (np.arange(N_r) + 0.5) * h
    lo = D / h**2 - D / (r * h)
    hi = D / h**2 + D / (r * h)
    n = N_r + 1 if r_p > 0.0 else N_r
    A, B, G = np.zeros((n, n)), np.zeros(n), np.zeros(n)
    for i in range(N_r):
        A[i, i] = -2.0 * D / h**2
        if i > 0:
            A[i, i - 1] = lo[i]
        if i < N_r - 1:
            A[i, i + 1] = hi[i]
    A[N_r - 1, N_r - 1] += hi[-1]
    B[N_r - 1] = hi[-1] * h * systems.FLUX_SIGN[electrode] / (
        D * params.F * params.A_cell * params.L(electrode) * params.a_s(electrode))
    if r_p == 0.0 or current == 0.0:
        A[0, 0] += lo[0]
        return A, B, G
    direction = systems.direction_for_current(current)
    g, c_core = systems.interface_values(params, systems.entry_core_phase(direction),
                                         direction)
    A[0, 0] -= lo[0]
    G[0] = 2.0 * lo[0] * g
    A[N_r, 0] = 2.0 * D / (h * (c_core - g))
    G[N_r] = -2.0 * D * g / (h * (c_core - g))
    return A, B, G


@pytest.mark.parametrize("case", ["neg", "pos"] + [
    (rp_frac, sign) for rp_frac in (0.05, 0.5, 0.99) for sign in (-1.0, 0.0, 1.0)])
@pytest.mark.parametrize("N_r", [2, 3, 4, 50, 200])
def test_fdm_is_the_shared_assembly_on_node_geometry(params, N_r, case):
    """The FDM blocks, built by the FVM assembly on node capacities r_i^2 h
    and face areas r_{k-1} r_k, equal the central-difference stencil entry
    by entry: one-phase for both electrodes, two-phase at three front radii
    under charge, rest and discharge."""
    if isinstance(case, str):
        sysm = systems.build_one_phase_solid_system(params, case, N_r, "fdm")
        want = _central_difference_system(params, case, N_r)
        got = (sysm.A, sysm.B, np.zeros(N_r))
    else:
        rp_frac, sign = case
        r_p = rp_frac * params.R_s_p
        current = sign * params.current_for_c_rate(1.0)
        sysm = two_phase_system(params, r_p, current, N_r, scheme="fdm")
        want = _central_difference_system(params, "pos", N_r, r_p, current)
        got = (sysm.A, sysm.B, sysm.G)
    for name, a, b in zip("ABG", got, want):
        np.testing.assert_allclose(a, b, rtol=1e-14, atol=0.0, err_msg=name)


def test_fdm_uniform_rest_stationary(params):
    sysm = systems.build_one_phase_solid_system(params, "pos", 4, "fdm")
    floor = np.abs(sysm.A).max() * 5000.0 * 1e-12
    assert np.abs(rhs(sysm, np.full(4, 5000.0), 0.0)).max() < floor
    two = two_phase_system(params, 0.5 * params.R_s_p, 0.0, 4, scheme="fdm")
    x = np.concatenate([np.full(4, 5000.0), [0.5 * params.R_s_p]])
    assert np.abs(rhs(two, x, 0.0)).max() < np.abs(two.A).max() * 5000.0 * 1e-12


def test_fdm_converges_to_fvm_voltage(params):
    """At N_r = 200 both schemes resolve the same PDE: C/4 discharge voltage
    trajectories agree within 1 mV RMS (shortened window)."""
    out = {}
    for scheme in ("fvm", "fdm"):
        disc = DiscretizationConfig(N_r=200, N_e=6, scheme=scheme)
        init = initial_state(params, disc, 1.0, "dis")
        prof = cc_profile(params, 0.25, "dis", duration=2500.0)
        out[scheme] = simulate(prof, init, params, disc,
                               SolverConfig(cutoffs_enabled=False))
    n = min(len(out["fvm"]), len(out["fdm"]))
    dv = out["fvm"].voltage[:n] - out["fdm"].voltage[:n]
    assert 1e3 * np.sqrt(np.mean(dv**2)) < 1.0


def test_fdm_mass_drifts_fvm_does_not(params):
    """One equal-Ah C/4 cycle: the FDM cyclic mass drift exceeds the FVM's
    by orders of magnitude."""
    from csespm.simulate import cycle_profile, mass_audit
    drift = {}
    for scheme in ("fvm", "fdm"):
        disc = DiscretizationConfig(N_r=4, N_e=6, scheme=scheme)
        init = initial_state(params, disc, 0.0, "ch")
        prof = cycle_profile(params, 1.0, 1)
        res = simulate(prof, init, params, disc, SolverConfig(cutoffs_enabled=False))
        drift[scheme] = mass_audit(res, params).max_drift_rel
    assert drift["fdm"] > 10 * drift["fvm"]
    assert drift["fvm"] < 1e-8


def test_ocp_extrapolations_are_counted(params):
    """An OCP lookup counts each point outside its table's range."""
    from csespm.ocp import OcpTable
    counters = {}
    table = OcpTable("pos", "dis", np.array([0.2, 0.5, 0.8]), np.array([3.6, 3.4, 3.0]))
    volts = table.lookup(np.array([0.1, 0.5, 0.9, 0.95]), counters=counters)
    assert counters["ocp_extrapolations"] == 3 and list(volts) == [3.6, 3.4, 3.0, 3.0]


@pytest.mark.parametrize("scheme", ["fvm", "fdm"])
def test_two_phase_rows_match_each_state(params, rng, scheme):
    """The dense two-phase system, its rhs and two_phase_bulk on rows of radii,
    currents and shells equal the one-state forms row by row, bit for bit,
    rows at rest included."""
    N, m = 3, 6
    r = params.R_s_p * rng.uniform(0.2, 0.9, m)
    current = np.array([1.5, -2.0, 0.0, 3.0, 0.0, -0.5])
    X = np.column_stack([rng.uniform(0.1, 0.9, (m, N)) * params.c_s_max_p, r])
    rows = two_phase_system(params, r[:, None], current[:, None], N, "ch",
                                          "beta", scheme)
    dx = rhs(rows, X, current)
    bulk = two_phase_bulk(X[:, :-1], r, 5000.0, params.R_s_p)
    for i in range(m):
        one = two_phase_system(params, float(r[i]), float(current[i]), N, "ch",
                                             "beta", scheme)
        for got, want in ((rows.A[i], one.A), (rows.B[i], one.B), (rows.G[i], one.G),
                          (dx[i], rhs(one, X[i], float(current[i])))):
            assert got.tobytes() == want.tobytes()
        assert bulk[i] == two_phase_bulk(X[i, :-1], float(r[i]), 5000.0, params.R_s_p)
