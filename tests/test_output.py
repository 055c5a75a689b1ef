import numpy as np
import pytest

from csespm.errors import SaturationError
from csespm.output import (cell_voltage, electrolyte_potential_drop,
                           exchange_current_density, overpotential,
                           soc_from_theta)
from csespm.simulate import SolverConfig, initial_state, simulate


def test_exchange_current_half_saturation(params):
    cmax = params.c_s_max_p
    i0 = exchange_current_density(params, "pos", 0.5 * cmax, params.c_e0)
    want = params.k_p * params.F * np.sqrt(params.c_e0) * 0.5 * cmax
    assert i0 == pytest.approx(want, rel=1e-12)


def test_exchange_current_maximized_at_half(params, rng):
    cmax = params.c_s_max_n
    mid = exchange_current_density(params, "neg", 0.5 * cmax, params.c_e0)
    for c in rng.uniform(0.01, 0.99, 50) * cmax:
        assert exchange_current_density(params, "neg", float(c), params.c_e0) <= mid + 1e-12


def test_exchange_current_pinned_regression(params):
    # k_p from the C/4 parameter set, c_e = 1000 mol/m^3, c_eff = c_max/2;
    # value computed once by hand from i0 = k F sqrt(c_e c (c_max - c))
    # sqrt(1000 * 11403^2) = 11403 * sqrt(1000) = 360594.5;
    # 9.50e-13 * 96485.33 = 9.1661e-8; product = 3.30525e-2
    i0 = exchange_current_density(params, "pos", 0.5 * 22806.0, 1000.0)
    assert params.k_p == 9.50e-13
    assert i0 == pytest.approx(0.0330525, rel=1e-5)


def test_exchange_current_saturation_errors(params):
    with pytest.raises(SaturationError):
        exchange_current_density(params, "pos", 0.0, params.c_e0)
    with pytest.raises(SaturationError):
        exchange_current_density(params, "pos", params.c_s_max_p, params.c_e0)
    with pytest.raises(SaturationError):
        exchange_current_density(params, "pos", 1000.0, -1.0)


def test_overpotential_odd_and_signs(params, rng):
    i0 = 0.03
    assert overpotential(params, "pos", 0.0, i0) == 0.0
    for current in rng.uniform(1.0, 80.0, 25):
        ep = overpotential(params, "pos", current, i0)
        en = overpotential(params, "neg", current, i0)
        assert ep < 0 < en                       # discharge signs
        assert overpotential(params, "pos", -current, i0) == pytest.approx(-ep)
        assert overpotential(params, "neg", -current, i0) == pytest.approx(-en)
    with pytest.raises(SaturationError):
        overpotential(params, "pos", 1.0, 0.0)


def test_overpotential_small_current_linearization(params):
    """eta -> R T I p / (F a_s A L i0) as I -> 0."""
    i0 = 0.02
    for electrode, p_sign in (("pos", -1.0), ("neg", 1.0)):
        lin = (params.R_gas * params.T * p_sign
               / (params.F * params.a_s(electrode) * params.A_cell
                  * params.L(electrode) * i0))
        ratios = [overpotential(params, electrode, I, i0) / (lin * I)
                  for I in (1.0, 0.1, 0.01)]
        assert abs(ratios[-1] - 1.0) < 1e-6
        assert abs(ratios[0] - 1.0) > abs(ratios[-1] - 1.0) * 0.0  # finite sequence
        assert ratios[0] == pytest.approx(1.0, abs=1e-2)


def test_electrolyte_drop(params):
    assert electrolyte_potential_drop(params, np.full(6, params.c_e0)) == 0.0
    c = np.linspace(900.0, 1100.0, 6)
    d1 = electrolyte_potential_drop(params, c)
    d2 = electrolyte_potential_drop(params, c[::-1])
    assert d2 == pytest.approx(-d1, rel=1e-12)
    # direct evaluation with nu = 1, T = 298.15 K
    c2 = np.concatenate([[900.0], np.full(4, 1000.0), [1100.0]])
    want = 2 * 8.314462618 * 298.15 / 96485.33212 * np.log(11.0 / 9.0)
    assert electrolyte_potential_drop(params, c2) == pytest.approx(want, rel=1e-9)
    with pytest.raises(SaturationError):
        electrolyte_potential_drop(params, np.array([0.0, 1000.0]))


def test_soc_affine_endpoints(params):
    assert soc_from_theta(params, 0.925, "pos", "dis") == pytest.approx(0.0, abs=1e-12)
    assert soc_from_theta(params, 0.066, "pos", "dis") == pytest.approx(1.0, abs=1e-12)
    mid_n = 0.5 * (params.theta_n_0_dis + params.theta_n_100_dis)
    assert soc_from_theta(params, mid_n, "neg", "dis") == pytest.approx(0.5)
    # unclamped outside the window
    assert soc_from_theta(params, 0.95, "pos", "dis") < 0.0


def test_equilibrium_voltage_is_ocv_difference(params, ocp, disc4):
    state = initial_state(params, disc4, 0.5, "dis")
    snap = cell_voltage(state, 0.0, params, ocp, (2, 2, 2))
    want = (ocp.pick("pos", "dis").lookup(np.array([snap.theta_p]))
            - ocp.pick("neg", "dis").lookup(np.array([snap.theta_n])))[0]
    assert snap.V_cell == pytest.approx(want, abs=1e-12)
    assert snap.eta_p == 0.0 and snap.eta_n == 0.0 and snap.dphi_e == 0.0


def test_voltage_recomposition_and_current_asymmetry(params, ocp, disc4):
    state = initial_state(params, disc4, 0.5, "dis")
    current = params.current_for_c_rate(0.5)
    up = cell_voltage(state, current, params, ocp, (2, 2, 2))
    dn = cell_voltage(state, -current, params, ocp, (2, 2, 2))
    assert up.V_cell == pytest.approx(up.recompose(current, params.R_l), abs=1e-14)
    assert dn.V_cell == pytest.approx(dn.recompose(-current, params.R_l), abs=1e-14)
    # eta is odd up to the I-dependence of i0 through the surface value
    assert up.eta_p == pytest.approx(-dn.eta_p, rel=3e-3)
    assert up.eta_n == pytest.approx(-dn.eta_n, rel=3e-3)


def test_two_phase_rest_voltage_constant(params, ocp, disc4):
    """At rest inside the plateau the cell voltage stays constant."""
    init = initial_state(params, disc4, 0.5, "dis")
    assert init.regime == "two_phase"
    prof_times = np.array([0.0, 120.0])
    from csespm.simulate import LoadProfile
    res = simulate(LoadProfile(prof_times, np.zeros(2)), init, params, disc4,
                   SolverConfig(cutoffs_enabled=False))
    assert np.ptp(res.voltage) < 1e-9
