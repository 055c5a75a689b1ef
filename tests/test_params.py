import pytest

from csespm.errors import ParameterError
from csespm.params import (CellParameters, DiscretizationConfig,
                           DEFAULT_RATE_OVERRIDES, params_for_rate)
from csespm.simulate import SolverConfig, cc_profile, initial_state, simulate


def test_defaults_valid(params):
    params.validate()


@pytest.mark.parametrize("bad", [
    {"R_s_p": -1.0},
    {"D_s_n": 0.0},
    {"eps_p": 1.2},
    {"t_plus": 0.0},
    {"theta_p_alpha_dis": 0.9},          # alpha above beta
    {"theta_p_100_ch": 0.3},             # window edge inside the plateau
    {"theta_n_0_dis": 0.95},             # negative window inverted
])
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ParameterError):
        CellParameters(**bad)


def test_plateau_edges(params):
    assert params.c_alpha("dis") == pytest.approx(0.196 * params.c_s_max_p)
    assert params.c_beta("dis") == pytest.approx(0.804 * params.c_s_max_p)
    assert params.c_alpha("ch") == pytest.approx(0.220 * params.c_s_max_p)


def test_capacity_and_c_rate(params):
    q = params.capacity_coulombs("dis")
    expected = (params.F * params.A_cell * params.L_p * params.eps_p
                * params.c_s_max_p * (0.925 - 0.066))
    assert q == pytest.approx(expected)
    assert params.current_for_c_rate(0.25) == pytest.approx(q / 4 / 3600)


def test_rate_overrides(params):
    p2 = params_for_rate(params, "C/2")
    assert p2.D_s_p == pytest.approx(5.45e-18)
    assert p2.k_p == pytest.approx(6.00e-13)
    assert p2.R_s_p == params.R_s_p
    assert params_for_rate(params, None) is params
    assert set(DEFAULT_RATE_OVERRIDES) == {"C/4", "C/2", "1C"}


def test_discretization_invariants(params):
    with pytest.raises(ParameterError):
        DiscretizationConfig(N_r=1)
    with pytest.raises(ParameterError):
        DiscretizationConfig(N_e=2)
    with pytest.raises(ParameterError):
        DiscretizationConfig(scheme="fem")
    with pytest.raises(ParameterError):
        DiscretizationConfig(N_e=7)  # not divisible by 3
    disc = DiscretizationConfig(N_e=9)
    res = simulate(cc_profile(params, 1.0, "dis", duration=10.0),
                   initial_state(params, disc, 0.5, "dis"), params, disc, SolverConfig())
    assert res.meta["split"] == (3, 3, 3)
