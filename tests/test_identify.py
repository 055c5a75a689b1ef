import dataclasses

import numpy as np
import pytest

from csespm import identify as identify_module
from csespm.errors import (BlowupError, ConfigError, ParameterError,
                           SaturationError, TransitionError)
from csespm.identify import (Dataset, LAMBDA_C4, LAMBDA_C2_1C,
                             ParameterSubset, PENALTY_RMSE, identify,
                             make_synthetic_dataset, voltage_rmse)
from csespm.params import DiscretizationConfig
from csespm.phase import PhaseConfig
from csespm.simulate import SolverConfig

SOLVER = SolverConfig(dt=10.0, cutoffs_enabled=False)
DISC = DiscretizationConfig(N_r=4, N_e=6)


@pytest.fixture(scope="module")
def c4_dataset(params):
    return make_synthetic_dataset(params, DISC, 0.25, "dis", duration=3600.0,
                                  dt=10.0, c_rate_label="C/4")


def test_preset_vectors(params):
    assert len(LAMBDA_C4) == 22
    assert LAMBDA_C2_1C == ("D_s_p", "D_s_n", "k_p", "k_n")
    sub = ParameterSubset.preset("c4", params)
    assert sub.dim == 22
    assert np.all(sub.lower < sub.upper)
    sub2 = ParameterSubset.preset("c2-1c", params, decades=1.0)
    assert sub2.names == LAMBDA_C2_1C
    assert sub2.lower[0] == pytest.approx(params.D_s_p / 10)
    assert sub2.upper[0] == pytest.approx(params.D_s_p * 10)
    with pytest.raises(ConfigError):
        ParameterSubset.preset("c8", params)


def test_subset_validation(params):
    with pytest.raises(ParameterError):
        ParameterSubset(("D_s_p",), np.array([2.0]), np.array([1.0]))
    with pytest.raises(ParameterError):
        ParameterSubset(("bogus",), np.array([1.0]), np.array([2.0]))


def test_dataset_csv_round_trip(tmp_path, params, c4_dataset):
    path = tmp_path / "ds.csv"
    c4_dataset.to_csv(path)
    back = Dataset.from_csv(path, c_rate_label="C/4")
    assert back.direction == "dis"
    assert np.allclose(back.voltage, c4_dataset.voltage)
    assert np.allclose(back.profile.times, c4_dataset.profile.times)


def test_dataset_validation(params):
    from csespm.simulate import LoadProfile
    prof = LoadProfile(np.array([0.0, 10.0]), np.array([1.0, 1.0]))
    with pytest.raises(ParameterError):
        Dataset(prof, np.array([3.3, 4.5]), "dis")     # voltage out of range
    with pytest.raises(ParameterError):
        Dataset(prof, np.array([3.3]), "dis")          # timestamp mismatch


def test_self_consistency_rmse_near_zero(params, c4_dataset):
    rmse = voltage_rmse(params, c4_dataset, DISC, SOLVER)
    assert rmse < 1e-9


def test_uniform_offset_rmse_exact(params, c4_dataset):
    shifted = Dataset(c4_dataset.profile, c4_dataset.voltage + 0.010, "dis",
                      c_rate_label="C/4")
    rmse = voltage_rmse(params, shifted, DISC, SOLVER)
    assert rmse == pytest.approx(0.010, rel=1e-9)


def test_halved_diffusivity_is_worse(params, c4_dataset):
    worse = params.replace(D_s_p=0.5 * params.D_s_p)
    r0 = voltage_rmse(params, c4_dataset, DISC, SOLVER)
    r1 = voltage_rmse(worse, c4_dataset, DISC, SOLVER)
    assert r1 > r0


def test_penalty_on_unsimulatable_candidate(params, c4_dataset):
    import dataclasses
    solver = dataclasses.replace(SOLVER, cutoffs_enabled=True, v_min=3.35)
    rmse = voltage_rmse(params, c4_dataset, DISC, solver)
    assert rmse == PENALTY_RMSE


@pytest.mark.parametrize("error", [
    TransitionError("exit lost mass"), SaturationError("c_eff at c_s_max"),
    BlowupError("non-finite state"), np.linalg.LinAlgError("singular matrix")])
def test_penalty_on_failing_simulation(params, c4_dataset, monkeypatch, error):
    """Whatever a candidate's simulation raises, from the package or from
    numpy's linear algebra, the candidate gets the penalty."""
    def failing(*args, **kwargs):
        raise error
    monkeypatch.setattr(identify_module, "simulate", failing)
    assert voltage_rmse(params, c4_dataset, DISC, SOLVER) == PENALTY_RMSE


def test_phase_config_reaches_the_objective(params, c4_dataset):
    """The transition settings passed to voltage_rmse and identify are the
    ones the candidate's simulation uses: a thicker seeded shell (delta_init
    0.05) moves the two-phase entry of the true parameters' C/4 discharge,
    so they no longer fit the data made with the default settings."""
    moved = PhaseConfig(delta_init=0.05)
    assert voltage_rmse(params, c4_dataset, DISC, SOLVER) < 1e-9
    rmse = voltage_rmse(params, c4_dataset, DISC, SOLVER, phase_cfg=moved)
    assert 1e-9 < rmse < PENALTY_RMSE
    sub = ParameterSubset.preset("c2-1c", params).subset(("D_s_p", "k_p"))
    fit = identify([c4_dataset], sub, params, DISC, SOLVER, budget=1, phase_cfg=moved)
    # the start point passes through the search's log scale and back
    assert fit.best_rmse == pytest.approx(rmse, rel=1e-6)


def test_identify_determinism_and_trace(params, c4_dataset):
    sub = ParameterSubset.preset("c2-1c", params).subset(("D_s_p", "k_p"))
    base = params.replace(D_s_p=2.0e-18, k_p=5.0e-13)   # off-truth start
    fits = [identify([c4_dataset], sub, base, DISC, SOLVER, seed=11, budget=40)
            for _ in range(2)]
    assert np.array_equal(fits[0].best_values, fits[1].best_values)
    assert fits[0].best_rmse == fits[1].best_rmse
    # best-so-far trace is non-increasing
    rmses = [v for _, v in fits[0].trace]
    assert all(b <= a for a, b in zip(rmses, rmses[1:]))
    # reported best re-evaluates to itself
    re_rmse = voltage_rmse(fits[0].best_params, c4_dataset, DISC, SOLVER)
    assert re_rmse == pytest.approx(fits[0].best_rmse, rel=1e-12, abs=1e-15)


def test_budget_monotonicity(params, c4_dataset):
    sub = ParameterSubset.preset("c2-1c", params).subset(("D_s_p", "k_p"))
    base = params.replace(D_s_p=2.0e-18, k_p=5.0e-13)
    small = identify([c4_dataset], sub, base, DISC, SOLVER, seed=3, budget=8)
    large = identify([c4_dataset], sub, base, DISC, SOLVER, seed=3, budget=48)
    assert small.n_evals == 8
    assert large.best_rmse <= small.best_rmse


def test_stage2_leaves_other_parameters_untouched(params, c4_dataset):
    sub = ParameterSubset.preset("c2-1c", params)
    fit = identify([c4_dataset], sub, params, DISC, SOLVER, seed=1, budget=12)
    for name in ("R_s_p", "eps_p", "A_cell", "theta_p_alpha_dis", "R_l"):
        assert getattr(fit.best_params, name) == getattr(params, name)


def test_identify_usage_errors(params, c4_dataset):
    sub = ParameterSubset.preset("c2-1c", params)
    with pytest.raises(ConfigError):
        identify([], sub, params, DISC, SOLVER)
    with pytest.raises(ConfigError):
        identify([c4_dataset], sub, params, DISC, SOLVER, budget=0)


@pytest.fixture(scope="module")
def c2_dataset(params):
    """A C/2 discharge labelled with its rate: made, and scored, with the
    parameters of the C/2 rate table (params_for_rate)."""
    return make_synthetic_dataset(params, DISC, 0.5, "dis", duration=1200.0, dt=10.0,
                                  c_rate_label="C/2")


def test_identify_refuses_names_the_rate_table_sets(params, c2_dataset):
    """The C/2 table sets D_s_p and k_p in every simulation of a C/2-labelled
    dataset, so every candidate of a (D_s_p, k_p) fit would score alike:
    identify raises ConfigError naming the dataset, its label and both
    names, before it simulates anything.  The same call on an unlabelled
    copy of the data does not raise."""
    sub = ParameterSubset.preset("c2-1c", params).subset(("D_s_p", "k_p"))
    start = params.replace(D_s_p=3.0 * params.D_s_p, k_p=params.k_p / 4.0)
    with pytest.raises(ConfigError) as err:
        identify([c2_dataset], sub, start, DISC, SOLVER, budget=24)
    assert all(part in str(err.value)
               for part in (repr(c2_dataset.name), "'C/2'", "D_s_p", "k_p"))
    data = dataclasses.replace(c2_dataset, c_rate_label=None)
    identify([data], sub, start, DISC, SOLVER, budget=1)


def test_budget_one_returns_initial_candidate(params, c4_dataset):
    sub = ParameterSubset.preset("c2-1c", params).subset(("D_s_p", "k_p"))
    fit = identify([c4_dataset], sub, params, DISC, SOLVER, seed=5, budget=1)
    assert fit.n_evals == 1
    # the single evaluated candidate is the base seed, here the truth
    assert fit.best_rmse < 1e-9
