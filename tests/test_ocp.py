import numpy as np
import pytest

from csespm.errors import ParameterError
from csespm.ocp import (OcpDomainError, OcpTable, synthetic_negative_table,
                        synthetic_positive_table)


def test_interp_identity_at_samples(ocp):
    t = ocp.pos_dis
    for k in (0, len(t.theta) // 2, len(t.theta) - 1):
        assert t(float(t.theta[k])) == pytest.approx(float(t.volts[k]), abs=1e-14)


def test_interp_midpoint_mean(ocp):
    t = ocp.neg
    k = 40
    mid = 0.5 * (t.theta[k] + t.theta[k + 1])
    assert t.lookup(np.array([mid]))[0] == pytest.approx(0.5 * (t.volts[k] + t.volts[k + 1]),
                                                         abs=1e-12)


def test_plateau_flat(params, ocp):
    for direction, table in (("ch", ocp.pos_ch), ("dis", ocp.pos_dis)):
        a = params.theta("pos", "alpha", direction)
        b = params.theta("pos", "beta", direction)
        vals = [table(x) for x in np.linspace(a, b, 33)]
        assert max(vals) - min(vals) < 1e-12
        # hysteresis: distinct plateau levels per direction
    assert ocp.pos_ch(0.5) > ocp.pos_dis(0.5)


def test_domain_error_and_extrapolation(caplog):
    t = OcpTable("pos", "dis", np.array([0.2, 0.5, 0.8]), np.array([3.6, 3.4, 3.0]))
    with pytest.raises(OcpDomainError):
        t(1.5)
    with pytest.raises(OcpDomainError):
        t(-0.1)
    with caplog.at_level("WARNING"):
        v = t(0.05)
    assert v == pytest.approx(3.6)
    assert any("extrapolated" in r.message for r in caplog.records)


def test_call_on_an_array_matches_each_float(caplog):
    """An array of theta gives each float's value in one evaluation, with one
    warning that counts the values extrapolated."""
    t = OcpTable("pos", "dis", np.array([0.2, 0.5, 0.8]), np.array([3.6, 3.4, 3.0]))
    theta = np.array([0.05, 0.3, 0.5, 0.71, 0.9, 0.95])
    with caplog.at_level("WARNING"):
        volts = t(theta)
    assert [r.getMessage() for r in caplog.records] == [
        "OCP extrapolated at 3 theta, first 0.0500 (pos/dis table covers [0.200, 0.800])"]
    assert volts.tolist() == [t(float(x)) for x in theta]
    with pytest.raises(OcpDomainError, match="theta=1.5 outside"):
        t(np.array([0.3, 1.5, -0.1]))


def test_table_validation():
    with pytest.raises(ParameterError):
        OcpTable("pos", "dis", np.array([0.3, 0.2]), np.array([3.0, 3.1]))
    with pytest.raises(ParameterError):
        OcpTable("pos", "dis", np.array([0.2, 0.3]), np.array([3.0, np.inf]))


def test_csv_round_trip(tmp_path, params):
    t = synthetic_positive_table(params, "dis")
    path = tmp_path / "pos_dis.csv"
    t.to_csv(path)
    back = OcpTable.from_csv(path, "pos", "dis")
    assert np.allclose(back.theta, t.theta)
    assert np.allclose(back.volts, t.volts)


def test_smooth_mode_tracks_linear(params):
    """The monotone cubic __call__ stays within 5 mV of the piecewise-linear
    lookup, and keeps the exactly flat plateau."""
    t = synthetic_negative_table()
    for x in (0.1, 0.37, 0.82):
        assert t(x) == pytest.approx(t.lookup(np.array([x]))[0], abs=5e-3)
    tp = synthetic_positive_table(params, "dis")
    a, b = params.theta_p_alpha_dis, params.theta_p_beta_dis
    mid = 0.5 * (a + b)
    assert tp(mid) == pytest.approx(tp.lookup(np.array([mid]))[0], abs=1e-12)
