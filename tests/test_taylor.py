"""Truncated Taylor arithmetic against closed-form series."""
import math

import numpy as np
import pytest

from csespm import systems
from csespm.taylor import Jet, join, value

K = 5


def line(a, b=1.0):
    """The jet of a + b t."""
    c = np.zeros(K)
    c[:2] = a, b
    return Jet(c)


@pytest.mark.parametrize("name, got, want", [
    ("1/(1+t)", lambda: 1.0 / line(1.0), [1.0, -1.0, 1.0, -1.0, 1.0]),
    ("(1+t)(1-t)", lambda: line(1.0) * line(1.0, -1.0), [1.0, 0.0, -1.0, 0.0, 0.0]),
    ("(1+t)^3", lambda: line(1.0) * line(1.0) * line(1.0), [1.0, 3.0, 3.0, 1.0, 0.0]),
    ("sqrt(1+t)", lambda: np.sqrt(line(1.0)), [1.0, 0.5, -1 / 8, 1 / 16, -5 / 128]),
    ("asinh(t)", lambda: np.arcsinh(line(0.0)), [0.0, 1.0, 0.0, -1 / 6, 0.0]),
    ("asinh(2+t)", lambda: np.arcsinh(line(2.0)),
     [math.asinh(2.0), 5**-0.5, -5**-1.5, 7 / 6 * 5**-2.5, -5 / 4 * 5**-3.5]),
    ("(3+t)/(1+t)-1", lambda: line(3.0) / line(1.0) - 1.0, [2.0, -2.0, 2.0, -2.0, 2.0]),
    ("2-(1+t)", lambda: 2.0 - line(1.0), [1.0, -1.0, 0.0, 0.0, 0.0]),
])
def test_series_match_closed_forms(name, got, want):
    np.testing.assert_allclose(got().c, want, rtol=1e-14, atol=1e-15, err_msg=name)


def test_numpy_dispatches_to_jets():
    """ndarray operands, numpy scalars and ufuncs all give jets; a constant
    with more axes than the jet's data broadcasts over its data axes."""
    x = Jet(np.arange(K * 3.0).reshape(K, 3) + 1.0)
    for out in (np.ones(3) * x, x * np.ones(3), np.float64(2.0) - x, np.ones(3) / x,
                np.sqrt(x), np.arcsinh(x)):
        assert isinstance(out, Jet) and out.shape == (3,)
    assert (x * np.ones((2, 3))).shape == (2, 3)
    np.testing.assert_array_equal((x * np.ones((2, 3))).c[:, 1], x.c)
    with pytest.raises(TypeError):
        x < 1.0     # noqa: B015


def test_join_and_indexing_act_on_data_axes():
    x = Jet(np.arange(K * 2 * 3, dtype=float).reshape(K, 2, 3))
    j = join(0.5, x[..., 1:], x[:, :1])
    assert j.shape == (2, 4)
    np.testing.assert_array_equal(j.c[0, :, 0], [0.5, 0.5])
    np.testing.assert_array_equal(j.c[1:, :, 0], 0.0)
    np.testing.assert_array_equal(j.c[..., 1:3], x.c[..., 1:])
    np.testing.assert_array_equal(x.sum(axis=-1).c, x.c.sum(axis=-1))
    np.testing.assert_array_equal(join(np.ones((2, 1)), 0.0), [[1.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(value(x), x.c[0]) and value(3.0) == 3.0


def test_ocp_jet_is_the_cubic_piece(ocp):
    """On the piece of its value a table's jet is its cubic: the jet of
    theta0 + t, summed at t, is the table at theta0 + t."""
    table = ocp.pos_dis
    for theta0 in (0.03, 0.5, 0.97):
        U = table(line(theta0))
        assert U.c[0] == table(theta0)
        for t in (-1e-4, 1e-4):
            assert sum(U.c[k] * t**k for k in range(K)) == pytest.approx(
                table(theta0 + t), rel=1e-13)


def test_solid_block_of_jets_carries_the_float_block(params):
    """Fed a jet of radii, the solid assembly's values are bit for bit the
    float assembly's, for both schemes."""
    r = params.R_s_p * np.array([[0.3], [0.7]])
    c = np.zeros((K,) + r.shape)
    c[0], c[1] = r, 1e-9 * params.R_s_p
    for scheme in ("fvm", "fdm"):
        want = systems.solid_block(params, "pos", r, 4, scheme)
        got = systems.solid_block(params, "pos", Jet(c), 4, scheme)
        for name, w in zip(want._fields, want):
            assert value(getattr(got, name)).tobytes() == np.asarray(w).tobytes(), name
