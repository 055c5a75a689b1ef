"""Truncated Taylor series in time ("jets") for derivatives along a flow.

A `Jet` holds the first K Taylor coefficients c_k = x^(k)(0) / k! of every
entry of an array: the coefficients along a leading axis, the data's own
axes after it.  + - * /, sqrt and asinh propagate the series exactly to
order K - 1 by the standard recurrences (Griewank & Walther, Evaluating
Derivatives, SIAM 2008, ch. 13), and numpy's add, subtract, multiply,
divide, sqrt and arcsinh dispatch to them, so code written for
float arrays runs on jets unchanged.  Indexing and sums act on the data
axes.  Jets do not compare: a branch on a jet's value takes `value(x)`.
"""
from __future__ import annotations

import numpy as np


def value(x):
    """The value of a jet (its first coefficient), or x itself."""
    return x.c[0] if isinstance(x, Jet) else x


def _align(a: np.ndarray, ndim: int) -> np.ndarray:
    """Coefficients a with data axes added in front up to ndim data axes."""
    extra = ndim - (a.ndim - 1)
    return a.reshape(a.shape[:1] + (1,) * extra + a.shape[1:]) if extra > 0 else a


def _coeffs(a, b):
    """The coefficient arrays of two operands, truncated to the shorter
    series and aligned in their data axes; a constant is a series whose
    higher coefficients are zero."""
    if not isinstance(b, Jet):
        b = Jet.const(b, len(a.c))
    if not isinstance(a, Jet):
        a = Jet.const(a, len(b.c))
    K = min(len(a.c), len(b.c))
    ndim = max(a.c.ndim, b.c.ndim) - 1
    return _align(a.c[:K], ndim), _align(b.c[:K], ndim)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product of two aligned coefficient arrays."""
    out = a[0] * b
    for i in range(1, len(a)):
        out[i:] += a[i] * b[:len(a) - i]
    return out


def _quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """q with q * b = a, of two aligned coefficient arrays."""
    q = np.empty(np.broadcast_shapes(a.shape, b.shape))
    q[0] = a[0] / b[0]
    for k in range(1, len(q)):
        q[k] = (a[k] - (b[1:k + 1] * q[k - 1::-1]).sum(axis=0)) / b[0]
    return q


class Jet:
    """Taylor coefficients c[k] of an array-valued function of time."""

    __slots__ = ("c",)

    def __init__(self, c: np.ndarray):
        self.c = c

    @classmethod
    def const(cls, x, K: int) -> "Jet":
        x = np.asarray(x, dtype=float)
        c = np.zeros((K,) + x.shape)
        c[0] = x
        return cls(c)

    @property
    def shape(self):
        return self.c.shape[1:]

    @property
    def ndim(self) -> int:
        return self.c.ndim - 1

    def __getitem__(self, key):
        return Jet(self.c[(slice(None),) + (key if isinstance(key, tuple) else (key,))])

    def sum(self, axis: int = -1, keepdims: bool = False) -> "Jet":
        return Jet(self.c.sum(axis=axis if axis < 0 else axis + 1, keepdims=keepdims))

    def __matmul__(self, m):
        return Jet(self.c @ m)

    def __add__(self, o):
        return Jet(np.add(*_coeffs(self, o)))

    __radd__ = __add__

    def __sub__(self, o):
        return Jet(np.subtract(*_coeffs(self, o)))

    def __rsub__(self, o):
        return Jet(np.subtract(*_coeffs(o, self)))

    def __mul__(self, o):
        if isinstance(o, Jet):
            return Jet(_product(*_coeffs(self, o)))
        return Jet(_align(self.c, getattr(o, "ndim", 0)) * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, Jet):
            return Jet(_align(self.c, getattr(o, "ndim", 0)) / o)
        return Jet(_quotient(*_coeffs(self, o)))

    def __rtruediv__(self, o):
        return Jet(_quotient(*_coeffs(o, self)))

    def sqrt(self) -> "Jet":
        a = self.c
        s = np.empty_like(a)
        s[0] = np.sqrt(a[0])
        for k in range(1, len(a)):
            s[k] = (a[k] - (s[1:k] * s[k - 1:0:-1]).sum(axis=0)) / (2.0 * s[0])
        return Jet(s)

    def arcsinh(self) -> "Jet":
        """asinh by its derivative a' / sqrt(1 + a^2), integrated term by term."""
        a = self.c
        out = np.empty_like(a)
        out[0] = np.arcsinh(a[0])
        if len(a) > 1:
            k = np.arange(1.0, len(a)).reshape((-1,) + (1,) * self.ndim)
            tail = Jet(a[:-1])
            rate = Jet(a[1:] * k) / (1.0 + tail * tail).sqrt()
            out[1:] = rate.c / k
        return Jet(out)

    def series(self, coefs) -> "Jet":
        """g of this jet, from the Taylor coefficients of g at its value
        (coefs[j] = g^(j)(value) / j!, each of the data's shape): the sum of
        coefs[j] * delta^j with delta the jet less its value, by Horner."""
        delta = Jet(self.c.copy())
        delta.c[0] = 0.0
        out = Jet.const(coefs[-1], len(self.c))
        for g in coefs[-2::-1]:
            out = out * delta + g
        return out

    _UFUNCS = {np.add: ("__add__", "__radd__"), np.subtract: ("__sub__", "__rsub__"),
               np.multiply: ("__mul__", "__rmul__"),
               np.true_divide: ("__truediv__", "__rtruediv__"),
               np.sqrt: ("sqrt",), np.arcsinh: ("arcsinh",)}

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        names = self._UFUNCS.get(ufunc)
        if method != "__call__" or kwargs or names is None:
            return NotImplemented
        if len(inputs) == 1:
            return getattr(inputs[0], names[0])()
        a, b = inputs
        return getattr(a, names[0])(b) if isinstance(a, Jet) else getattr(b, names[1])(a)


def join(*parts):
    """Arrays or jets joined along their last axis; a float is a column of
    its value.  The parts share their other axes."""
    lead = next(p.shape[:-1] for p in parts if not isinstance(p, float))
    jets = [p for p in parts if isinstance(p, Jet)]
    if not jets:
        return np.concatenate([np.full(lead + (1,), p) if isinstance(p, float) else p
                               for p in parts], axis=-1)
    K = min(len(j.c) for j in jets)
    cs = []
    for p in parts:
        if isinstance(p, float):
            p = np.full(lead + (1,), p)
        cs.append(p.c[:K] if isinstance(p, Jet) else Jet.const(p, K).c)
    return Jet(np.concatenate(cs, axis=-1))
