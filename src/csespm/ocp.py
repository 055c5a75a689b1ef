"""Open-circuit potential tables with charge/discharge hysteresis.

Curves are data, not formulas.  The repo ships synthetic LFP-shaped
positive tables (exactly flat plateau between the two-phase stoichiometric
edges, smooth tails) and a graphite-shaped negative table; any two-column
CSV (theta, volts) with a header row can be substituted.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import CsespmError, ParameterError
from .params import CellParameters
from .records import read_csv_columns, tally, write_csv_columns
from .taylor import Jet, value

log = logging.getLogger(__name__)


class OcpDomainError(CsespmError, ValueError):
    """Stoichiometry outside [0, 1]."""


@dataclass
class OcpTable:
    """Sampled OCP curve U(theta) for one electrode and direction."""

    electrode: str              # 'neg' | 'pos'
    direction: str              # 'ch' | 'dis' | 'shared'
    theta: np.ndarray
    volts: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        self.volts = np.asarray(self.volts, dtype=float)
        if self.theta.ndim != 1 or self.theta.shape != self.volts.shape:
            raise ParameterError("theta and volts must be matching 1-D arrays")
        if not np.all(np.diff(self.theta) > 0.0):
            raise ParameterError("theta samples must be strictly increasing")
        if not np.isfinite(self.volts).all():
            raise ParameterError("OCP values must be finite")

    def __call__(self, theta):
        """Monotone cubic (PCHIP) interpolation, smooth enough for the
        observability model to differentiate: a float of a float, or an
        array of an array of theta, in one evaluation.  A jet of theta
        (`taylor.Jet`) gives the jet of U, exact on the cubic piece of its
        value: the sum of U^(j)/j! delta^j.

        Constant extrapolation at the table ends, with one logged warning
        per call that counts the values extrapolated.
        """
        t = np.asarray(value(theta), dtype=float)
        bad = ~((0.0 <= t) & (t <= 1.0))
        if bad.any():
            raise OcpDomainError(f"theta={float(t[bad].flat[0])!r} outside [0, 1]")
        lo, hi = self.theta[0], self.theta[-1]
        outside = (t < lo) | (t > hi)
        if outside.any():
            log.warning("OCP extrapolated at %d theta, first %.4f (%s/%s table covers "
                        "[%.3f, %.3f])", outside.sum(), t[outside].flat[0], self.electrode,
                        self.direction, lo, hi)
            t = np.clip(t, lo, hi)
        if isinstance(theta, Jet):
            coefs = [self._pchip(t)]
            for j in range(1, min(len(theta.c), 4)):
                coefs.append(np.where(outside, 0.0, self._pchip(t, nu=j) / math.factorial(j)))
            return theta.series(coefs)
        v = self._pchip(t)
        return float(v) if v.ndim == 0 else v

    def lookup(self, theta: np.ndarray, counters: dict | None = None) -> np.ndarray:
        """Piecewise-linear interpolation (the output map's) over an array
        of theta in [0, 1].  Entries past the table ends are tallied as
        "ocp_extrapolations" (records.tally)."""
        lo, hi = self.theta[0], self.theta[-1]
        outside = (theta < lo) | (theta > hi)
        if outside.any():
            tally(counters, "ocp_extrapolations", int(outside.sum()), log,
                  "OCP extrapolated at theta=%.4f (%s/%s table covers [%.3f, %.3f])",
                  theta[outside][0], self.electrode, self.direction, lo, hi)
            theta = np.clip(theta, lo, hi)
        return np.interp(theta, self.theta, self.volts)

    @cached_property
    def _pchip(self) -> PchipInterpolator:
        return PchipInterpolator(self.theta, self.volts, extrapolate=False)

    def to_csv(self, path):
        write_csv_columns(path, {"theta": self.theta, "volts": self.volts})

    @classmethod
    def from_csv(cls, path, electrode: str, direction: str) -> "OcpTable":
        cols = read_csv_columns(path, ("theta", "volts"))
        return cls(electrode, direction, cols["theta"], cols["volts"])


@dataclass
class OcpSet:
    """Negative table plus the two positive hysteresis branches."""

    neg: OcpTable
    pos_ch: OcpTable
    pos_dis: OcpTable

    def pick(self, electrode: str, direction: str) -> OcpTable:
        if electrode == "neg":
            return self.neg
        return self.pos_ch if direction == "ch" else self.pos_dis


def synthetic_positive_table(params: CellParameters, direction: str) -> OcpTable:
    """LFP-shaped curve: exactly flat plateau on [theta_alpha, theta_beta],
    logarithmic tails outside.  Plateau levels differ per direction
    (hysteresis)."""
    a = params.theta("pos", "alpha", direction)
    b = params.theta("pos", "beta", direction)
    plateau = 3.452 if direction == "ch" else 3.425
    s_left, w_left = 0.053, 0.015
    s_right, w_right = 0.260, 0.020
    theta = np.unique(np.concatenate([np.linspace(0.0, 1.0, 241), [a, b]]))
    u = np.full_like(theta, plateau)
    left = theta < a
    right = theta > b
    u[left] += s_left * np.log1p((a - theta[left]) / w_left)
    u[right] -= s_right * np.log1p((theta[right] - b) / w_right)
    return OcpTable("pos", direction, theta, u)


def synthetic_negative_table() -> OcpTable:
    """Graphite-shaped curve (steep rise at low theta, staged plateaus)."""
    theta = np.linspace(0.0, 1.0, 201)
    t = np.clip(theta, 1e-6, 1.0)
    u = (0.6379 + 0.5416 * np.exp(-305.5309 * t)
         + 0.044 * np.tanh(-(t - 0.1958) / 0.1088)
         - 0.1978 * np.tanh((t - 1.0571) / 0.0854)
         - 0.6875 * np.tanh((t + 0.0117) / 0.0529)
         - 0.0175 * np.tanh((t - 0.5692) / 0.0875))
    return OcpTable("neg", "shared", theta, u)


def synthetic_ocp_set(params: CellParameters) -> OcpSet:
    return OcpSet(neg=synthetic_negative_table(),
                  pos_ch=synthetic_positive_table(params, "ch"),
                  pos_dis=synthetic_positive_table(params, "dis"))
