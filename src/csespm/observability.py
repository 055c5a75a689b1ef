"""Nonlinear observability of the positive electrode.

The J-order extended Lie derivative of the half-cell output h = U_p + eta_p
along dx/dt = f(x, u) is the J-th time derivative of y = h(x, u) along the
flow, with u the applied current taken as u0 + u' t (higher input
derivatives are zero):

    L^J = dL^{J-1}/dx . f + dL^{J-1}/du . u'

`lie_stack` gets every L^J exactly in truncated Taylor arithmetic
(`taylor.Jet`, Griewank & Walther, Evaluating Derivatives, SIAM 2008,
ch. 13): with the input a jet, the series of x follows order by order from
x_{k+1} = f(x, u)_k / (k + 1), and L^J = J! y_J.  The state gradients are
one central difference of those exact values.

The observability matrix stacks dL^J/dx for J = 0..n-1 (Hermann & Krener,
IEEE TAC 22, 1977).  Because the state mixes concentrations (~1e4 mol/m^3)
and the front radius (~1e-8 m), columns are normalized by characteristic
state scales before rank and condition analysis; raw values are reported
alongside.

A sweep groups its points by regime, direction and core phase; each group,
with the stencil rows of its gradients, goes through f and h in one pass.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CsespmError, ParameterError, PhaseDomainError
from .ocp import OcpSet, synthetic_ocp_set
from .output import (electrode_c_e_avg, exchange_current_density,
                     overpotential)
from .params import CellParameters
from .records import write_csv_columns
from .simulate import SimulationResult
from .states import FullState, TWO_PHASE
from .taylor import Jet, join, value
from . import systems

log = logging.getLogger(__name__)


class LieDerivativeError(CsespmError, ArithmeticError):
    """A Lie derivative or its gradient came out non-finite."""


@dataclass(frozen=True)
class ObservabilityConfig:
    """Gradient-step and rank-test settings."""

    jacobian_step: float = 1e-6     # relative central-difference step of the gradients
    rank_tol: float = 1e-8          # threshold factor on sigma_max * max(dim)
    stride_s: float = 30.0          # sweep subsampling interval

    def __post_init__(self):
        for name in ("jacobian_step", "rank_tol", "stride_s"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ParameterError(f"observability {name} must be positive and finite")


# --- positive-electrode model closures ---------------------------------------


def _rowwise(fun):
    """fun of (..., n) states and (...) inputs, arrays or jets, also
    callable on one state and a float input (then a 1-D array or a float)."""
    def call(x, u):
        if x.ndim > 1:
            return fun(x, u)
        out = fun(x[None], np.array([u], dtype=float))[0]
        return float(out) if out.ndim == 0 else out
    return call


def _shell_rows(blk: systems.SolidBlock, c, u, inner):
    """dc/dt of a solid block's cells as fluxes w (c_j - c_i) between
    neighbours, plus `inner` on the first cell and the surface flux of the
    current u (a column) on the last."""
    d = c[..., 1:] - c[..., :-1]
    gain = blk.upper * d        # cell i from face i
    loss = blk.lower * d        # cell i + 1 through face i
    return join(gain[..., :1] + inner, gain[..., 1:] - loss[..., :-1],
                blk.surface * u - loss[..., -1:])


def positive_model(state: FullState, params: CellParameters, ocp: OcpSet,
                   c_e_avg: float | np.ndarray, config: ObservabilityConfig,
                   scheme: str = "fvm"):
    """(f, h, x0, x_scales) of the positive electrode at one trajectory point.

    One-phase: x = CV averages, dynamics linear in x.  Two-phase:
    x = [shell averages, r_p]; each state's shell rows and front speed come
    from `systems.solid_block` and `systems.front_rate` on its own r_p.
    Direction (hysteresis branch), core phase and the electrolyte average
    are frozen at the sweep point.  The output takes the OCP table's
    monotone cubic interpolation.

    f and h take arrays or jets (`taylor.Jet`) of (..., n) states and (...)
    inputs, row by row; one state and a float input give a 1-D array and a
    float.  A state of P points of one regime, direction and core phase
    ((P, N_r) cells, (P,) r_p and core_conc) with a (P,) c_e_avg gives (P, n)
    x0, and f and h then take (P, m, n) states, each point's m rows under its
    own core and electrolyte values.
    """
    N_r = state.pos.shape[-1]
    direction = state.direction
    table = ocp.pick("pos", direction)
    R = params.R_s_p
    cmax = params.c_s_max_p
    points = state.pos.ndim == 2
    column = (lambda a: np.asarray(a, dtype=float)[:, None]) if points else float
    c_e_avg = column(c_e_avg)

    def output(c_eff, u):
        """h of the rows' effective concentrations; a row outside the domain
        raises the SaturationError of the unchecked helpers."""
        with np.errstate(invalid="ignore", divide="ignore"):
            i0 = exchange_current_density(params, "pos", c_eff, c_e_avg, checked=True)
        c, ce, cu = np.broadcast_arrays(value(c_eff), c_e_avg, value(u))
        ok = (0.0 < c) & (c < cmax) & ~(ce <= 0.0) & ~(value(i0) <= 0.0)
        if not ok.all():
            j = np.unravel_index(np.argmin(ok), ok.shape)
            overpotential(params, "pos", cu[j],
                          exchange_current_density(params, "pos", c[j], ce[j]))
        return table(c_eff / cmax) + overpotential(params, "pos", u, i0, checked=True)

    if state.regime != TWO_PHASE:
        blk = systems.solid_block(params, "pos", 0.0, N_r, scheme)
        dr = R / N_r
        grad_per_amp = 1.0 / (params.D_s_p * params.F * params.A_cell
                              * params.L_p * params.a_s("pos"))

        def f(x, u):
            return _shell_rows(blk, x, u[..., None], 0.0)

        def h(x, u):
            return output(x[..., -1] + 0.5 * dr * grad_per_amp * u, u)

        return _rowwise(f), _rowwise(h), state.pos.copy(), np.full(N_r, cmax)

    core_conc = column(state.core_conc)
    g, c_core = systems.interface_values(params, state.core_phase, direction)

    def f(x, u):
        c, r_p = x[..., :-1], x[..., -1:]
        r = value(r_p)
        inside = (0.0 < r) & (r < R)
        if not inside.all():
            raise PhaseDomainError(f"r_p={float(r[~inside][0])!r} outside (0, R_s_p); "
                                   "transition regimes first")
        blk = systems.solid_block(params, "pos", r_p, N_r, scheme)
        k, _ = systems.front_rate(params, r_p, N_r, g, c_core)
        on = (value(u) != 0.0)[..., None] * 1.0     # no conversion at rest
        c_in = c[..., :1]
        return join(_shell_rows(blk, c, u[..., None], on * blk.inner * (g - c_in)),
                    on * k * (c_in - g))

    def h(x, u):
        c, r_p = x[..., :-1], x[..., -1:]
        vols = systems.spherical_cells(r_p, R, N_r)[2]
        r = r_p[..., 0]
        moles = (vols * c).sum(axis=-1) + systems.FOUR_THIRDS_PI * r * r * r * core_conc
        return output(moles / (systems.FOUR_THIRDS_PI * R**3), u)

    x0 = np.concatenate([state.pos, np.asarray(state.r_p, dtype=float)[..., None]], axis=-1)
    scales = np.concatenate([np.full(N_r, cmax), [R]])
    return _rowwise(f), _rowwise(h), x0, scales


# --- extended Lie derivatives --------------------------------------------------


def lie_stack(f, h, x0: np.ndarray, u0, u_dot, orders: int,
              config: ObservabilityConfig, x_scales: np.ndarray):
    """Values and state gradients of L^0..L^{orders-1} at (x0, u0).

    The values are exact in truncated Taylor arithmetic: f runs orders - 1
    times and h once, each on the jets of x0 and of its stencil together.
    The gradients are central differences of those values with steps
    jacobian_step * max(|x_i|, x_scale_i).  Of one state: (orders,) values
    and (orders, n) gradients; of (P, n) states with (P,) u0 and u_dot:
    (P, orders) and (P, orders, n).
    """
    x = np.atleast_2d(x0)
    P, n = x.shape
    d = config.jacobian_step * np.maximum(np.abs(x), x_scales)
    # each point, then its state plus and minus d_j for each j
    rows = np.repeat(x[:, None, :], 2 * n + 1, axis=1)
    j = np.arange(n)
    rows[:, 1 + 2 * j, j] += d
    rows[:, 2 + 2 * j, j] -= d
    series = np.zeros((orders,) + rows.shape)
    series[0] = rows
    u = np.zeros((orders, P, 2 * n + 1))
    u[0] = np.atleast_1d(u0)[:, None]
    if orders > 1:
        u[1] = np.atleast_1d(u_dot)[:, None]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for k in range(orders - 1):
            rate = f(Jet(series[:k + 1]), Jet(u[:k + 1]))
            series[k + 1] = rate.c[k] / (k + 1)
        y = h(Jet(series), Jet(u))
        L = y.c * np.cumprod([1.0, *range(1, orders)])[:, None, None]
        values = L[:, :, 0].T
        grads = ((L[:, :, 1::2] - L[:, :, 2::2]) / (2.0 * d)).transpose(1, 0, 2)
    bad = ~(np.isfinite(values) & np.isfinite(grads).all(axis=-1)).all(axis=0)
    if bad.any():
        raise LieDerivativeError(f"non-finite Lie derivative at order {int(np.argmax(bad))}")
    return (values, grads) if x0.ndim == 2 else (values[0], grads[0])


def observability_matrix(f, h, x0: np.ndarray, u0, u_dot,
                         config: ObservabilityConfig, x_scales: np.ndarray) -> np.ndarray:
    """Raw stacked-gradient matrix, one row per Lie order 0..n-1; (P, n, n)
    of (P, n) states."""
    return lie_stack(f, h, x0, u0, u_dot, x0.shape[-1], config, x_scales)[1]


def scale_columns(O: np.ndarray, x_scales: np.ndarray) -> np.ndarray:
    """Express gradients w.r.t. scale-normalized states."""
    return O * np.asarray(x_scales)[None, :]


def rank_and_condition(O: np.ndarray, config: ObservabilityConfig | None = None):
    """(rank, cond, sigma_min) by one SVD; cond = sigma_max/sigma_min, inf
    when rank-deficient.  A (P, m, n) stack gives (P,) arrays by one
    stacked SVD."""
    config = config or ObservabilityConfig()
    s = np.linalg.svd(O, compute_uv=False)
    top, low = s[..., 0], s[..., -1]
    rank = np.sum(s > (config.rank_tol * top * max(O.shape[-2:]))[..., None], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(rank < min(O.shape[-2:]), math.inf, top / low)
    if O.ndim == 2:
        return int(rank), float(cond), float(low)
    return rank, cond, low


# --- trajectory sweeps -----------------------------------------------------------


@dataclass
class ObservabilityPoint:
    time: float
    soc_p: float
    regime: str
    rank: int
    full_rank_needed: int
    cond_scaled: float
    cond_raw: float
    sigma_min_scaled: float = float("nan")

    @property
    def log10_cond_scaled(self) -> float:
        return math.log10(self.cond_scaled) if math.isfinite(self.cond_scaled) else math.inf

    @property
    def log10_cond_raw(self) -> float:
        return math.log10(self.cond_raw) if math.isfinite(self.cond_raw) else math.inf


@dataclass
class ObservabilitySweep:
    """The points of a sweep, and (time, reason) of each point skipped."""

    points: list[ObservabilityPoint] = field(default_factory=list)
    skipped: list[tuple[float, str]] = field(default_factory=list)

    def __len__(self):
        return len(self.points)

    def column(self, name: str) -> np.ndarray:
        return np.asarray([getattr(p, name) for p in self.points])

    def finite_log10_cond(self) -> np.ndarray:
        c = self.column("cond_scaled")
        c = c[np.isfinite(c)]
        return np.log10(c)

    def full_rank_everywhere(self) -> bool:
        return all(p.rank == p.full_rank_needed for p in self.points)

    def to_csv(self, path):
        names = ("time", "soc_p", "regime", "rank", "full_rank_needed",
                 "log10_cond_scaled", "log10_cond_raw")
        write_csv_columns(path, {("time_s" if n == "time" else n):
                                 [getattr(p, n) for p in self.points] for n in names})


def sweep(result: SimulationResult, params: CellParameters,
          config: ObservabilityConfig | None = None,
          ocp: OcpSet | None = None, scheme: str | None = None) -> ObservabilitySweep:
    """Rank and condition number along a simulated trajectory.

    The first input derivative is estimated by backward differencing of the
    recorded current (zero under constant current and on a row with no
    earlier time); higher derivatives are taken as zero.  The points of one
    regime, direction and core phase are evaluated together (`positive_model`
    of their rows).  A point whose evaluation fails is skipped and recorded
    in ``skipped``, with one warning per sweep; when a group fails, each of
    its points is evaluated alone.
    """
    config = config or ObservabilityConfig()
    ocp = ocp or synthetic_ocp_set(params)
    scheme = scheme or result.meta.get("scheme", "fvm")

    picked, inputs, groups = [], [], {}
    next_t = -math.inf
    for i in range(len(result)):
        t = float(result.time[i])
        if t < next_t:
            continue
        next_t = t + config.stride_s
        if i == 0 or result.time[i] == result.time[i - 1]:
            i_dot = 0.0
        else:
            i_dot = (result.current[i] - result.current[i - 1]) / (
                result.time[i] - result.time[i - 1])
        c_e_avg = electrode_c_e_avg(params, result.elec_c[i], "pos", result.meta["split"])
        key = (result.regime[i], result.direction[i], result.core_phase[i])
        groups.setdefault(key, []).append(len(picked))
        picked.append(i)
        inputs.append((float(result.current[i]), float(i_dot), c_e_avg))

    def evaluate(state, u0, u_dot, c_e_avg):
        f, h, x0, scales = positive_model(state, params, ocp, c_e_avg, config, scheme)
        O = observability_matrix(f, h, x0, u0, u_dot, config, scales)
        rank, cond_s, smin = rank_and_condition(scale_columns(O, scales), config)
        return rank, cond_s, rank_and_condition(O, config)[1], smin, len(scales)

    found = {}
    for (regime, direction, core_phase), members in groups.items():
        idx = np.array([picked[k] for k in members])
        u0, u_dot, c_e_avg = (np.array(col) for col in zip(*(inputs[k] for k in members)))
        rows = FullState(result.neg_c[idx], result.pos_c[idx], result.elec_c[idx], regime,
                         result.r_p[idx] * result.meta["R_s_p"], result.core_conc[idx],
                         core_phase, direction)
        try:
            ranks, conds, raw_conds, smins, n = evaluate(rows, u0, u_dot, c_e_avg)
            for k, *cols in zip(members, ranks, conds, raw_conds, smins):
                found[k] = (*cols, n)
        except CsespmError:
            for k in members:
                try:
                    found[k] = evaluate(result.state_at(picked[k]), *inputs[k])
                except CsespmError as exc:
                    found[k] = str(exc)

    out = ObservabilitySweep()
    for k, i in enumerate(picked):
        t = float(result.time[i])
        if isinstance(found[k], str):
            out.skipped.append((t, found[k]))
            continue
        rank, cond_s, cond_r, smin, n = found[k]
        out.points.append(ObservabilityPoint(
            time=t, soc_p=float(result.soc_p[i]), regime=result.regime[i],
            rank=int(rank), full_rank_needed=n, cond_scaled=float(cond_s),
            cond_raw=float(cond_r), sigma_min_scaled=float(smin)))
    if out.skipped:
        t, reason = out.skipped[0]
        log.warning("%d sweep points skipped, the first at t=%.1fs: %s",
                    len(out.skipped), t, reason)
    return out
