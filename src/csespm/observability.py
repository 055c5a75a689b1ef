"""Nonlinear observability of the positive electrode.

Extended Lie derivatives of the half-cell output h = U_p + eta_p are built
by nested central finite differences (the output map runs through
table-interpolated OCPs and regime switches, so there is no global closed
form).  The J-order extended Lie derivative is

    L^J = dL^{J-1}/dx . f + dL^{J-1}/du . u'

with u the applied current, taken as u0 + u' t: the recursion takes
(u0, u') only, higher input derivatives are zero, and under constant
current the input term vanishes.

The observability matrix stacks dL^J/dx for J = 0..n-1.  Because the state
mixes concentrations (~1e4 mol/m^3) and the front radius (~1e-8 m), columns
are normalized by characteristic state scales before rank and condition
analysis; raw values are reported alongside.

The model's f and h work on arrays of (x, u) rows, each row by the float
operations of one state, so `lie_stack` evaluates each order of the nested
recursion as one array pass over the distinct points it reaches, bit for
bit the scalar recursion.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CsespmError, ParameterError
from .ocp import OcpSet, synthetic_ocp_set
from .output import (electrode_c_e_avg, exchange_current_density,
                     overpotential)
from .params import CellParameters
from .records import write_csv_columns
from .simulate import SimulationResult
from .states import FullState, TWO_PHASE
from . import systems

log = logging.getLogger(__name__)


class LieDerivativeError(CsespmError, ArithmeticError):
    """A Lie derivative or its gradient came out non-finite."""


@dataclass(frozen=True)
class ObservabilityConfig:
    """Finite-difference and rank-test settings."""

    jacobian_step: float = 1e-6     # relative FD step
    rank_tol: float = 1e-8          # threshold factor on sigma_max * max(dim)
    stride_s: float = 30.0          # sweep subsampling interval

    def __post_init__(self):
        for name in ("jacobian_step", "rank_tol", "stride_s"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ParameterError(f"observability {name} must be positive and finite")


# --- positive-electrode model closures ---------------------------------------


def _rowwise(fun):
    """fun of (m, n) state rows and an (m,) input column, also callable on
    one state and a float input (then a 1-D array or a float)."""
    def call(x, u):
        if x.ndim == 2:
            return fun(x, u)
        out = fun(x[None], np.array([u], dtype=float))[0]
        return float(out) if out.ndim == 0 else out
    return call


def positive_model(state: FullState, params: CellParameters, ocp: OcpSet,
                   c_e_avg: float, config: ObservabilityConfig,
                   scheme: str = "fvm"):
    """(f, h, x0, x_scales) of the positive electrode at one trajectory point.

    One-phase: x = CV averages, dynamics linear in x.  Two-phase:
    x = [shell averages, r_p]; the system matrices are rebuilt from each
    state's own r_p.  Direction (hysteresis branch), core phase and the
    electrolyte average are frozen at the sweep point.  The output takes the
    OCP table's monotone cubic interpolation, which the nested finite
    differences can differentiate.

    f and h take (m, n) rows of states and an (m,) input column and give
    (m, n) rows and (m,) values, each row by the float operations of one
    state alone; one state and a float input give a 1-D array and a float.
    """
    N_r = len(state.pos)
    direction = state.direction
    table = ocp.pick("pos", direction)
    R = params.R_s_p
    cmax = params.c_s_max_p

    def output(c_eff, u):
        """h of the rows' effective concentrations; a row outside the domain
        raises the SaturationError of the unchecked helpers."""
        with np.errstate(invalid="ignore"):
            i0 = exchange_current_density(params, "pos", c_eff, c_e_avg, checked=True)
        ok = (0.0 < c_eff) & (c_eff < cmax) & ~(c_e_avg <= 0.0) & ~(i0 <= 0.0)
        if not ok.all():
            j = int(np.argmin(ok))
            overpotential(params, "pos", u[j],
                          exchange_current_density(params, "pos", c_eff[j], c_e_avg))
        return table(c_eff / cmax) + overpotential(params, "pos", u, i0, checked=True)

    if state.regime != TWO_PHASE:
        sysm = systems.build_one_phase_solid_system(params, "pos", N_r, scheme)
        dr = R / N_r
        grad_per_amp = 1.0 / (params.D_s_p * params.F * params.A_cell
                              * params.L_p * params.a_s("pos"))

        def h(x, u):
            return output(x[:, -1] + 0.5 * dr * grad_per_amp * u, u)

        x0 = state.pos.copy()
        scales = np.full(N_r, cmax)
        return _rowwise(sysm.rhs), _rowwise(h), x0, scales

    core_conc, core_phase = state.core_conc, state.core_phase

    def f(x, u):
        return systems.build_two_phase_system(params, x[:, -1:], u[:, None], N_r, direction,
                                              core_phase, scheme).rhs(x, u)

    def h(x, u):
        return output(systems.two_phase_bulk(x[:, :-1], x[:, -1], core_conc, R), u)

    x0 = np.concatenate([state.pos, [state.r_p]])
    scales = np.concatenate([np.full(N_r, cmax), [R]])
    return _rowwise(f), _rowwise(h), x0, scales


# --- extended Lie derivatives --------------------------------------------------


def _unique_rows(rows: np.ndarray):
    """The distinct rows by their exact bytes (so 0.0 and -0.0 differ), and
    the index of each given row among them."""
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first], inverse


def lie_stack(f, h, x0: np.ndarray, u0: float, u_dot: float,
              orders: int, config: ObservabilityConfig,
              x_scales: np.ndarray, u_scale: float):
    """Values and state gradients of L^0..L^{orders-1} at (x0, u0).

    ``u_dot`` is the input derivative u'; the recursion's d/du term is
    evaluated only when it is nonzero.  Gradients use second-order central
    differences with steps jacobian_step * max(|x_i|, x_scale_i), and the
    d/du term the step jacobian_step * max(|u|, u_scale).

    The nested recursion runs level by level on the (x, u) points it
    reaches.  L^{orders-1} is needed on T, (x0, u0) and its state stencil;
    L^{k-1} on T and on the stencils of L^k's points (state, and input
    when u' != 0).  Each point is made by the scalar recursion's float
    operations and kept once by its exact bytes.  h runs once, on the rows
    of L^0's set, and f once, on those of L^1's, which holds every higher
    set; each order is then one array pass: indexed central differences
    dotted with f, plus the d/du difference times u'.  Every value and
    gradient equals the plain recursion's bit for bit.
    """
    eps = config.jacobian_step
    n = len(x0)
    width = 2 * n + (2 if u_dot != 0.0 else 0)

    def stencil(P):
        """(m, width, n + 1) neighbours of (x, u) rows, x_j + d_j and x_j - d_j
        for each j, then u + du and u - du; and the steps d and du."""
        d = eps * np.maximum(np.abs(P[:, :n]), x_scales)
        S = np.repeat(P[:, None, :], width, axis=1)
        j = np.arange(n)
        S[:, 2 * j, j] += d
        S[:, 2 * j + 1, j] -= d
        du = eps * np.maximum(np.abs(P[:, n]), u_scale)
        if u_dot != 0.0:
            S[:, 2 * n, n] += du
            S[:, 2 * n + 1, n] -= du
        return S, d, du

    p0 = np.append(x0, u0)[None]
    S0, d0, _ = stencil(p0)
    top = np.concatenate([p0, S0[0, :2 * n]])
    # from order orders-1 down: each order's rows, the indices of T among
    # them and, from order 1 on, the steps and the indices of the stencil
    # and of the rows themselves among the rows of the order below
    P, at = _unique_rows(top)
    sets, tops, links = [P], [at], []
    for _ in range(orders - 1):
        S, d, du = stencil(P)
        m = len(P)
        P, at = _unique_rows(np.concatenate([P, top, S.reshape(-1, n + 1)]))
        sets.append(P)
        tops.append(at[m:m + len(top)])
        links.append((d, du, at[m + len(top):].reshape(m, width), at[:m]))
    sets, tops, links = sets[::-1], tops[::-1], links[::-1]

    L = h(sets[0][:, :n], sets[0][:, n])
    if orders > 1:
        F = f(sets[1][:, :n], sets[1][:, n])
        f_at = np.arange(len(sets[1]))
    values, grads = [], []
    for order in range(orders):
        if order:
            d, du, st, below = links[order - 1]
            if order > 1:
                f_at = f_at[below]
            nxt = np.vecdot((L[st[:, 0:2 * n:2]] - L[st[:, 1:2 * n:2]]) / (2.0 * d), F[f_at])
            if u_dot != 0.0:
                nxt = nxt + (L[st[:, -2]] - L[st[:, -1]]) / (2.0 * du) * u_dot
            L = nxt
        t = tops[order]
        v = L[t[0]]
        g = (L[t[1::2]] - L[t[2::2]]) / (2.0 * d0[0])
        if not (math.isfinite(v) and np.isfinite(g).all()):
            raise LieDerivativeError(f"non-finite Lie derivative at order {order}")
        values.append(float(v))
        grads.append(g)
    return values, grads


def observability_matrix(f, h, x0: np.ndarray, u0: float, u_dot: float,
                         config: ObservabilityConfig, x_scales: np.ndarray,
                         u_scale: float) -> np.ndarray:
    """Raw stacked-gradient matrix, one row per Lie order 0..n-1."""
    n = len(x0)
    _, grads = lie_stack(f, h, x0, u0, u_dot, n, config, x_scales, u_scale)
    return np.vstack(grads)


def scale_columns(O: np.ndarray, x_scales: np.ndarray) -> np.ndarray:
    """Express gradients w.r.t. scale-normalized states."""
    return O * np.asarray(x_scales)[None, :]


def rank_and_condition(O: np.ndarray, config: ObservabilityConfig | None = None):
    """(rank, cond, sigma_min) by one SVD; cond = sigma_max/sigma_min, inf
    when rank-deficient."""
    config = config or ObservabilityConfig()
    s = np.linalg.svd(O, compute_uv=False)
    if s[0] == 0.0:
        return 0, math.inf, 0.0
    tol = config.rank_tol * s[0] * max(O.shape)
    rank = int(np.sum(s > tol))
    cond = math.inf if rank < min(O.shape) else float(s[0] / s[-1])
    return rank, cond, float(s[-1])


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
    earlier time); higher derivatives are taken as zero.  The d/du step
    scales with the 1C current.  A point whose evaluation fails is skipped
    and recorded in ``skipped``, with one warning per sweep.
    """
    config = config or ObservabilityConfig()
    ocp = ocp or synthetic_ocp_set(params)
    scheme = scheme or result.meta.get("scheme", "fvm")
    stride = config.stride_s
    u_scale = params.current_for_c_rate(1.0)

    out = ObservabilitySweep()
    next_t = -math.inf
    for i in range(len(result)):
        t = float(result.time[i])
        if t < next_t:
            continue
        next_t = t + stride
        state = result.state_at(i)
        u0 = float(result.current[i])
        if i == 0 or result.time[i] == result.time[i - 1]:
            i_dot = 0.0
        else:
            i_dot = (result.current[i] - result.current[i - 1]) / (
                result.time[i] - result.time[i - 1])
        c_e_avg = electrode_c_e_avg(params, state.elec, "pos",
                                    result.meta["split"])
        try:
            f, h, x0, scales = positive_model(state, params, ocp, c_e_avg,
                                              config, scheme)
            O = observability_matrix(f, h, x0, u0, i_dot, config, scales, u_scale)
            Os = scale_columns(O, scales)
            rank, cond_s, smin = rank_and_condition(Os, config)
            _, cond_r, _ = rank_and_condition(O, config)
        except CsespmError as exc:
            out.skipped.append((t, str(exc)))
            continue
        out.points.append(ObservabilityPoint(
            time=t, soc_p=float(result.soc_p[i]), regime=result.regime[i],
            rank=rank, full_rank_needed=len(x0), cond_scaled=cond_s,
            cond_raw=cond_r, sigma_min_scaled=smin))
    if out.skipped:
        t, reason = out.skipped[0]
        log.warning("%d sweep points skipped, the first at t=%.1fs: %s",
                    len(out.skipped), t, reason)
    return out
