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


def positive_model(state: FullState, params: CellParameters, ocp: OcpSet,
                   c_e_avg: float, config: ObservabilityConfig,
                   scheme: str = "fvm"):
    """(f, h, x0, x_scales) of the positive electrode at one trajectory point.

    One-phase: x = CV averages, dynamics linear in x.  Two-phase:
    x = [shell averages, r_p]; the system matrices are rebuilt from the
    state's own r_p at every evaluation.  Direction (hysteresis branch),
    core phase and the electrolyte average are frozen at the sweep point.
    The output takes the OCP table's monotone cubic interpolation, which
    the nested finite differences can differentiate.
    """
    N_r = len(state.pos)
    direction = state.direction
    table = ocp.pick("pos", direction)
    R = params.R_s_p
    cmax = params.c_s_max_p

    if state.regime != TWO_PHASE:
        sysm = systems.build_one_phase_solid_system(params, "pos", N_r, scheme)
        A, B = sysm.A, sysm.B

        def f(x, u):
            return A @ x + B * u

        dr = R / N_r
        grad_per_amp = 1.0 / (params.D_s_p * params.F * params.A_cell
                              * params.L_p * params.a_s("pos"))

        def h(x, u):
            c_surf = x[-1] + 0.5 * dr * grad_per_amp * u
            i0 = exchange_current_density(params, "pos", c_surf, c_e_avg)
            theta = min(max(c_surf / cmax, 0.0), 1.0)
            return table(theta) + overpotential(params, "pos", u, i0)

        x0 = state.pos.copy()
        scales = np.full(N_r, cmax)
        return f, h, x0, scales

    core_conc, core_phase = state.core_conc, state.core_phase

    def f(x, u):
        return systems.build_two_phase_system(params, float(x[-1]), u, N_r, direction,
                                              core_phase, scheme).rhs(x, u)

    def h(x, u):
        c_bulk = systems.two_phase_bulk(x[:-1], float(x[-1]), core_conc, R)
        i0 = exchange_current_density(params, "pos", c_bulk, c_e_avg)
        theta = min(max(c_bulk / cmax, 0.0), 1.0)
        return table(theta) + overpotential(params, "pos", u, i0)

    x0 = np.concatenate([state.pos, [state.r_p]])
    scales = np.concatenate([np.full(N_r, cmax), [R]])
    return f, h, x0, scales


# --- extended Lie derivatives --------------------------------------------------


def lie_stack(f, h, x0: np.ndarray, u0: float, u_dot: float,
              orders: int, config: ObservabilityConfig,
              x_scales: np.ndarray, u_scale: float):
    """Values and state gradients of L^0..L^{orders-1} at (x0, u0).

    ``u_dot`` is the input derivative u'; the recursion's d/du term is
    evaluated only when it is nonzero.  Gradients use second-order central
    differences with steps jacobian_step * max(|x_i|, x_scale_i), and the
    d/du term the step jacobian_step * max(|u|, u_scale).

    f, h and every lifted L^k are memoized for the duration of the call:
    the nested stencils of successive orders revisit the same perturbed
    states, and since f and h are pure a lookup returns the very float a
    recomputation would, so the result is unchanged.  Keys are the exact
    bytes of x and of the input, so 0.0/-0.0 and NaNs never collide.
    """
    eps = config.jacobian_step

    def memo(fun):
        cache = {}

        def cached(x, u):
            key = (x.tobytes(), np.asarray(u, dtype=float).tobytes())
            if key not in cache:
                cache[key] = fun(x, u)
            return cache[key]
        return cached

    f, h = memo(f), memo(h)

    def grad_x(fun, x, u):
        g = np.empty(len(x))
        for j in range(len(x)):
            d = eps * max(abs(x[j]), x_scales[j])
            xp = x.copy(); xp[j] += d
            xm = x.copy(); xm[j] -= d
            g[j] = (fun(xp, u) - fun(xm, u)) / (2.0 * d)
        return g

    def d_du(fun, x, u):
        d = eps * max(abs(u), u_scale)
        return (fun(x, u + d) - fun(x, u - d)) / (2.0 * d)

    def lift(prev):
        def nxt(x, u):
            val = grad_x(prev, x, u) @ f(x, u)
            if u_dot != 0.0:
                val += d_du(prev, x, u) * u_dot
            return val
        return nxt

    L = h  # order 0
    values, grads = [], []
    for order in range(orders):
        v = L(x0, u0)
        g = grad_x(L, x0, u0)
        if not (math.isfinite(v) and np.isfinite(g).all()):
            raise LieDerivativeError(f"non-finite Lie derivative at order {order}")
        values.append(float(v))
        grads.append(g)
        if order < orders - 1:
            L = memo(lift(L))
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
    points: list[ObservabilityPoint] = field(default_factory=list)

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
    scales with the 1C current.  Per-point failures are logged and skipped.
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
            log.warning("sweep point at t=%.1fs skipped: %s", t, exc)
            continue
        out.points.append(ObservabilityPoint(
            time=t, soc_p=float(result.soc_p[i]), regime=result.regime[i],
            rank=rank, full_rank_needed=len(x0), cond_scaled=cond_s,
            cond_raw=cond_r, sigma_min_scaled=smin))
    return out
