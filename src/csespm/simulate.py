"""Time integration of the coupled solid/electrolyte/moving-boundary model.

Current profiles are zero-order-hold, so the current is constant inside
every integrator step.  The three fixed-grid subsystems (negative solid,
one-phase positive solid, electrolyte) are linear time-invariant, so each
step has an exact closed form: an affine map of the step length, taken from
one augmented-matrix exponential, built once per step length, cached, and
applied in increment form with two matrix-vector products.  There is no
explicit scheme, sub-stepping or stability limit, so stiff blocks (the
identified C/2 negative diffusivity) need no special case.

The two-phase positive block is integrated with a conservative
diffuse/convert/remap scheme: shell concentrations advance exactly on the
frozen grid, the lithium delivered to the interface converts core volume
through the Stefan balance, and the swept annulus is remapped onto the new
shell grid.  Explicit stepping is unusable here: the shell diffusion
eigenvalues scale like D/dr^2 and exceed 1e5 1/s right after two-phase
entry, and naive collocation of the moving-grid ODEs leaks mass through the
grid motion.  The conservative formulation integrates the same governing
equations and keeps the per-electrode lithium balance at machine precision,
which the mass audit checks.  The FDM scheme is integrated without the
conservative remap on purpose (it is the non-conservative reference).
Both schemes' solid blocks come from one assembly, `systems.solid_block`,
fed the CV geometry (FVM) or the collocated node geometry (FDM).  The
shell matrix changes every substep, so both schemes step it through a
fresh symmetric eigendecomposition: it is similar to a symmetric matrix
under the cell capacities of its geometry (CV volumes or r_i^2 h).

`simulate_many` runs B members (one parameter set and initial state each)
on one profile in lockstep.  Every member asks for the same (t, h, I) at
every step, and one batched step serves them all: the blocks and the
substep are array kernels whose leading member axis leaves each member's
arithmetic as it is, so each member's result is bit for bit its `simulate`.
A step with a transition, a halved front step or an error is taken by the
member alone.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dstevd as _dstevd

from .errors import BlowupError, CsespmError, ParameterError, SaturationError
from .ocp import OcpSet, synthetic_ocp_set
from .output import OutputSnapshot, cell_voltage
from .params import CellParameters, DiscretizationConfig, ParameterColumns
from .phase import (PhaseConfig, annulus_remap, apply_sign_flip,
                    detect_transition, enter_two_phase, exit_two_phase,
                    transition_kinds, transition_margin)
from .records import read_csv_columns, tally, write_csv_columns
from .states import FullState, ONE_PHASE_ALPHA, ONE_PHASE_BETA, TWO_PHASE
from . import systems
from .systems import FOUR_THIRDS_PI, cell_dot, cell_sum, cell_value, set_cell

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step integrator settings."""

    dt: float = 1.0
    event_tol: float = 1e-3         # bisection tolerance on event times [s]
    v_min: float | None = 2.0
    v_max: float | None = 3.65
    cutoffs_enabled: bool = True

    def __post_init__(self):
        for name in ("dt", "event_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ParameterError(f"solver {name} must be positive and finite")


# --- load profiles -----------------------------------------------------------

@dataclass
class LoadProfile:
    """Zero-order-hold current input: sample k holds from times[k] to
    times[k+1]; the final time stamp marks the end of the run."""

    times: np.ndarray
    currents: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.currents = np.asarray(self.currents, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.currents.shape:
            raise ParameterError("times and currents must be matching 1-D arrays")
        if len(self.times) < 2:
            raise ParameterError("a profile needs at least two samples")
        if not np.all(np.diff(self.times) > 0.0):
            raise ParameterError("profile times must be strictly increasing")
        if not np.isfinite(self.currents).all():
            raise ParameterError("profile currents must be finite")

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def segments(self):
        """Yield (t0, t1, I) pieces of constant current."""
        for k in range(len(self.times) - 1):
            yield float(self.times[k]), float(self.times[k + 1]), float(self.currents[k])

    def to_csv(self, path):
        write_csv_columns(path, {"time_s": self.times, "current_A": self.currents})

    @classmethod
    def from_csv(cls, path) -> "LoadProfile":
        cols = read_csv_columns(path, ("time_s", "current_A"))
        return cls(cols["time_s"], cols["current_A"])


def cc_profile(params: CellParameters, c_rate: float, direction: str,
               duration: float | None = None) -> LoadProfile:
    """Constant-current profile; duration defaults to a full window sweep."""
    mag = params.current_for_c_rate(c_rate)
    current = mag if direction == "dis" else -mag
    if duration is None:
        duration = 3600.0 / c_rate
    return LoadProfile(np.array([0.0, duration]), np.array([current, current]))


def cycle_profile(params: CellParameters, c_rate: float, cycles: int,
                  first: str = "ch") -> LoadProfile:
    """Equal ampere-hour charge/discharge cycling, ``cycles`` full cycles."""
    mag = params.current_for_c_rate(c_rate)
    half = 3600.0 / c_rate
    order = ("ch", "dis") if first == "ch" else ("dis", "ch")
    times, currents = [0.0], []
    for _ in range(cycles):
        for d in order:
            currents.append(-mag if d == "ch" else mag)
            times.append(times[-1] + half)
    currents.append(currents[-1])
    return LoadProfile(np.array(times), np.array(currents))


def synthetic_dynamic_profile(params: CellParameters, duration: float = 1370.0,
                              seed: int = 7, peak_c: float = 1.5,
                              segment_s: float = 10.0,
                              mean_c: float = 0.15) -> LoadProfile:
    """Drive-cycle shaped synthetic input: piecewise-constant bursts of
    discharge with occasional regeneration, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    n = int(math.ceil(duration / segment_s))
    base = rng.gamma(shape=1.5, scale=0.3, size=n)
    regen = rng.random(n) < 0.2
    c_rates = np.where(regen, -0.4 * base, base)
    idle = rng.random(n) < 0.15
    c_rates[idle] = 0.0
    c_rates = np.clip(c_rates, -peak_c, peak_c)
    # rescale the discharge bursts so the net throughput averages mean_c
    pos = c_rates > 0
    if pos.any():
        want = mean_c * n - c_rates[~pos].sum()
        c_rates[pos] *= max(want, 0.0) / c_rates[pos].sum()
        c_rates = np.clip(c_rates, -peak_c, peak_c)
    mag = params.current_for_c_rate(1.0)
    times = np.arange(n + 1) * segment_s
    currents = np.append(c_rates * mag, c_rates[-1] * mag)
    return LoadProfile(times, currents)


# --- exact affine propagator --------------------------------------------------

def symmetric_band(lower: np.ndarray, upper: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Off-diagonal band of the symmetric part of diag(s) A diag(1/s) for a
    tridiagonal A: entry for entry the dense 0.5 (As + As^T)."""
    return 0.5 * (upper * (s[..., :-1] / s[..., 1:]) + lower * (s[..., 1:] / s[..., :-1]))


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M @ x of one member, or of B members' (B, n, n) stack and (B, n) rows:
    numpy makes the same BLAS call for each matrix of a stack."""
    return M @ x if x.ndim == 1 else (M @ x[..., None])[..., 0]


def _eigh(diag: np.ndarray, band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and Fortran-ordered eigenvectors of one symmetric
    tridiagonal matrix."""
    lam, Q, info = _dstevd(diag, band, compute_v=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd failed with info={info}")
    return lam, Q


class AffinePropagator:
    """Exact step of dx/dt = A x + b for a constant tridiagonal A, given by
    its bands (A[i + 1, i] = lower[i], A[i, i] = diag[i], A[i, i + 1] =
    upper[i]); bands with a leading axis of B members step B systems.

    The positive weights w must make diag(w) A symmetric, so that
    diag(sqrt w) A diag(1/sqrt w) is symmetric and a symmetric
    eigensolver applies: the cell capacities of `systems.cell_geometry`, CV
    volumes for the FVM and r_i^2 h for the FDM (w_i A[i, i+1] = w_{i+1}
    A[i+1, i]).  The scaled bands are averaged with their transposes and
    the diagonal is kept.  LAPACK's dstevd takes the diagonal and the band
    of each member: it is the divide-and-conquer solver dsyevd (numpy's
    eigh) ends in, after a reduction that leaves a tridiagonal matrix as it
    is, so the two agree bit for bit.  The Fortran-ordered eigenvectors are
    copied to C order, the layout numpy's eigh returns: the step's matrix
    products take another BLAS path, and round differently, on the other
    one.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                 weights: np.ndarray):
        s = np.sqrt(weights)
        band = symmetric_band(lower, upper, s)
        if s.ndim == 1:
            self.lam, Q = _eigh(diag, band)
            Q = np.ascontiguousarray(Q)
        else:       # np.array copies each member's eigenvectors to C order
            self.lam, Q = (np.array(x) for x in zip(*map(_eigh, diag, band)))
        # x -> eigen coords: the transpose of a C-ordered product, the layout
        # of Q.T * s
        self._to = (Q * s[..., None]).swapaxes(-1, -2)
        self._back = Q / s[..., None]        # eigen coords -> x

    def step(self, x: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
        """x(h) = e^{Ah} x + phi(h) b with phi = integral of e^{As} ds."""
        lam = self.lam
        z = _matvec(self._to, x)
        zb = _matvec(self._to, b)
        lh = lam * h
        elh = np.exp(lh)
        if min(map(abs, lh.ravel().tolist())) < 1e-8:
            # phi's series where lam h is too small for (e^{lam h} - 1) / lam
            small = np.abs(lh) < 1e-8
            phi = np.where(small, h * (1.0 + 0.5 * lh), (elh - 1.0) / np.where(small, 1.0, lam))
        else:
            phi = (elh - 1.0) / lam
        return _matvec(self._back, elh * z + phi * zb)


class _LtiBlock:
    """One constant-coefficient subsystem dx/dt = A x + B I (+ G), stepped
    exactly under zero-order-hold current.

    With Gamma_h = integral of e^{As} ds over [0, h], the step is
    x(h) = x + D x + c with D = A Gamma_h (= e^{Ah} - I) and the forced
    response c = Gamma_h (B I + G).  Gamma_h is a block of one
    augmented-matrix exponential (Van Loan, IEEE TAC 1978).  D is formed as
    A Gamma_h, never as e^{Ah} - I, which would lose the small increment to
    cancellation and show up as mass drift.  The maps are built on first
    use and cached, a few step lengths at a time (event bisection asks for
    many lengths that never recur), and with each map the forced responses
    of a few currents.
    """

    _CACHE_SIZE = 8

    def __init__(self, sys: systems.AffineSystem):
        self.sys = sys
        self._maps: dict[float, tuple[np.ndarray, np.ndarray, dict]] = {}

    def step_map(self, h: float, current: float) -> tuple[np.ndarray, np.ndarray]:
        """(D, c) of a step of length h at this current."""
        step_map = self._maps.get(h)
        if step_map is None:
            if len(self._maps) >= self._CACHE_SIZE:
                del self._maps[next(iter(self._maps))]
            n = self.sys.dim
            M = np.zeros((2 * n, 2 * n))
            M[:n, :n] = self.sys.A * h
            M[:n, n:] = np.eye(n) * h
            gamma = scipy.linalg.expm(M)[:n, n:]
            step_map = self._maps[h] = (self.sys.A @ gamma, gamma, {})
        D, N, forced = step_map
        c = forced.get(current)
        if c is None:
            if len(forced) >= self._CACHE_SIZE:
                del forced[next(iter(forced))]
            b = self.sys.B * current
            if self.sys.G is not None:
                b = b + self.sys.G
            c = forced[current] = N @ b
        return D, c

    def advance(self, x: np.ndarray, current: float, h: float) -> np.ndarray:
        """x(h) of one state, or of B members' (B, n) rows when the block
        holds their stacked maps (_BlockStack)."""
        D, c = self.step_map(h, current)
        return x + _matvec(D, x) + c


# --- two-phase positive electrode steppers ------------------------------------
#
# A substep takes one member (a FullState, CellParameters) or B members of
# one core phase and direction (a FullState of rows: (B, N_r) shells, (B, 1)
# columns r_p and core_conc; params.ParameterColumns) and returns the shell,
# r_p and closure of each, with the same arithmetic per member.

def _clip(x, lo, hi=None):
    """min(max(x, lo), hi) of one member or of B members' columns; max(x,
    lo) without hi."""
    if isinstance(x, np.ndarray):
        x = np.maximum(x, lo)
        return x if hi is None else np.minimum(x, hi)
    x = max(x, lo)
    return x if hi is None else min(x, hi)


def _pow(x, e):
    """x**e of one member, or of every member's column with the same libm pow:
    numpy's vectorized power rounds some values differently."""
    if isinstance(x, np.ndarray):
        return np.array([v**e for v in x.ravel().tolist()]).reshape(x.shape)
    return x**e


def _each(f, *args):
    """f of one member's floats, or f mapped over B members' (B, 1) columns
    (and floats shared by all), its results stacked back into columns."""
    if not isinstance(args[0], np.ndarray):
        return f(*args)
    n = len(args[0])
    cols = [a.ravel().tolist() if isinstance(a, np.ndarray) else [a] * n for a in args]
    return tuple(np.array(x)[:, None] for x in zip(*map(f, *cols)))


def _shell_step(state: FullState, current: float, h: float, params: CellParameters,
                N_r: int, g, scheme: str):
    """Exact step of the shell on its frozen grid; returns (shell, block)."""
    blk, g_row = systems.shell_block(params, state.r_p, current, N_r, g, scheme)
    b = np.zeros(state.pos.shape)
    set_cell(b, 0, g_row)
    set_cell(b, N_r - 1, blk.surface * current)
    prop = AffinePropagator(blk.lower, blk.diag, blk.upper, blk.caps)
    return prop.step(state.pos, b, h), blk


def _fvm_two_phase_substep(state: FullState, current: float, h: float,
                           params: CellParameters, N_r: int):
    """One conservative substep; returns (shell, r_p, closure_rel)."""
    R = params.R_s_p
    r_p = state.r_p
    g, c_core = systems.interface_values(params, state.core_phase, state.direction)
    c_new, blk = _shell_step(state, current, h, params, N_r, g, "fvm")
    vols = blk.caps
    shell_old = cell_dot(vols, state.pos)

    # lithium delivered to the front: surface influx minus shell gain
    q_surf = (systems.molar_flux_density(params, "pos", current) * 4.0 * np.pi
              * _pow(R, 2))
    spill = q_surf * h - cell_dot(vols, c_new - state.pos)

    if current == 0.0:
        # frozen front; close propagator rounding so rest is drift free
        c_new = c_new + (shell_old - cell_dot(vols, c_new)) / cell_sum(vols)
        return c_new, r_p, 0.0

    r_new, r_lo, annulus_conc, core_vol, core_vol_new = _each(
        _front_move, r_p, R, spill, g, c_core, state.core_conc)

    # conservative remap of (swept annulus + old shell) onto the new grid; a
    # member whose front moves out sweeps no annulus and remaps its shell
    # alone, or, in a batch, with a zero-width annulus cell (the same sums)
    new_faces, _, vols_new = systems.spherical_cells(r_new, R, N_r)
    if not isinstance(r_lo, np.ndarray) and r_lo == r_p:
        shell = annulus_remap(blk.faces, c_new, new_faces)
    else:
        old_edges = np.empty(c_new.shape[:-1] + (N_r + 2,))
        set_cell(old_edges, 0, r_lo)
        old_edges[..., 1:] = blk.faces
        old_values = np.empty(c_new.shape[:-1] + (N_r + 1,))
        set_cell(old_values, 0, annulus_conc)
        old_values[..., 1:] = c_new
        shell = annulus_remap(old_edges, old_values, new_faces)

    # close rounding (and, for an outward front, the swept-profile mismatch)
    # so the per-electrode balance is exact: core + shell changes only by the
    # surface influx
    expected = shell_old + core_vol * state.core_conc + q_surf * h
    actual = core_vol_new * state.core_conc + cell_dot(vols_new, shell)
    residual = expected - actual
    shell = shell + residual / cell_sum(vols_new)
    closure_rel = abs(residual) / _clip(abs(expected), 1e-300)
    return shell, r_new, closure_rel


def _front_move(r_p: float, R: float, spill: float, g: float, c_core: float,
                core_conc: float):
    """The front of one member in a conservative substep: the lithium spilled
    at the interface converts core volume (the integrated Stefan balance).
    Returns (r_new, the remap's inner edge, the value of the cell between
    it and the old front, the old and the new core volume).  An inward
    front sweeps the annulus [r_new, r_p], which holds its core lithium
    plus the spill; an outward one sweeps none, a zero-width cell."""
    core_vol = FOUR_THIRDS_PI * r_p**3
    v_core_new = min(max(core_vol - spill / (g - c_core), 0.0), FOUR_THIRDS_PI * R**3)
    r_new = (v_core_new / FOUR_THIRDS_PI)**(1.0 / 3.0)
    r_new = min(max(r_new, 1e-9 * R), (1.0 - 1e-9) * R)
    core_vol_new = FOUR_THIRDS_PI * r_new**3
    if r_new < r_p:
        annulus_vol = FOUR_THIRDS_PI * (r_p**3 - r_new**3)
        return r_new, r_new, (core_conc * annulus_vol + spill) / annulus_vol, core_vol, core_vol_new
    return r_new, r_p, 0.0, core_vol, core_vol_new


def _fdm_two_phase_substep(state: FullState, current: float, h: float,
                           params: CellParameters, N_r: int):
    """Naive collocated step of the FDM two-phase system (no remap)."""
    g, c_core = systems.interface_values(params, state.core_phase, state.direction)
    c_new, _ = _shell_step(state, current, h, params, N_r, g, "fdm")
    k, k0 = (systems.front_rate(params, state.r_p, N_r, g, c_core) if current != 0.0
             else (0.0, 0.0))
    rdot_mid = k * 0.5 * (cell_value(state.pos, 0) + cell_value(c_new, 0)) + k0
    R = params.R_s_p
    r_new = _clip(state.r_p + h * rdot_mid, 1e-9 * R, (1.0 - 1e-9) * R)
    return c_new, r_new, 0.0


# --- the integrator ------------------------------------------------------------

class Integrator:
    """Advances a FullState over intervals of constant current."""

    def __init__(self, params: CellParameters, disc: DiscretizationConfig,
                 solver: SolverConfig, phase_cfg: PhaseConfig | None = None):
        self.params = params
        self.disc = disc
        self.solver = solver
        self.phase_cfg = phase_cfg or PhaseConfig()
        split = disc.electrolyte_split()
        self.split = split
        self.neg = _LtiBlock(systems.build_one_phase_solid_system(
            params, "neg", disc.N_r, disc.scheme))
        self.pos1p = _LtiBlock(systems.build_one_phase_solid_system(
            params, "pos", disc.N_r, disc.scheme))
        self.elec = _LtiBlock(systems.build_electrolyte_system(params, disc.N_e, split))
        self.max_closure = 0.0
        # numerical decisions of a run, see records.tally
        self.counters = dict.fromkeys(("ocp_extrapolations", "event_cap_hits",
                                       "front_floor_accepts"), 0)

    def advance(self, state: FullState, current: float, h: float) -> FullState:
        """Pure step of length h at constant current (no event handling)."""
        new = self.advance_positive(state, current, h)
        new.neg = self.neg.advance(state.neg, current, h)
        new.elec = self.elec.advance(state.elec, current, h)
        return new

    def advance_positive(self, state: FullState, current: float, h: float) -> FullState:
        """The state with only the positive particle stepped by h (its other
        arrays shared, never written): what a transition margin reads, so
        event bisection probes step nothing else."""
        new = FullState(state.neg, state.pos, state.elec, state.regime, state.r_p,
                        state.core_conc, state.core_phase, state.direction)
        if state.regime != TWO_PHASE:
            new.pos = self.pos1p.advance(state.pos, current, h)
            return new

        substep = (_fvm_two_phase_substep if self.disc.scheme == "fvm"
                   else _fdm_two_phase_substep)
        R = self.params.R_s_p
        remaining = h
        cur = new
        while remaining > 1e-12:
            hs = remaining
            while True:
                shell, r_new, closure = substep(cur, current, hs, self.params, self.disc.N_r)
                # keep the grid change per substep modest
                if abs(r_new - cur.r_p) <= 0.25 * (R - cur.r_p):
                    break
                if hs <= 1e-6 * h:
                    tally(self.counters, "front_floor_accepts", 1, log,
                          "front move %.3g -> %.3g m accepted at the substep floor %.3g s",
                          cur.r_p, r_new, hs)
                    break
                hs *= 0.5
            cur.pos = shell
            cur.r_p = r_new
            self.max_closure = max(self.max_closure, closure)
            remaining -= hs
        return cur

    def advance_with_events(self, s: FullState, current: float, t: float, h: float,
                            events: list) -> FullState:
        """Step of length h from time t with phase transitions localized by
        bisection and appended to ``events``; past 8 events in one step the
        rest is advanced without detection (tallied as "event_cap_hits")."""
        params, pcfg = self.params, self.phase_cfg
        remaining = h
        offset = 0.0
        for _ in range(8):
            post = self.advance(s, current, remaining)
            kind = detect_transition(post, current, params, pcfg)
            if kind is None:
                return post
            m0 = transition_margin(kind, s, current, params, pcfg)
            if m0 >= 0.0:
                tau, at = 0.0, s
            else:
                lo, hi = 0.0, remaining
                while hi - lo > self.solver.event_tol:
                    mid = 0.5 * (lo + hi)
                    if transition_margin(kind, self.advance_positive(s, current, mid),
                                         current, params, pcfg) >= 0.0:
                        hi = mid
                    else:
                        lo = mid
                tau = hi
                at = self.advance(s, current, tau)
            t_event = t + offset + tau
            if kind == "enter_two_phase":
                s, ev = enter_two_phase(at, current, params, pcfg, t_event)
            else:
                vanished = "core" if kind == "exit_two_phase_core" else "shell"
                s, ev = exit_two_phase(at, params, pcfg, t_event, vanished=vanished)
            events.append(ev)
            offset += tau
            remaining -= tau
            if remaining <= 1e-12:
                return s
        tally(self.counters, "event_cap_hits", 1, log,
              "8 events in the step from t=%.3f s; the last %.3g s advance "
              "without event detection", t, remaining)
        return self.advance(s, current, remaining)


# --- lockstep steps of many members ----------------------------------------------

class _BlockStack:
    """One fixed-grid block of B members stepped as one: the members' own
    cached step maps and forced responses, stacked."""

    def __init__(self, blocks: list[_LtiBlock]):
        self.blocks = blocks
        self._maps: dict[tuple[float, float], tuple[np.ndarray, np.ndarray]] = {}

    def step_map(self, h: float, current: float) -> tuple[np.ndarray, np.ndarray]:
        stacked = self._maps.get((h, current))
        if stacked is None:
            if len(self._maps) >= _LtiBlock._CACHE_SIZE:
                del self._maps[next(iter(self._maps))]
            D, c = zip(*(b.step_map(h, current) for b in self.blocks))
            stacked = self._maps[h, current] = (np.stack(D), np.stack(c))
        return stacked

    advance = _LtiBlock.advance


class _Lockstep:
    """Integrator.advance_with_events of B members of one discretization and
    phase configuration at once, for the steps without a transition.

    The fixed-grid blocks step as (B, n, n) stacks of the members' maps; the
    members of one regime (and, in two-phase, one core phase and direction)
    take one array substep and one test of their transition margins.  Each
    member's stepped state is bit for bit its own.
    """

    def __init__(self, integs: list[Integrator]):
        self.integs = integs
        self.neg, self.pos1p, self.elec = (_BlockStack([getattr(i, k) for i in integs])
                                           for k in ("neg", "pos1p", "elec"))
        self.params = ParameterColumns(i.params for i in integs)

    def advance(self, states: list[FullState], current: float, h: float) -> list:
        """Each member's stepped state; None for a member whose step detects
        a transition or must halve its front step, which is then stepped
        alone."""
        disc, pcfg = self.integs[0].disc, self.integs[0].phase_cfg
        pos = np.array([s.pos for s in states])
        neg = self.neg.advance(np.array([s.neg for s in states]), current, h)
        elec = self.elec.advance(np.array([s.elec for s in states]), current, h)
        groups: dict[tuple, list[int]] = {}
        for i, s in enumerate(states):
            key = (s.regime, s.core_phase, s.direction) if s.regime == TWO_PHASE else (s.regime,)
            groups.setdefault(key, []).append(i)
        new_pos = (self.pos1p.advance(pos, current, h) if any(k[0] != TWO_PHASE for k in groups)
                   else np.empty_like(pos))
        r_p = [s.r_p for s in states]
        quiet = [True] * len(states)
        substep = _fvm_two_phase_substep if disc.scheme == "fvm" else _fdm_two_phase_substep
        for key, idx in groups.items():
            whole = len(idx) == len(states)
            sel = slice(None) if whole else idx
            params = self.params if whole else self.params.take(idx)
            if key[0] == TWO_PHASE:
                r_old = np.array([r_p[i] for i in idx])[:, None]
                rows = FullState(None, pos[sel], None, TWO_PHASE, r_old,
                                 np.array([states[i].core_conc for i in idx])[:, None], *key[1:])
                shell, r_new, closure = substep(rows, current, h, params, disc.N_r)
                # Integrator.advance_positive halves the step of a larger move
                alone = abs(r_new - r_old) > 0.25 * (params.R_s_p - r_old)
                rows.pos, rows.r_p = shell, r_new
                r_new = r_new.ravel().tolist()
                closure = np.broadcast_to(closure, r_old.shape).ravel().tolist()
            else:
                rows = FullState(None, new_pos[sel], None, key[0])
                alone = np.zeros((len(idx), 1), dtype=bool)
            for kind in transition_kinds(key[0], current):
                alone |= transition_margin(kind, rows, current, params, pcfg) >= 0.0
            for j, (i, out) in enumerate(zip(idx, alone.ravel().tolist())):
                if out:
                    quiet[i] = False
                elif key[0] == TWO_PHASE:
                    new_pos[i], r_p[i] = shell[j], r_new[j]
                    integ = self.integs[i]
                    integ.max_closure = max(integ.max_closure, closure[j])
        return [FullState(neg[i], new_pos[i], elec[i], s.regime, r_p[i], s.core_conc,
                          s.core_phase, s.direction) if quiet[i] else None
                for i, s in enumerate(states)]


# --- initial states -------------------------------------------------------------

def initial_state(params: CellParameters, disc: DiscretizationConfig,
                  soc: float, direction: str = "dis") -> FullState:
    """Uniform-concentration state at a given SOC on the direction's window.

    If the positive stoichiometry falls inside the two-phase plateau the
    state is seeded two-phase by the lever rule (core phase chosen for the
    upcoming direction).
    """
    t_p0 = params.theta("pos", "0", direction)
    t_p100 = params.theta("pos", "100", direction)
    t_n0 = params.theta("neg", "0", direction)
    t_n100 = params.theta("neg", "100", direction)
    theta_p = t_p0 - soc * (t_p0 - t_p100)
    theta_n = t_n0 + soc * (t_n100 - t_n0)
    c_p = theta_p * params.c_s_max_p
    neg = np.full(disc.N_r, theta_n * params.c_s_max_n)
    elec = np.full(disc.N_e, params.c_e0)

    c_a, c_b = params.c_alpha(direction), params.c_beta(direction)
    if c_p <= c_a:
        return FullState(neg=neg, pos=np.full(disc.N_r, c_p), elec=elec,
                         regime=ONE_PHASE_ALPHA, direction=direction)
    if c_p >= c_b:
        return FullState(neg=neg, pos=np.full(disc.N_r, c_p), elec=elec,
                         regime=ONE_PHASE_BETA, direction=direction)

    core_phase = systems.entry_core_phase(direction)
    c_shell, c_core = systems.interface_values(params, core_phase, direction)
    f_core = (c_shell - c_p) / (c_shell - c_core)
    f_core = min(max(f_core, 1e-6), 1.0 - 1e-6)
    R = params.R_s_p
    r_p = R * f_core**(1.0 / 3.0)
    # adjust the uniform shell value so the bulk matches the SOC exactly
    c_shell_val = (c_p - f_core * c_core) / (1.0 - f_core)
    return FullState(neg=neg, pos=np.full(disc.N_r, c_shell_val), elec=elec,
                     regime=TWO_PHASE, r_p=r_p, core_conc=c_core,
                     core_phase=core_phase, direction=direction)


# --- simulation results -----------------------------------------------------------

RESULT_COLUMNS = ("time_s", "current_A", "voltage_V", "soc_p", "soc_n",
                  "r_p_over_R", "regime", "mass_drift_rel")


@dataclass
class SimulationResult:
    """Per-step outputs, state history, events and mass bookkeeping."""

    time: np.ndarray
    current: np.ndarray
    voltage: np.ndarray
    soc_p: np.ndarray
    soc_n: np.ndarray
    r_p: np.ndarray
    regime: list
    direction: list
    core_phase: list                  # 'alpha'/'beta' while two-phase, else None
    neg_c: np.ndarray
    pos_c: np.ndarray
    elec_c: np.ndarray
    core_conc: np.ndarray
    charge: np.ndarray                # cumulative integral of I dt [C]
    mass_pos: np.ndarray              # electrode solid lithium [mol]
    mass_neg: np.ndarray
    mass_elec: np.ndarray
    drift_rel: np.ndarray
    events: list = field(default_factory=list)
    status: str = "completed"
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.time)

    def state_at(self, i: int) -> FullState:
        return FullState(
            neg=self.neg_c[i].copy(), pos=self.pos_c[i].copy(),
            elec=self.elec_c[i].copy(), regime=self.regime[i],
            r_p=float(self.r_p[i]) * self.meta["R_s_p"],
            core_conc=float(self.core_conc[i]), core_phase=self.core_phase[i],
            direction=self.direction[i])

    def to_csv(self, path):
        write_csv_columns(path, dict(zip(RESULT_COLUMNS, (
            self.time, self.current, self.voltage, self.soc_p, self.soc_n,
            self.r_p, self.regime, self.drift_rel))))


def read_result_csv(path) -> dict:
    """Parse a result CSV back into column arrays (regime stays a list)."""
    return read_csv_columns(path, RESULT_COLUMNS, text=("regime",))


# --- the simulator ---------------------------------------------------------------

_CHUNK = 64     # rows per output-map pass while voltage cutoffs are on


def simulate(profile: LoadProfile, init: FullState, params: CellParameters,
             disc: DiscretizationConfig, solver: SolverConfig | None = None,
             ocp: OcpSet | None = None,
             phase_cfg: PhaseConfig | None = None) -> SimulationResult:
    """Integrate the cell over a load profile.

    Records the raw state of one row per accepted step (every solver.dt,
    plus profile boundaries) in preallocated columns, and handles phase
    transitions with bisection localization.  The output map runs over the
    rows once at the end or, with voltage cutoffs on, every _CHUNK rows: the
    run stops at the first row past a cutoff (normal status), and the steps
    integrated after that row leave no row, event, counter or error behind.
    A non-finite state raises BlowupError.
    """
    run = _simulation(profile, init, params, disc, solver, ocp, phase_cfg)
    send, value = run.send, None
    while True:
        try:
            integ, step = send(value)
        except StopIteration as stop:
            return stop.value
        try:
            send, value = run.send, integ.advance_with_events(*step)
        except Exception as exc:
            send, value = run.throw, exc


def simulate_many(profile: LoadProfile, inits: list[FullState],
                  params: list[CellParameters], disc: DiscretizationConfig,
                  solver: SolverConfig | None = None, ocp: OcpSet | None = None,
                  phase_cfg: PhaseConfig | None = None) -> list:
    """`simulate` of B members (one initial state and parameter set each) on
    one profile, stepped in lockstep.

    Every member asks for the same (t, h, I) at every step, so one batched
    step (`_Lockstep`) advances them all.  A member whose step detects a
    transition, must halve its front step or raises is stepped again alone,
    through its own Integrator.advance_with_events.  Each item of the
    returned list is the member's SimulationResult, bit for bit the one
    `simulate` returns for it, or the exception its run raised.
    """
    runs = [_simulation(profile, x0, p, disc, solver, ocp, phase_cfg)
            for x0, p in zip(inits, params)]
    outcomes: list = [None] * len(runs)
    pending: dict[int, tuple] = {}      # member -> its step request

    def resume(i: int, send, value):
        try:
            pending[i] = send(value)
        except StopIteration as stop:
            outcomes[i] = stop.value
        except Exception as exc:
            outcomes[i] = exc

    for i, run in enumerate(runs):
        resume(i, run.send, None)
    lockstep = None
    while pending:
        members = list(pending)
        requests = [pending.pop(i) for i in members]
        integs = [integ for integ, _ in requests]
        if lockstep is None or lockstep.integs != integs:
            lockstep = _Lockstep(integs)
        _, current, _, h, _ = requests[0][1]
        try:
            posts = lockstep.advance([step[0] for _, step in requests], current, h)
        except (CsespmError, ArithmeticError, ValueError):
            # some member's data fails the step: each takes it alone, and
            # raises its own error there
            posts = [None] * len(members)
        for i, (integ, step), post in zip(members, requests, posts):
            if post is None:
                try:
                    post = integ.advance_with_events(*step)
                except Exception as exc:
                    resume(i, runs[i].throw, exc)
                    continue
            resume(i, runs[i].send, post)
    return outcomes


def _simulation(profile: LoadProfile, init: FullState, params: CellParameters,
                disc: DiscretizationConfig, solver: SolverConfig | None,
                ocp: OcpSet | None, phase_cfg: PhaseConfig | None):
    """The run of `simulate` as a generator.  It yields each step request,
    (integrator, (state, current, t, h, events)), the integrator and the
    arguments of its advance_with_events; it is sent the stepped state, or
    thrown the error of the step, and returns the SimulationResult."""
    solver = solver or SolverConfig()
    ocp = ocp or synthetic_ocp_set(params)
    integ = Integrator(params, disc, solver, phase_cfg)
    split, counters = integ.split, integ.counters
    cutoffs = solver.cutoffs_enabled
    v_lo = solver.v_min if cutoffs and solver.v_min is not None else -np.inf
    v_hi = solver.v_max if cutoffs and solver.v_max is not None else np.inf
    size = 1 + int(np.sum(np.ceil(np.diff(profile.times) / solver.dt) + 1))
    # rows: time, current, charge, r_p, core_conc, then voltage, SOC_p, SOC_n
    cols = np.empty((8, size))
    conc = {k: np.empty((size, len(getattr(init, k)))) for k in ("neg", "pos", "elec")}
    labels, events, marks = [], [], []    # labels: (regime, direction, core_phase)
    status = "completed"
    done = 0          # rows the output map has seen

    c_t, c_i, c_q, c_r, c_c = cols[:5]
    c_neg, c_pos, c_elec = conc["neg"], conc["pos"], conc["elec"]

    def record(t: float, current: float, q: float, s: FullState):
        i = len(labels)
        c_t[i] = t
        c_i[i] = current
        c_q[i] = q
        c_r[i] = s.r_p
        c_c[i] = s.core_conc
        c_neg[i], c_pos[i], c_elec[i] = s.neg, s.pos, s.elec
        labels.append((s.regime, s.direction, s.core_phase))
        if cutoffs:
            marks.append((len(events), integ.max_closure, dict(counters)))

    def output_map(a: int, b: int) -> OutputSnapshot:
        regime, direction, _ = zip(*labels[a:b])
        rows = FullState(conc["neg"][a:b], conc["pos"][a:b], conc["elec"][a:b],
                         np.array(regime), cols[3, a:b], cols[4, a:b], None,
                         np.array(direction))
        return cell_voltage(rows, cols[1, a:b], params, ocp, split, counters=counters)

    def settle() -> bool:
        """Output map of the pending rows; True when one crosses a cutoff."""
        nonlocal done, status
        a, b = done, len(labels)
        if a == b:
            return False
        done = b
        try:
            snap, error = output_map(a, b), None
        except SaturationError as exc:
            snap, error = exc.before, exc
        m = a + len(snap.V_cell)
        cols[5:, a:m] = snap.V_cell, snap.SOC_p, snap.SOC_n
        hits = np.flatnonzero((cols[5, a:m] < v_lo) | (cols[5, a:m] > v_hi))
        hits = hits[hits + a > 0]     # the initial row is not tested
        if hits.size:
            k = a + int(hits[0])
            status = "cutoff_low" if cols[5, k] < v_lo else "cutoff_high"
            # undo what the steps after row k did, and recount its chunk
            n_events, integ.max_closure, kept = marks[k]
            del events[n_events:], labels[k + 1:]
            counters.clear()
            counters.update(kept)
            done = k + 1
            output_map(a, done)
            return True
        if error is not None:
            raise error
        return False

    def run():
        state = init.copy()
        q_total = 0.0
        record(float(profile.times[0]), next(iter(profile.segments()))[2], q_total, state)
        for t0, t1, current in profile.segments():
            if current != 0.0:
                newdir = systems.direction_for_current(current)
                if newdir != state.direction:
                    if state.two_phase:
                        state, ev = apply_sign_flip(state, current, t0)
                        events.append(ev)
                    else:
                        state = state.copy()
                        state.direction = newdir
            t = t0
            while t < t1 - 1e-9:
                h = min(solver.dt, t1 - t)
                state = yield integ, (state, current, t, h, events)
                t += h
                q_total += current * h
                if not state.is_finite():
                    raise BlowupError(f"non-finite state at t={t:.3f}s", last_good_time=t - h)
                record(t, current, q_total, state)
                if cutoffs and len(labels) - done >= _CHUNK and settle():
                    return

    try:
        yield from run()
    except Exception:
        # a step past a cutoff crossing in the pending rows raises nothing
        if not settle():
            raise
    settle()

    n = len(labels)
    time, current, charge, r_p, core_conc, voltage, soc_p, soc_n = cols[:, :n]
    neg_c, pos_c, elec_c = (conc[k][:n] for k in ("neg", "pos", "elec"))
    regime, direction, core_phase = (list(x) for x in zip(*labels))
    dx, eps, _ = systems.electrolyte_geometry(params, disc.N_e, split)
    result = SimulationResult(
        time=time, current=current, voltage=voltage, soc_p=soc_p, soc_n=soc_n,
        r_p=r_p / params.R_s_p, regime=regime, direction=direction,
        core_phase=core_phase, neg_c=neg_c, pos_c=pos_c, elec_c=elec_c,
        core_conc=core_conc, charge=charge,
        mass_pos=systems.solid_moles(pos_c, params.R_s_p, r_p, core_conc)
        * (params.eps_p * params.A_cell * params.L_p / (FOUR_THIRDS_PI * params.R_s_p**3)),
        mass_neg=systems.solid_moles(neg_c, params.R_s_n)
        * (params.eps_n * params.A_cell * params.L_n / (FOUR_THIRDS_PI * params.R_s_n**3)),
        mass_elec=elec_c @ (params.A_cell * (dx * eps)),
        drift_rel=None, events=events, status=status,
        meta={"R_s_p": params.R_s_p, "scheme": disc.scheme, "N_r": disc.N_r,
              "N_e": disc.N_e, "split": split, "max_closure": integ.max_closure,
              "counters": dict(counters)})
    audit = mass_audit(result, params)
    result.drift_rel = np.maximum(np.maximum(audit.res_pos_rel, audit.res_neg_rel),
                                  audit.res_elec_rel)
    return result


# --- mass audit --------------------------------------------------------------------

@dataclass
class MassReport:
    """Coulomb-count residuals of a finished run."""

    res_pos_rel: np.ndarray
    res_neg_rel: np.ndarray
    res_elec_rel: np.ndarray
    max_drift_rel: float

    def summary(self) -> str:
        return (f"max drift: pos {self.res_pos_rel.max():.3e}  "
                f"neg {self.res_neg_rel.max():.3e}  "
                f"elec {self.res_elec_rel.max():.3e}")


def mass_audit(result: SimulationResult, params: CellParameters) -> MassReport:
    """Per-step solid and electrolyte lithium versus coulomb counting.

    With I > 0 on discharge the positive electrode gains integral(I)/F moles
    and the negative electrode loses them; electrolyte lithium is constant.
    Solid residuals are normalized by the electrode saturation content.
    """
    q = result.charge
    cap_p = params.c_s_max_p * params.eps_p * params.A_cell * params.L_p
    cap_n = params.c_s_max_n * params.eps_n * params.A_cell * params.L_n
    res_p = np.abs(result.mass_pos - result.mass_pos[0] - q / params.F) / cap_p
    res_n = np.abs(result.mass_neg - result.mass_neg[0] + q / params.F) / cap_n
    res_e = np.abs(result.mass_elec - result.mass_elec[0]) / result.mass_elec[0]
    return MassReport(res_p, res_n, res_e, max(res_p.max(), res_n.max(), res_e.max()))
