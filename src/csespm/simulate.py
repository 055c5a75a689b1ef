"""Time integration of the coupled solid/electrolyte/moving-boundary model.

Current profiles are zero-order-hold, so the current is constant inside
every integrator step.  The three fixed-grid subsystems (negative solid,
one-phase positive solid, electrolyte) are linear time-invariant, so their
rows over steps at one current have a closed form: the row at offset tau
from an anchor row x_a is x_a + Gamma(tau) (A x_a + B I), Gamma(tau) the
integral of e^{As} over [0, tau], from one eigendecomposition per block
and integrator (`LinearBlock`); K rows take one pass over (K, n) arrays
per mode.  There is no explicit scheme, sub-stepping or stability limit, so stiff blocks (the
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

The time loop (`simulate_many`) steps one run (`_Run`: an integrator, its rows
and events, its output map) per member through blocks of steps, ranges of
the shared step grid: the rest of a run of profile segments at one current,
which with voltage cutoffs on also ends at the next output-map chunk.  A
run's rows and change log are its only record of its state between steps:
each step reads its row and writes the next.  The loop computes each
block's end once for all live runs and hands the runs to one server
(`_serve`), which fills the block's rows one run at a time and reports the
runs an error stopped.  It writes a run's negative and electrolyte rows
for the whole block in one closed form (`_fixed_rows`): they never read
the positive particle.  A one-phase positive particle's rows follow in
closed form too, up to the row before the first whose transition margin is
>= 0; that step is taken through `Integrator.advance_with_events`
(`_one_phase_rows`).  Each closed form starts from the first row of the
run of segments at one current, or from the row after the last step taken
alone, and reads its offsets from the step grid's times, so a row does not
depend on where blocks end.  A two-phase stretch is taken one substep a
step (`_two_phase_rows`): it reads the stretch's first row once and writes
each next row from its step's substep; a step whose substep raises,
detects a transition or must halve its front step (`_keeps_substep`) is
taken alone, through `Integrator.advance_with_events` (`_step_alone`), and
the stretch goes on after it.  `simulate` runs one member, `simulate_many`
B members (one parameter set and initial state each) on one profile and
one step grid, each bit for bit its `simulate`.  The FVM substep runs on
Python floats (`_fvm_two_phase_substep`): every cell sum and eigenvector
product is a sequential sum, and every cube is f * f * f, so numpy decides
the bits in two calls only: LAPACK's dstevd, and numpy's SIMD exp, which
differs from libm's in the last bit.
"""
from __future__ import annotations

import bisect
import logging
import math
from array import array
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import accumulate
from operator import add, mul, sub, truediv

import numpy as np
from scipy.linalg.lapack import dstevd as _dstevd

from .errors import (BlowupError, CsespmError, ParameterError, PhaseDomainError,
                     SaturationError)
from .ocp import OcpSet, synthetic_ocp_set
from .output import OutputSnapshot, cell_voltage
from .params import CellParameters, DiscretizationConfig
# annulus_remap is not called here: the benchmark's tracer (perfbench/tracing.py)
# wraps it under this module's name too
from .phase import (PhaseConfig, annulus_remap, apply_sign_flip,  # noqa: F401
                    detect_transition, enter_two_phase, exit_two_phase,
                    transition_kinds, transition_margin)
from .records import read_csv_columns, tally, write_csv_columns
from .states import FullState, ONE_PHASE_ALPHA, ONE_PHASE_BETA, TWO_PHASE
from . import systems
from .systems import FOUR_THIRDS_PI

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

MAX_STEPS = 10**9   # steps of one run: 128 GB of rows at N_r = 2, N_e = 3


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

    def check_steps(self, dt: float):
        """Raise ParameterError unless a run at step dt can build the
        profile's step grid: at most MAX_STEPS steps, each one long enough
        to move the time it starts from."""
        if self.duration / dt + len(self.times) > MAX_STEPS:
            raise ParameterError(f"a {self.duration:.3g} s profile takes over {MAX_STEPS:.0e} "
                                 f"steps of dt={dt:g} s")
        if math.ulp(max(abs(self.times[0]), abs(self.times[-1]))) >= dt:
            raise ParameterError(f"dt={dt:g} s is below the float spacing of the profile's "
                                 "times")

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


def cycle_profile(params: CellParameters, c_rate: float, cycles: int) -> LoadProfile:
    """Equal ampere-hour charge/discharge cycling, ``cycles`` full cycles,
    each a charge then a discharge."""
    if cycles < 1:
        raise ParameterError(f"need at least one cycle, not {cycles!r}")
    mag = params.current_for_c_rate(c_rate)
    half = 3600.0 / c_rate
    times, currents = [0.0], []
    for _ in range(cycles):
        for current in (-mag, mag):
            currents.append(current)
            times.append(times[-1] + half)
    currents.append(currents[-1])
    return LoadProfile(np.array(times), np.array(currents))


def synthetic_dynamic_profile(params: CellParameters, duration: float = 1370.0,
                              seed: int = 7, mean_c: float = 0.15) -> LoadProfile:
    """Drive-cycle shaped synthetic input: 10 s bursts of discharge up to
    1.5C with occasional regeneration, deterministic in the seed."""
    peak_c, segment_s = 1.5, 10.0
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
    return 0.5 * (upper * (s[:-1] / s[1:]) + lower * (s[1:] / s[:-1]))


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
    upper[i]).

    The positive weights w must make diag(w) A symmetric, so that
    diag(sqrt w) A diag(1/sqrt w) is symmetric and a symmetric
    eigensolver applies: the cell capacities of `systems.cell_geometry`, CV
    volumes for the FVM and r_i^2 h for the FDM (w_i A[i, i+1] = w_{i+1}
    A[i+1, i]).  The scaled bands are averaged with their transposes and
    the diagonal is kept.  LAPACK's dstevd takes the diagonal and the band:
    it is the divide-and-conquer solver dsyevd (numpy's
    eigh) ends in, after a reduction that leaves a tridiagonal matrix as it
    is, so the two agree bit for bit.  The Fortran-ordered eigenvectors are
    copied to C order, the layout numpy's eigh returns: the step's matrix
    products take another BLAS path, and round differently, on the other
    one.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                 weights: np.ndarray):
        s = np.sqrt(weights)
        self.lam, Q = _eigh(diag, symmetric_band(lower, upper, s))
        Q = np.ascontiguousarray(Q)
        # x -> eigen coords: the transpose of a C-ordered product, the layout
        # of Q.T * s
        self._to = (Q * s[:, None]).T
        self._back = Q / s[:, None]         # eigen coords -> x

    def step(self, x: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
        """x(h) = e^{Ah} x + phi(h) b with phi = integral of e^{As} ds."""
        lam = self.lam
        z = self._to @ x
        zb = self._to @ b
        lh = lam * h
        elh = np.exp(lh)
        # phi's series where lam h is too small for (e^{lam h} - 1) / lam
        small = np.abs(lh) < 1e-8
        phi = np.where(small, h * (1.0 + 0.5 * lh), (elh - 1.0) / np.where(small, 1.0, lam))
        return self._back @ (elh * z + phi * zb)


class LinearBlock:
    """One fixed-grid block dx/dt = A x + B I (the negative solid, the
    one-phase positive solid, the electrolyte), exact under zero-order-hold
    current from one eigendecomposition.

    A is a constant tridiagonal matrix, symmetric under the block's cell
    capacities w (CV volumes or r_i^2 h for the solids, eps dx for the
    electrolyte), so `AffinePropagator` diagonalizes it: A = V diag(lam)
    V^-1.  A row at offset tau from an anchor row x_a is
    x_a + Gamma(tau) (A x_a + B I), Gamma(tau) = integral of e^{As} ds over
    [0, tau] = V diag(phi) V^-1, phi = expm1(lam tau) / lam.  A is applied
    before Gamma; applied after it, it would act on the content Gamma
    spreads and lose the small increment to cancellation.  The block conserves its content: A 1 = 0 and w^T A = 0,
    so one mode has lam = 0 exactly, where phi = tau, with the uniform
    eigenvector and left eigenvector w: Gamma(tau) carries it as
    tau 1 w^T / sum(w).  That mode is taken in this closed form,
    tau (w . B I) / sum(w) in every cell: through V, the eigensolver's
    rounding-level lam and the rounding of A x_a would enter the content
    multiplied by tau.  The other modes' lam are bounded away from 0, where
    expm1(lam tau) / lam is accurate for every tau.
    """

    def __init__(self, sys: systems.AffineSystem, caps: np.ndarray):
        A, n = sys.A, len(caps)
        try:
            prop = AffinePropagator(np.diag(A, -1), np.diag(A), np.diag(A, 1), caps)
            lam, to, back = prop.lam, prop._to, prop._back
        except np.linalg.LinAlgError:
            # bands past the float range: every row is NaN, and a run's
            # first step raises BlowupError
            lam, to, back = np.full(n, np.nan), np.full((n, n), np.nan), np.full((n, n), np.nan)
        modes = np.arange(n) != np.argmax(lam)      # all but the conserved one
        self.A, self.B = A, sys.B
        self.lam, self._to, self._back = lam[modes], to[modes], back[:, modes].T
        self._rise = float(caps @ sys.B) / caps.sum()   # per ampere and second

    def rows(self, x: np.ndarray, current: float, taus: np.ndarray) -> np.ndarray:
        """The (K, n) rows at the K offsets taus > 0 from row x, at this
        current.  Each row's modes are summed in order by elementwise
        operations, not by a matrix product, whose rounding depends on the
        number of rows: so each row's bits are its own, however many rows
        are asked for with it.  The (rows, modes, cells) products are taken
        a bounded number of rows at a time."""
        z = self._to @ (self.A @ x + self.B * current)
        w = (np.expm1(taus[:, None] * self.lam) / self.lam * z)[:, :, None]
        k = max(1, 2**15 // self._back.size)        # rows per product
        dx = np.concatenate([(w[i:i + k] * self._back).sum(axis=1)
                             for i in range(0, len(taus), k)])
        return x + (dx + (taus * (self._rise * current))[:, None])

    def step(self, x: np.ndarray, current: float, h: float) -> np.ndarray:
        """The row at offset h from row x."""
        return self.rows(x, current, np.array([h]))[0]


# --- two-phase positive electrode steppers ------------------------------------
#
# A substep takes one member (a FullState, CellParameters) with its
# interface value g and core concentration (`systems.interface_values`, which
# its callers compute once for all the substeps they take), and returns its
# shell, r_p and closure.
#
# Each cell sum of the FVM substep, and each product with the shell's
# eigenvectors Q (z_k = sum_i Q_ik s_i x_i into eigen coordinates,
# c_i = sum_k Q_ik w_k / s_i back, s_i the square root of CV volume i), is a
# sequential sum in cell or mode order: at n <= 4 it is as accurate as a
# pairwise or a blocked sum (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., 2002, sec. 4.2), and its bits depend neither on a
# BLAS layout nor on the Python version (builtin sum() compensates since
# Python 3.12, and is not used).  Every cube is f * f * f, taken once per
# grid.  So only LAPACK's dstevd and numpy's exp decide the kernel's bits.

_UNROLLED = 512     # terms of the longest compiled dot; CPython nests one per term


@cache
def _float_dot(n: int):
    """a[0] * b[0] + a[1] * b[1] + ... + a[n - 1] * b[n - 1] of two
    sequences of n floats, added left to right as Python evaluates one
    expression: a sequential sum.  The expression is compiled once per n,
    as dataclasses compiles its methods; at n = 4 it takes a third of the
    time of reduce(add, map(mul, a, b)), which calls a function per term.
    Past _UNROLLED terms, whose expression would nest too deep for the
    compiler, the reduce form is taken."""
    if n > _UNROLLED:
        return lambda a, b: reduce(add, map(mul, a, b))
    return eval("lambda a, b: " + " + ".join(f"a[{i}] * b[{i}]" for i in range(n)))


def _float_cells(r_inner: float, R: float, u: list):
    """Faces, cubed faces and CV volumes of `systems.spherical_cells` over
    [r_inner, R] on Python floats, by its operations; u holds the unit
    faces."""
    w = R - r_inner
    faces = [r_inner + w * x for x in u]
    cubes = [f * f * f for f in faces]
    return faces, cubes, [FOUR_THIRDS_PI * (c1 - c0) for c0, c1 in zip(cubes, cubes[1:])]


def _fvm_two_phase_substep(state: FullState, current: float, h: float,
                           params: CellParameters, N_r: int, g: float, c_core: float):
    """One conservative substep on Python floats; returns (shell, r_p,
    closure_rel).  The shell's bands and forcing of `systems.solid_block`,
    the exact step in the eigenbasis of the volume-symmetrized bands, the
    front (`_front_move`), the conservative remap of the swept annulus and
    the old shell onto the new grid, and the closure; each cell sum a
    left-to-right sum (`_float_dot`, reduce), numpy only for LAPACK's
    dstevd and the exp of lam h."""
    R = params.R_s_p
    r_p = state.r_p
    if not 0.0 < r_p < R:
        raise PhaseDomainError(f"r_p={r_p!r} outside (0, R_s_p); transition regimes first")
    u = systems.unit_faces(N_r).tolist()
    faces, cubes, vols = _float_cells(r_p, R, u)
    x = state.pos.tolist()
    dot = _float_dot(N_r)

    # the shell's bands, forcing and exact step
    D = params.D_s_p
    dr = (R - r_p) / N_r
    dr_vols = [dr * v for v in vols]
    flows = [D * (4.0 * math.pi * f * f) for f in faces[1:-1]]
    w_lo = list(map(truediv, flows, dr_vols[1:]))
    w_hi = list(map(truediv, flows, dr_vols))
    diag = [0.0 - w_hi[0], *[(0.0 - lo) - hi for lo, hi in zip(w_lo, w_hi[1:])],
            0.0 - w_lo[-1]]
    s = [math.sqrt(v) for v in vols]
    band = [0.5 * (hi * (s0 / s1) + lo * (s1 / s0))
            for lo, hi, s0, s1 in zip(w_lo, w_hi, s, s[1:])]
    if current != 0.0:
        inner = 2.0 * D * (4.0 * math.pi * r_p * r_p) / dr_vols[0]
        diag[0] -= inner
    lam, Q = _eigh(diag, band)
    lh = lam * h
    e = np.exp(lh).tolist()
    modes = Q.T.tolist()
    sx = list(map(mul, s, x))
    if current != 0.0:
        sb_0 = s[0] * (inner * g)
        sb_n = s[-1] * (4.0 * math.pi * faces[-1] * faces[-1] / (
            vols[-1] * params.F * params.A_cell * params.L_p * params.a_s("pos")) * current)
        w = [e_k * dot(q, sx)
             + (h * (1.0 + 0.5 * x_k) if abs(x_k) < 1e-8 else (e_k - 1.0) / l_k)
             * (q[0] * sb_0 + q[-1] * sb_n)
             for e_k, x_k, l_k, q in zip(e, lh.tolist(), lam.tolist(), modes)]
    else:
        w = [e_k * dot(q, sx) for e_k, q in zip(e, modes)]
    c_new = [dot(q, w) / s_i for q, s_i in zip(Q.tolist(), s)]
    shell_old = dot(vols, x)

    # lithium delivered to the front: surface influx minus shell gain
    q_surf = systems.molar_flux_density(params, "pos", current) * 4.0 * math.pi * (R * R)
    spill = q_surf * h - dot(vols, list(map(sub, c_new, x)))
    if current == 0.0:
        shift = (shell_old - dot(vols, c_new)) / reduce(add, vols)
        return np.array([c + shift for c in c_new]), r_p, 0.0
    r_new, r_lo, annulus_conc, core_vol, core_vol_new = _front_move(
        r_p, R, spill, g, c_core, state.core_conc)

    # the remap; an outward front sweeps no annulus, and a last new face past
    # the old grid's is taken at it
    new_faces, new_cubes, vols_new = _float_cells(r_new, R, u)
    values = c_new
    if r_lo != r_p:
        faces, cubes, values = [r_lo, *faces], [new_cubes[0], *cubes], [annulus_conc, *c_new]
    w_old = [FOUR_THIRDS_PI * c for c in cubes]
    cum = [0.0, *accumulate(map(mul, values, map(sub, w_old[1:], w_old)))]
    hi, interior = faces[-1], faces[1:-1]
    cum_new = []
    for r, r3 in zip(new_faces, new_cubes):
        if r >= hi:
            r, r3 = hi, cubes[-1]
        i = bisect.bisect_right(interior, r)
        cum_new.append(cum[i] + values[i] * (FOUR_THIRDS_PI * r3 - w_old[i]))
    shell = list(map(truediv, map(sub, cum_new[1:], cum_new), vols_new))

    # the closure
    expected = shell_old + core_vol * state.core_conc + q_surf * h
    actual = core_vol_new * state.core_conc + dot(vols_new, shell)
    residual = expected - actual
    shift = residual / reduce(add, vols_new)
    return (np.array([c + shift for c in shell]), r_new,
            abs(residual) / max(abs(expected), 1e-300))


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


def _front_ok(r_old, r_new, R):
    """Whether a substep moves the front by at most a quarter of the shell's
    width; a larger move halves the substep."""
    return abs(r_new - r_old) <= 0.25 * (R - r_old)


# the errors a two-phase substep raises on a member's data (a front outside the
# particle, an overflow, a failed eigensolver); the step taken alone
# (`_step_alone`) raises the member's own
_SUBSTEP_ERRORS = (CsespmError, ArithmeticError, ValueError)


def _keeps_substep(r_old, post: FullState, current: float, params, cfg: PhaseConfig):
    """Whether a two-phase step is its one substep, which took the front
    from r_old to the state post: the front moves by at most a quarter of
    the shell (`_front_ok`) and no transition is due (every margin < 0; a
    NaN front already fails `_front_ok`).  Else the step must be taken
    alone, through `Integrator.advance_with_events`, which halves it or
    finds the transition."""
    if not _front_ok(r_old, post.r_p, params.R_s_p):
        return False
    for kind in transition_kinds(TWO_PHASE, current):
        if not transition_margin(kind, post, current, params, cfg) < 0.0:
            return False
    return True


def _fdm_two_phase_substep(state: FullState, current: float, h: float,
                           params: CellParameters, N_r: int, g, c_core):
    """Naive collocated step of the FDM two-phase system (no remap): the
    shell's exact step on its frozen grid, then the front's."""
    blk, g_row = systems.shell_block(params, state.r_p, current, N_r, g, "fdm")
    b = np.zeros(N_r)
    b[0] = g_row
    b[-1] = blk.surface * current
    c_new = AffinePropagator(blk.lower, blk.diag, blk.upper, blk.caps).step(state.pos, b, h)
    k, k0 = (systems.front_rate(params, state.r_p, N_r, g, c_core) if current != 0.0
             else (0.0, 0.0))
    rdot_mid = k * 0.5 * (state.pos[0] + c_new[0]) + k0
    R = params.R_s_p
    r_new = min(max(state.r_p + h * rdot_mid, 1e-9 * R), (1.0 - 1e-9) * R)
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
        self.neg, self.pos1p = (
            LinearBlock(systems.build_one_phase_solid_system(params, e, disc.N_r, disc.scheme),
                        systems.cell_geometry(0.0, params.R_s(e), disc.N_r, disc.scheme)[2])
            for e in ("neg", "pos"))
        dx, eps, _ = systems.electrolyte_geometry(params, disc.N_e)
        self.elec = LinearBlock(systems.build_electrolyte_system(params, disc.N_e), eps * dx)
        self.max_closure = 0.0
        self.substeps = 0       # two-phase substeps taken, rejected front steps included
        # numerical decisions of a run, see records.tally
        self.counters = dict.fromkeys(("ocp_extrapolations", "event_cap_hits",
                                       "front_floor_accepts", "bisection_probes",
                                       "front_halvings"), 0)

    def advance(self, state: FullState, current: float, h: float) -> FullState:
        """Pure step of length h at constant current (no event handling) of
        the positive particle, all a transition margin reads: the state's
        other arrays are shared, never written, and may be None, since the
        time loop writes the negative and electrolyte rows a block at a time
        (`LinearBlock.rows`).  A two-phase front step that moves the front
        too far is halved ("front_halvings"), down to a floor of 1e-6 h,
        where the move is accepted ("front_floor_accepts") unless it starts
        from the radial clip (1e-9 R or (1 - 1e-9) R): a front that the
        floor must move off the clip it was driven onto bounces between
        them, each time for 1e-6 h, so the step raises CsespmError."""
        new = FullState(state.neg, state.pos, state.elec, state.regime, state.r_p,
                        state.core_conc, state.core_phase, state.direction)
        if state.regime != TWO_PHASE:
            new.pos = self.pos1p.step(state.pos, current, h)
            return new

        substep = (_fvm_two_phase_substep if self.disc.scheme == "fvm"
                   else _fdm_two_phase_substep)
        g, c_core = systems.interface_values(self.params, state.core_phase, state.direction)
        R = self.params.R_s_p
        remaining = h
        while remaining > 1e-12:
            hs = remaining
            while True:
                shell, r_new, closure = substep(new, current, hs, self.params, self.disc.N_r,
                                                g, c_core)
                self.substeps += 1
                if _front_ok(new.r_p, r_new, R):
                    break
                if hs <= 1e-6 * h:
                    if not 1e-9 * R < new.r_p < (1.0 - 1e-9) * R:
                        raise CsespmError(
                            f"a {current:.3g} A front step of {hs:.3g} s moves the front "
                            f"from the radial clip at {new.r_p:.3g} m to {r_new:.3g} m")
                    tally(self.counters, "front_floor_accepts", 1, log,
                          "front move %.3g -> %.3g m accepted at the substep floor %.3g s",
                          new.r_p, r_new, hs)
                    break
                hs *= 0.5
                self.counters["front_halvings"] += 1
            new.pos = shell
            new.r_p = r_new
            self.max_closure = max(self.max_closure, closure)
            remaining -= hs
        return new

    def advance_with_events(self, s: FullState, current: float, t: float, h: float,
                            events: list) -> FullState:
        """Step of length h from time t with phase transitions localized by
        bisection and appended to ``events``; past 8 events in one step the
        rest is advanced without detection (tallied as "event_cap_hits").
        The bisection halves its bracket down to solver.event_tol, or until
        the bracket's ends are adjacent floats; each probe counts as
        "bisection_probes"."""
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
                    if mid == lo or mid == hi:      # adjacent floats: nothing to halve
                        break
                    self.counters["bisection_probes"] += 1
                    if transition_margin(kind, self.advance(s, current, mid),
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


@dataclass
class _Grid:
    """The steps of a run of a profile at one dt: each step's start time
    and length, and its row's time, current and charge, accumulated step by
    step from each segment's start.  A block of steps runs on into the next
    segment only when that one has the same current and starts where the
    last step ended, so it takes the same steps: ``begins`` maps each step
    where a block must begin to the (t0, current) of the segments starting
    there, whose current may flip the direction."""

    starts: array
    hs: array
    times: array
    currents: array
    charges: array
    begins: dict
    bounds: list        # the steps where a block must end, ascending

    def offsets(self, a: int, s: int, b: int) -> np.ndarray:
        """The times of rows s + 1..b from the start of step a, as the
        grid's times give them (never accumulated), so every split of the
        rows into blocks takes the same offsets."""
        return np.frombuffer(self.times)[s:b] - self.starts[a]

    def first(self, s: int) -> int:
        """The first step of the run of segments at one current that step s
        belongs to."""
        return self.bounds[bisect.bisect_right(self.bounds, s) - 1]


def _step_grid(profile: LoadProfile, dt: float) -> _Grid:
    profile.check_steps(dt)
    g = _Grid(*(array("d") for _ in range(5)), {}, [])
    q_total, last = 0.0, None
    for t0, t1, current in profile.segments():
        if current != last or not g.times or t0 != g.times[-1]:
            g.begins.setdefault(len(g.hs), []).append((t0, current))
        last = current
        t = t0
        while t < t1 - 1e-9:
            h = min(dt, t1 - t)
            g.starts.append(t)
            g.hs.append(h)
            t += h
            q_total += current * h
            g.times.append(t)
            g.currents.append(current)
            g.charges.append(q_total)
    g.bounds = sorted(set(g.begins) | {len(g.hs)})
    return g


def _row_store(members: int, grid: _Grid, disc: DiscretizationConfig) -> dict:
    """The rows of ``members`` runs of one step grid, the initial row and
    one per step, member first: the columns time, current, charge, r_p,
    core_conc, voltage, SOC_p, SOC_n; the neg/pos/elec concentrations; the
    run's max_closure and substep count up to the row."""
    size = 1 + len(grid.hs)
    store = {k: np.empty((members, size, n))
             for k, n in (("neg", disc.N_r), ("pos", disc.N_r), ("elec", disc.N_e))}
    store["cols"] = np.empty((members, 8, size))
    store["closure"] = np.empty((members, size))
    store["substeps"] = np.empty((members, size))
    store["grid"] = grid
    return store


class _Run:
    """One run of `simulate`: its integrator, events, output map and its
    rows, one per accepted step, in its place of a row store (_row_store).
    Its change log holds (first row, (regime, direction, core_phase),
    events so far, counters) whenever one of the three changes: each row is
    labelled by the last entry at or before it, and a run stopped at a row
    rolls back to that entry.  The rows and the log are the run's only
    record of its state between steps: the state a step starts from is
    its last row, labelled by the log's last entry (`row_state`); a
    two-phase stretch reads its first row so and steps on from the
    substep each row was written from (`_two_phase_rows`).  Its
    anchor is the row the positive particle's one-phase rows are taken
    from: the first of the run of segments at one current, or the row after
    the last step taken alone, whichever is later; so the rows do not
    depend on where blocks end."""

    def __init__(self, profile: LoadProfile, init: FullState, params: CellParameters,
                 disc: DiscretizationConfig, solver: SolverConfig, ocp: OcpSet | None,
                 phase_cfg: PhaseConfig | None, store: dict, member: int):
        self.member = member
        self.ocp = ocp or synthetic_ocp_set(params)
        self.integ = Integrator(params, disc, solver, phase_cfg)
        cutoffs = solver.cutoffs_enabled
        self.v_lo = solver.v_min if cutoffs and solver.v_min is not None else -np.inf
        self.v_hi = solver.v_max if cutoffs and solver.v_max is not None else np.inf
        self.cols, self.neg, self.pos, self.elec, self.closure, self.substeps = (
            store[k][member] for k in ("cols", "neg", "pos", "elec", "closure", "substeps"))
        self.grid = grid = store["grid"]
        self.events, self.log = [], []
        self.status = "completed"
        self.done = 0           # rows the output map has seen
        self.cols[:3, 0] = profile.times[0], profile.currents[0], 0.0
        self.cols[:3, 1:] = grid.times, grid.currents, grid.charges
        self.neg[0], self.elec[0] = init.neg, init.elec
        self.put(0, init)
        self.n = 1
        self.anchor = 0

    def row_state(self, i: int) -> FullState:
        """The positive particle at row i, labelled by the change log's last
        entry, as a step from row i starts from it (its negative and
        electrolyte arrays None: the server writes those rows a block at a
        time)."""
        regime, direction, core_phase = self.log[-1][1]
        return FullState(None, self.pos[i], None, regime, float(self.cols[3, i]),
                         float(self.cols[4, i]), core_phase, direction)

    def start(self, s: int):
        """Start a block at step s from the last row: the profile segments
        starting there take it into their current's direction, inside
        two-phase by a sign flip, and the rows from s + 1 on are labelled as
        the state."""
        state = self.row_state(self.n - 1)
        for t0, current in self.grid.begins.get(s, ()):
            newdir = systems.direction_for_current(current, state.direction)
            if newdir != state.direction and state.two_phase:
                state, ev = apply_sign_flip(state, current, t0)
                self.events.append(ev)
            else:
                state.direction = newdir
        self.anchor = max(self.anchor, self.grid.first(s))
        self.begin(s + 1, state)

    def begin(self, i: int, s: FullState):
        """From row i on, the rows are labelled as state s and logged with
        the run's events and counters as they are now."""
        entry = (s.regime, s.direction, s.core_phase), len(self.events), self.integ.counters
        if not self.log or self.log[-1][1:] != entry:
            self.log.append((i, entry[0], entry[1], dict(entry[2])))

    def put(self, i: int, s: FullState):
        """Row i of the positive particle: the state s of a step (its time,
        current and charge are written at the start, its negative and
        electrolyte rows a block at a time)."""
        self.cols[3, i] = s.r_p
        self.cols[4, i] = s.core_conc
        self.pos[i] = s.pos
        self.closure[i] = self.integ.max_closure
        self.substeps[i] = self.integ.substeps
        self.begin(i, s)

    def label_rows(self, a: int, b: int) -> list:
        """The labels of rows a..b-1."""
        out = []
        ends = [entry[0] for entry in self.log[1:]] + [b]
        for (i, label, _, _), end in zip(self.log, ends):
            out += [label] * (min(end, b) - max(i, a))
        return out

    def stop_at(self, k: int):
        """Keep rows 0..k, and roll the run's events and counters back to
        what they were when row k was recorded."""
        while self.log[-1][0] > k:
            self.log.pop()
        _, _, n_events, kept = self.log[-1]
        del self.events[n_events:]
        counters = self.integ.counters
        counters.clear()
        counters.update(kept)
        self.n = self.done = k + 1

    def output_map(self, a: int, b: int) -> OutputSnapshot:
        regime, direction, _ = zip(*self.label_rows(a, b))
        cols = self.cols
        states = FullState(self.neg[a:b], self.pos[a:b], self.elec[a:b], np.array(regime),
                           cols[3, a:b], cols[4, a:b], None, np.array(direction))
        return cell_voltage(states, cols[1, a:b], self.integ.params, self.ocp,
                            counters=self.integ.counters)

    def settle(self) -> bool:
        """Output map of the pending rows; True when one crosses a cutoff,
        which stops the run there."""
        a, b = self.done, self.n
        if a == b:
            return False
        self.done = b
        try:
            snap, error = self.output_map(a, b), None
        except SaturationError as exc:
            snap, error = exc.before, exc
        cols = self.cols
        m = a + len(snap.V_cell)
        cols[5:, a:m] = snap.V_cell, snap.SOC_p, snap.SOC_n
        hits = np.flatnonzero((cols[5, a:m] < self.v_lo) | (cols[5, a:m] > self.v_hi))
        hits = hits[hits + a > 0]     # the initial row is not tested
        if hits.size:
            k = a + int(hits[0])
            self.status = "cutoff_low" if cols[5, k] < self.v_lo else "cutoff_high"
            # undo what the steps after row k did, and recount its chunk
            self.stop_at(k)
            self.output_map(a, self.n)
            return True
        if error is not None:
            raise error
        return False

    def result(self) -> SimulationResult:
        params, disc, n = self.integ.params, self.integ.disc, self.n
        time, current, charge, r_p, core_conc, voltage, soc_p, soc_n = self.cols[:, :n]
        neg_c, pos_c, elec_c = self.neg[:n], self.pos[:n], self.elec[:n]
        regime, direction, core_phase = (list(x) for x in zip(*self.label_rows(0, n)))
        dx, eps, _ = systems.electrolyte_geometry(params, disc.N_e)
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
            drift_rel=None, events=self.events, status=self.status,
            meta={"R_s_p": params.R_s_p, "scheme": disc.scheme, "N_r": disc.N_r,
                  "N_e": disc.N_e, "split": (systems.electrolyte_third(disc.N_e),) * 3,
                  "max_closure": float(self.closure[n - 1]),
                  "counters": dict(self.integ.counters,
                                   two_phase_substeps=int(self.substeps[n - 1]))})
        audit = mass_audit(result, params)
        result.drift_rel = np.maximum(np.maximum(audit.res_pos_rel, audit.res_neg_rel),
                                      audit.res_elec_rel)
        return result


def _blowup(grid: _Grid, k: int) -> BlowupError:
    """The error of a non-finite state after step k."""
    t = grid.times[k]
    return BlowupError(f"non-finite state at t={t:.3f}s", last_good_time=t - grid.hs[k])


def _fixed_rows(run: _Run, s: int, b: int) -> int:
    """Rows s + 1..b of a run's negative and electrolyte blocks, in closed
    form from the first row of their run of segments at one current (they
    never read the positive particle); returns the first step whose row is
    not finite, else b."""
    integ, grid = run.integ, run.grid
    a = grid.first(s)
    current, taus = grid.currents[s], grid.offsets(a, s, b)
    bad = b - s
    for rows, block in ((run.neg, integ.neg), (run.elec, integ.elec)):
        rows[s + 1:b + 1] = block.rows(rows[a], current, taus)
        bad = min(bad, _first_nonfinite(rows[s + 1:b + 1]))
    return s + bad


def _finite(pos: np.ndarray, r_p: float) -> bool:
    """Whether a positive particle's concentrations and front are finite, by
    one sum: concentrations are bounded far below overflow, so the sum of a
    finite particle is finite and any NaN or inf propagates into it; Python
    sums of these few values beat numpy reductions."""
    return math.isfinite(sum(pos.tolist()) + r_p)


def _first_nonfinite(rows: np.ndarray) -> int:
    """The index of the first of (K, n) rows that holds a NaN or an
    infinity, else K."""
    if math.isfinite(rows.sum()):
        return len(rows)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    return int(bad[0]) if bad.size else len(rows)


def _one_phase_rows(run: _Run, k: int, end: int):
    """Steps k..end - 1 of a run's one-phase positive particle from row k:
    the rows in closed form from the run's anchor row (`LinearBlock.rows`)
    before the first whose transition margin is >= 0, r_p, core_conc,
    closure and substep count copied from row k, and that step, from the
    row before it, through `_step_alone`.  Returns (the next step, None),
    or (k', (step, error)) when a step raises or leaves a non-finite
    state."""
    integ, grid, a = run.integ, run.grid, run.anchor
    regime, current = run.log[-1][1][0], grid.currents[k]
    pos = integ.pos1p.rows(run.pos[a], current, grid.offsets(a, k, end))
    n = bad = _first_nonfinite(pos)
    rows = FullState(None, pos[:n], None, regime)
    for kind in transition_kinds(regime, current):
        hits = np.flatnonzero(transition_margin(kind, rows, current, integ.params,
                                                integ.phase_cfg) >= 0.0)
        n = min(n, int(hits[0])) if hits.size else n
    j = k + n
    run.pos[k + 1:j + 1] = pos[:n]
    run.cols[3:5, k + 1:j + 1] = run.cols[3:5, k:k + 1]
    run.closure[k + 1:j + 1] = run.closure[k]
    run.substeps[k + 1:j + 1] = run.substeps[k]
    if j == end:
        return j, None
    if n == bad:
        return j, (j, _blowup(grid, j))
    return _step_alone(run, j)


def _two_phase_rows(run: _Run, k: int, end: int):
    """Steps k..end - 1 of a run's two-phase positive particle from row k,
    read once: each step one substep of the module's kernel, kept unless
    `_keeps_substep` or `_finite` rejects it, and row k + 1 written from it
    (pos, r_p, core_conc, the running max_closure and substep count).  The
    first step not kept, or whose data fails its substep, is taken through
    `_step_alone`, which ends the stretch.  Returns (the next step, None),
    or (k', (step, error)) when a step raises or leaves a non-finite
    state."""
    integ, grid = run.integ, run.grid
    params, N_r, cfg = integ.params, integ.disc.N_r, integ.phase_cfg
    substep = (_fvm_two_phase_substep if integ.disc.scheme == "fvm"
               else _fdm_two_phase_substep)
    state = run.row_state(k)
    current, closure, count = grid.currents[k], float(run.closure[k]), int(run.substeps[k])
    try:
        g, c_core = systems.interface_values(params, state.core_phase, state.direction)
        while k < end:
            r_p = state.r_p
            shell, r_new, step_closure = substep(state, current, grid.hs[k], params, N_r,
                                                 g, c_core)
            state.pos, state.r_p = shell, r_new
            if not _keeps_substep(r_p, state, current, params, cfg):
                break
            if not _finite(shell, r_new):
                return k, (k, _blowup(grid, k))
            closure, count = max(closure, step_closure), count + 1
            run.pos[k + 1] = shell
            run.cols[3, k + 1] = r_new
            run.cols[4, k + 1] = state.core_conc
            run.closure[k + 1] = closure
            run.substeps[k + 1] = count
            k += 1
        else:
            return k, None
    except _SUBSTEP_ERRORS:
        pass        # step k, taken alone, raises its own error there
    return _step_alone(run, k)


def _step_alone(run: _Run, k: int):
    """Step k of a run's positive particle from row k (`_Run.row_state`),
    through `Integrator.advance_with_events`, its max_closure and substep
    count seeded from the row (a two-phase stretch writes them to its rows
    only), and its row k + 1; returns (k + 1, None), or (k, (k, error))
    when the step raises or leaves a non-finite state."""
    grid, integ = run.grid, run.integ
    integ.max_closure, integ.substeps = float(run.closure[k]), int(run.substeps[k])
    try:
        post = integ.advance_with_events(run.row_state(k), grid.currents[k], grid.starts[k],
                                         grid.hs[k], run.events)
    except Exception as exc:
        return k, (k, exc)
    if not _finite(post.pos, post.r_p):
        return k, (k, _blowup(grid, k))
    run.put(k + 1, post)
    run.anchor = k + 1
    return k + 1, None


def _serve(runs: list, s: int, b: int) -> dict:
    """Steps s..b-1 of each run, one run at a time: its fixed-grid rows
    (`_fixed_rows`), then its positive particle's up to the first step
    whose fixed-grid row is not finite, its one-phase stretches in closed
    form (`_one_phase_rows`) and its two-phase stretches one substep a step
    (`_two_phase_rows`).  Returns {run: (step, error)} of the runs an error
    stopped."""
    stopped = {}
    for run in runs:
        bad = _fixed_rows(run, s, b)
        k, end, error = s, min(bad + 1, b), None
        while k < end and error is None:
            if run.log[-1][1][0] != TWO_PHASE:
                k, error = _one_phase_rows(run, k, end)
            else:
                k, error = _two_phase_rows(run, k, end)
        if error is None and bad < b:
            error = bad, _blowup(run.grid, bad)
        if error is not None:
            stopped[run] = error
    return stopped


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
    outcome, = simulate_many(profile, [init], [params], disc, solver, ocp, phase_cfg)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def simulate_many(profile: LoadProfile, inits: list[FullState],
                  params: list[CellParameters], disc: DiscretizationConfig,
                  solver: SolverConfig | None = None, ocp: OcpSet | None = None,
                  phase_cfg: PhaseConfig | None = None) -> list:
    """`simulate` of B members (one initial state and parameter set each) on
    one profile: the time loop of one run (_Run) per member.  Each item of
    the returned list is the member's SimulationResult, bit for bit the one
    `simulate` returns for it, or the exception its run raised, in set-up
    too.

    The runs share one step grid and take the same blocks of it: the rest
    of a run of profile segments at one current, which with cutoffs on also
    ends at the next _CHUNK-row chunk of the output map, so at most one
    chunk is integrated past a stop.  One server call fills a block's rows
    of every live run (_serve)."""
    solver = solver or SolverConfig()
    grid = _step_grid(profile, solver.dt)
    store = _row_store(len(inits), grid, disc)
    outcomes: list = [None] * len(inits)
    runs = []
    for i, (x0, p) in enumerate(zip(inits, params)):
        try:
            runs.append(_Run(profile, x0, p, disc, solver, ocp, phase_cfg, store, i))
        except Exception as exc:
            outcomes[i] = exc

    def end(run: _Run, error: Exception | None = None):
        """The outcome of a run that its last step or an error ended: a row
        past a cutoff in the pending rows stops it normally; else the error,
        and an error raised on the way keeps it as its context."""
        runs.remove(run)
        try:
            stopped = run.settle()
            outcomes[run.member] = run.result() if stopped or error is None else error
        except Exception as exc:
            if error is not None:
                exc.__context__ = error
            outcomes[run.member] = exc

    s = done = 0        # the next step; the rows the output map has seen
    while runs:
        for run in runs:
            run.start(s)
        if s == len(grid.hs):
            break
        b = grid.bounds[bisect.bisect_right(grid.bounds, s)]
        if solver.cutoffs_enabled:
            b = min(b, done + _CHUNK - 1)       # row b ends the chunk
        stopped = _serve(runs, s, b)
        for run in list(runs):
            k, error = stopped.get(run, (b, None))
            run.n = k + 1
            if error is not None:
                end(run, error)
        s = b
        if solver.cutoffs_enabled and s + 1 - done == _CHUNK:
            done = s + 1
            for run in list(runs):
                try:
                    if run.settle():
                        end(run)
                except Exception as exc:
                    end(run, exc)
    for run in list(runs):
        end(run)
    return outcomes


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
