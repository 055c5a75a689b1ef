"""Time integration of the coupled solid/electrolyte/moving-boundary model.

Current profiles are zero-order-hold, so the current is constant inside
every integrator step.  The three fixed-grid subsystems are linear
time-invariant and are advanced with the configured explicit method (RK4 or
forward Euler, sub-stepped inside their stability limit) or with the exact
matrix-exponential propagator.  Subsystems whose spectrum makes explicit
stepping impractical at the configured dt (the identified C/2 negative
diffusivity is one) fall back to the exact propagator automatically.
Because the blocks are time-invariant, the explicit substeps of one step
compose to a fixed affine map of the step length; that map is built once
per step length, cached, and applied with two matrix-vector products.

The two-phase positive block is integrated with a conservative
diffuse/convert/remap scheme regardless of the configured method: shell
concentrations advance exactly on the frozen grid, the lithium delivered to
the interface converts core volume through the Stefan balance, and the
swept annulus is remapped onto the new shell grid.  Explicit stepping is
unusable here: the shell diffusion eigenvalues scale like D/dr^2 and exceed
1e5 1/s right after two-phase entry, and naive collocation of the
moving-grid ODEs leaks mass through the grid motion.  The conservative
formulation integrates the same governing equations and keeps the
per-electrode lithium balance at machine precision, which the mass audit
checks.  The FDM scheme is integrated without the conservative remap on
purpose (it is the non-conservative reference).
"""
from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import BlowupError, ConfigError, ParameterError
from .ocp import OcpSet, synthetic_ocp_set
from .output import cell_voltage
from .params import CellParameters, DiscretizationConfig
from .phase import (PhaseConfig, annulus_remap, apply_sign_flip,
                    detect_transition, enter_two_phase, exit_two_phase,
                    transition_margin)
from .states import FullState, ONE_PHASE_ALPHA, ONE_PHASE_BETA, TWO_PHASE
from . import systems

log = logging.getLogger(__name__)

# widest stable real-axis step scaled by a safety factor
_STABILITY_LIMIT = {"rk4": 2.2, "euler": 1.6}


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step integrator settings."""

    dt: float = 1.0
    method: str = "rk4"             # 'rk4' | 'euler' | 'exact'
    mass_tol: float = 1e-10
    event_tol: float = 1e-3         # bisection tolerance on event times [s]
    v_min: float | None = 2.0
    v_max: float | None = 3.65
    cutoffs_enabled: bool = True
    max_explicit_substeps: int = 64
    record_every: int = 1           # keep every n-th step in the result

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ParameterError("dt must be positive")
        if self.method not in ("rk4", "euler", "exact"):
            raise ParameterError("method must be 'rk4', 'euler' or 'exact'")


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

    def current_at(self, t: float) -> float:
        idx = np.searchsorted(self.times, t, side="right") - 1
        idx = min(max(idx, 0), len(self.currents) - 2)
        return float(self.currents[idx])

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time_s", "current_A"])
            for t, i in zip(self.times, self.currents):
                w.writerow([f"{t:.10g}", f"{i:.10g}"])

    @classmethod
    def from_csv(cls, path) -> "LoadProfile":
        times, currents = read_numeric_csv(path, ("time_s", "current_A")).T
        return cls(times, currents)


def read_numeric_csv(path, header: tuple[str, ...]) -> np.ndarray:
    """Data rows of a CSV file as a (rows, len(header)) float array.

    The first row must start with ``header`` (case-insensitive); columns
    past it are ignored and blank lines skipped.  A bad header, a row that
    is short or not numeric, or no data row raises ConfigError naming the
    file (and the line).
    """
    rows = list(csv.reader(io.StringIO(Path(path).read_text())))
    n = len(header)
    if not rows or [c.strip().lower() for c in rows[0][:n]] != [h.lower() for h in header]:
        raise ConfigError(f"{path}: expected header {','.join(header)!r}")
    data = []
    for line, r in enumerate(rows[1:], start=2):
        if not r:
            continue
        try:
            values = [float(x) for x in r[:n]]
        except ValueError:
            values = []
        if len(values) < n:
            raise ConfigError(f"{path}, line {line}: expected {n} numbers, "
                              f"got {','.join(r)!r}")
        data.append(values)
    if not data:
        raise ConfigError(f"{path}: no data rows after the header")
    return np.array(data)


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

class AffinePropagator:
    """Exact step of dx/dt = A x + b for constant A.

    FVM matrices are similar to symmetric ones under sqrt-volume weighting,
    so eigh applies; general matrices go through a complex eigenbasis with a
    dense-expm fallback when the basis is ill conditioned.
    """

    def __init__(self, A: np.ndarray, weights: np.ndarray | None = None):
        self.A = np.asarray(A, dtype=float)
        self._fallback = False
        if weights is not None:
            s = np.sqrt(np.asarray(weights, dtype=float))
            As = self.A * (s[:, None] / s[None, :])
            lam, Q = np.linalg.eigh(0.5 * (As + As.T))
            self.lam = lam
            self._to = Q.T * s[None, :]        # x -> eigen coords
            self._back = Q / s[:, None]        # eigen coords -> x
        else:
            lam, V = np.linalg.eig(self.A)
            try:
                if np.linalg.cond(V) > 1e12:
                    raise np.linalg.LinAlgError("ill-conditioned eigenbasis")
                self.lam = lam
                self._to = np.linalg.inv(V)
                self._back = V
            except np.linalg.LinAlgError:
                self._fallback = True
        if self._fallback:
            self.spectral_bound = 2.0 * float(np.max(np.abs(self.A.diagonal())))
        else:
            self.spectral_bound = float(np.max(np.abs(self.lam.real)))

    def step(self, x: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
        """x(h) = e^{Ah} x + phi(h) b with phi = integral of e^{As} ds."""
        if self._fallback:
            n = len(x)
            M = np.zeros((2 * n, 2 * n))
            M[:n, :n] = self.A * h
            M[:n, n:] = np.eye(n) * h
            E = scipy.linalg.expm(M)
            return E[:n, :n] @ x + E[:n, n:] @ b
        lam = self.lam
        z = self._to @ x
        zb = self._to @ b
        lh = lam * h
        elh = np.exp(lh)
        small = np.abs(lh) < 1e-8
        lam_safe = np.where(small, 1.0, lam)
        phi = np.where(small, h * (1.0 + 0.5 * lh), (elh - 1.0) / lam_safe)
        out = self._back @ (elh * z + phi * zb)
        return out.real if np.iscomplexobj(out) else out


def _explicit_step_map(A: np.ndarray, h: float, n_sub: int, method: str):
    """Increment form (D, N) of n_sub explicit substeps of length h/n_sub.

    One substep of dx/dt = A x + b is x' = x + E x + Q b, with E = hs A,
    Q = hs I for Euler and, with Z = hs A, E = P(Z) - I = Z + Z^2/2 + Z^3/6
    + Z^4/24 = A Q, Q = hs (I + Z/2 + Z^2/6 + Z^3/24) for RK4.  The composed
    step is x(h) = x + D x + N b.  D and N are accumulated as increments
    rather than formed as P^n - I, which would lose the small increment to
    cancellation and show up as mass drift.
    """
    n = A.shape[0]
    hs = h / n_sub
    eye = np.eye(n)
    if method == "euler":
        E, Q = hs * A, hs * eye
    else:
        Z = hs * A
        Q = hs * (eye + Z @ (eye / 2.0 + Z @ (eye / 6.0 + Z / 24.0)))
        E = A @ Q
    D = np.zeros((n, n))
    N = np.zeros((n, n))
    for _ in range(n_sub):
        D = D + E @ (eye + D)
        N = N + E @ N + Q
    return D, N


class _LtiBlock:
    """One constant-coefficient subsystem with its integrator strategy.

    Explicit methods take n_sub = ceil(h rho / limit) substeps inside the
    stability limit.  The block is linear and time invariant, so those
    substeps compose to one affine map per step length h; the map is built
    on first use and cached, a few step lengths at a time (event bisection
    asks for many lengths that never recur).
    """

    _CACHE_SIZE = 8

    def __init__(self, name, sys: systems.AffineSystem, cfg: SolverConfig,
                 weights=None):
        self.name = name
        self.sys = sys
        self.cfg = cfg
        self.prop = AffinePropagator(sys.A, weights=weights)
        self._warned = False
        self._maps: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def n_substeps(self, h: float) -> int:
        limit = _STABILITY_LIMIT[self.cfg.method]
        return max(1, int(math.ceil(h * self.prop.spectral_bound / limit)))

    def advance(self, x: np.ndarray, current: float, h: float) -> np.ndarray:
        b = self.sys.B * current
        if self.sys.G is not None:
            b = b + self.sys.G
        if self.cfg.method == "exact":
            return self.prop.step(x, b, h)
        step_map = self._maps.get(h)
        if step_map is None:
            n_sub = self.n_substeps(h)
            if n_sub > self.cfg.max_explicit_substeps:
                if not self._warned:
                    log.info("subsystem %s too stiff for %s at dt=%.3g (needs %d substeps); "
                             "using the exact propagator", self.name, self.cfg.method, h, n_sub)
                    self._warned = True
                return self.prop.step(x, b, h)
            if len(self._maps) >= self._CACHE_SIZE:
                del self._maps[next(iter(self._maps))]
            step_map = self._maps[h] = _explicit_step_map(
                self.sys.A, h, n_sub, self.cfg.method)
        D, N = step_map
        return x + D @ x + N @ b


# --- two-phase positive electrode steppers ------------------------------------

def _fvm_two_phase_substep(state: FullState, current: float, h: float,
                           params: CellParameters, N_r: int):
    """One conservative substep; returns (shell, r_p, closure_rel)."""
    R = params.R_s_p
    r_p = state.r_p
    g, c_core = systems.interface_values(params, state.core_phase, state.direction)
    A_c, B_c, G_c = systems.shell_block(params, r_p, current, N_r, g)
    faces, _, vols = systems.spherical_cells(r_p, R, N_r)
    prop = AffinePropagator(A_c, weights=vols)
    c_new = prop.step(state.pos, B_c * current + G_c, h)
    shell_old = float(vols @ state.pos)

    # lithium delivered to the front: surface influx minus shell gain
    q_surf = systems.molar_flux_density(params, "pos", current) * 4.0 * np.pi * R**2
    spill = q_surf * h - float(vols @ (c_new - state.pos))

    if current == 0.0:
        # frozen front; close propagator rounding so rest is drift free
        c_new = c_new + (shell_old - float(vols @ c_new)) / vols.sum()
        return c_new, r_p, 0.0

    dV = spill / (g - c_core)

    v_core_new = (4.0 / 3.0) * np.pi * r_p**3 - dV
    v_core_new = min(max(v_core_new, 0.0), (4.0 / 3.0) * np.pi * R**3)
    r_new = (v_core_new / ((4.0 / 3.0) * np.pi))**(1.0 / 3.0)
    r_new = min(max(r_new, 1e-9 * R), (1.0 - 1e-9) * R)

    # conservative remap of (swept annulus + old shell) onto the new grid
    new_faces, _, vols_new = systems.spherical_cells(r_new, R, N_r)
    if r_new < r_p:
        annulus_vol = (4.0 / 3.0) * np.pi * (r_p**3 - r_new**3)
        annulus_conc = (state.core_conc * annulus_vol + spill) / annulus_vol
        old_edges = np.concatenate([[r_new], faces])
        old_values = np.concatenate([[annulus_conc], c_new])
        shell = annulus_remap(old_edges, old_values, new_faces)
    else:
        shell = annulus_remap(faces, c_new, new_faces)

    # close rounding (and, for an outward front, the swept-profile mismatch)
    # so the per-electrode balance is exact: core + shell changes only by the
    # surface influx
    expected = shell_old + (4.0 / 3.0) * np.pi * r_p**3 * state.core_conc + q_surf * h
    actual = (4.0 / 3.0) * np.pi * r_new**3 * state.core_conc + float(vols_new @ shell)
    residual = expected - actual
    shell = shell + residual / vols_new.sum()
    closure_rel = abs(residual) / max(abs(expected), 1e-300)
    return shell, r_new, closure_rel


def _fdm_two_phase_substep(state: FullState, current: float, h: float,
                           params: CellParameters, N_r: int):
    """Naive collocated step of the FDM two-phase system (no remap)."""
    sysm = systems.build_fdm_two_phase(params, state.r_p, current, N_r,
                                       state.direction, state.core_phase)
    A_c = sysm.A[:N_r, :N_r]
    b = sysm.B[:N_r] * current + sysm.G[:N_r]
    prop = AffinePropagator(A_c)
    c_new = prop.step(state.pos, b, h)
    rdot_mid = sysm.A[N_r, 0] * 0.5 * (state.pos[0] + c_new[0]) + sysm.G[N_r]
    R = params.R_s_p
    r_new = state.r_p + h * rdot_mid
    r_new = min(max(r_new, 1e-9 * R), (1.0 - 1e-9) * R)
    return c_new, r_new, 0.0


# --- the integrator ------------------------------------------------------------

class Integrator:
    """Advances a FullState over intervals of constant current."""

    def __init__(self, params: CellParameters, disc: DiscretizationConfig,
                 solver: SolverConfig, phase_cfg: PhaseConfig | None = None):
        self.params = params
        self.disc = disc
        self.solver = solver
        self.phase_cfg = phase_cfg or PhaseConfig(mass_tol=solver.mass_tol)
        split = disc.electrolyte_split()
        self.split = split
        self.neg = _LtiBlock(
            "neg", systems.build_solid_system(params, "neg", disc.N_r, disc.scheme),
            solver, weights=_solid_weights(params, "neg", disc))
        self.pos1p = _LtiBlock(
            "pos", systems.build_solid_system(params, "pos", disc.N_r, disc.scheme),
            solver, weights=_solid_weights(params, "pos", disc))
        self.elec = _LtiBlock(
            "elec", systems.build_electrolyte_system(params, disc.N_e, split),
            solver, weights=_electrolyte_weights(params, disc.N_e, split))
        self.max_closure = 0.0

    def advance(self, state: FullState, current: float, h: float) -> FullState:
        """Pure step of length h at constant current (no event handling)."""
        new = state.copy()
        new.neg = self.neg.advance(state.neg, current, h)
        new.elec = self.elec.advance(state.elec, current, h)
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
                if abs(r_new - cur.r_p) <= 0.25 * (R - cur.r_p) or hs <= 1e-6 * h:
                    break
                hs *= 0.5
            cur.pos = shell
            cur.r_p = r_new
            self.max_closure = max(self.max_closure, closure)
            remaining -= hs
        return cur


def _solid_weights(params, electrode, disc):
    if disc.scheme != "fvm":
        return None
    return systems.cell_volumes(params.R_s(electrode), disc.N_r)


def _electrolyte_weights(params, N_e, split):
    dx, eps, _ = systems.electrolyte_geometry(params, N_e, split)
    return dx * eps


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
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(RESULT_COLUMNS)
            for i in range(len(self.time)):
                w.writerow([f"{self.time[i]:.10g}", f"{self.current[i]:.10g}",
                            f"{self.voltage[i]:.10g}", f"{self.soc_p[i]:.10g}",
                            f"{self.soc_n[i]:.10g}", f"{self.r_p[i]:.10g}",
                            self.regime[i], f"{self.drift_rel[i]:.10g}"])


def read_result_csv(path) -> dict:
    """Parse a result CSV back into column arrays (regime stays a list)."""
    text = Path(path).read_text()
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != RESULT_COLUMNS:
        raise ConfigError(f"{path}: unexpected result header {rows[0] if rows else '<empty>'}")
    out = {name: [] for name in RESULT_COLUMNS}
    for r in rows[1:]:
        if not r:
            continue
        for name, val in zip(RESULT_COLUMNS, r):
            out[name].append(val if name == "regime" else float(val))
    return {k: (v if k == "regime" else np.asarray(v)) for k, v in out.items()}


# --- the simulator ---------------------------------------------------------------

def simulate(profile: LoadProfile, init: FullState, params: CellParameters,
             disc: DiscretizationConfig, solver: SolverConfig | None = None,
             ocp: OcpSet | None = None,
             phase_cfg: PhaseConfig | None = None) -> SimulationResult:
    """Integrate the cell over a load profile.

    Records one row per accepted step (every solver.dt, plus profile
    boundaries), handles phase transitions with bisection localization, and
    stops early on voltage cutoffs (normal status) or a non-finite state
    (BlowupError).
    """
    solver = solver or SolverConfig()
    ocp = ocp or synthetic_ocp_set(params)
    integ = Integrator(params, disc, solver, phase_cfg)
    pcfg = integ.phase_cfg
    split = integ.split

    dx, eps_e, _ = systems.electrolyte_geometry(params, disc.N_e, split)
    elec_vol = params.A_cell * dx * eps_e
    pos_scale = params.eps_p * params.A_cell * params.L_p / ((4.0 / 3.0) * np.pi * params.R_s_p**3)
    neg_scale = params.eps_n * params.A_cell * params.L_n / ((4.0 / 3.0) * np.pi * params.R_s_n**3)
    cap_pos = params.c_s_max_p * params.eps_p * params.A_cell * params.L_p
    cap_neg = params.c_s_max_n * params.eps_n * params.A_cell * params.L_n

    cols = {k: [] for k in ("t", "i", "v", "sp", "sn", "rp", "q",
                            "mp", "mn", "me", "drift")}
    regimes, directions, core_phases, events = [], [], [], []
    neg_h, pos_h, elec_h, core_h = [], [], [], []

    state = init.copy()
    status = "completed"
    q_total = 0.0
    m_pos0 = m_neg0 = m_elec0 = None

    def solid_mass(s: FullState, electrode: str) -> float:
        if electrode == "pos":
            per_particle = systems.solid_moles(
                s.pos, params.R_s_p, r_p=s.r_p if s.two_phase else 0.0,
                core_conc=s.core_conc if s.two_phase else 0.0)
            return per_particle * pos_scale
        return systems.solid_moles(s.neg, params.R_s_n) * neg_scale

    def record(t: float, current: float, s: FullState):
        nonlocal m_pos0, m_neg0, m_elec0
        snap = cell_voltage(s, current, params, ocp, split)
        mp = solid_mass(s, "pos")
        mn = solid_mass(s, "neg")
        me = float(elec_vol @ s.elec)
        if m_pos0 is None:
            m_pos0, m_neg0, m_elec0 = mp, mn, me
        # normalize by the electrode saturation content, not the (possibly
        # nearly empty) initial content
        res_p = abs(mp - m_pos0 - q_total / params.F) / cap_pos
        res_n = abs(mn - m_neg0 + q_total / params.F) / cap_neg
        res_e = abs(me - m_elec0) / m_elec0
        cols["t"].append(t)
        cols["i"].append(current)
        cols["v"].append(snap.V_cell)
        cols["sp"].append(snap.SOC_p)
        cols["sn"].append(snap.SOC_n)
        cols["rp"].append(s.r_p / params.R_s_p)
        cols["q"].append(q_total)
        cols["mp"].append(mp)
        cols["mn"].append(mn)
        cols["me"].append(me)
        cols["drift"].append(max(res_p, res_n, res_e))
        regimes.append(s.regime)
        directions.append(s.direction)
        core_phases.append(s.core_phase)
        neg_h.append(s.neg.copy())
        pos_h.append(s.pos.copy())
        elec_h.append(s.elec.copy())
        core_h.append(s.core_conc)
        return snap

    def advance_with_events(s: FullState, current: float, t: float, h: float):
        remaining = h
        offset = 0.0
        for _ in range(8):
            post = integ.advance(s, current, remaining)
            kind = detect_transition(post, current, params, pcfg)
            if kind is None:
                return post
            m0 = transition_margin(kind, s, current, params, pcfg)
            if m0 >= 0.0:
                tau, at = 0.0, s
            else:
                lo, hi = 0.0, remaining
                while hi - lo > solver.event_tol:
                    mid = 0.5 * (lo + hi)
                    if transition_margin(kind, integ.advance(s, current, mid),
                                         current, params, pcfg) >= 0.0:
                        hi = mid
                    else:
                        lo = mid
                tau = hi
                at = integ.advance(s, current, tau)
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
        return integ.advance(s, current, remaining)

    first_current = next(iter(profile.segments()))[2]
    record(float(profile.times[0]), first_current, state)

    stop = False
    for t0, t1, current in profile.segments():
        if stop:
            break
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
        k = 0
        while t < t1 - 1e-9:
            h = min(solver.dt, t1 - t)
            state = advance_with_events(state, current, t, h)
            t += h
            q_total += current * h
            if not state.is_finite():
                raise BlowupError(f"non-finite state at t={t:.3f}s", last_good_time=t - h)
            k += 1
            if k % solver.record_every == 0 or t >= t1 - 1e-9:
                snap = record(t, current, state)
                if solver.cutoffs_enabled:
                    if solver.v_min is not None and snap.V_cell < solver.v_min:
                        status, stop = "cutoff_low", True
                        break
                    if solver.v_max is not None and snap.V_cell > solver.v_max:
                        status, stop = "cutoff_high", True
                        break

    return SimulationResult(
        time=np.asarray(cols["t"]), current=np.asarray(cols["i"]),
        voltage=np.asarray(cols["v"]), soc_p=np.asarray(cols["sp"]),
        soc_n=np.asarray(cols["sn"]), r_p=np.asarray(cols["rp"]),
        regime=regimes, direction=directions, core_phase=core_phases,
        neg_c=np.asarray(neg_h), pos_c=np.asarray(pos_h),
        elec_c=np.asarray(elec_h), core_conc=np.asarray(core_h),
        charge=np.asarray(cols["q"]), mass_pos=np.asarray(cols["mp"]),
        mass_neg=np.asarray(cols["mn"]), mass_elec=np.asarray(cols["me"]),
        drift_rel=np.asarray(cols["drift"]), events=events, status=status,
        meta={"R_s_p": params.R_s_p, "scheme": disc.scheme, "N_r": disc.N_r,
              "N_e": disc.N_e, "split": split, "max_closure": integ.max_closure})


# --- mass audit --------------------------------------------------------------------

@dataclass
class MassReport:
    """Coulomb-count residuals of a finished run."""

    res_pos_rel: np.ndarray
    res_neg_rel: np.ndarray
    res_elec_rel: np.ndarray
    max_drift_rel: float
    closure_max: float

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
    return MassReport(res_p, res_n, res_e,
                      max(res_p.max(), res_n.max(), res_e.max()),
                      result.meta.get("max_closure", 0.0))
