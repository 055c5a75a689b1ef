"""Parameter identification against voltage-vs-time data.

Two-stage protocol: the full 22-entry vector (stoichiometric windows for
both directions plus geometry/transport/kinetics) is fitted on C/4 charge
and discharge data; afterwards only the rate-dependent 4-entry subset
(solid diffusivities and reaction rate constants) is refitted per C-rate.

The optimizer is a seeded particle-swarm search with reflection at the
bounds; scale-like parameters are searched in log space.  Objective
evaluations are full simulations, so budgets are counted in evaluations.
The candidates of one generation share each dataset's profile, so they are
simulated together on one step grid (`simulate.simulate_many`), one at a
time, each bit for bit as it would be alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CsespmError, ParameterError
from .ocp import OcpSet, synthetic_ocp_set
from .params import (DEFAULT_RATE_OVERRIDES, CellParameters, DiscretizationConfig,
                     params_for_rate)
from .phase import PhaseConfig
from .records import read_csv_columns, write_csv_columns
from .simulate import (LoadProfile, SimulationResult, SolverConfig, cc_profile,
                       initial_state, simulate, simulate_many)

PENALTY_RMSE = 10.0   # volts; returned when a candidate cannot be simulated

# the 22-entry C/4 vector: stoichiometric windows for both directions, then
# geometry, transport and kinetics
LAMBDA_C4 = (
    "theta_p_100_ch", "theta_p_0_ch", "theta_n_100_ch", "theta_n_0_ch",
    "theta_p_alpha_ch", "theta_p_beta_ch",
    "theta_p_100_dis", "theta_p_0_dis", "theta_n_100_dis", "theta_n_0_dis",
    "theta_p_alpha_dis", "theta_p_beta_dis",
    "R_s_p", "R_s_n", "D_s_p", "D_s_n", "eps_p", "eps_n",
    "k_p", "k_n", "A_cell", "R_l",
)

# rate-dependent subset refitted on C/2 and 1C data
LAMBDA_C2_1C = ("D_s_p", "D_s_n", "k_p", "k_n")

_LOG_SCALE = {"R_s_p", "R_s_n", "D_s_p", "D_s_n", "k_p", "k_n", "R_l"}


@dataclass(frozen=True)
class ParameterSubset:
    """Ordered parameter names with per-name (lo, hi) bounds."""

    names: tuple
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if len(self.names) != len(self.lower) or len(self.names) != len(self.upper):
            raise ParameterError("names and bounds must align")
        if not (np.all(self.lower < self.upper) and np.isfinite([self.lower, self.upper]).all()
                and np.all(self.lower[self.log_mask()] > 0.0)):
            raise ParameterError("need finite bounds, lower < upper, and lower > 0 for a "
                                 "log-scale parameter")
        bad = [n for n in self.names if not hasattr(CellParameters(), n)]
        if bad:
            raise ParameterError(f"unknown parameter names: {bad}")

    @property
    def dim(self) -> int:
        return len(self.names)

    def log_mask(self) -> np.ndarray:
        return np.array([n in _LOG_SCALE for n in self.names])

    @classmethod
    def preset(cls, which: str, base: CellParameters,
               decades: float = 1.0) -> "ParameterSubset":
        """'c4' or 'c2-1c' preset around a base parameter set.

        Scale-like entries get +-``decades`` in log10; stoichiometric
        fractions get wide physical windows.
        """
        if not 0.0 < decades < 308.0:       # 10**308.25 is the largest float
            raise ParameterError(f"decades must lie in (0, 308), not {decades!r}")
        if which == "c4":
            names = LAMBDA_C4
        elif which == "c2-1c":
            names = LAMBDA_C2_1C
        else:
            raise ConfigError(f"unknown subset preset {which!r}")
        lo, hi = [], []
        for n in names:
            v = getattr(base, n)
            if n in _LOG_SCALE:
                lo.append(v * 10.0**(-decades))
                hi.append(v * 10.0**(decades))
            elif n.startswith("theta"):
                lo.append(max(0.25 * v, 1e-3))
                hi.append(min(2.0 * v, 0.999))
            elif n.startswith("eps"):
                lo.append(0.5 * v)
                hi.append(min(1.5 * v, 0.99))
            else:
                lo.append(0.5 * v)
                hi.append(1.5 * v)
        return cls(tuple(names), np.asarray(lo), np.asarray(hi))

    def subset(self, names: tuple) -> "ParameterSubset":
        idx = [self.names.index(n) for n in names]
        return ParameterSubset(tuple(names), self.lower[idx], self.upper[idx])

    def apply(self, base: CellParameters, values: np.ndarray) -> CellParameters:
        return base.replace(**dict(zip(self.names, map(float, values))))


@dataclass
class Dataset:
    """A measured (or synthetic) voltage trace with its load profile."""

    profile: LoadProfile
    voltage: np.ndarray
    direction: str
    c_rate_label: str | None = None
    name: str = ""

    def __post_init__(self):
        self.voltage = np.asarray(self.voltage, dtype=float)
        if self.voltage.shape != self.profile.times.shape:
            raise ParameterError("voltage and profile must share timestamps")
        if not np.all((self.voltage >= 1.5) & (self.voltage <= 4.0)):
            raise ParameterError("voltages must be numbers in the physical 1.5-4.0 V window")

    @property
    def start_soc(self) -> float:
        return 0.0 if self.direction == "ch" else 1.0

    def to_csv(self, path):
        write_csv_columns(path, {"time_s": self.profile.times,
                                 "current_A": self.profile.currents,
                                 "voltage_V": self.voltage})

    @classmethod
    def from_csv(cls, path, direction: str | None = None,
                 c_rate_label: str | None = None) -> "Dataset":
        cols = read_csv_columns(path, ("time_s", "current_A", "voltage_V"))
        if direction is None:
            direction = "dis" if np.mean(cols["current_A"]) > 0 else "ch"
        return cls(LoadProfile(cols["time_s"], cols["current_A"]), cols["voltage_V"],
                   direction, c_rate_label=c_rate_label, name=str(path))


# failures of a candidate's simulation that score PENALTY_RMSE: a package
# error, a singular matrix, a numeric domain error
PENALIZED = (CsespmError, np.linalg.LinAlgError, ValueError)


def voltage_rmse(params: CellParameters, dataset: Dataset,
                 disc: DiscretizationConfig, solver: SolverConfig,
                 ocp: OcpSet | None = None,
                 phase_cfg: PhaseConfig | None = None,
                 result: SimulationResult | Exception | None = None) -> float:
    """Simulate the dataset's profile and compare voltages at its timestamps.

    Early cutoff or any failure of the candidate's simulation (PENALIZED)
    returns a large finite penalty so that one bad candidate never ends the
    search.  ``result`` is the candidate's simulation of the dataset when it
    has been run already, or the error it raised; then nothing is simulated
    and ``params`` is not read.
    """
    if result is None:
        p_run = params_for_rate(params, dataset.c_rate_label)
        try:
            init = initial_state(p_run, disc, dataset.start_soc, dataset.direction)
            result = simulate(dataset.profile, init, p_run, disc, solver, ocp=ocp,
                              phase_cfg=phase_cfg)
        except PENALIZED as exc:
            result = exc
    if penalty_cause(result, dataset) is not None:
        return PENALTY_RMSE
    v_sim = np.interp(dataset.profile.times, result.time, result.voltage)
    return float(np.sqrt(np.mean((v_sim - dataset.voltage) ** 2)))


def penalty_cause(result: SimulationResult | Exception, dataset: Dataset) -> str | None:
    """Why a candidate's simulation of the dataset scores PENALTY_RMSE: the
    name of the PENALIZED error it raised, "cutoff" when it stopped at a
    voltage cutoff, "short" when it ended before the data; None when it
    scores.  Any other error is raised."""
    if isinstance(result, PENALIZED):
        return type(result).__name__
    if isinstance(result, BaseException):
        raise result
    if result.status != "completed":
        return "cutoff"
    if result.time[-1] < dataset.profile.times[-1] - 0.5:
        return "short"
    return None


def make_synthetic_dataset(params: CellParameters, disc: DiscretizationConfig,
                           c_rate: float, direction: str,
                           duration: float | None = None, dt: float = 10.0,
                           c_rate_label: str | None = None,
                           solver: SolverConfig | None = None,
                           ocp: OcpSet | None = None) -> Dataset:
    """Simulator-generated voltage data, noise free."""
    solver = solver or SolverConfig(dt=dt, cutoffs_enabled=False)
    prof = cc_profile(params, c_rate, direction, duration)
    p_run = params_for_rate(params, c_rate_label)
    init = initial_state(p_run, disc, 0.0 if direction == "ch" else 1.0, direction)
    res = simulate(prof, init, p_run, disc, solver, ocp=ocp)
    return Dataset(LoadProfile(res.time, res.current), res.voltage.copy(), direction,
                   c_rate_label=c_rate_label,
                   name=f"synthetic {c_rate:g}C {direction}")


@dataclass
class FitResult:
    """Best candidate of one identification run."""

    subset: ParameterSubset
    best_values: np.ndarray
    best_params: CellParameters
    best_rmse: float
    n_evals: int
    seed: int
    trace: list = field(default_factory=list)   # (eval count, best-so-far RMSE)
    penalties: dict = field(default_factory=dict)   # penalty_cause -> count

    def to_dict(self) -> dict:
        return {
            "names": list(self.subset.names),
            "values": [float(v) for v in self.best_values],
            "rmse_V": self.best_rmse,
            "n_evals": self.n_evals,
            "seed": self.seed,
            "trace": [[int(k), float(v)] for k, v in self.trace],
            "penalties": dict(self.penalties),
        }


def generation_rmse(values: np.ndarray, subset: ParameterSubset, base: CellParameters,
                    datasets: list[Dataset], disc: DiscretizationConfig,
                    solver: SolverConfig, ocp: OcpSet | None = None,
                    phase_cfg: PhaseConfig | None = None,
                    penalties: dict | None = None) -> list[float]:
    """Summed voltage RMSE over the datasets of each row of ``values`` (one
    candidate per row), its simulations of one dataset on one step grid
    (`simulate.simulate_many`).

    Each dataset's score comes from `voltage_rmse` given the candidate's
    result, so it equals the serial objective bit for bit; a candidate
    whose values are invalid parameters scores PENALTY_RMSE per dataset.
    ``penalties`` tallies each PENALTY_RMSE by its cause (penalty_cause, or
    "ParameterError" for invalid values).
    """
    cands = []
    for v in values:
        try:
            cands.append(subset.apply(base, v))
        except ParameterError as exc:
            cands.append(exc)
    totals = [0] * len(cands)
    for ds in datasets:
        outcomes = list(cands)
        runs, inits, idx = [], [], []
        for k, cand in enumerate(cands):
            if isinstance(cand, Exception):
                continue
            p_run = params_for_rate(cand, ds.c_rate_label)
            try:
                inits.append(initial_state(p_run, disc, ds.start_soc, ds.direction))
            except PENALIZED as exc:
                outcomes[k] = exc
                continue
            runs.append(p_run)
            idx.append(k)
        for k, res in zip(idx, simulate_many(ds.profile, inits, runs, disc, solver,
                                             ocp=ocp, phase_cfg=phase_cfg)):
            outcomes[k] = res
        for k, (cand, res) in enumerate(zip(cands, outcomes)):
            totals[k] += voltage_rmse(cand, ds, disc, solver, ocp, phase_cfg, result=res)
            if penalties is not None:
                cause = penalty_cause(res, ds)
                if cause is not None:
                    penalties[cause] = penalties.get(cause, 0) + 1
    return totals


def identify(datasets: list[Dataset], subset: ParameterSubset,
             base: CellParameters, disc: DiscretizationConfig,
             solver: SolverConfig, seed: int = 0, budget: int = 500,
             ocp: OcpSet | None = None, phase_cfg: PhaseConfig | None = None) -> FitResult:
    """Bounded particle-swarm minimization of the summed voltage RMSE.

    Deterministic given the seed.  The best-so-far trace is non-increasing
    and the returned RMSE re-evaluates to itself.  Each generation is scored
    at once (generation_rmse), which gives the fit of scoring its candidates
    one at a time; FitResult.penalties counts its PENALTY_RMSE scores by
    cause.  A dataset whose C-rate label's rate table (params_for_rate) sets
    a fitted name is a ConfigError: its simulations would overwrite it.
    """
    if not datasets:
        raise ConfigError("identify needs at least one dataset")
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, not {seed}")
    for ds in datasets:
        masked = [n for n in subset.names if n in DEFAULT_RATE_OVERRIDES.get(ds.c_rate_label, ())]
        if masked:
            raise ConfigError(f"dataset {ds.name!r} is labelled {ds.c_rate_label!r}, whose rate "
                              f"table sets {', '.join(masked)}: the fit could not move them")
    ocp = ocp or synthetic_ocp_set(base)
    rng = np.random.default_rng(seed)
    d = subset.dim
    P = min(24, max(8, 4 + 2 * d), budget)

    logm = subset.log_mask()
    lo = np.where(logm, np.log10(subset.lower), subset.lower)
    hi = np.where(logm, np.log10(subset.upper), subset.upper)
    span = hi - lo

    def decode(z):
        x = lo + z * span
        return np.where(logm, 10.0**x, x)

    # seed the swarm around the base point plus uniform cover
    z = rng.random((P, d))
    base_vals = np.array([getattr(base, n) for n in subset.names])
    base_z = (np.where(logm, np.log10(base_vals), base_vals) - lo) / span
    z[0] = np.clip(base_z, 0.0, 1.0)
    v = 0.1 * (rng.random((P, d)) - 0.5)

    pbest_z = z.copy()
    pbest_f = np.full(P, np.inf)
    gbest_z, gbest_f = None, np.inf
    trace = []
    penalties: dict = {}
    n_evals = 0
    w, c1, c2 = 0.72, 1.49, 1.49

    while n_evals < budget:
        # the whole generation first: nothing in it reads pbest or gbest
        batch = min(P, budget - n_evals)
        fs = generation_rmse([decode(z[k]) for k in range(batch)], subset, base, datasets,
                             disc, solver, ocp, phase_cfg, penalties)
        for k, f in enumerate(fs):
            n_evals += 1
            if f < pbest_f[k]:
                pbest_f[k] = f
                pbest_z[k] = z[k].copy()
            if f < gbest_f:
                gbest_f = f
                gbest_z = z[k].copy()
                trace.append((n_evals, gbest_f))
        if n_evals >= budget:
            break
        r1 = rng.random((P, d))
        r2 = rng.random((P, d))
        v = w * v + c1 * r1 * (pbest_z - z) + c2 * r2 * (gbest_z[None, :] - z)
        z = z + v
        # reflect at the bounds
        over = z > 1.0
        under = z < 0.0
        z[over] = 2.0 - z[over]
        z[under] = -z[under]
        z = np.clip(z, 0.0, 1.0)
        v[over | under] *= -0.5

    best_values = decode(gbest_z)
    best_params = subset.apply(base, best_values)
    return FitResult(subset=subset, best_values=best_values,
                     best_params=best_params, best_rmse=float(gbest_f),
                     n_evals=n_evals, seed=seed, trace=trace, penalties=penalties)
