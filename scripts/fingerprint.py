#!/usr/bin/env python3
"""Print one SHA-256 per fixture over the float bits of what csespm computes.

Two checkouts whose fingerprints agree compute bit-identical states,
voltages, front radii, events and sweep results on these fixtures.  Compare
a change with its parent by running the script in each checkout:

    python3 scripts/fingerprint.py                  # the default fixtures
    python3 scripts/fingerprint.py fit_budget12     # chosen fixtures
    python3 scripts/fingerprint.py --list

Each line is `<fixture> <sha256> <seconds>`.  The script imports csespm from
src/ of the checkout it sits in.  OpenBLAS splits a large product over its
threads in an order that moves the last bits (discharge_c4_nr200 hashes
differently with one thread and with two), so the script runs one BLAS
thread unless OPENBLAS_NUM_THREADS says otherwise.
"""
import hashlib
import os
import struct
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from csespm.config import RunConfig  # noqa: E402
from csespm.identify import (ParameterSubset, identify, make_synthetic_dataset,  # noqa: E402
                             voltage_rmse)
from csespm.observability import ObservabilityConfig, sweep  # noqa: E402
from csespm.ocp import synthetic_ocp_set  # noqa: E402
from csespm.params import CellParameters, DiscretizationConfig  # noqa: E402
from csespm.simulate import (LoadProfile, SolverConfig, cc_profile,  # noqa: E402
                             cycle_profile, initial_state, simulate, simulate_many,
                             synthetic_dynamic_profile)


class Digest:
    """SHA-256 over float bits, integers and labels, in the order fed."""

    def __init__(self):
        self.h = hashlib.sha256()

    def floats(self, *arrays):
        for a in arrays:
            a = np.ascontiguousarray(a, dtype=np.float64)
            self.h.update(struct.pack("<q", a.size))
            self.h.update(a.tobytes())

    def labels(self, *items):
        self.h.update(repr(items).encode())

    def result(self, res):
        """States, voltages, r_p, events, counters and the largest substep
        closure of a SimulationResult."""
        self.floats(res.time, res.current, res.voltage, res.r_p, res.neg_c, res.pos_c,
                    res.elec_c, res.core_conc, [res.meta["max_closure"]])
        self.labels(res.status, res.regime, res.core_phase, res.direction,
                    sorted(res.meta["counters"].items()))
        for ev in res.events:
            self.labels(ev.kind, sorted(ev.detail.items()))
            self.floats([ev.time, ev.pre_mass, ev.post_mass, ev.r_p_pre, ev.r_p_post])

    def sweep(self, sw):
        """Ranks and condition numbers of an observability sweep."""
        self.labels([(pt.regime, pt.rank, pt.full_rank_needed) for pt in sw.points])
        self.floats(sw.column("time"), sw.column("cond_scaled"), sw.column("cond_raw"),
                    sw.column("sigma_min_scaled"))


def _assets():
    return RunConfig.load(ROOT / "assets" / "config.json")


def _reversals(currents):
    signs = np.sign(currents[currents != 0.0])
    return int(np.sum((signs[:-1] > 0.0) & (signs[1:] < 0.0)))


def cycle_c4(d):
    """One C/4 cycle from SOC 0, N_r = 4, dt = 1 s, cutoffs off, shipped config."""
    cfg = _assets()
    disc = DiscretizationConfig(N_r=4, N_e=6)
    solver = SolverConfig(dt=1.0, cutoffs_enabled=False)
    d.result(simulate(cycle_profile(cfg.params, 0.25, 1),
                      initial_state(cfg.params, disc, 0.0, "ch"), cfg.params, disc, solver,
                      ocp=cfg.ocp, phase_cfg=cfg.phase))


def drive_hold(d, seed=71):
    """The 1200 s charge-sustaining drive profile of seed 71 with 17
    discharge-to-charge reversals, from SOC 0.5, N_r = 4, cutoffs on."""
    cfg = _assets()
    disc = DiscretizationConfig(N_r=4, N_e=6)
    for j in range(10_000):
        s = int(np.random.SeedSequence([seed, j]).generate_state(1)[0])
        profile = synthetic_dynamic_profile(cfg.params, duration=1200.0, seed=s, mean_c=0.0)
        if _reversals(profile.currents[:-1]) == 17:
            break
    d.result(simulate(profile, initial_state(cfg.params, disc, 0.5, "dis"), cfg.params,
                      disc, SolverConfig(dt=1.0), ocp=cfg.ocp, phase_cfg=cfg.phase))


def cutoff_c2(d):
    """A C/2 discharge from SOC 1 with the shipped config and its cutoffs,
    as `csespm simulate` runs it: it stops at v_min (cutoff_low)."""
    cfg = _assets()
    d.result(simulate(cc_profile(cfg.params, 0.5, "dis"),
                      initial_state(cfg.params, cfg.disc, 1.0, "dis"), cfg.params, cfg.disc,
                      cfg.solver, ocp=cfg.ocp, phase_cfg=cfg.phase))


def _pso_dataset(cfg):
    disc = DiscretizationConfig(N_r=4, N_e=6)
    solver = SolverConfig(dt=10.0, cutoffs_enabled=False)
    return disc, solver, make_synthetic_dataset(
        cfg.params, disc, 0.25, "dis", duration=3600.0, dt=10.0, c_rate_label="C/4",
        solver=solver, ocp=cfg.ocp)


def identify_pso_data(d):
    """The identification dataset: a C/4 discharge at dt = 10 s, N_r = 4."""
    _, _, ds = _pso_dataset(_assets())
    d.floats(ds.profile.times, ds.profile.currents, ds.voltage)


def fit_budget12(d):
    """A budget-12 PSO fit of (D_s_p, k_p) on the identification dataset."""
    cfg = _assets()
    disc, solver, ds = _pso_dataset(cfg)
    p = cfg.params
    sub = ParameterSubset.preset("c2-1c", p, decades=1.0).subset(("D_s_p", "k_p"))
    start = p.replace(D_s_p=p.D_s_p * 3.0, k_p=p.k_p / 4.0)
    fit = identify([ds], sub, start, disc, solver, seed=7, budget=12, ocp=cfg.ocp)
    d.floats(fit.best_values, [fit.best_rmse], [v for _, v in fit.trace])


def fit_identify_pso(d):
    """The identify_pso benchmark's fit: (D_s_p, k_p) from (D_s_p x 3, k_p / 4),
    budget 160, seed 1, with its best point re-evaluated alone."""
    cfg = _assets()
    disc, solver, ds = _pso_dataset(cfg)
    p = cfg.params
    sub = ParameterSubset.preset("c2-1c", p, decades=1.0).subset(("D_s_p", "k_p"))
    start = p.replace(D_s_p=p.D_s_p * 3.0, k_p=p.k_p / 4.0)
    fit = identify([ds], sub, start, disc, solver, seed=1, budget=160, ocp=cfg.ocp)
    again = voltage_rmse(fit.best_params, ds, disc, solver, cfg.ocp)
    d.floats(fit.best_values, [fit.best_rmse, again], [v for _, v in fit.trace])
    d.labels([k for k, _ in fit.trace])


def _cycles(scheme, c_rate, cycles, N_r):
    params = CellParameters()
    disc = DiscretizationConfig(N_r=N_r, N_e=6, scheme=scheme)
    return simulate(cycle_profile(params, c_rate, cycles),
                    initial_state(params, disc, 0.0, "ch"), params, disc,
                    SolverConfig(dt=1.0, cutoffs_enabled=False))


def criterion1_cycles(d):
    """Criterion 1's fixture: three C/4 cycles, FVM, N_r = 4."""
    d.result(_cycles("fvm", 0.25, 3, 4))


def fdm_cycle_1c(d):
    """One 1C cycle of the FDM scheme at N_r = 4."""
    d.result(_cycles("fdm", 1.0, 1, 4))


def _sweep_1c(d, N_r, scheme="fvm"):
    params = CellParameters()
    ocp = synthetic_ocp_set(params)
    disc = DiscretizationConfig(N_r=N_r, N_e=6, scheme=scheme)
    res = simulate(cc_profile(params, 1.0, "ch"), initial_state(params, disc, 0.0, "ch"),
                   params, disc, SolverConfig(cutoffs_enabled=False), ocp=ocp)
    d.sweep(sweep(res, params, ObservabilityConfig(stride_s=30.0), ocp=ocp))


def sweep_1c_nr2(d):
    """Ranks and conds of the 1C charge sweep, FVM, N_r = 2."""
    _sweep_1c(d, 2)


def sweep_1c_nr3(d):
    """Ranks and conds of the 1C charge sweep, FVM, N_r = 3."""
    _sweep_1c(d, 3)


def sweep_1c_nr4(d):
    """Ranks and conds of the 1C charge sweep, FVM, N_r = 4."""
    _sweep_1c(d, 4)


def sweep_fdm_1c_nr3(d):
    """Ranks and conds of the 1C charge sweep, FDM, N_r = 3."""
    _sweep_1c(d, 3, "fdm")


def sweep_dynamic_nr3(d):
    """Ranks and conds of a 7 s stride sweep of the 600 s synthetic drive
    profile from SOC 0.6, FVM, N_r = 3: some points sit on rows where the
    current changes, so the input's derivative enters the Lie derivatives."""
    params = CellParameters()
    ocp = synthetic_ocp_set(params)
    disc = DiscretizationConfig(N_r=3, N_e=6)
    res = simulate(synthetic_dynamic_profile(params, duration=600.0),
                   initial_state(params, disc, 0.6, "dis"), params, disc,
                   SolverConfig(cutoffs_enabled=False), ocp=ocp)
    d.sweep(sweep(res, params, ObservabilityConfig(stride_s=7.0), ocp=ocp))


def discharge_c4_nr200(d):
    """The first 2500 s of a C/4 discharge from SOC 1 at N_r = 200."""
    params = CellParameters()
    disc = DiscretizationConfig(N_r=200, N_e=6)
    d.result(simulate(cc_profile(params, 0.25, "dis", duration=2500.0),
                      initial_state(params, disc, 1.0, "dis"), params, disc, SolverConfig()))


def many_mixed(d):
    """simulate_many of the lockstep tests' mixed batch (D_s_p x {0.3, 1, 3}
    by k_p x {0.25, 1}, a larger particle, a saturating negative electrode)
    on their 4-segment profile from SOC 1, N_r = 4, dt = 10 s: cutoffs off,
    then a lower cutoff between the two lowest voltage minima that stops
    members early.  Each member hashes its result, or its error's type and
    message."""
    params = CellParameters()
    ocp = synthetic_ocp_set(params)
    disc = DiscretizationConfig(N_r=4, N_e=6)
    i = params.current_for_c_rate(0.25)
    profile = LoadProfile(np.array([0.0, 3000.0, 3200.0, 4000.0]),
                          np.array([i, 0.0, -2.0 * i, -2.0 * i]))
    members = [params.replace(D_s_p=params.D_s_p * f, k_p=params.k_p * k)
               for f in (0.3, 1.0, 3.0) for k in (0.25, 1.0)]
    members += [params.replace(R_s_p=1.25 * params.R_s_p), params.replace(c_s_max_n=3000.0)]
    inits = [initial_state(p, disc, 1.0, "dis") for p in members]
    free = SolverConfig(dt=10.0, cutoffs_enabled=False)
    runs = simulate_many(profile, inits, members, disc, free, ocp=ocp)
    lows = sorted({r.voltage[1:].min() for r in runs if not isinstance(r, Exception)})
    cut = SolverConfig(dt=10.0, v_min=0.5 * (lows[0] + lows[1]))
    for res in runs + simulate_many(profile, inits, members, disc, cut, ocp=ocp):
        if isinstance(res, Exception):
            d.labels(type(res).__name__, str(res))
        else:
            d.result(res)


FIXTURES = {f.__name__: f for f in (
    cycle_c4, drive_hold, identify_pso_data, criterion1_cycles, fdm_cycle_1c, sweep_1c_nr3,
    fit_budget12, fit_identify_pso, sweep_1c_nr2, sweep_1c_nr4, sweep_dynamic_nr3,
    sweep_fdm_1c_nr3, discharge_c4_nr200, many_mixed, cutoff_c2)}
DEFAULT = ("cycle_c4", "drive_hold", "cutoff_c2", "identify_pso_data", "criterion1_cycles",
           "fdm_cycle_1c", "sweep_1c_nr3", "sweep_dynamic_nr3", "many_mixed")


def main(argv):
    if "--list" in argv:
        for name, f in FIXTURES.items():
            print(f"{name}{' (default)' if name in DEFAULT else ''}: {f.__doc__}")
        return 0
    unknown = [a for a in argv if a not in FIXTURES]
    if unknown:
        print(f"unknown fixtures {unknown}; see --list", file=sys.stderr)
        return 2
    for name in argv or DEFAULT:
        d = Digest()
        t0 = time.perf_counter()
        FIXTURES[name](d)
        print(f"{name} {d.h.hexdigest()} {time.perf_counter() - t0:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
