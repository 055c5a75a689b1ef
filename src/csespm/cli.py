"""Command-line interface.

Subcommands mirror the standard experiments: constant-profile simulation,
equal-Ah cycling with a mass audit, observability sweeps, parameter
identification, and an FVM-vs-FDM scheme comparison.  All tabular output is
CSV; reports are JSON.  Nonzero exits carry a machine-readable error record
on stderr.

Exit codes: 0 ok, 2 usage, 3 a path that is missing or of the wrong kind,
4 invalid config/data, 5 numerical blowup, 6 other runtime failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, check_soc
from .errors import BlowupError, ConfigError, CsespmError, ParameterError
from .identify import Dataset, ParameterSubset, identify
from .observability import sweep
from .records import write_csv_columns
from .simulate import (LoadProfile, cycle_profile, initial_state,
                       mass_audit, simulate)

EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_BAD_CONFIG = 4
EXIT_BLOWUP = 5
EXIT_RUNTIME = 6


def _error_record(code: int, exc: Exception) -> int:
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(record), file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # a usage error writes the JSON record too
        self.print_usage(sys.stderr)
        self.exit(_error_record(EXIT_USAGE, argparse.ArgumentError(None, message)))


def _load_config(args) -> RunConfig:
    if args.config is None:
        return RunConfig.default()
    return RunConfig.load(args.config)


def _initial_soc(args, cfg: RunConfig, direction: str) -> float:
    """--soc, else the config's initial_soc, else the end of the window the
    profile's direction starts from."""
    if args.soc is not None:
        return args.soc
    if cfg.initial_soc is not None:
        return cfg.initial_soc
    return 0.0 if direction == "ch" else 1.0


def _profile_direction(profile: LoadProfile, path) -> str:
    """'ch' when the first nonzero current is negative (charging), else 'dis'."""
    nonzero = np.flatnonzero(profile.currents)
    if nonzero.size == 0:
        raise ConfigError(f"{path}: every current is zero, so the direction "
                          "cannot be inferred")
    return "ch" if profile.currents[nonzero[0]] < 0 else "dis"


_EVENT_COLUMNS = {"time_s": "time", "kind": "kind", "r_p_pre_m": "r_p_pre",
                  "r_p_post_m": "r_p_post", "pre_mass_mol": "pre_mass",
                  "post_mass_mol": "post_mass", "mass_error_rel": "mass_error_rel"}


def _events_csv(events, path):
    write_csv_columns(path, {h: [getattr(e, a) for e in events]
                             for h, a in _EVENT_COLUMNS.items()})


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    profile = LoadProfile.from_csv(args.profile)
    solver = cfg.solver
    if args.no_cutoffs:
        solver = dataclasses.replace(solver, cutoffs_enabled=False)
    direction = _profile_direction(profile, args.profile)
    init = initial_state(cfg.params, cfg.disc, _initial_soc(args, cfg, direction), direction)
    result = simulate(profile, init, cfg.params, cfg.disc, solver,
                      ocp=cfg.ocp, phase_cfg=cfg.phase)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result.to_csv(out / "result.csv")
    _events_csv(result.events, out / "events.csv")
    report = mass_audit(result, cfg.params)
    (out / "summary.json").write_text(json.dumps({
        "status": result.status, "steps": len(result),
        "final_soc_p": float(result.soc_p[-1]),
        "final_voltage_V": float(result.voltage[-1]),
        "max_mass_drift_rel": report.max_drift_rel,
        "events": [e.kind for e in result.events],
        "counters": result.meta["counters"]}, indent=2) + "\n")
    print(f"wrote {out / 'result.csv'} ({len(result)} records, status {result.status})")
    return 0


def cmd_cycle(args) -> int:
    cfg = _load_config(args)
    solver = dataclasses.replace(cfg.solver, cutoffs_enabled=args.enforce_cutoffs)
    profile = cycle_profile(cfg.params, args.crate, args.cycles)
    profile.check_steps(solver.dt)
    init = initial_state(cfg.params, cfg.disc, 0.0, "ch")
    result = simulate(profile, init, cfg.params, cfg.disc, solver,
                      ocp=cfg.ocp, phase_cfg=cfg.phase)
    report = mass_audit(result, cfg.params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result.to_csv(out / "result.csv")
    _events_csv(result.events, out / "events.csv")
    half = 3600.0 / args.crate
    boundaries = [k * 2 * half for k in range(args.cycles + 1)]
    idx = [int(np.searchsorted(result.time, b)) for b in boundaries if b <= result.time[-1]]
    peaks = {
        "cycle_boundary_times_s": [float(result.time[i]) for i in idx],
        "mass_pos_mol": [float(result.mass_pos[i]) for i in idx],
        "mass_neg_mol": [float(result.mass_neg[i]) for i in idx],
    }
    (out / "mass_report.json").write_text(json.dumps({
        "max_drift_rel": report.max_drift_rel,
        "max_pos_residual_rel": float(report.res_pos_rel.max()),
        "max_neg_residual_rel": float(report.res_neg_rel.max()),
        "max_elec_residual_rel": float(report.res_elec_rel.max()),
        "per_cycle": peaks}, indent=2) + "\n")
    print(f"wrote {out / 'result.csv'}; {report.summary()}")
    return 0


def cmd_observe(args) -> int:
    cfg = _load_config(args)
    obs_cfg = cfg.observability
    if args.stride is not None:
        obs_cfg = dataclasses.replace(obs_cfg, stride_s=args.stride)
    disc = dataclasses.replace(cfg.disc, N_r=args.nr, scheme=args.scheme)
    profile = LoadProfile.from_csv(args.profile)
    direction = _profile_direction(profile, args.profile)
    init = initial_state(cfg.params, disc, _initial_soc(args, cfg, direction), direction)
    solver = dataclasses.replace(cfg.solver, cutoffs_enabled=False)
    result = simulate(profile, init, cfg.params, disc, solver,
                      ocp=cfg.ocp, phase_cfg=cfg.phase)
    sw = sweep(result, cfg.params, obs_cfg, ocp=cfg.ocp, scheme=args.scheme)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sw.to_csv(out / "sweep.csv")
    full = sw.full_rank_everywhere()
    (out / "summary.json").write_text(json.dumps({
        "points": len(sw),
        "skipped": [{"time_s": t, "reason": reason} for t, reason in sw.skipped],
        "full_rank_everywhere": full,
        "counters": result.meta["counters"]}, indent=2) + "\n")
    print(f"wrote {out / 'sweep.csv'} ({len(sw)} points, {len(sw.skipped)} skipped, "
          f"full rank everywhere: {full})")
    return 0


def cmd_identify(args) -> int:
    cfg = _load_config(args)
    datasets = []
    for spec_item in args.data.split(","):
        path = Path(spec_item.strip())
        if not path.exists():
            raise FileNotFoundError(f"dataset not found: {path}")
        datasets.append(Dataset.from_csv(path))
    subset = ParameterSubset.preset(args.subset, cfg.params, decades=args.decades)
    solver = dataclasses.replace(cfg.solver, cutoffs_enabled=False)
    fit = identify(datasets, subset, cfg.params, cfg.disc, solver,
                   seed=args.seed, budget=args.budget, ocp=cfg.ocp, phase_cfg=cfg.phase)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "fit.json").write_text(json.dumps(fit.to_dict(), indent=2) + "\n")
    print(f"wrote {out / 'fit.json'} (best RMSE {1e3 * fit.best_rmse:.3f} mV "
          f"in {fit.n_evals} evaluations)")
    return 0


def cmd_compare_scheme(args) -> int:
    cfg = _load_config(args)
    profile = LoadProfile.from_csv(args.profile)
    direction = _profile_direction(profile, args.profile)
    soc = _initial_soc(args, cfg, direction)
    solver = dataclasses.replace(cfg.solver, cutoffs_enabled=False)
    results, sweeps, drifts = {}, {}, {}
    for scheme in ("fvm", "fdm"):
        disc = dataclasses.replace(cfg.disc, scheme=scheme, N_r=args.nr)
        init = initial_state(cfg.params, disc, soc, direction)
        res = simulate(profile, init, cfg.params, disc, solver,
                       ocp=cfg.ocp, phase_cfg=cfg.phase)
        results[scheme] = res
        drifts[scheme] = mass_audit(res, cfg.params).max_drift_rel
        sweeps[scheme] = sweep(res, cfg.params, cfg.observability,
                               ocp=cfg.ocp, scheme=scheme)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n = min(len(results["fvm"]), len(results["fdm"]))
    write_csv_columns(out / "voltage_comparison.csv", {
        "time_s": results["fvm"].time[:n], "voltage_fvm_V": results["fvm"].voltage[:n],
        "voltage_fdm_V": results["fdm"].voltage[:n]})
    sweeps["fvm"].to_csv(out / "cond_sweep_fvm.csv")
    sweeps["fdm"].to_csv(out / "cond_sweep_fdm.csv")
    dv = results["fvm"].voltage[:n] - results["fdm"].voltage[:n]
    conds = {s: sweeps[s].finite_log10_cond() for s in sweeps}
    summary = {
        "voltage_rms_diff_mV": float(1e3 * np.sqrt(np.mean(dv**2))),
        "mass_drift_rel": drifts,
        # null for a scheme whose sweep has no finite point
        "median_log10_cond": {s: float(np.median(c)) if len(c) else None
                              for s, c in conds.items()},
    }
    (out / "comparison.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out / 'comparison.json'}: drift fvm {drifts['fvm']:.2e} "
          f"fdm {drifts['fdm']:.2e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="csespm",
        description="Core-shell single particle model: simulate, cycle, "
                    "observe, identify, compare-scheme")
    ap.add_argument("--version", action="version", version=f"csespm {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", default=None, help="JSON run config (default: built-in)")
        sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("simulate", help="integrate a load profile")
    add_common(sp)
    sp.add_argument("--profile", required=True, help="load profile CSV (time_s,current_A)")
    sp.add_argument("--soc", type=float, default=None, help="initial SOC (default per direction)")
    sp.add_argument("--no-cutoffs", action="store_true", help="ignore voltage cutoffs")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("cycle", help="equal-Ah charge/discharge cycling with mass audit")
    add_common(sp)
    sp.add_argument("--crate", type=float, required=True)
    sp.add_argument("--cycles", type=int, required=True)
    sp.add_argument("--enforce-cutoffs", action="store_true",
                    help="stop at voltage cutoffs (off by default for equal-Ah audits)")
    sp.set_defaults(func=cmd_cycle)

    sp = sub.add_parser("observe", help="observability sweep along a profile")
    add_common(sp)
    sp.add_argument("--profile", required=True)
    sp.add_argument("--nr", type=int, required=True, help="solid CV count")
    sp.add_argument("--scheme", choices=("fvm", "fdm"), default="fvm")
    sp.add_argument("--stride", type=float, default=None, help="sweep stride [s]")
    sp.add_argument("--soc", type=float, default=None)
    sp.set_defaults(func=cmd_observe)

    sp = sub.add_parser("identify", help="fit parameters to voltage data")
    add_common(sp)
    sp.add_argument("--data", required=True, help="dataset CSV path(s), comma separated")
    sp.add_argument("--subset", choices=("c4", "c2-1c"), required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=int, default=500)
    sp.add_argument("--decades", type=float, default=1.0,
                    help="log-scale half width of the bounds")
    sp.set_defaults(func=cmd_identify)

    sp = sub.add_parser("compare-scheme", help="FVM vs FDM voltage, mass and conditioning")
    add_common(sp)
    sp.add_argument("--profile", required=True)
    sp.add_argument("--nr", type=int, default=2,
                    help="solid CV/node count for the comparison")
    sp.add_argument("--soc", type=float, default=None, help="initial SOC (default per direction)")
    sp.set_defaults(func=cmd_compare_scheme)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        check_soc(getattr(args, "soc", None), "--soc")
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError) as exc:
        return _error_record(EXIT_MISSING_FILE, exc)
    except (ConfigError, ParameterError) as exc:
        return _error_record(EXIT_BAD_CONFIG, exc)
    except BlowupError as exc:
        return _error_record(EXIT_BLOWUP, exc)
    except (CsespmError, MemoryError) as exc:
        return _error_record(EXIT_RUNTIME, exc)


if __name__ == "__main__":
    sys.exit(main())
