"""Benchmark of csespm: one workload per run, its result as the last line.

    python3 perfbench/run.py --workload drive_hold --seed 1 --seconds 15 --trace 0

The workloads and metrics are declared in BENCHMARK.json at the root of the
checkout and described in perfbench/README.md.  The run imports csespm from
src/ of the checkout that holds this file and exits 2 without a result when
there is none.

--trace 0 repeats rounds of the workload for --seconds and prints the
end-to-end metrics.  --trace 1 runs untraced rounds for the first half of
--seconds and traced rounds for the second half, and prints the per-layer
metrics, the tracing overhead and the share of wall time the spans cover.
Every round's outputs are checked; a failed check exits 1 without a result.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 5


@dataclass
class Round:
    corrected: float    # seconds on the nominal host (clock.py)
    raw: float          # wall seconds less the clock's own samples
    wall: float
    failed: int


class CheckFailed(Exception):
    pass


def measure(wl, clock, seconds, tracer=None) -> list[Round]:
    """Whole rounds until ``seconds`` have passed, at least one."""
    rounds = []
    end = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < end:
        if tracer is not None:
            tracer.install()
        a = time.perf_counter()
        try:
            out = wl.run_round()
        finally:
            b = time.perf_counter()
            if tracer is not None:
                tracer.uninstall()
        corrected, raw = clock.interval(a, b)
        bad = wl.check(out)
        if bad:
            raise CheckFailed("\n".join(bad))
        rounds.append(Round(corrected, raw, b - a, wl.failed(out)))
        del out     # the next round must not find this one's result alive
    return rounds


def fresh_program():
    """Import csespm anew: its modules run again, numpy and scipy stay loaded."""
    for name in [m for m in sys.modules if m == "csespm" or m.startswith("csespm.")]:
        del sys.modules[name]
    csespm = importlib.import_module("csespm")
    if Path(csespm.__file__).resolve().parent != (ROOT / "src" / "csespm").resolve():
        raise ImportError(f"csespm imported from {csespm.__file__}, not from this checkout")
    from workloads import Program
    return Program()


def run(args, spec, clock, config_path) -> tuple[dict, dict]:
    from workloads import WORKLOADS
    pc = time.perf_counter
    setup = {"import": [], "config": [], "inputs": []}
    for _ in range(SETUPS):
        a = pc()
        prog = fresh_program()
        b = pc()
        cfg = prog.config.RunConfig.load(config_path)
        c = pc()
        wl = WORKLOADS[args.workload](prog, cfg, args.seed)
        d = pc()
        for key, (t0, t1) in (("import", (a, b)), ("config", (b, c)), ("inputs", (c, d))):
            setup[key].append(clock.interval(t0, t1)[0])
    setup_s = statistics.median(map(sum, zip(*setup.values())))

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if not args.trace:
        rounds = measure(wl, clock, args.seconds)
        t = statistics.median(r.corrected for r in rounds)
        metrics = {
            "setup_s": setup_s,
            "sim_s_per_s": wl.sim_seconds_per_round / t,
            "ops_per_s": wl.ops_per_round / t,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        from tracing import Tracer, layer_metrics
        untraced = measure(wl, clock, 0.5 * args.seconds)
        tracer = Tracer(cfg.params.c_s_max_p, prog.identify.PENALTY_RMSE)
        traced = measure(wl, clock, 0.5 * args.seconds, tracer)
        rounds = untraced + traced
        factor = sum(r.corrected for r in traced) / sum(r.raw for r in traced)
        metrics = layer_metrics(tracer, len(traced), 1e3 * factor)
        for key, values in setup.items():
            metrics[f"setup.{key}_ms"] = 1e3 * statistics.median(values)
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(r.corrected for r in traced)
            / statistics.median(r.corrected for r in untraced) - 1.0)
        _, parent, dur, _, _ = tracer.spans()
        metrics["trace.span_coverage_pct"] = (
            100.0 * float(dur[parent < 0].sum()) / sum(r.wall for r in traced))
        info["absent_layers"] = tracer.absent
        info["traced_rounds"] = len(traced)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    info["rounds"] = [vars(r) for r in rounds]
    info["setup_s"] = setup

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise KeyError(f"metrics {sorted(set(units) ^ set(metrics))} are computed "
                       f"or declared, not both")
    return info, {
        "correct": True,
        "attempted": wl.ops_per_round * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    config_path = ROOT / "assets" / "config.json"
    missing = [str(p.relative_to(ROOT)) for p in
               (spec_path, ROOT / "src" / "csespm" / "__init__.py", config_path)
               if not p.is_file()]
    if missing:
        print(f"benchmark: not a csespm checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # one process, no added threads: keep BLAS single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from clock import HostClock     # imports numpy, before set-up is timed
    clock = HostClock()
    clock.start()
    try:
        info, result = run(args, spec, clock, config_path)
    except CheckFailed as exc:
        print(f"benchmark: {args.workload} seed {args.seed} failed its checks:\n{exc}",
              file=sys.stderr)
        return 1
    finally:
        clock.stop()

    OUT.mkdir(exist_ok=True)
    info["result"] = result
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1) + "\n")
    times = " ".join(f"{r['corrected']:.3f}/{r['raw']:.3f}" for r in info["rounds"])
    print(f"{args.workload} seed {args.seed}: {len(info['rounds'])} rounds, "
          f"corrected/raw s: {times}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    if info.get("absent_layers"):
        print(f"  absent layers: {', '.join(info['absent_layers'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
