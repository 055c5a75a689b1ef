"""Spans and counts at csespm's layer boundaries, for the traced run.

The tracer wraps callables from outside the package: each is replaced,
under the name its caller looks it up by, with a wrapper that records a
span (name, start, end, parent span) and may pass the result through a hook
that counts or rewraps it.  Spans live in flat arrays while the run lasts;
a span's self time is its duration minus that of its child spans.
Helpers that take well under a microsecond (systems.spherical_cells is
called ~300k times per hour of drive_hold) are left unwrapped.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# (module, attribute path, span name).  A name wrapped under two lookups
# counts both: annulus_remap is called from the integrator and from the
# exit remap, simulate from the benchmark and from the identification
# objective.
LAYERS = (
    ("csespm.simulate", "simulate", "simulate.simulate"),
    ("csespm.identify", "simulate", "simulate.simulate"),
    ("csespm.simulate", "Integrator.__init__", "simulate.Integrator.__init__"),
    ("csespm.simulate", "Integrator.advance", "simulate.Integrator.advance"),
    ("csespm.simulate", "_fvm_two_phase_substep", "simulate._fvm_two_phase_substep"),
    ("csespm.simulate", "AffinePropagator.__init__", "simulate.AffinePropagator.__init__"),
    ("csespm.simulate", "AffinePropagator.step", "simulate.AffinePropagator.step"),
    ("csespm.simulate", "cell_voltage", "output.cell_voltage"),
    ("csespm.simulate", "annulus_remap", "phase.annulus_remap"),
    ("csespm.phase", "annulus_remap", "phase.annulus_remap"),
    ("csespm.simulate", "transition_margin", "phase.transition_margin"),
    ("csespm.simulate", "enter_two_phase", "phase.enter_two_phase"),
    ("csespm.simulate", "exit_two_phase", "phase.exit_two_phase"),
    ("csespm.simulate", "apply_sign_flip", "phase.apply_sign_flip"),
    ("csespm.systems", "shell_block", "systems.shell_block"),
    ("csespm.ocp", "OcpTable.__call__", "ocp.OcpTable.__call__"),
    ("csespm.observability", "sweep", "observability.sweep"),
    ("csespm.observability", "positive_model", "observability.positive_model"),
    ("csespm.observability", "observability_matrix", "observability.observability_matrix"),
    ("csespm.observability", "rank_and_condition", "observability.rank_and_condition"),
    ("csespm.identify", "identify", "identify.identify"),
    ("csespm.identify", "voltage_rmse", "identify.voltage_rmse"),
)


class Tracer:
    """Installs the LAYERS wrappers while active and keeps their spans."""

    def __init__(self, c_s_max_p: float, penalty_rmse: float):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts = {"out_of_range": 0, "penalties": 0, "f_evals": 0, "h_evals": 0}
        self.absent: list[str] = []
        self._patches: list[tuple] = []
        self.hooks = {
            "simulate.Integrator.advance": self._out_of_range_hook(c_s_max_p),
            "identify.voltage_rmse": self._penalty_hook(penalty_rmse),
            "observability.positive_model": self._model_hook,
        }

    # --- hooks -------------------------------------------------------------------

    def _out_of_range_hook(self, cmax):
        def hook(state, args):
            pos = state.pos
            if not (np.isfinite(pos).all() and pos.min() >= 0.0 and pos.max() <= cmax):
                self.counts["out_of_range"] += 1
            return state
        return hook

    def _penalty_hook(self, penalty):
        def hook(rmse, args):
            if rmse == penalty:
                self.counts["penalties"] += 1
            return rmse
        return hook

    def _model_hook(self, model, args):
        f, h, x0, scales = model
        counts = self.counts

        def f_counted(x, u):
            counts["f_evals"] += 1
            return f(x, u)

        def h_counted(x, u):
            counts["h_evals"] += 1
            return h(x, u)

        return f_counted, h_counted, x0, scales

    # --- wrapping ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def _wrap(self, owner, attr: str, fn, name: str):
        nid = self._id(name)
        hook = self.hooks.get(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            return out if hook is None else hook(out, args)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def install(self):
        for module, path, name in LAYERS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = (vars(owner).get(attr) if isinstance(owner, type)
                  else getattr(owner, attr, None))
            if fn is None:
                # a later version no longer has this name: report it, go on
                if f"{module}:{path}" not in self.absent:
                    self.absent.append(f"{module}:{path}")
                continue
            self._wrap(owner, attr, fn, name)

    def uninstall(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # --- analysis ---------------------------------------------------------------

    def spans(self):
        """(name id, parent index, duration, self time, start) per span."""
        # copies: a live view would stop the arrays from growing
        name = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.int64).copy()
        start = np.frombuffer(self.span_start).copy()
        dur = np.frombuffer(self.span_end) - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return name, parent, dur, dur - child, start

    def save(self, path):
        name, parent, dur, _, start = self.spans()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            start=start, end=start + dur)


def layer_metrics(tracer: Tracer, rounds: int, ms_scale: float) -> dict[str, float]:
    """Per-round layer figures of the traced rounds.

    ``ms_scale`` turns raw span seconds into corrected milliseconds, the
    unit of the end-to-end times (see clock.py).
    """
    name, parent, dur, self_t, start = tracer.spans()
    n = len(tracer.names)
    calls = np.bincount(name, minlength=n)
    total = np.bincount(name, weights=dur, minlength=n) * ms_scale
    own = np.bincount(name, weights=self_t, minlength=n) * ms_scale
    ids = tracer.ids

    def get(arr, key):
        return float(arr[ids[key]]) if key in ids else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for key in ("simulate.Integrator.__init__", "simulate.Integrator.advance",
                "simulate._fvm_two_phase_substep", "simulate.AffinePropagator.__init__",
                "simulate.AffinePropagator.step", "output.cell_voltage",
                "phase.annulus_remap", "phase.transition_margin", "phase.enter_two_phase",
                "phase.exit_two_phase", "phase.apply_sign_flip", "systems.shell_block",
                "ocp.OcpTable.__call__", "observability.observability_matrix",
                "identify.voltage_rmse"):
        out[f"{key}.calls"] = get(calls, key) / rounds
    for key in ("simulate.Integrator.advance", "simulate._fvm_two_phase_substep",
                "simulate.AffinePropagator.__init__", "simulate.AffinePropagator.step",
                "simulate.simulate", "output.cell_voltage", "phase.annulus_remap",
                "systems.shell_block", "ocp.OcpTable.__call__",
                "observability.rank_and_condition", "identify.identify"):
        out[f"{key}.self_ms"] = get(own, key) / rounds
    for key in ("simulate.Integrator.__init__", "observability.observability_matrix",
                "identify.voltage_rmse"):
        out[f"{key}.ms_per_call"] = ratio(get(total, key), get(calls, key))

    # accepted steps: output-map calls of simulate, less its initial record
    steps = get(calls, "output.cell_voltage") - get(calls, "simulate.simulate")
    advances = get(calls, "simulate.Integrator.advance")
    out["simulate.Integrator.advance.per_step"] = ratio(advances, steps)
    out["simulate.Integrator.advance.out_of_range"] = tracer.counts["out_of_range"] / rounds
    out["simulate._fvm_two_phase_substep.per_advance"] = ratio(
        get(calls, "simulate._fvm_two_phase_substep"), advances)
    out["identify.voltage_rmse.penalties"] = tracer.counts["penalties"] / rounds
    points = get(calls, "observability.observability_matrix")
    out["observability.h_evals_per_point"] = ratio(tracer.counts["h_evals"], points)
    out["observability.f_evals_per_point"] = ratio(tracer.counts["f_evals"], points)

    # time between consecutive output-map calls of one simulate call
    intervals = np.array([])
    if "output.cell_voltage" in ids:
        mine = name == ids["output.cell_voltage"]
        t, par = start[mine], parent[mine]
        same = par[1:] == par[:-1]
        intervals = np.diff(t)[same] * ms_scale
    out["simulate.step_interval_ms.p50"] = (
        float(np.percentile(intervals, 50)) if intervals.size else 0.0)
    out["simulate.step_interval_ms.p99"] = (
        float(np.percentile(intervals, 99)) if intervals.size else 0.0)
    return out
