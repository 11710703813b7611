"""Spans around the public functions of each sliceprov module.

The wrappers are installed from the benchmark's side: every binding of a
wrapped function in a loaded ``sliceprov`` module (the defining module and
each ``from x import y`` site) is replaced by one wrapper.  Spans are kept in
memory as ``[name, start, end, parent, request, phase, counts]`` and written
out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# Mixture components whose pmf weight is at or below this are skipped by the
# QMC estimator; probability.genz_points counts the rest.
PMF_CUTOFF = 1e-12

SPAN_NAMES = {
    ("probability", "find_gamma_s"): "probability.find_gamma_s",
    ("probability", "psp_of_box"): "probability.psp_of_box",
    ("planner", "calibrate_gamma"): "planner.calibrate_gamma",
    ("planner", "provision"): "planner.provision",
    ("milp", "build_sequential_step"): "milp.build",
    ("milp", "build_joint"): "milp.build",
    ("solver", "solve_model"): "solver.solve_model",
    ("simplex", "solve_lp"): "simplex.solve_lp",
    ("demand", "sample_aggregate"): "demand.sample_aggregate",
    ("demand", "sample_background"): "demand.sample_background",
    ("evaluation", "metrics"): "evaluation.metrics",
    ("evaluation", "verify_by_simulation"): "evaluation.verify_by_simulation",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_psp(args, kwargs, result):
    spec, cfg = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 2, "cfg")
    probs = spec.user_count.probs
    components = int(np.count_nonzero(probs[1:] > PMF_CUTOFF))
    return {"genz_points": components * cfg.samples * cfg.randomizations}


def _count_model(args, kwargs, model):
    return {
        "variables": len(model.variables),
        "constraints": len(model.constraints),
        "nonzeros": sum(len(row.terms) for row in model.constraints),
    }


def _count_solve(args, kwargs, result):
    return {"bnb_nodes": result.node_count}


def _count_lp(args, kwargs, result):
    return {"iterations": result.iterations}


def _count_draws(args, kwargs, result):
    return {"draws": int(result.shape[0])}


COUNTERS = {
    "probability.psp_of_box": _count_psp,
    "milp.build": _count_model,
    "solver.solve_model": _count_solve,
    "simplex.solve_lp": _count_lp,
    "demand.sample_aggregate": _count_draws,
}


class Tracer:
    """Records spans while ``enabled``; the phase and request id are set by
    the caller around each operation."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.enabled = False
        self.phase = "setup"
        self.request = None
        self._installed = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            span = [name, time.perf_counter(), None, parent, tracer.request, tracer.phase, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every binding of the traced functions in loaded sliceprov modules."""
        modules = {
            name: module for name, module in sys.modules.items()
            if name.startswith("sliceprov") and module is not None
        }
        for (mod_name, attr), span_name in SPAN_NAMES.items():
            fn = getattr(modules[f"sliceprov.{mod_name}"], attr)
            wrapper = self._wrap(span_name, fn)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, fn))

    def uninstall(self):
        for module, key, fn in reversed(self._installed):
            setattr(module, key, fn)
        self._installed.clear()

    def write(self, path, meta):
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "request", "phase", "counts"]
        with open(path, "w") as handle:
            json.dump({"meta": meta, "fields": fields, "spans": self.spans}, handle)


def _phase_layers(spans, ids):
    """Per-layer totals over the spans with the given indices."""
    out = defaultdict(float)
    child_time = defaultdict(float)
    children = defaultdict(list)
    for i in ids:
        parent = spans[i][3]
        if parent is not None:
            child_time[parent] += spans[i][2] - spans[i][1]
            children[parent].append(i)
    for i in ids:
        name, start, end, _, _, _, counts = spans[i]
        dur = end - start
        counts = counts or {}
        if name == "probability.find_gamma_s":
            out["probability.find_gamma_s_s"] += dur
        elif name == "probability.psp_of_box":
            out["probability.psp_evals"] += 1
            out["probability.psp_of_box_s"] += dur
            out["probability.genz_points"] += counts["genz_points"]
        elif name == "planner.calibrate_gamma":
            out["planner.calibrate_gamma_calls"] += 1
            if any(spans[c][0] == "probability.find_gamma_s" for c in children[i]):
                out["planner.calibrate_gamma_misses"] += 1
        elif name == "planner.provision":
            out["planner.provision_self_s"] += dur - child_time[i]
        elif name == "milp.build":
            out["milp.build_s"] += dur
            out["milp.models"] += 1
            out["milp.variables"] += counts["variables"]
            out["milp.constraints"] += counts["constraints"]
            out["milp.nonzeros"] += counts["nonzeros"]
        elif name == "solver.solve_model":
            out["solver.solves"] += 1
            out["solver.solve_model_s"] += dur
            out["solver.bnb_nodes"] += counts["bnb_nodes"]
            out["solver.self_s"] += dur - child_time[i]
        elif name == "simplex.solve_lp":
            out["simplex.lp_solves"] += 1
            out["simplex.solve_lp_s"] += dur
            out["simplex.iterations"] += counts["iterations"]
        elif name == "demand.sample_aggregate":
            out["demand.sample_aggregate_s"] += dur
            out["demand.sample_aggregate_draws"] += counts["draws"]
        elif name == "demand.sample_background":
            out["demand.sample_background_s"] += dur
        elif name == "evaluation.metrics":
            out["evaluation.metrics_s"] += dur
    return out


COUNT_METRICS = (
    "probability.psp_evals",
    "probability.genz_points",
    "planner.calibrate_gamma_calls",
    "planner.calibrate_gamma_misses",
    "milp.models",
    "milp.variables",
    "milp.constraints",
    "milp.nonzeros",
    "solver.solves",
    "solver.bnb_nodes",
    "simplex.lp_solves",
    "simplex.iterations",
    "demand.sample_aggregate_draws",
)
TIME_METRICS = (
    "probability.find_gamma_s_s",
    "probability.psp_of_box_s",
    "planner.provision_self_s",
    "milp.build_s",
    "solver.solve_model_s",
    "solver.self_s",
    "simplex.solve_lp_s",
    "demand.sample_aggregate_s",
    "demand.sample_background_s",
    "evaluation.metrics_s",
)


def layer_metrics(spans, traced_rounds):
    """Per-layer figures of the set-up plus one round.

    Counts come from the first traced round, and the rounds must agree on
    them exactly (returned as ``counts_repeat``); times take the median over
    the traced rounds.
    """
    by_phase = defaultdict(list)
    for i, span in enumerate(spans):
        by_phase[span[5]].append(i)
    setup = _phase_layers(spans, by_phase["setup"])
    rounds = [_phase_layers(spans, by_phase[phase]) for phase in traced_rounds]
    counts_repeat = all(
        all(r.get(k, 0) == rounds[0].get(k, 0) for k in COUNT_METRICS) for r in rounds
    )
    metrics = {}
    for key in COUNT_METRICS:
        metrics[key] = (int(setup.get(key, 0) + rounds[0].get(key, 0)), "count")
    for key in TIME_METRICS:
        value = setup.get(key, 0.0) + float(np.median([r.get(key, 0.0) for r in rounds]))
        metrics[key] = (value, "s")
    metrics["trace.spans"] = (len(by_phase["setup"]) + len(by_phase[traced_rounds[0]]), "count")
    lp_solves = metrics["simplex.lp_solves"][0]
    metrics["simplex.iterations_per_lp"] = (
        metrics["simplex.iterations"][0] / lp_solves if lp_solves else 0.0, "count",
    )
    return metrics, counts_repeat
