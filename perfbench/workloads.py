"""Set-up, measured rounds and checks of one benchmark run.

A run builds its inputs, calibrates the margins the requests need (set-up),
then repeats whole rounds of the same operations until the measurement time
is used up, and finally checks the outputs of the first round apart from the
program.  Every round does identical work, so rounds must agree exactly.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

import numpy as np

from sliceprov import evaluation, planner, probability

import checks
from clock import Clock
import inputs as bench_inputs
from tracing import Tracer, layer_metrics

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _variants():
    return {
        name: planner.variant_from_name(name, max_impact=bench_inputs.MAX_IMPACT)
        for name in ("SP", "SP-B", "JP", "JP-B")
    }


def _plan_signature(plan):
    return (
        round(plan.earnings, 9),
        tuple(sorted(
            (sid, sp.accepted, tuple(sorted(sp.node_counts.items())),
             tuple(sorted(sp.link_counts.items())))
            for sid, sp in plan.slices.items()
        )),
    )


class Round:
    """Outputs and per-operation timings of one round."""

    def __init__(self):
        self.times = {"calibrate_s": [], "provision_s": [], "verify_s": []}  # nominal s
        self.wall = {"calibrate_s": [], "provision_s": [], "verify_s": []}
        self.earnings = 0.0
        self.attempted = 0
        self.failed = 0
        self.gammas = []  # (spec, gamma), one per calibrated spec
        self.plans = []  # (request, plan, verification report)

    def record(self, key, wall, nominal):
        self.wall[key].append(wall)
        self.times[key].append(nominal)

    def signature(self):
        return (
            tuple(g for _, g in self.gammas),
            tuple(_plan_signature(plan) for _, plan, _ in self.plans),
        )


def _median_total(rounds, key, field="times"):
    """Sum over the operations of a round of each operation's median time
    across rounds."""
    ops = len(getattr(rounds[0], field)[key])
    per_op = [getattr(r, field)[key] for r in rounds if len(getattr(r, field)[key]) == ops]
    return float(np.sum(np.median(np.array(per_op), axis=0)))


def _fail(what, exc):
    print(f"operation failed: {what}: {exc!r}", file=sys.stderr)


def run_round(data, variants, tracer, clock):
    out = Round()
    cfg = probability.QmcConfig()
    for spec in data.calibrate_specs:
        tracer.request = spec.id
        out.attempted += 1
        try:
            gamma, wall, nominal = clock.time("genz", probability.find_gamma_s, spec, cfg)
        except Exception as exc:  # counted as a failed operation
            out.failed += 1
            _fail(f"calibrate {spec.id}", exc)
            continue
        out.record("calibrate_s", wall, nominal)
        out.gammas.append((spec, gamma))
    for request, verify_seed in zip(data.requests, data.verify_seeds):
        tracer.request = request.id
        out.attempted += 2
        try:
            plan, wall, nominal = clock.time(
                "pivot", planner.provision, list(request.specs), data.graph,
                variants[request.variant], background=data.background,
            )
        except Exception as exc:  # counted as a failed operation
            out.failed += 2
            _fail(f"provision {request.id}", exc)
            continue
        out.record("provision_s", wall, nominal)
        if any(status != "optimal" for status in plan.solver_status.values()):
            out.failed += 1
            _fail(f"provision {request.id}", plan.solver_status)
        try:
            report, wall, nominal = clock.time(
                "sample", evaluation.verify_by_simulation, plan, data.graph, data.background,
                bench_inputs.VERIFY_TRIALS, seed=verify_seed,
            )
        except Exception as exc:  # counted as a failed operation
            out.failed += 1
            _fail(f"verify {request.id}", exc)
            continue
        out.record("verify_s", wall, nominal)
        evaluation.metrics(plan, data.graph, data.background, bench_inputs.MAX_IMPACT)
        out.earnings += plan.earnings
        out.plans.append((request, plan, report))
    tracer.request = None
    return out


def _margin_specs(first):
    """Each calibrated margin once: the round's cold calibrations and the
    margins the plans carry."""
    seen = {}
    for spec, gamma in first.gammas:
        seen.setdefault(spec.fingerprint(), (spec, gamma))
    for _, plan, _ in first.plans:
        for sp in plan.slices.values():
            seen.setdefault(sp.spec.fingerprint(), (sp.spec, sp.gamma))
    return list(seen.values())


def run_checks(workload, data, variants, first, captured):
    """Problems found in the first round's outputs; empty when all hold."""
    rng = np.random.default_rng(data.check_seed)
    problems = []
    for model, result in captured:
        problems.extend(checks.check_solve(model, result))
    for request, plan, report in first.plans:
        impact_aware = variants[request.variant].impact_aware
        problems.extend(
            checks.check_plan(plan, data.graph, data.background, impact_aware,
                              bench_inputs.MAX_IMPACT)
        )
        for sid, sp in plan.slices.items():
            if sp.accepted:
                problems.extend(checks.check_psp(
                    sp.spec, checks.provisioned_amounts(sp.spec, sp), rng, f"{sid} provisioned",
                ))
        problems.extend(checks.check_verification(
            plan, report, data.graph, data.background, bench_inputs.VERIFY_TRIALS, rng,
        ))
    cold = {spec.fingerprint(): gamma for spec, gamma in first.gammas}
    for _, plan, _ in first.plans:
        for sid, sp in plan.slices.items():
            if cold.get(sp.spec.fingerprint(), sp.gamma) != sp.gamma:
                problems.append(f"{sid}: plan margin {sp.gamma} != cold calibration")
    for spec, gamma in _margin_specs(first):
        problems.extend(checks.check_margin(spec, gamma, rng))
    if workload == "joint":
        for request, plan, _ in first.plans:
            sequential = "SP-B" if variants[request.variant].impact_aware else "SP"
            seq_plan = planner.provision(
                list(request.specs), data.graph, variants[sequential],
                background=data.background,
            )
            problems.extend(checks.check_joint_dominates(
                plan.earnings, seq_plan.earnings, request.id,
            ))
    return problems


def run(workload, seed, seconds, trace, started):
    """One benchmark run; returns the result object printed by run.py.

    ``started`` is the ``time.perf_counter()`` reading of the process start.
    """
    tracer = Tracer()
    if trace:
        tracer.install()
        tracer.enabled = True
    capture = checks.Capture(planner)
    data = bench_inputs.make_inputs(workload, seed)
    variants = _variants()
    for request in data.requests:
        tracer.request = request.id
        for spec in request.specs:
            planner.calibrate_gamma(spec, variants[request.variant])
    tracer.request = None
    setup_wall = time.perf_counter() - started
    # The first reference runs after the cold set-up, so it cannot warm it.
    clock = Clock()
    setup_s = clock.scale_total(setup_wall)

    rounds = []
    traced_phases = []
    loop_start = time.perf_counter()
    while True:
        index = len(rounds)
        # A traced run alternates untraced and traced rounds, starting with an
        # untraced one (which also feeds the checks); the difference between
        # the two kinds is the tracing overhead.
        tracer.phase = f"round{index}"
        tracer.enabled = trace and index % 2 == 1
        if tracer.enabled:
            traced_phases.append(tracer.phase)
        capture.active = index == 0
        rounds.append(run_round(data, variants, tracer, clock))
        capture.active = False
        elapsed = time.perf_counter() - loop_start
        need_more = trace and len(rounds) < 2
        if not need_more and elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            break
    tracer.enabled = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = rounds[0]
    problems = run_checks(workload, data, variants, first, capture.pairs)
    if not capture.pairs and first.plans:
        problems.append("no solve was captured")
    if any(r.signature() != first.signature() for r in rounds[1:]):
        problems.append("rounds of identical work gave different outputs")
    capture.uninstall()

    if trace:
        tracer.uninstall()
        layers, counts_repeat = layer_metrics(tracer.spans, traced_phases)
        if not counts_repeat:
            problems.append("per-layer counts differ between identical rounds")
        nominal = [sum(sum(t) for t in r.times.values()) for r in rounds]
        traced_s, untraced_s = np.median(nominal[1::2]), np.median(nominal[0::2])
        layers["trace.overhead_pct"] = (100.0 * float(traced_s / untraced_s - 1.0), "%")
        tracer.write(
            RESULTS_DIR / f"trace-{workload}-seed{seed}.json",
            {"workload": workload, "seed": seed, "rounds": len(rounds),
             "traced_rounds": traced_phases},
        )
        metrics = layers
    else:
        raw = {key: _median_total(rounds, key, "wall") for key in rounds[0].wall}
        print(f"wall time: setup_s {setup_wall:.4f}, "
              + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()), file=sys.stderr)
        print("reference kernels: " + ", ".join(
            f"{kind} {np.median([h[kind] for h in clock.history]):.5f}" for kind in clock.last
        ), file=sys.stderr)
        metrics = {
            "setup_s": (setup_s, "s"),
            "calibrate_s": (_median_total(rounds, "calibrate_s"), "s"),
            "provision_s": (_median_total(rounds, "provision_s"), "s"),
            "verify_s": (_median_total(rounds, "verify_s"), "s"),
            "earnings": (first.earnings, "income"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
