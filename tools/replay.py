"""Replay the benchmark's provisioning requests and print a digest of them.

Usage, from the root of a source checkout:

    python3 tools/replay.py [--seeds 1-5] [--workloads calibrate,sequential,joint]
                            [--src DIR] [--details]

For each workload and seed, the requests are built by ``perfbench/inputs.py``
(imported as it is) and each is provisioned once with the benchmark's
variant.  One line per workload and seed gives the request, solve, node, LP
and simplex iteration counts, and a SHA-256 digest over every request's
earnings (as ``float.hex``), placements and solver statuses, and over every
MILP solve's exported LP text, status, node count, LP count and iterations.
``--details`` prints these records before the line.

The LPs and iterations are counted around ``sliceprov.solver.solve_lp``, so
the tool also runs on checkouts whose solve results do not count them.
Comparing a change with its parent is a diff of two runs:

    python3 tools/replay.py > change.txt
    python3 tools/replay.py --src PARENT_CHECKOUT/src > parent.txt
    diff parent.txt change.txt

Basis inversions and the starts of the LPs (cold, continued from the
parent's tableau, or inverted), which are not part of the digest, go to
standard error when the solve results report them.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("calibrate", "sequential", "joint")
VARIANTS = ("SP", "SP-B", "JP", "JP-B")
# SolveResult counts reported on standard error, where a checkout has them.
SIDE_COUNTS = ("factorizations", "cold_lps", "continued_lps", "inverted_lps")


def _seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def _placements(plan):
    return tuple(
        (sid, sp.accepted, tuple(sorted(sp.node_counts.items())),
         tuple(sorted(sp.link_counts.items())))
        for sid, sp in sorted(plan.slices.items())
    )


class Recorder:
    """Wraps ``planner.solve_model`` and ``solver.solve_lp`` to record each
    MILP solve of a request with its LP iterations."""

    def __init__(self, planner, solver, export_lp):
        self.solves = []
        self._export_lp = export_lp
        solve_model, solve_lp = planner.solve_model, solver.solve_lp
        iterations = []

        def recording_solve_lp(*args, **kwargs):
            res = solve_lp(*args, **kwargs)
            iterations.append(res.iterations)
            return res

        def recording_solve_model(model, *args, **kwargs):
            iterations.clear()
            res = solve_model(model, *args, **kwargs)
            self.solves.append((model, res, list(iterations)))
            return res

        planner.solve_model = recording_solve_model
        solver.solve_lp = recording_solve_lp

    def records(self):
        """Per solve: (LP text digest, status, nodes, LPs, iterations)."""
        return [
            (hashlib.sha256(self._export_lp(model).encode()).hexdigest()[:16],
             res.status, res.node_count, len(iterations), sum(iterations))
            for model, res, iterations in self.solves
        ]


def replay(workload, seed, planner, recorder, bench_inputs, details):
    data = bench_inputs.make_inputs(workload, seed)
    variants = {
        name: planner.variant_from_name(name, max_impact=bench_inputs.MAX_IMPACT)
        for name in VARIANTS
    }
    digest = hashlib.sha256()
    solves = nodes = lps = iterations = 0
    side = dict.fromkeys(SIDE_COUNTS, 0)
    for request in data.requests:
        recorder.solves.clear()
        plan = planner.provision(list(request.specs), data.graph, variants[request.variant],
                                 background=data.background)
        records = recorder.records()
        request_record = (request.id, request.variant, float(plan.earnings).hex(),
                          _placements(plan), sorted(plan.solver_status.items()), records)
        digest.update(repr(request_record).encode())
        if details:
            print(repr(request_record))
        solves += len(records)
        nodes += sum(r[2] for r in records)
        lps += sum(r[3] for r in records)
        iterations += sum(r[4] for r in records)
        for name in side:
            side[name] += sum(getattr(res, name, 0) for _, res, _ in recorder.solves)
    print(f"{workload} seed {seed}: requests {len(data.requests)}, solves {solves}, "
          f"nodes {nodes}, lps {lps}, iterations {iterations}, "
          f"digest {digest.hexdigest()[:16]}", flush=True)
    return side


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-5"),
                        help="one seed or an inclusive range such as 1-5")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src/ directory of the checkout to replay")
    parser.add_argument("--details", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")

    src = args.src.resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import sliceprov
    from sliceprov import planner, solver

    if Path(sliceprov.__file__).resolve().parent.parent != src:
        print(f"sliceprov imported from {sliceprov.__file__}, not {src}", file=sys.stderr)
        return 2
    import inputs as bench_inputs

    recorder = Recorder(planner, solver, solver.export_lp)
    for workload in workloads:
        total = dict.fromkeys(SIDE_COUNTS, 0)
        for seed in args.seeds:
            for name, count in replay(workload, seed, planner, recorder, bench_inputs,
                                      args.details).items():
                total[name] += count
        seeds = f"over seeds {args.seeds.start}-{args.seeds.stop - 1}"
        if hasattr(solver.SolveResult, "factorizations"):
            print(f"{workload}: {total['factorizations']} basis inversions {seeds}",
                  file=sys.stderr)
        if hasattr(solver.SolveResult, "continued_lps"):
            print(f"{workload}: LPs {total['cold_lps']} cold, {total['continued_lps']} "
                  f"continued, {total['inverted_lps']} inverted {seeds}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
