"""Provisioning benchmark of sliceprov.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {calibrate,sequential,joint} \
        --seed N --seconds S --trace {0,1}

Prints one JSON object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  The program is
imported from ``src/`` of the checkout; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path


def _process_age():
    """Seconds since this process started, from /proc when available."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        start_ticks = int(fields[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


STARTED = time.perf_counter() - _process_age()
BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("calibrate", "sequential", "joint"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC_DIR))
    try:
        import sliceprov
    except ImportError as exc:
        print(f"cannot import sliceprov from {SRC_DIR}: {exc}", file=sys.stderr)
        return 2
    if Path(sliceprov.__file__).resolve().parent.parent != SRC_DIR:
        print(f"sliceprov imported from {sliceprov.__file__}, not {SRC_DIR}", file=sys.stderr)
        return 2

    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), STARTED)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
