import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _replay(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay.py"), *args],
        capture_output=True, text=True, check=True,
    )


def test_replay_prints_one_digest_line_per_seed():
    run = _replay("--seeds", "1-2", "--workloads", "calibrate")
    lines = run.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["calibrate seed 1", "calibrate seed 2"]
    for line in lines:
        assert "solves 1, nodes 2, lps 2, iterations 97, digest " in line
    # The root LP starts from the slack basis, which needs no inversion, and
    # its child continues from the root's final tableau.
    assert "calibrate: 0 basis inversions over seeds 1-2" in run.stderr
    assert "calibrate: LPs 2 cold, 2 continued, 0 inverted over seeds 1-2" in run.stderr
    # Replays are deterministic, and --details adds the records only.
    detailed = _replay("--seeds", "1-2", "--workloads", "calibrate", "--details")
    records = [line for line in detailed.stdout.splitlines() if line.startswith("(")]
    assert len(records) == 2
    assert [line for line in detailed.stdout.splitlines() if line not in records] == lines


def test_replay_pins_the_search_of_seed_1():
    run = _replay("--seeds", "1", "--workloads", "sequential,joint")
    lines = run.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["sequential seed 1", "joint seed 1"]
    assert "requests 5, solves 5, nodes 61, lps 61, iterations 795, digest " in lines[0]
    assert "requests 4, solves 16, nodes 60, lps 60, iterations 1968, digest " in lines[1]
    # Every root is cold, and every child continues from its parent's tableau.
    assert "sequential: 0 basis inversions over seeds 1-1" in run.stderr
    assert "sequential: LPs 5 cold, 56 continued, 0 inverted over seeds 1-1" in run.stderr
    assert "joint: 0 basis inversions over seeds 1-1" in run.stderr
