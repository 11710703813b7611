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
        assert "solves 1, nodes 1, lps 1, iterations 105, digest " in line
    # The root LP starts from the slack basis, which needs no inversion.
    assert "calibrate: 0 basis inversions over seeds 1-2" in run.stderr
    # Replays are deterministic, and --details adds the records only.
    detailed = _replay("--seeds", "1-2", "--workloads", "calibrate", "--details")
    records = [line for line in detailed.stdout.splitlines() if line.startswith("(")]
    assert len(records) == 2
    assert [line for line in detailed.stdout.splitlines() if line not in records] == lines
