"""The staging benchmark's own check, so that a change to an interface the
benchmark uses fails here rather than in a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    proc = subprocess.run([sys.executable, "bench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 problem(s)"
