"""The benchmark runs end to end against the current package: its call
signatures, the hello and its correctness gate all hold."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# The traced run also drives the benchmark's seams into the runtimes and its
# per-frame wire byte count in a real two-process session.
@pytest.mark.parametrize("trace", ["0", "1"], ids=["trace0", "trace1"])
def test_short_desk_run_is_correct(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_tcp", "--seed", "1",
         "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
