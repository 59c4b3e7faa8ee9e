"""Every demo script runs to completion against the current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo: Path, cwd: Path) -> subprocess.CompletedProcess:
    # Run from a scratch directory: some demos write files into the cwd.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_codec_demo_shows_where_the_bytes_go(tmp_path):
    # A 128x90 fovea: a 1440-byte bitmap under a 180-byte index. Noise
    # stores every bitmap byte, misses nearly every pixel and escapes nearly
    # every symbol; the fovea leaves some bitmap bytes out and escapes a
    # minority.
    proc = run_demo(ROOT / "demos" / "03_codec_roundtrip.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    parts = dict(
        (name, (int(stored), int(symbols), float(escaped), int(total)))
        for name, stored, symbols, escaped, total in re.findall(
            r"^(rendered fovea|uniform noise): bitmap 1440 bytes, (\d+) stored after a 180-byte index, "
            r"(\d+) symbols, ([\d.]+)% escaped, deflated to (\d+) bytes$", proc.stdout, re.M)
    )
    assert set(parts) == {"rendered fovea", "uniform noise"}
    assert parts["uniform noise"][0] == 1440
    assert parts["uniform noise"][1] > 0.99 * 128 * 90 and parts["uniform noise"][2] > 99
    assert parts["rendered fovea"][0] < 1440 and parts["rendered fovea"][2] < 50
