"""The benchmark's set-up probe, `bench/probe.py`, run on this checkout's
sources as the benchmark runs it: it builds `build_gn(n)` or
`PhaseContext(n, N, rows)`, and a probe that fails fails the benchmark."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ROWS = [["-2", "8/3", "4", "7", "-2", "7/4"],
        ["-1/4", "1/2", "-9", "-1/4", "6", "2"]]


@pytest.mark.parametrize("args", [["6"], ["4", "6", json.dumps(ROWS)]],
                         ids=["algebra", "context"])
def test_probe_exits_0(args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "probe.py"), *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
