"""The benchmark's smoke run: every workload at its smallest size, both modes.

It exercises the benchmark's correctness gates (the scan gates at 1e-8
and 1e-10 among them) and the tracer's bindings to module attributes
against the current program, and checks the output schema against
BENCHMARK.json.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
