"""Runs the benchmark's own tiny-size self-test so that it cannot rot.

The self-test runs the CLI through the benchmark at tiny sizes (about 15 s on
a 2-vCPU machine), checks that every metric of BENCHMARK.json is produced,
and that the traced run sees two Uhlmann-phase calls per grid point.  It has
no timing bound.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    res = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert res.returncode == 0, res.stdout[-4000:] + res.stderr[-4000:]
