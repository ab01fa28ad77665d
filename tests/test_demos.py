"""Runs every demo script end to end so that none of them rots.

Each demo is copied into a temporary directory and run there, so its
outputs land under that directory's ``out/`` and not in the checkout.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

# files each demo writes under out/
OUTPUTS = {
    "01_correlators_and_sum_rule.py": set(),
    "02_interferometric_deviation.py": {
        "interferometric_deviation.csv", "interferometric_deviation.svg",
    },
    "03_uhlmann_deviation.py": {
        "uhlmann_small_coupling.csv", "uhlmann_small_coupling.svg",
    },
    "04_critical_comparison.py": {
        "critical_window.csv",
        "critical_window_delta_gamma_unwrapped.svg",
        "critical_window_delta_gamma_u_unwrapped.svg",
    },
    "05_critical_singularity.py": set(),
}


def test_every_demo_is_listed():
    assert [d.name for d in DEMOS] == sorted(OUTPUTS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(tmp_path, demo):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stdout[-4000:] + res.stderr[-4000:]
    out = tmp_path / "out"
    written = {p.name for p in out.iterdir()} if out.exists() else set()
    assert written == OUTPUTS[demo.name]
