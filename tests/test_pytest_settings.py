"""The suite's pytest settings let a failing property report itself.

With ``filterwarnings = ["error"]`` alone, a DeprecationWarning that the
hypothesis plugin raises while it reports a falsifying example became an
INTERNALERROR: the session stopped, the example was lost and every later
test went unrun.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

MODULE = textwrap.dedent("""\
    from hypothesis import given, settings, strategies as st

    @settings(derandomize=True, database=None)
    @given(st.integers())
    def test_failing_property(x):
        assert x < 5

    def test_after_it():
        pass
""")


def test_failing_property_reports_its_example_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_module.py").write_text(MODULE)
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_module.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 1, res.stdout[-4000:] + res.stderr[-4000:]
    assert "INTERNALERROR" not in res.stdout + res.stderr
    assert "Falsifying example: test_failing_property(" in res.stdout
    assert "1 failed, 1 passed" in res.stdout
