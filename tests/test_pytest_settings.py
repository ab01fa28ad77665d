"""The suite's pytest settings let a failing property report itself, and
fail a run on a misspelt marker or an unknown ini key.

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

PASSING = "def test_passing():\n    pass\n"


def run_pytest(tmp_path, module, config=PYPROJECT):
    """Run one test module in a pytest subprocess under the given settings."""
    (tmp_path / "test_module.py").write_text(module)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_module.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


def test_failing_property_reports_its_example_and_the_session_goes_on(tmp_path):
    res = run_pytest(tmp_path, MODULE)
    assert res.returncode == 1, res.stdout[-4000:] + res.stderr[-4000:]
    assert "INTERNALERROR" not in res.stdout + res.stderr
    assert "Falsifying example: test_failing_property(" in res.stdout
    assert "1 failed, 1 passed" in res.stdout


# Both fail by --strict-markers and --strict-config, and, where a pytest
# ignores those flags in addopts, by the "error" filter on the warning it
# raises instead.

def test_misspelt_marker_fails_the_run(tmp_path):
    res = run_pytest(tmp_path, "import pytest\n\n@pytest.mark.slwo\n" + PASSING)
    assert res.returncode != 0, res.stdout[-4000:]
    assert "slwo" in res.stdout + res.stderr
    assert "1 passed" not in res.stdout


def test_unknown_ini_key_fails_the_run(tmp_path):
    section = "[tool.pytest.ini_options]\n"
    config = tmp_path / "pyproject.toml"
    config.write_text(PYPROJECT.read_text().replace(section, section + "bogus_key = 1\n"))
    res = run_pytest(tmp_path, PASSING, config)
    assert res.returncode != 0, res.stdout[-4000:]
    assert "Unknown config option: bogus_key" in res.stdout + res.stderr
    assert "1 passed" not in res.stdout
