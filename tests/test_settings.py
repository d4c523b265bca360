import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# one failing property test, then one passing test
_PROBE = """\
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(value):
    assert value < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_reports_and_the_run_goes_on(tmp_path):
    # the suite's filterwarnings turn warnings into errors; hypothesis's report
    # hook warns when an example fails, and that must not end the run in an
    # INTERNALERROR before the tests after it have run.  Only hypothesis's
    # plugin is loaded (the others' imports took 0.7 s of a 2 s run)
    probe = tmp_path / "test_probe.py"
    probe.write_text(_PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "_hypothesis_pytestplugin", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(probe)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"},
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout[-2000:]
    assert run.returncode == 1
