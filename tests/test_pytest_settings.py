"""The suite's pytest settings report every failure and keep running.

pyproject.toml turns warnings into errors. Hypothesis's pytest plugin
reports a failing ``@given`` test through ``libcst``, whose import of
``mypy_extensions.TypedDict`` warns; as an error that warning became an
INTERNALERROR that stopped the whole run at the first failing property
test. The run here uses the repository's own pytest settings on a file
with one failing property test and one passing test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_later_passing_test():
    assert True
'''


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_settings_probe.py").write_text(TESTS)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            "-c",
            str(ROOT / "pyproject.toml"),
            "--rootdir",
            str(tmp_path),
            "test_settings_probe.py",
        ],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout, proc.stdout[-4000:]
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-4000:]
