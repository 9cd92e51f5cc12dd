"""The pipeline benchmark's own self-test, run as part of the suite so that
a change to the package that breaks the benchmark fails here first."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_pipebench_selftest_passes():
    proc = subprocess.run([sys.executable, "pipebench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
