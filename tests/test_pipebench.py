"""The pipeline benchmark's own self-test, run as part of the suite so that
a change to the package that breaks the benchmark fails here first."""

import glob
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "pipebench", "out")


def _out_files() -> dict[str, int]:
    """The checkout's benchmark output: each file's name and mtime."""
    if not os.path.isdir(OUT):
        return {}
    return {entry.name: entry.stat().st_mtime_ns for entry in os.scandir(OUT)}


def test_pipebench_selftest_passes(tmp_path):
    # the self-test writes its traced runs under pipebench/out/, so it runs
    # in a copy of the sources and leaves the checkout's output alone
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    (tmp_path / "pipebench").mkdir()
    for path in glob.glob(os.path.join(ROOT, "pipebench", "*.py")):
        shutil.copy(path, tmp_path / "pipebench")
    before = _out_files()
    proc = subprocess.run([sys.executable, "pipebench/selftest.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
    assert _out_files() == before
