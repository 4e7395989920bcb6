"""Smoke runs of the scripts under scripts/, each on a small input."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, args", [
    ("saturation_survey.py", ["--max-n", "4"]),
    ("trace_set_survey.py", ["--p", "5", "--samples", "20"]),
    ("reduction_demo.py", ["--trials", "5"]),
    ("signed_sum_sweep.py", ["--counts", "4", "--dims", "2", "--bits", "8"]),
])
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True, text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
