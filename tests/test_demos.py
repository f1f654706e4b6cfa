"""The demo scripts run to completion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", [
    "01_projective_kneser.py",
    "02_polar_spaces.py",
    "03_counterexamples.py",
    "04_plucker_and_matroids.py",
    "05_coxeter_crossval.py",
])
def test_demo_exits_0(script):
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
