"""The demo scripts run to completion, and print the same bytes as when
their stdout was pinned."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# sha256 of each demo's stdout, recorded before the named builders were
# folded into build_graph(spec).
STDOUT_SHA256 = {
    "01_projective_kneser.py":
        "f4694be712cd227c4726cbb2badc0e3f03c1f6b51b360b9900a113b42fa5c90f",
    "02_polar_spaces.py":
        "b59d0439a2d98b9a6b553a6818bdba6b24e2ca1dd1cb90c146029ebdddb000e1",
    "03_counterexamples.py":
        "638b799d4ee1c258abaf667aba84e77319089a875ead280f3790739ff80f2ed2",
    "04_plucker_and_matroids.py":
        "434f2e4edfc03be81ed1339ad9870b3fae254a7c035b9d14d415d68752b4d77f",
    "05_coxeter_crossval.py":
        "bc32d5200d2db8a9c49fd87ef87a373df689bea7bba4f9fd741f097f74f48254",
}


@pytest.mark.parametrize("script", sorted(STDOUT_SHA256))
def test_demo_exits_0(script):
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[script]
