"""The demos run end to end: each in a fresh process, in an empty working
directory (demo 01 writes its artifacts there), exits 0 with nothing on
stderr. Demo 06 is left out: it runs for seconds, and
`test_acceptance.py` already runs its co-adjust configuration."""

from pathlib import Path

import pytest
from conftest import run_python

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_scene_and_flow.py",
    "02_triangulated_depth.py",
    "03_divergence_identity.py",
    "04_gradient_checks.py",
    "05_depth_recovery.py",
])
def test_demo_runs_cleanly(name, tmp_path):
    done = run_python([str(DEMOS / name)], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
