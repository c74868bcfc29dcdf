"""The demos run end to end from a clean working directory.

Each script is started the way its docstring says, with the package on
PYTHONPATH, so an API change that breaks a demo fails here.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["failure_to_demo", "plan_and_replay", "routed_training"])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
