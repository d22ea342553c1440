"""Smoke test: every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import robustmine

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(robustmine.__file__))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=demo.parent, env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
