"""The benchmark's own tests pass against this source tree: the functions its
tracer wraps exist, and mining.predicate_yield reads above 0.

They run in a subprocess because perfbench/tests and tests each have a
conftest module imported as `conftest`, which cannot share one session.
"""

import os
import subprocess
import sys
from pathlib import Path

import robustmine

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_tests_pass():
    src = os.path.dirname(os.path.dirname(robustmine.__file__))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "perfbench/tests"], capture_output=True, text=True, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-3000:]
