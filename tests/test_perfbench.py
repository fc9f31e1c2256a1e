"""The benchmark's own self-check, run as part of the test suite.

A package change that drops an entry point the benchmark wraps, or a
layer span its workloads must record, shows here rather than only in a
traced benchmark run. The script writes only under `.perfbench/`.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    proc = subprocess.run([sys.executable, "perfbench/selfcheck.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
