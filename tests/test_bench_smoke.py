"""The benchmark's own self-check, run as a test.

``braidbench/run.py --smoke`` runs the smallest case of every workload,
traced and untraced, and checks each answer against the pinned SHA-256 of
its CLI output.  A change that alters any pinned answer fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "braidbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
