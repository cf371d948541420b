"""The benchmark still runs end to end against this source tree.

``perfbench/run.py --smoke`` runs a few ops of every workload, traced and
untraced, with each op's correctness gate, and checks that every metric
BENCHMARK.json names appears with its unit. A source change that drops a
traced function or fails a per-op gate therefore fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_exits_zero():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:]
