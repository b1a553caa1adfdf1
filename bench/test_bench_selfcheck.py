"""Reduced-size benchmark pass, as collected by the repository's pytest run.

It runs the ``mc_sweep`` self-check in a fresh interpreter: one untraced and
one traced round at small sizes, every probe section, the sweep's
thread-count invariance and the BENCHMARK.json consistency check.  The full
pass over all four workloads is ``python3 bench/run.py --selfcheck``.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_bench_selfcheck_mc_sweep():
    done = subprocess.run([sys.executable, str(RUN), "--selfcheck", "mc_sweep"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "selfcheck passed"
