"""The benchmark under perfbench/ still runs against this checkout.

perfbench/run.py drives homfly3 in-process, and its tracer (``--trace 1``)
wraps functions it looks up by module and name.  A change that renames or
deletes one of them breaks the benchmark without breaking any other test,
so both modes run here once on the smallest workload, with no timed
passes beyond the minimum.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_benchmark_runs_and_checks_correct(trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "unreduced",
         "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, result
