"""Every narrative script under demos/ runs to completion."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of the stdout of demos whose printed values are pinned
PINNED_STDOUT = {
    # the locus fraction of the trefoil's extended polynomial at r = 1
    "02_character_expansion.py":
        "1a7b3f110e8023f779dce4fe1fe66ee1b743190661e3a03a94f544cece0b36f8",
}


def test_demos_exist():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    if script.name in PINNED_STDOUT:
        digest = hashlib.sha256(done.stdout.encode()).hexdigest()
        assert digest == PINNED_STDOUT[script.name], done.stdout
