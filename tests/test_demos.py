"""The walkthrough scripts in demos/ run to completion against the library."""
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# stdout sha256 of the demos whose output is pinned
DEMO_SHA256 = {
    "02_classical_mds.py": "649ff6f276de12e00c011926b1b0007651995cccaf104f1bf5722b03215b8885",
    "03_css_pairs.py": "f2310c6ee00e09d1aa1b59bc58d3a4a90e3391f4849dfe0c46e49843c9003565",
}


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    if script.name in DEMO_SHA256:
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == DEMO_SHA256[script.name]
