"""The walkthrough scripts in demos/ and the README quick start run to completion
against the library's public names."""
import hashlib
import os
import pathlib
import subprocess
import sys
import types

import pytest

import aqmds

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


def test_readme_quick_start(capsys):
    # the first python block of README.md prints what its comments say
    block = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    comments = [line.split("#", 1)[1].strip() for line in block.splitlines() if "print(" in line]
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(comments) == 3
    for out, comment in zip(printed, comments):
        assert comment == out or comment.startswith(out + " "), (out, comment)


def test_all_matches_namespace():
    # a name left in __all__ after its object is gone breaks `from aqmds import *`
    public = {name for name, value in vars(aqmds).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(aqmds.__all__)
    exec("from aqmds import *", {})
