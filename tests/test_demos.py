"""Every script under demos/, and the README's Python block, runs to
completion against the sofic under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sofic

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK_START = (ROOT / "README.md").read_text(encoding="utf-8").split("```python\n")[1]
QUICK_START = QUICK_START.split("```")[0]


@pytest.mark.parametrize(
    "script",
    [[str(p)] for p in DEMOS] + [["-c", QUICK_START]],
    ids=[p.name for p in DEMOS] + ["README.md"],
)
def test_demo_runs(script):
    # the child imports the sofic under test, installed or not
    src = str(Path(sofic.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *script], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout


def test_every_demo_is_collected():
    assert len(DEMOS) >= 5
