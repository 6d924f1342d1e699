"""Every script under demos/ runs to completion against the sofic under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sofic

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    # the child imports the sofic under test, installed or not
    src = str(Path(sofic.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout


def test_every_demo_is_collected():
    assert len(DEMOS) >= 5
