"""Every experiment script still imports and parses its arguments, and the
workflow demo stops with the exit code of the first step that fails."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_help_exits_zero(script):
    proc = subprocess.run([sys.executable, str(script), "--help"], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout


def test_workflow_demo_exits_nonzero_when_a_step_fails(tmp_path):
    # estimate succeeds; predict then rejects the rate with exit code 2
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_workflow_demo.py"),
                           "--n", "600", "--rate", "1.5", "--out-dir", str(tmp_path)],
                          env=_env(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 2, proc.stderr
    assert "error: --rate must lie in (0, 1]" in proc.stderr
    assert (tmp_path / "estimate" / "model.json").exists()
