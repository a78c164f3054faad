"""Every experiment script still imports and parses its arguments, the
workflow demo stops with the exit code of the first step that fails, and the
tables script runs end to end at desk scale."""

import csv
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


def test_run_tables_desk_scale_writes_the_three_tables(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_tables.py"),
                           "--reps", "2", "--sizes", "200", "--deltas", "0",
                           "--test-size", "2000", "--jobs", "1", "--out-dir", str(tmp_path)],
                          env=_env(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    tables = {name: list(csv.DictReader((tmp_path / f"{name}.csv").read_text().splitlines()))
              for name in ("auc_summary", "coverage_summary", "replications")}
    assert [row["method"] for row in tables["auc_summary"]] == ["dsd", "uml", "ftu", "mlc", "ld"]
    (coverage,) = tables["coverage_summary"]
    assert (coverage["n"], coverage["reps"], coverage["failures"]) == ("200", "2", "0")
    assert [row["failed"] for row in tables["replications"]] == ["", ""]
