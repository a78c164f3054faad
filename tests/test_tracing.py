"""The benchmark's span tracer (``perfbench/tracing.py``) still finds the
package names it reads: a one-restart fit, traced in a fresh process, shows
its fit, its BFGS restart and the objective evaluations under them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, os, sys, time
from pathlib import Path

import tracing
from fairdesert import sievemle
from fairdesert.basis import BasisConfig
from fairdesert.simulate import DgpConfig, gen_dataset

out = Path(sys.argv[1])
tracer = tracing.Tracer(out, "probe")
tracing.install(tracer)
data, _, _ = gen_dataset(DgpConfig(n=400, seed=0))
start = time.perf_counter()
sievemle.fit(data, BasisConfig(degree=1, interaction_order=1), sievemle.FitOptions(restarts=1))
wall_s = time.perf_counter() - start
tracer.flush()
print(json.dumps(tracing.layer_metrics(tracing.load_spans(out), os.getpid(), wall_s)))
"""


def test_traced_fit_reports_its_fit_restart_and_evaluations(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    assert metrics["sievemle.fit.calls"] == 1
    assert metrics["sievemle.fit.warm_calls"] == 0
    assert metrics["optimize.bfgs_minimize.calls"] == 1
    assert metrics["sievemle.value_grad.calls"] > 0
    assert metrics["sievemle.evals_per_fit"] == metrics["sievemle.value_grad.calls"]
