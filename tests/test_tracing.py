"""The benchmark's span tracer (``perfbench/tracing.py``) still finds the
package names it reads: a one-restart fit, traced in a fresh process, shows
its fit, its one BFGS restart and the objective evaluations under them, and
a series logit fit shows its one damped Newton minimization.  The one-start
loops behind both are private, so a start that runs them neither adds nor
drops a span."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, os, sys, time
from pathlib import Path

import numpy as np
import tracing
from fairdesert import regress, sievemle
from fairdesert.basis import BasisConfig
from fairdesert.simulate import DgpConfig, gen_dataset

out = Path(sys.argv[1])
tracer = tracing.Tracer(out, "probe")
tracing.install(tracer)
data, _, _ = gen_dataset(DgpConfig(n=400, seed=0))
start = time.perf_counter()
est = sievemle.fit(data, BasisConfig(degree=1, interaction_order=1),
                   sievemle.FitOptions(restarts=1))
logit = regress.fit_series_logit(np.column_stack([np.ones(data.n), data.x]), data.y)
wall_s = time.perf_counter() - start
tracer.flush()
metrics = tracing.layer_metrics(tracing.load_spans(out), os.getpid(), wall_s)
print(json.dumps({"metrics": metrics, "bfgs_iterations": est.diagnostics.restarts[0].iterations,
                  "newton_iterations": logit.iterations}))
"""


def test_traced_fit_reports_its_fit_restart_and_evaluations(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    metrics = probe["metrics"]
    assert metrics["sievemle.fit.calls"] == 1
    assert metrics["sievemle.fit.warm_calls"] == 0
    assert metrics["optimize.bfgs_minimize.calls"] == 1
    assert metrics["optimize.bfgs_minimize.iterations"] == probe["bfgs_iterations"] > 0
    # the plug-in start's mu fits run the private one-start Newton loop: no span
    assert metrics["optimize.newton_minimize.calls"] == 1
    assert metrics["optimize.newton_minimize.iterations"] == probe["newton_iterations"] > 0
    assert metrics["sievemle.value_grad.calls"] > 0
    assert metrics["sievemle.evals_per_fit"] == metrics["sievemle.value_grad.calls"]
