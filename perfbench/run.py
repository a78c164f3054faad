"""fairdesert benchmark: three workloads, timed end to end and, in a separate
traced run, per layer.

Run from the repository root (a checkout with ``src/fairdesert``):

    python3 perfbench/run.py --workload mc --seed 0 --seconds 35 --trace 0

Workloads (details in worker.py):

mc        the paper's Monte Carlo study loop through the API, with a process pool
pipeline  one analyst's dataset through the CLI: estimate, check, theta, predict
variants  delta-variant bootstrap and sensitivity sweep through the CLI

Every iteration runs in a fresh ``python3 perfbench/worker.py`` process on the
same inputs, so the per-invocation costs a user pays (interpreter start,
``import fairdesert``, the in-process ``oracle_theta`` cache) stay in the
numbers.  Each process, pool workers included, pins BLAS to one thread.  An
untraced run repeats whole iterations while the next one is expected to end
within ``--seconds`` (at least MIN_ITERATIONS), then adds set-up-only processes
until it has SETUP_SAMPLES set-up times.  It reports medians over iterations:

setup_s      process start to the first timed call (all processes)
wall_s       the timed part of one iteration (the sum of its stages)
stage1_s     mc: oracle_theta; pipeline: estimate; variants: theta --method bootstrap
stage2_s     mc: monte_carlo; pipeline: predict; variants: sensitivity
peak_rss_mb  largest peak RSS of any process of the run, pool workers included

Stage times, and so wall_s, are in seconds at a reference machine speed: each
stage's wall time is divided by the machine's slowdown measured around it
(see ``calibration_s`` in worker.py).  On a shared machine other tenants slow
every instruction by up to about 1.6x for seconds to minutes, and without this
the same code on the same inputs spreads by a third between runs.  The raw
wall times and slowdowns of every iteration are printed before the result.
The lines before the result also print the per-workload figures by their own
names (oracle_s, mc_reps_per_s, estimate_s, predict_rows_per_s, bootstrap_s,
sweep_s), the failed fraction of operations and the environment.

``--trace 1`` runs one untraced and one traced iteration.  The traced one wraps
the package's public functions (tracing.py) and reports the per-layer metrics
listed in BENCHMARK.json, including spans from pool workers, and the tracing
overhead (traced minus untraced wall time, both at the reference speed).
``trace.wall_s`` is the traced iteration's raw wall time: the per-module
``<module>.self_s`` plus ``trace.untraced_s`` add up to it.

Every iteration checks its answers against reference.json (see worker.py for
the tolerances); operations are Monte Carlo replications, bootstrap
replicates, sweep grid points, CLI commands and answer checks.  A failed
operation makes ``correct`` false and the exit code 1.  Without
``src/fairdesert`` in the working directory the benchmark exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mc", "pipeline", "variants")
MIN_ITERATIONS = 2
SETUP_SAMPLES = 3
# a whole run must end within 180 s
RUN_TIMEOUT_S = 170.0
STAGES = {
    "mc": ("oracle_s", "mc_s"),
    "pipeline": ("estimate_s", "predict_s"),
    "variants": ("bootstrap_s", "sweep_s"),
}
# the figures each workload prints under its own names: a stage time, or the
# work of a stage per second of it
NAMED = {
    "mc": (("oracle_s", "oracle_s"), ("mc_reps_per_s", "mc_s")),
    "pipeline": (("estimate_s", "estimate_s"), ("predict_rows_per_s", "predict_s")),
    "variants": (("bootstrap_s", "bootstrap_s"), ("sweep_s", "sweep_s")),
}
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(Exception):
    pass


class Runner:
    """Starts worker processes for one benchmark run."""

    def __init__(self, root, workload, seed, profile, work_dir):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.profile = profile
        self.work_dir = work_dir
        self.deadline = time.perf_counter() + RUN_TIMEOUT_S
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1",
                        **{pin: "1" for pin in BLAS_PINS})

    def iteration(self, mode):
        self.count += 1
        tag = f"{mode}{self.count}"
        out, log = self.work_dir / f"{tag}.json", self.work_dir / f"{tag}.log"
        with log.open("w", encoding="utf-8") as fh:
            spawned = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
                 "--seed", str(self.seed), "--profile", self.profile, "--mode", mode,
                 "--spawned", repr(spawned), "--work-dir", str(self.work_dir / tag),
                 "--out", str(out)],
                cwd=self.root, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                proc.wait(timeout=max(self.deadline - time.perf_counter(), 1.0))
            except subprocess.TimeoutExpired:
                _kill_group(proc.pid)
                proc.wait()
                raise BenchmarkError(f"{tag} did not finish within {RUN_TIMEOUT_S:.0f} s") from None
            finally:
                _kill_group(proc.pid)
        if proc.returncode != 0 or not out.exists():
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchmarkError(f"{tag} exited with {proc.returncode}:\n{tail}")
        return json.loads(out.read_text(encoding="utf-8"))


def _kill_group(pgid):
    """Stop anything the worker left behind (its pool processes share its group)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def untraced(runner, seconds):
    started = time.perf_counter()
    runs, last = [], 0.0
    while len(runs) < MIN_ITERATIONS or time.perf_counter() - started + last <= seconds:
        t0 = time.perf_counter()
        runs.append(runner.iteration("run"))
        last = time.perf_counter() - t0
    probes = [runner.iteration("setup") for _ in range(SETUP_SAMPLES - len(runs))]
    return probes, runs


def traced(runner):
    return [runner.iteration("run")], [runner.iteration("trace")]


def calibrated(run, stage):
    return run["stages"][stage] / run["slowdown"][stage]


def end_to_end(workload, probes, runs):
    first, second = STAGES[workload]
    median = statistics.median
    metrics = {
        "setup_s": median([r["setup_s"] for r in probes + runs]),
        "wall_s": median([sum(calibrated(r, s) for s in r["stages"]) for r in runs]),
        "stage1_s": median([calibrated(r, first) for r in runs]),
        "stage2_s": median([calibrated(r, second) for r in runs]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in probes + runs),
    }
    figures = {}
    for name, stage in NAMED[workload]:
        if name == stage:
            figures[name] = (median([calibrated(r, stage) for r in runs]), "s")
        else:
            figures[name] = (median([r["work"][stage] / calibrated(r, stage) for r in runs]), "1/s")
    return metrics, figures


def per_layer(untraced_runs, traced_runs):
    traced_run, plain = traced_runs[0], untraced_runs[0]
    metrics = dict(traced_run["layers"])
    metrics["trace.wall_s"] = traced_run["wall_s"]
    # both walls at the reference machine speed, like wall_s
    traced_wall, plain_wall = (sum(calibrated(r, s) for s in r["stages"])
                               for r in (traced_run, plain))
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / plain_wall
    return metrics


def environment(root, workload, seed, profile, record):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "fairdesert").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "profile": profile,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, **record["env"],
            "git_commit": commit, "source_sha256": digest.hexdigest()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "fairdesert" / "__init__.py").is_file():
        print(f"error: no src/fairdesert under {root}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    work_dir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, args.workload, args.seed, args.profile, work_dir)
    try:
        if args.trace:
            probes, (runs, traced_runs) = [], traced(runner)
        else:
            (probes, runs), traced_runs = untraced(runner, args.seconds), []
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    everything = probes + runs + traced_runs
    print("env " + json.dumps(environment(root, args.workload, args.seed, args.profile, everything[0])))
    timed = runs + traced_runs
    attempted = sum(r["attempted"] for r in timed)
    failed = sum(r["failed"] for r in timed)
    for r in timed:
        for check in r["checks"]:
            if not check["ok"]:
                print(f"check failed: {check['name']}: {check['detail']}")
    if args.trace:
        values, kind = per_layer(runs, traced_runs), "per_layer"
    else:
        values, figures = end_to_end(args.workload, probes, runs)
        kind = "end_to_end"
        print(f"iterations {len(runs)}, set-up probes {len(probes)}")
        for i, r in enumerate(runs, start=1):
            stages = " ".join(f"{k} {v:.4f} (slowdown {r['slowdown'][k]:.3f})"
                              for k, v in r["stages"].items())
            print(f"iteration {i}: setup_s {r['setup_s']:.4f} raw {stages}")
        for name, (value, unit) in figures.items():
            print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    metrics = {}
    for entry in spec[kind]:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"{entry['name']} {values[entry['name']]:.6g} {entry['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
