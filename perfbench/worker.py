"""One benchmark iteration in a fresh process.

Sets up a workload's inputs, runs its timed stages through the public API or
``fairdesert.cli.main``, checks the answers against ``reference.json`` and
writes one JSON record.  `run.py` starts this file; it is not meant to be run
by hand except to debug a workload:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/worker.py \
        --workload pipeline --seed 0 --spawned 0 --work-dir w --out w/r.json

Workloads (sizes per profile in PROFILES), and the per-layer metrics each is
expected to move:

mc        timed ``oracle_theta(cfg)``, then ``monte_carlo(cfg, reps,
          MonteCarloSettings(), jobs=nproc)`` with ``cfg = DgpConfig(n=2000,
          delta=0)``: the paper's study loop, the only one with a process pool.
          value_grad is bound by per-call overhead; MLC, the 1e5-row scoring
          and the AUCs take much of each replication.  Moves
          sievemle.value_grad.*, basis.expit.*, basis.expand_matrix.*,
          regress.fit_propensity.s, regress.fit_series_logit.*,
          optimize.newton_minimize.*, sievemle.predict_tau.*, theta.theta_onestep.*,
          theta.influence_coefficients.s, simulate.*, simulate.pool_busy_frac.
pipeline  ``estimate`` (CLI defaults), ``check``, ``theta --method onestep
          --model`` and ``predict --rate`` on one 10 000-row dataset, scoring
          100 000 rows: value_grad is bound by array passes, predict by the
          CSV parse and write in cli.  Moves sievemle.value_grad.*,
          basis.expit.*, optimize.bfgs_minimize.*, data.load_csv.s,
          regress.fit_mu_models.*, identify.check_testable_implications.s,
          sievemle.winner_eval_frac, cli.estimate.self_s, cli.predict.self_s,
          basis.expand_matrix.*.
variants  ``theta --method bootstrap --variant delta`` with 200 replicates on
          1 000 rows, then a ``sensitivity --variant delta`` sweep on the
          default grid: many short fits, where per-fit set-up (subset, QR,
          plug-in mu fits) is a large share, the delta branch of value_grad,
          and warm starts.  The bootstrap uses ``--basis-degree 1
          --restarts 1`` to fit the run time; the sweep keeps the CLI
          defaults.  Moves data.Dataset.subset.*, regress.fit_mu_models.*,
          sievemle.fit.*, sievemle.evals_per_fit, sievemle.winner_eval_frac,
          theta.theta_bootstrap.*, sensitivity.run_sweep.*.

Inputs come from ``k = seed % INPUT_SEEDS``, the seeds with answers recorded
in reference.json.  ``mc`` draws every replication from ``k``.  ``pipeline``
and ``variants`` analyse one fixed draw of the generative model whose rows
``k`` shuffles (which changes the bootstrap resamples); ``k`` also draws the
scoring rows.  Fit work depends strongly on the particular draw, so a fresh
training draw per seed would spread the timings far more than run-to-run noise.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

PROFILES = {
    "full": {
        "mc": {"n": 2000, "reps": 12, "test_size": 100_000, "oracle_draws": None,
               "compute_theta": True},
        "pipeline": {"n_train": 10_000, "n_score": 100_000, "rate": 0.3},
        "variants": {"n": 1000, "boot": 200, "boot_degree": 1, "restarts": 1},
    },
    # smoke-test sizes: every code path in seconds (mc skips the 1e7-draw
    # oracle inside monte_carlo, so replications skip theta)
    "tiny": {
        "mc": {"n": 400, "reps": 2, "test_size": 2_000, "oracle_draws": 100_000,
               "compute_theta": False},
        "pipeline": {"n_train": 1_000, "n_score": 2_000, "rate": 0.3},
        "variants": {"n": 200, "boot": 200, "boot_degree": 1, "restarts": 1},
    },
}
# draw seed of the fixed analyst dataset used by pipeline and variants
ANALYST_DRAW_SEED = 20_260_101
INPUT_SEEDS = 16

# Answer tolerances (absolute).  The same code reproduces the reference
# exactly.  The tolerances leave room for changes that only reorder
# floating-point sums: across the 16 row orders of the analyst dataset (the
# same data, so the spread is pure rounding) the recorded answers range over
# 1.1e-7 in the pipeline criterion, 1.8e-3 in theta and its CI bounds, 9.3e-4
# in the bootstrap point and 1.1e-3 in the sweep criteria; theta and the sweep
# are weakly identified at these sizes.  The AUC tolerance is a judgment: the
# methods' mean AUCs lie at least 0.01 apart.
TOL_CRITERION = 1e-6
TOL_SWEEP_CRITERION = 5e-3
TOL_THETA = 5e-3
TOL_AUC = 2e-3

# Other tenants of a shared machine slow every instruction by up to about
# 1.6x, for periods from seconds to minutes.  A fixed kernel shaped like one
# sieve-objective evaluation is timed before and after every stage; the mean
# of the two, divided by CAL_REF_S (its time on an idle 2-core Xeon), is the
# machine's slowdown during the stage, which run.py divides out.
CAL_REF_S = 0.045


def nproc():
    return len(os.sched_getaffinity(0))


def calibration_s():
    """Time of the calibration kernel: 2 500 logistic passes over 2 000 x 7."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, w = rng.random((2000, 7)), rng.random(7)
    start = time.perf_counter()
    for _ in range(2500):
        e = 1.0 / (1.0 + np.exp(-(a @ w)))
        float((e * (1.0 - e)).sum())
    return time.perf_counter() - start


class Iteration:
    """Timing, operation counts and checks of one iteration."""

    def __init__(self):
        self.stages = {}
        self.slowdown = {}
        self.work = {}
        self.last_calibration = None
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.answers = {}

    def timed(self, stage, func, *args, **kwargs):
        before = self.last_calibration or calibration_s()
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            self.stages[stage] = time.perf_counter() - start
            self.last_calibration = calibration_s()
            self.slowdown[stage] = (before + self.last_calibration) / (2 * CAL_REF_S)

    def cli(self, stage, argv):
        """Run one CLI command in-process; exit code 2 or an exception fails it."""
        from fairdesert import cli

        self.attempted += 1
        try:
            code = self.timed(stage, cli.main, argv)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
            print(f"{argv[0]} raised {exc!r}", file=sys.stderr)
            code = 2
        if code == 2:
            self.failed += 1
        return code

    def ops(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def check(self, name, ok, detail=""):
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def match(self, name, value, reference, tol):
        if reference is None:
            self.check(name, False, "no reference recorded")
        else:
            self.check(name, abs(value - reference) <= tol,
                       f"{value!r} vs reference {reference!r} (tol {tol:g})")


def _shuffled_analyst_data(n, seed):
    import numpy as np

    from fairdesert.simulate import DgpConfig, gen_dataset

    data, _, _ = gen_dataset(DgpConfig(n=n, seed=ANALYST_DRAW_SEED))
    order = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,))).permutation(n)
    return data.subset(order)


def setup(workload, size, seed, work_dir):
    """Draw the inputs and write the CSVs; returns the stage arguments."""
    from fairdesert import write_csv
    from fairdesert.simulate import DgpConfig, gen_dataset

    seed %= INPUT_SEEDS
    if workload == "mc":
        return {"cfg": DgpConfig(n=size["n"], delta=0.0, seed=seed)}
    train = work_dir / "train.csv"
    write_csv(_shuffled_analyst_data(size["n_train"] if workload == "pipeline" else size["n"], seed),
              train)
    if workload == "variants":
        return {"train": train}
    score = work_dir / "score.csv"
    scoring, _, _ = gen_dataset(DgpConfig(n=size["n_score"]), seed=[seed, 2])
    write_csv(scoring, score)
    return {"train": train, "score": score}


def run_mc(it, size, inputs, reference, work_dir):
    from fairdesert.simulate import MonteCarloSettings, monte_carlo, oracle_theta

    cfg = inputs["cfg"]
    draws = {} if size["oracle_draws"] is None else {"draws": size["oracle_draws"]}
    it.timed("oracle_s", oracle_theta, cfg, **draws)
    settings = MonteCarloSettings(test_size=size["test_size"],
                                  compute_theta=size["compute_theta"])
    summary = it.timed("mc_s", monte_carlo, cfg, size["reps"], settings, jobs=nproc())
    it.work = {"mc_s": size["reps"] - summary.failures}
    it.ops(size["reps"], summary.failures)
    auc = {name: v["auc_ystar_mean"] for name, v in summary.method_auc.items()}
    it.answers = {"auc_ystar_mean": auc}
    ref = reference.get("auc_ystar_mean", {})
    for name in sorted(auc):
        it.match(f"auc_ystar_mean.{name}", auc[name], ref.get(name), TOL_AUC)
    it.check("dsd_beats_uml", auc.get("dsd", 0) > auc.get("uml", 1),
             f"dsd {auc.get('dsd')} vs uml {auc.get('uml')}")


def run_pipeline(it, size, inputs, reference, work_dir):
    train, score = str(inputs["train"]), str(inputs["score"])
    est, model = work_dir / "estimate", str(work_dir / "estimate" / "model.json")
    it.cli("estimate_s", ["estimate", "--input", train, "--out-dir", str(est)])
    it.cli("check_s", ["check", "--input", train, "--out-dir", str(work_dir / "check")])
    it.cli("theta_s", ["theta", "--input", train, "--method", "onestep", "--model", model,
                       "--out-dir", str(work_dir / "theta")])
    it.cli("predict_s", ["predict", "--model", model, "--input", score, "--rate", str(size["rate"]),
                         "--out-dir", str(work_dir / "predict")])
    it.work = {"predict_s": size["n_score"]}

    fit_report = _read_json(est / "fit_report.json")
    theta = _read_json(work_dir / "theta" / "theta.json")
    predict = _read_json(work_dir / "predict" / "predict_report.json")
    it.answers = {
        "criterion": fit_report.get("diagnostics", {}).get("criterion"),
        "theta_point": theta.get("point"),
        "theta_ci_low": theta.get("ci_low"),
        "theta_ci_high": theta.get("ci_high"),
    }
    for key, tol in (("criterion", TOL_CRITERION), ("theta_point", TOL_THETA),
                     ("theta_ci_low", TOL_THETA), ("theta_ci_high", TOL_THETA)):
        value = it.answers[key]
        if value is None:
            it.check(key, False, "missing from the command output")
        else:
            it.match(key, value, reference.get(key), tol)
    rate, target = predict.get("positive_rate"), predict.get("rate_target")
    it.check("predict_rate", rate is not None and target is not None and rate >= target,
             f"positive_rate {rate} vs rate_target {target}")


def run_variants(it, size, inputs, reference, work_dir):
    train = str(inputs["train"])
    it.cli("bootstrap_s", [
        "theta", "--input", train, "--method", "bootstrap", "--variant", "delta",
        "--delta", "0.05,0.05", "--boot", str(size["boot"]), "--restarts", str(size["restarts"]),
        "--interaction-order", "1", "--basis-degree", str(size["boot_degree"]),
        "--jobs", str(nproc()), "--out-dir", str(work_dir / "bootstrap"),
    ])
    it.cli("sweep_s", [
        "sensitivity", "--input", train, "--variant", "delta", "--boot", "0",
        "--interaction-order", "1", "--out-dir", str(work_dir / "sweep"),
    ])
    boot = _read_json(work_dir / "bootstrap" / "theta.json")
    flags = boot.get("flags", {})
    # without theta.json the command failed and no replicate is known to have fit
    it.ops(size["boot"], int(flags.get("failures", size["boot"])))
    rows = _read_sweep(work_dir / "sweep" / "sweep.csv")
    it.ops(len(rows), sum(1 for r in rows if r["error"]))
    point, lo, hi = boot.get("point"), boot.get("ci_low"), boot.get("ci_high")
    it.answers = {"bootstrap_point": point,
                  "sweep_criteria": [float(r["criterion"]) if r["criterion"] else None for r in rows]}
    it.check("bootstrap_ci_brackets_point", None not in (point, lo, hi) and lo <= point <= hi,
             f"{lo} <= {point} <= {hi}")
    if point is not None:
        it.match("bootstrap_point", point, reference.get("bootstrap_point"), TOL_THETA)
    ref = reference.get("sweep_criteria")
    if ref is None or len(ref) != len(rows):
        it.check("sweep_criteria", False, f"reference {ref} vs {len(rows)} rows")
    else:
        for i, (value, expected) in enumerate(zip(it.answers["sweep_criteria"], ref)):
            if value is None:
                it.check(f"sweep_criteria.{i}", False, "grid point failed")
            else:
                it.match(f"sweep_criteria.{i}", value, expected, TOL_SWEEP_CRITERION)


def _read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def _read_sweep(path):
    try:
        with Path(path).open(newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    except OSError:
        return []


RUNNERS = {"mc": run_mc, "pipeline": run_pipeline, "variants": run_variants}


def reference_for(profile, workload, seed):
    doc = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return doc.get(profile, {}).get(workload, {}).get(str(seed % INPUT_SEEDS), {})


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mb():
    """Largest peak RSS of this process and its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    parser.add_argument("--mode", choices=["setup", "run", "trace"], default="run")
    parser.add_argument("--spawned", type=float, required=True,
                        help="perf_counter() reading of the parent just before starting this process")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    import fairdesert

    src = (Path.cwd() / "src").resolve()
    if src not in Path(fairdesert.__file__).resolve().parents:
        raise SystemExit(f"fairdesert imported from {fairdesert.__file__}, not from {src}")
    args.work_dir.mkdir(parents=True, exist_ok=True)
    size = PROFILES[args.profile][args.workload]
    inputs = setup(args.workload, size, args.seed, args.work_dir)
    record = {"setup_s": time.perf_counter() - args.spawned}
    if args.mode != "setup":
        reference = reference_for(args.profile, args.workload, args.seed)
        tracer = None
        if args.mode == "trace":
            import tracing

            trace_dir = args.work_dir / "spans"
            trace_dir.mkdir(exist_ok=True)
            tracer = tracing.Tracer(trace_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
            tracing.install(tracer)
        it = Iteration()
        RUNNERS[args.workload](it, size, inputs, reference, args.work_dir)
        wall_s = sum(it.stages.values())
        record.update({
            "wall_s": wall_s, "stages": it.stages, "slowdown": it.slowdown, "work": it.work,
            "attempted": it.attempted, "failed": it.failed, "checks": it.checks,
            "answers": it.answers,
        })
        if tracer is not None:
            tracer.flush()
            record["layers"] = tracing.layer_metrics(
                tracing.load_spans(trace_dir), os.getpid(), wall_s)
    record["env"] = environment()
    record["peak_rss_mb"] = peak_rss_mb()
    args.out.write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    main()
