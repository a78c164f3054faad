"""Command-line surface: estimate, predict, theta, check, sensitivity, simulate.

Every run resolves its settings from flags plus an optional JSON config file
(flags win), records the resolved configuration and seed in run_meta.json, and
routes all randomness through the single --seed value, so re-running with the
recorded settings reproduces the primary outputs byte for byte.

Exit codes: 0 success, 1 completed with warnings (testable-implication
violations), 2 errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .basis import BasisConfig
from .data import (
    CsvSchema,
    Dataset,
    apply_scaling,
    load_csv,
    read_csv,
    scale_covariates,
    write_columns,
)
from .errors import FairdesertError
from .identify import check_testable_implications
from .modelio import ModelArtifact, load_model, save_model
from .parallel import blas_threads
from .regress import fit_mu_models, fit_propensity
from .sensitivity import DEFAULT_GRIDS, SweepSpec, VariantFitter, run_sweep
from .sievemle import FitOptions, SensitivityParams, fit, predict_tau_sz, rate_threshold
from .simulate import (
    DgpConfig,
    MonteCarloSettings,
    monte_carlo,
    write_auc_summary_csv,
    write_coverage_summary_csv,
    write_replications_csv,
)
from .theta import (
    MIN_REPLICATES,
    theta_bootstrap,
    theta_onestep,
    theta_onestep_crossfit,
    theta_plugin,
)


def _load_json_arg(value):
    """Accept an inline JSON string or a path to a JSON file."""
    if value is None:
        return None
    text = value.strip()
    if text.startswith("{"):
        return json.loads(text)
    return json.loads(Path(value).read_text(encoding="utf-8"))


def _schema_from(doc):
    doc = doc or {}
    return CsvSchema(
        s=doc.get("s", "s"),
        z=doc.get("z", "z"),
        y=doc.get("y", "y"),
        covariates=tuple(doc.get("covariates", ())),
        binary_values=doc.get("binary_values", {}),
    )


def _sniff_covariates(path, schema_doc):
    """Default covariates: every column not mapped to s/z/y."""
    doc = dict(schema_doc or {})
    if doc.get("covariates"):
        return doc
    with Path(path).open(newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    reserved = {doc.get("s", "s"), doc.get("z", "z"), doc.get("y", "y")}
    doc["covariates"] = [c for c in header if c not in reserved]
    return doc


def _resolve(args):
    """Merge the optional config file under explicit flags."""
    resolved = vars(args).copy()
    config_doc = _load_json_arg(resolved.pop("config", None)) or {}
    for key, value in config_doc.items():
        key = key.replace("-", "_")
        if resolved.get(key) is None:
            resolved[key] = value
    for key, value in _DEFAULTS.items():
        if resolved.get(key) is None and key in resolved:
            resolved[key] = value
    resolved["jobs"] = int(resolved["jobs"])
    if resolved["jobs"] < 1:
        raise FairdesertError(f"--jobs expects at least 1 process, got {resolved['jobs']}")
    return resolved


_DEFAULTS = {
    "basis_degree": 3,
    "interaction_order": None,
    "floor": 1e-3,
    "restarts": 10,
    "seed": 0,
    "level": 0.95,
    "boot": 200,
    "crossfit": 0,
    "method": "onestep",
    "variant": "baseline",
    "jobs": len(os.sched_getaffinity(0)),
    "reps": 100,
    "n": 2000,
    "dgp_delta": 0.0,
    "test_size": 100_000,
    "tol": 0.005,
    "flag_threshold": 0.1,
    "out_dir": "fairdesert_out",
    "methods": "dsd,uml,ftu,mlc,ld",
}


def _out_dir(resolved):
    out = Path(resolved["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _write_meta(out, resolved, command, extra=None):
    meta = {
        "command": command,
        "version": __version__,
        "resolved_config": {
            k: v for k, v in sorted(resolved.items()) if k not in ("func",)
        },
        "seed": resolved.get("seed"),
        "environment": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            # BLAS reads these once, when it loads; unset means all cores
            "blas_pins": {name: os.environ.get(name) for name in BLAS_PINS},
            # in this process; pool workers pin BLAS to one thread
            "blas_threads": blas_threads(),
        },
    }
    if extra:
        meta.update(extra)
    (out / "run_meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True, default=str), encoding="utf-8"
    )


def _basis(resolved):
    return BasisConfig(
        degree=int(resolved["basis_degree"]),
        interaction_order=resolved["interaction_order"],
    )


def _fit_options(resolved, **fields):
    """FitOptions from --restarts, --seed and ``fields``; a bad value fails
    naming its flag, before any fit."""
    try:
        return FitOptions(restarts=int(resolved["restarts"]), seed=int(resolved["seed"]),
                          **fields)
    except ValueError as exc:
        # FitOptions starts each message with the field, named like its flag
        raise FairdesertError(f"--{exc}") from exc


def _rate(resolved):
    """The --rate target, or None when the flag is absent."""
    rate = resolved.get("rate")
    if rate is None:
        return None
    rate = float(rate)
    if not 0.0 < rate <= 1.0:
        raise FairdesertError(f"--rate must lie in (0, 1], got {rate}")
    return rate


def _threshold(resolved):
    """The --threshold cut-off, or None when the flag is absent."""
    threshold = resolved.get("threshold")
    if threshold is None:
        return None
    threshold = float(threshold)
    if not math.isfinite(threshold):
        raise FairdesertError(f"--threshold must be a finite number, got {threshold}")
    return threshold


def _level(resolved):
    """The --level of a confidence interval."""
    level = float(resolved["level"])
    if not 0.0 < level < 1.0:
        raise FairdesertError(f"--level must lie in (0, 1), got {level}")
    return level


def _crossfit(resolved):
    """The --crossfit fold count: 0 (off) or at least 2."""
    folds = int(resolved["crossfit"])
    if folds < 0 or folds == 1:
        raise FairdesertError(f"--crossfit must be 0 (off) or at least 2 folds, got {folds}")
    return folds


def _sweep_boot(resolved):
    """The --boot replicates of a sweep: 0 (no bootstrap) or at least 200."""
    boot = int(resolved["boot"])
    if boot < 0 or 0 < boot < MIN_REPLICATES:
        raise FairdesertError(
            f"--boot must be 0 (no bootstrap) or at least {MIN_REPLICATES}, got {boot}"
        )
    return boot


def _sensitivity_point(flag, variant, text):
    """Parse one "v0,v1" pair given to ``--flag``: two finite numbers that are
    in range for the variant."""
    try:
        v0, v1 = (float(v) for v in str(text).split(","))
        return SensitivityParams(variant, v0, v1)
    except ValueError as exc:
        raise FairdesertError(
            f"--{flag} expects two numbers v0,v1 for variant {variant!r}, got {text!r}: {exc}"
        ) from exc


def _sensitivity(resolved):
    variant = resolved["variant"]
    if variant == "baseline":
        return "baseline", SensitivityParams.baseline()
    raw = resolved.get(variant)
    if raw is None:
        raise FairdesertError(f"--{variant} v0,v1 required for variant {variant!r}")
    return variant, _sensitivity_point(variant, variant, raw)


def _load_dataset(resolved) -> Dataset:
    if not resolved.get("input"):
        raise FairdesertError("--input CSV is required")
    schema_doc = _sniff_covariates(resolved["input"], _load_json_arg(resolved.get("schema")))
    raw = load_csv(resolved["input"], _schema_from(schema_doc))
    return scale_covariates(raw)


def _histogram(values, bins=20):
    counts, edges = np.histogram(values, bins=bins, range=(0.0, 1.0))
    return {"edges": edges.tolist(), "counts": counts.tolist()}


def cmd_estimate(resolved):
    out = _out_dir(resolved)
    data = _load_dataset(resolved)
    config = _basis(resolved)
    options = _fit_options(resolved, floor=float(resolved["floor"]))
    variant, sensitivity = _sensitivity(resolved)
    est = fit(data, config, options, variant=variant, sensitivity=sensitivity,
              jobs=resolved["jobs"])
    prop = fit_propensity(data, config)
    save_model(ModelArtifact(est, prop, data.covariate_names, data.scaling), out / "model.json")

    mu_model = fit_mu_models(data, config)
    report = check_testable_implications(
        mu_model, data, tol=float(resolved["tol"]),
        flag_threshold=float(resolved["flag_threshold"]),
    )
    (out / "implications.json").write_text(report.to_json(), encoding="utf-8")
    (out / "implications.txt").write_text(report.to_text() + "\n", encoding="utf-8")

    t0, t1, a, b = est.values(data.x)
    tau_obs = np.where(data.z == 1, t1, t0)
    write_columns(out / "per_unit.csv", ["row", "tau0", "tau1", "tau_zx", "alpha", "beta"],
                  [np.arange(1, data.n + 1), t0, t1, tau_obs, a, b])

    fit_report = {
        "n": data.n,
        "variant": variant,
        "diagnostics": est.diagnostics.to_json_dict(),
        "alpha_histogram": _histogram(a),
        "beta_histogram": _histogram(b),
        "tau_histogram": _histogram(tau_obs),
        "implications": report.to_json_dict(),
    }
    (out / "fit_report.json").write_text(
        json.dumps(fit_report, indent=2, sort_keys=True), encoding="utf-8"
    )
    lines = [
        f"sieve fit on n={data.n} rows (variant {variant})",
        f"criterion {est.diagnostics.criterion:.6f}, "
        f"gradient norm {est.diagnostics.grad_norm:.2e}, "
        f"restarts {est.diagnostics.restarts_used}",
        report.to_text(),
    ]
    (out / "fit_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_meta(out, resolved, "estimate")
    return 1 if report.flagged else 0


def cmd_predict(resolved):
    out = _out_dir(resolved)
    if not resolved.get("model") or not resolved.get("input"):
        raise FairdesertError("--model and --input are required")
    rate_target = _rate(resolved)
    threshold = _threshold(resolved)
    artifact = load_model(resolved["model"])
    schema_doc = dict(_load_json_arg(resolved.get("schema")) or {})
    schema_doc["covariates"] = list(artifact.covariate_names)
    schema = _schema_from(schema_doc)
    with Path(resolved["input"]).open(newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), [])
    # s only enters kappa scores; without the column every row scores as s=0
    binary, x_raw = read_csv(resolved["input"], schema,
                             (schema.z, schema.s) if schema.s in header else (schema.z,))
    z = binary[0]
    s = binary[1] if len(binary) > 1 else np.zeros_like(z)
    x_scaled, clamped = apply_scaling(artifact.scaling, x_raw)
    est = artifact.estimates
    scores = predict_tau_sz(est, s, z, x_scaled)

    if threshold is not None:
        rate_target = None
    else:
        if rate_target is None:
            rate_target = float(np.mean(scores))
        threshold = rate_threshold(scores, rate_target)
    decisions = scores >= threshold

    write_columns(out / "predictions.csv", ["row", "score", "decision", "covariates_clamped"],
                  [np.arange(1, scores.size + 1), scores, decisions.astype(int),
                   clamped.astype(int)])
    report = {
        "threshold": threshold,
        "rate_target": rate_target,
        "positive_rate": float(np.mean(decisions)),
        "clamped_rows": int(clamped.sum()),
    }
    (out / "predict_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True), encoding="utf-8"
    )
    _write_meta(out, resolved, "predict")
    return 0


def cmd_theta(resolved):
    out = _out_dir(resolved)
    level = _level(resolved)
    folds = _crossfit(resolved)
    data = _load_dataset(resolved)
    config = _basis(resolved)
    options = _fit_options(resolved, floor=float(resolved["floor"]))
    variant, sensitivity = _sensitivity(resolved)
    method = resolved["method"]

    if variant != "baseline" and method != "bootstrap":
        raise FairdesertError(
            "sensitivity variants support inference via --method bootstrap only"
        )
    if method == "bootstrap":
        fitter = VariantFitter(config, options, variant, sensitivity)
        # the full-data fit runs its restarts on the pool; VariantFitter's
        # replicate fits are already spread over it
        full_fit = fit(data, config, options, variant=variant, sensitivity=sensitivity,
                       jobs=resolved["jobs"])
        estimate = theta_bootstrap(
            fitter, data, replicates=int(resolved["boot"]),
            seed=int(resolved["seed"]), level=level, full_fit=full_fit, jobs=resolved["jobs"],
        )
    elif method == "onestep" and folds:
        # each fold fits its own nuisances; a full-data fit would go unused
        estimate = theta_onestep_crossfit(
            data, config, options, folds=folds,
            seed=int(resolved["seed"]), level=level, jobs=resolved["jobs"],
        )
    else:
        if resolved.get("model"):
            artifact = load_model(resolved["model"])
            est, prop = artifact.estimates, artifact.propensity
        else:
            est = fit(data, config, options, jobs=resolved["jobs"])
            prop = fit_propensity(data, config)
        if method == "plugin":
            estimate = theta_plugin(est, data)
        else:
            estimate = theta_onestep(est, prop, data, level=level)
    (out / "theta.json").write_text(
        json.dumps(estimate.to_json_dict(), indent=2, sort_keys=True), encoding="utf-8"
    )
    text = f"theta_hat = {estimate.point:.6f} ({estimate.method})"
    if estimate.ci_low is not None:
        text += f", {int(level * 100)}% CI ({estimate.ci_low:.6f}, {estimate.ci_high:.6f})"
    (out / "theta.txt").write_text(text + "\n", encoding="utf-8")
    _write_meta(out, resolved, "theta")
    return 0


def cmd_check(resolved):
    out = _out_dir(resolved)
    data = _load_dataset(resolved)
    mu_model = fit_mu_models(data, _basis(resolved))
    report = check_testable_implications(
        mu_model, data, tol=float(resolved["tol"]),
        flag_threshold=float(resolved["flag_threshold"]),
    )
    (out / "implications.json").write_text(report.to_json(), encoding="utf-8")
    (out / "implications.txt").write_text(report.to_text() + "\n", encoding="utf-8")
    print(report.to_text())
    _write_meta(out, resolved, "check")
    return 1 if report.flagged else 0


def cmd_sensitivity(resolved):
    out = _out_dir(resolved)
    target_rate = _rate(resolved)
    level = _level(resolved)
    boot = _sweep_boot(resolved)
    data = _load_dataset(resolved)
    config = _basis(resolved)
    options = _fit_options(resolved, floor=float(resolved["floor"]))
    variant = resolved["variant"]
    if variant == "baseline":
        raise FairdesertError("--variant kappa|delta|zeta is required for sweeps")
    flag = variant if resolved.get(variant) else "grid"
    raw = resolved.get(flag)
    if raw:
        grid = tuple(_sensitivity_point(flag, variant, pair) for pair in str(raw).split(";"))
    else:
        grid = DEFAULT_GRIDS[variant]
    spec = SweepSpec(
        variant=variant,
        grid=grid,
        bootstrap_replicates=boot,
        level=level,
        target_rate=target_rate,
    )
    table = run_sweep(data, config, options, spec, jobs=resolved["jobs"])
    table.write_csv(out / "sweep.csv")
    table.write_metadata(out / "sweep_meta.json")
    _write_meta(out, resolved, "sensitivity")
    return 0


def cmd_simulate(resolved):
    out = _out_dir(resolved)
    config = DgpConfig(
        n=int(resolved["n"]),
        delta=float(resolved["dgp_delta"]),
        seed=int(resolved["seed"]),
    )
    methods = tuple(m.strip() for m in str(resolved["methods"]).split(",") if m.strip())
    settings = MonteCarloSettings(
        methods=methods,
        test_size=int(resolved["test_size"]),
        basis=_basis(resolved),
        fit_options=_fit_options(resolved),
        level=_level(resolved),
    )
    summary = monte_carlo(config, int(resolved["reps"]), settings, jobs=resolved["jobs"])
    write_auc_summary_csv([summary], out / "auc_summary.csv")
    write_coverage_summary_csv([summary], out / "coverage_summary.csv")
    write_replications_csv([summary], out / "replications.csv")
    _write_meta(out, resolved, "simulate", extra={"runtime_s": summary.runtime_s,
                                                  "stage_seconds": summary.stage_seconds})
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fairdesert",
        description="Estimate latent fair decision rules and the degree of "
        "unfairness from potentially biased observed decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its entries")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", dest="out_dir", default=None)
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: the usable CPUs)")

    def data_flags(p):
        p.add_argument("--input", help="input CSV path")
        p.add_argument("--schema", help="JSON column mapping (inline or file)")
        p.add_argument("--basis-degree", dest="basis_degree", type=int, default=None)
        p.add_argument("--interaction-order", dest="interaction_order", type=int, default=None)
        p.add_argument("--floor", type=float, default=None)
        p.add_argument("--restarts", type=int, default=None)

    def variant_flags(p):
        p.add_argument("--variant", choices=["baseline", "kappa", "delta", "zeta"], default=None)
        p.add_argument("--kappa", help="kappa0,kappa1 (or ';'-separated grid for sweeps)")
        p.add_argument("--delta", help="delta0,delta1 (or ';'-separated grid for sweeps)")
        p.add_argument("--zeta", help="zeta0,zeta1 (or ';'-separated grid for sweeps)")

    p_est = sub.add_parser("estimate", help="fit the sieve MLE and propensities")
    common(p_est)
    data_flags(p_est)
    variant_flags(p_est)
    p_est.add_argument("--tol", type=float, default=None)
    p_est.add_argument("--flag-threshold", dest="flag_threshold", type=float, default=None)
    p_est.set_defaults(func=cmd_estimate)

    p_pred = sub.add_parser("predict", help="score new rows with a saved model")
    common(p_pred)
    p_pred.add_argument("--model", help="model.json from estimate")
    p_pred.add_argument("--input", help="CSV with the model's covariates and z")
    p_pred.add_argument("--schema", help="JSON column mapping (inline or file)")
    p_pred.add_argument("--rate", type=float, default=None,
                        help="rate-preserving threshold target")
    p_pred.add_argument("--threshold", type=float, default=None,
                        help="explicit threshold (overrides --rate)")
    p_pred.set_defaults(func=cmd_predict)

    p_theta = sub.add_parser("theta", help="estimate the degree of unfairness")
    common(p_theta)
    data_flags(p_theta)
    variant_flags(p_theta)
    p_theta.add_argument("--model", help="reuse a saved model.json")
    p_theta.add_argument("--method", choices=["plugin", "onestep", "bootstrap"], default=None)
    p_theta.add_argument("--level", type=float, default=None)
    p_theta.add_argument("--boot", type=int, default=None)
    p_theta.add_argument("--crossfit", type=int, default=None)
    p_theta.set_defaults(func=cmd_theta)

    p_check = sub.add_parser("check", help="testable implications of the assumptions")
    common(p_check)
    data_flags(p_check)
    p_check.add_argument("--tol", type=float, default=None)
    p_check.add_argument("--flag-threshold", dest="flag_threshold", type=float, default=None)
    p_check.set_defaults(func=cmd_check)

    p_sens = sub.add_parser("sensitivity", help="sweep misspecification settings")
    common(p_sens)
    data_flags(p_sens)
    variant_flags(p_sens)
    p_sens.add_argument("--grid", help="v0,v1;v0,v1;... grid points")
    p_sens.add_argument("--boot", type=int, default=None)
    p_sens.add_argument("--level", type=float, default=None)
    p_sens.add_argument("--rate", type=float, default=None)
    p_sens.set_defaults(func=cmd_sensitivity)

    p_sim = sub.add_parser("simulate", help="Monte Carlo study of all methods")
    common(p_sim)
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--reps", type=int, default=None)
    p_sim.add_argument("--dgp-delta", dest="dgp_delta", type=float, default=None)
    p_sim.add_argument("--methods", default=None, help="comma list from dsd,uml,ftu,mlc,ld")
    p_sim.add_argument("--test-size", dest="test_size", type=int, default=None)
    p_sim.add_argument("--basis-degree", dest="basis_degree", type=int, default=None)
    p_sim.add_argument("--interaction-order", dest="interaction_order", type=int, default=None)
    p_sim.add_argument("--restarts", type=int, default=None)
    p_sim.add_argument("--level", type=float, default=None)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        resolved = _resolve(args)
        started = time.perf_counter()
        code = args.func(resolved)
        elapsed = time.perf_counter() - started
        print(f"{args.command} finished in {elapsed:.1f}s -> {resolved['out_dir']}",
              file=sys.stderr)
        return code
    except FairdesertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit code 1 means "completed with warnings"
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
