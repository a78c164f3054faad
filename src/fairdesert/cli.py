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
import contextlib
import csv
import functools
import importlib.util
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

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
from .sievemle import VARIANTS, FitOptions, SensitivityParams, fit, predict_tau_sz, rate_threshold
from .simulate import (
    MIN_ROWS,
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


@contextlib.contextmanager
def _reading(flag):
    """Name ``--flag`` in the error of a file it names that cannot be read."""
    try:
        yield
    except OSError as exc:
        raise FairdesertError(f"--{flag}: cannot read {exc.filename}: {exc.strerror}") from exc


def _load_json_arg(value, flag):
    """The JSON object of ``--flag``: inline JSON text, a path to a JSON
    file, or (from a config file) the object itself.  Anything else fails
    naming the flag."""
    if value is None or isinstance(value, dict):
        return value
    if not isinstance(value, str):
        # only a config file gives a value that is not text
        raise FairdesertError(f"--config: {flag!r} must be a JSON object, inline JSON text "
                              f"or a file path, got {value!r}")
    text = value.strip()
    if not text.startswith(("{", "[")):
        with _reading(flag):
            text = Path(value).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FairdesertError(f"--{flag}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FairdesertError(f"--{flag}: expected a JSON object, got {doc!r}")
    return doc


def _schema_from(doc):
    doc = doc or {}
    return CsvSchema(
        s=doc.get("s", "s"),
        z=doc.get("z", "z"),
        y=doc.get("y", "y"),
        covariates=doc.get("covariates", ()),
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


def _config_value(command, flags, key, value):
    """A config file's ``value`` for ``key``, checked as its flag's value is:
    through the flag's ``type`` (given the value's text, as argparse is)
    and ``choices``.  A key that names no flag of ``command`` fails."""
    action = flags.get(key.replace("-", "_"))
    if action is None:
        raise FairdesertError(f"--config: {key!r} is not a setting of {command}")
    if value is None:
        return None
    if action.type is not None:
        try:
            value = action.type(str(value))
        except ValueError:
            raise FairdesertError(
                f"--config: {key!r}: invalid {action.type.__name__} value {value!r}"
            ) from None
    if action.choices is not None and value not in action.choices:
        raise FairdesertError(
            f"--config: {key!r} must be one of {', '.join(map(str, action.choices))}, "
            f"got {value!r}"
        )
    return value


def _resolve(args):
    """Merge the optional config file under explicit flags."""
    resolved = vars(args).copy()
    flags = {action.dest: action for action in resolved.pop("parser")._actions
             if action.option_strings and action.dest not in ("help", "config")}
    config_doc = _load_json_arg(resolved.pop("config", None), "config") or {}
    for key, value in config_doc.items():
        value = _config_value(args.command, flags, key, value)
        key = key.replace("-", "_")
        if resolved.get(key) is None:
            resolved[key] = value
    # before the defaults, so that only a given value counts
    if args.command == "theta":
        _check_method_flags(resolved)
    if "variant" in resolved:
        _check_variant_flags(resolved)
    defaults = _SIMULATE_DEFAULTS if args.command == "simulate" else _DEFAULTS
    for key, value in defaults.items():
        if resolved.get(key) is None and key in resolved:
            resolved[key] = value
    resolved["jobs"] = int(resolved["jobs"])
    if resolved["jobs"] < 1:
        raise FairdesertError(f"--jobs expects at least 1 process, got {resolved['jobs']}")
    # every random draw of every command is seeded from it
    resolved["seed"] = _checked(resolved, "seed", int, lambda v: v >= 0,
                                "be a non-negative integer")
    return resolved


# theta flags that one --method alone reads
_METHOD_FLAGS = {"crossfit": "onestep", "boot": "bootstrap"}


def _check_method_flags(resolved):
    """Refuse a theta flag, given directly or in the config file, that the
    method does not read."""
    method = resolved.get("method") or _DEFAULTS["method"]
    for key, reader in _METHOD_FLAGS.items():
        if resolved.get(key) is not None and method != reader:
            raise FairdesertError(
                f"--{key} cannot be combined with --method {method}; "
                f"only --method {reader} reads it"
            )


def _check_variant_flags(resolved):
    """Refuse a variant-level flag (--kappa, --delta, --zeta), given directly
    or in the config file, that the variant does not read."""
    variant = resolved.get("variant") or _DEFAULTS["variant"]
    for key in VARIANTS[1:]:
        if resolved.get(key) is not None and variant != key:
            raise FairdesertError(
                f"--{key} cannot be combined with --variant {variant}; "
                f"only --variant {key} reads it"
            )


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
    "tol": 0.005,
    "flag_threshold": 0.1,
    "out_dir": "fairdesert_out",
}
# simulate fits as the Monte Carlo study that the acceptance suite validates
_MC = MonteCarloSettings()
_SIMULATE_DEFAULTS = {**_DEFAULTS, "basis_degree": _MC.basis.degree,
                      "interaction_order": _MC.basis.interaction_order,
                      "restarts": _MC.fit_options.restarts, "test_size": _MC.test_size,
                      "methods": ",".join(_MC.methods)}


def _out_dir(resolved):
    out = Path(resolved["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _scipy_version():
    """The installed scipy's version, from the name of its
    ``scipy-<version>.dist-info`` folder; None when scipy is not installed
    (the package runs without it).  Importing scipy, or importlib.metadata,
    would cost each run over 10 ms and 1 MB; this takes under 1 ms."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        return None
    for info in Path(spec.origin).parent.parent.glob("scipy-*.dist-info"):
        return info.name[len("scipy-"):-len(".dist-info")]
    return None


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
            "scipy": _scipy_version(),
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


@contextlib.contextmanager
def _timed(stages, name):
    """Add the seconds the block takes to ``stages[name]``."""
    started = time.perf_counter()
    try:
        yield
    finally:
        stages[name] += time.perf_counter() - started


def _basis(resolved):
    order = resolved["interaction_order"]
    if order is not None:
        # 0 is the intercept-only model, whose functions ignore x
        order = _checked(resolved, "interaction-order", int, lambda v: v >= 0, "be at least 0")
    return BasisConfig(
        degree=_checked(resolved, "basis-degree", int, lambda v: v >= 1, "be at least 1"),
        interaction_order=order,
    )


def _fit_options(resolved, base=FitOptions(), **fields):
    """``base`` with --restarts, --seed and ``fields``; a bad value fails
    naming its flag, before any fit."""
    try:
        return replace(base, restarts=int(resolved["restarts"]), seed=resolved["seed"],
                       **fields)
    except ValueError as exc:
        # FitOptions starts each message with the field, named like its flag
        raise FairdesertError(f"--{exc}") from exc


def _rate(resolved):
    """The --rate target, or None when the flag is absent."""
    if resolved.get("rate") is None:
        return None
    return _checked(resolved, "rate", float, lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")


def _threshold(resolved):
    """The --threshold cut-off, or None when the flag is absent."""
    if resolved.get("threshold") is None:
        return None
    return _checked(resolved, "threshold", float, math.isfinite, "be a finite number")


def _checked(resolved, flag, convert, ok, requirement):
    """The value of --flag, converted; a value that is not ``ok`` fails
    naming the flag and the ``requirement``."""
    value = convert(resolved[flag.replace("-", "_")])
    if not ok(value):
        raise FairdesertError(f"--{flag} must {requirement}, got {value}")
    return value


def _level(resolved):
    """The --level of a confidence interval."""
    return _checked(resolved, "level", float, lambda v: 0.0 < v < 1.0, "lie in (0, 1)")


def _boot(resolved, allow_off):
    """The --boot replicates: at least MIN_REPLICATES, or 0 (no bootstrap)
    where ``allow_off``, as a sweep does."""
    allowed = "0 (no bootstrap) or at least" if allow_off else "at least"
    return _checked(resolved, "boot", int,
                    lambda v: v >= MIN_REPLICATES or (allow_off and v == 0),
                    f"be {allowed} {MIN_REPLICATES}")


def _rows(resolved, flag):
    """The --n or --test-size rows of a simulated draw."""
    return _checked(resolved, flag, int, lambda v: v >= MIN_ROWS, f"be at least {MIN_ROWS}")


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
        return SensitivityParams.baseline()
    raw = resolved.get(variant)
    if raw is None:
        raise FairdesertError(f"--{variant} v0,v1 required for variant {variant!r}")
    return _sensitivity_point(variant, variant, raw)


def _load_dataset(resolved) -> Dataset:
    if not resolved.get("input"):
        raise FairdesertError("--input CSV is required")
    schema_doc = _load_json_arg(resolved.get("schema"), "schema")
    with _reading("input"):
        schema_doc = _sniff_covariates(resolved["input"], schema_doc)
        raw = load_csv(resolved["input"], _schema_from(schema_doc))
    return scale_covariates(raw)


def _histogram(values, bins=20):
    counts, edges = np.histogram(values, bins=bins, range=(0.0, 1.0))
    return {"edges": edges.tolist(), "counts": counts.tolist()}


def _implication_limits(resolved):
    """The --tol and --flag-threshold of the testable-implication checks."""
    tol = _checked(resolved, "tol", float, lambda v: 0.0 <= v < math.inf,
                   "be a finite number at least 0")
    flag_threshold = _checked(resolved, "flag-threshold", float, lambda v: 0.0 <= v <= 1.0,
                              "lie in [0, 1]")
    return tol, flag_threshold


def _write_implications(out, data, config, limits):
    """Fit the mu models, check the testable implications against the
    (--tol, --flag-threshold) ``limits``, and write implications.json and
    implications.txt."""
    tol, flag_threshold = limits
    report = check_testable_implications(
        fit_mu_models(data, config), data, tol=tol, flag_threshold=flag_threshold,
    )
    (out / "implications.json").write_text(report.to_json(), encoding="utf-8")
    (out / "implications.txt").write_text(report.to_text() + "\n", encoding="utf-8")
    return report


def cmd_estimate(resolved):
    config = _basis(resolved)
    options = _fit_options(resolved, floor=float(resolved["floor"]))
    sensitivity = _sensitivity(resolved)
    limits = _implication_limits(resolved)
    data = _load_dataset(resolved)
    out = _out_dir(resolved)
    stages = {"fit": 0.0, "propensity": 0.0, "implications": 0.0, "write": 0.0}
    with _timed(stages, "fit"):
        est = fit(data, config, options, sensitivity=sensitivity, jobs=resolved["jobs"])
    with _timed(stages, "propensity"):
        prop = fit_propensity(data, config)
    with _timed(stages, "write"):
        save_model(ModelArtifact(est, prop, data.covariate_names, data.scaling),
                   out / "model.json")
    with _timed(stages, "implications"):
        report = _write_implications(out, data, config, limits)
    with _timed(stages, "write"):
        _write_estimate_reports(out, data, est, sensitivity, report)
    _write_meta(out, resolved, "estimate", extra={"stage_seconds": stages})
    return 1 if report.flagged else 0


def _write_estimate_reports(out, data, est, sensitivity, report):
    """per_unit.csv, fit_report.json and fit_report.txt of `cmd_estimate`."""
    t0, t1, a, b = est.values(data.x)
    tau_obs = np.where(data.z == 1, t1, t0)
    write_columns(out / "per_unit.csv", ["row", "tau0", "tau1", "tau_zx", "alpha", "beta"],
                  [np.arange(1, data.n + 1), t0, t1, tau_obs, a, b])

    fit_report = {
        "n": data.n,
        "variant": sensitivity.variant,
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
        f"sieve fit on n={data.n} rows (variant {sensitivity.variant})",
        f"criterion {est.diagnostics.criterion:.6f}, "
        f"gradient norm {est.diagnostics.grad_norm:.2e}, "
        f"restarts {est.diagnostics.restarts_used}",
        report.to_text(),
    ]
    (out / "fit_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_predict(resolved):
    if not resolved.get("model") or not resolved.get("input"):
        raise FairdesertError("--model and --input are required")
    rate_target = _rate(resolved)
    threshold = _threshold(resolved)
    with _reading("model"):
        artifact = load_model(resolved["model"])
    schema_doc = dict(_load_json_arg(resolved.get("schema"), "schema") or {})
    schema_doc["covariates"] = list(artifact.covariate_names)
    schema = _schema_from(schema_doc)
    with _reading("input"):
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

    out = _out_dir(resolved)
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
    level = _level(resolved)
    folds = _checked(resolved, "crossfit", int, lambda v: v == 0 or v >= 2,
                     "be 0 (off) or at least 2 folds")
    method = resolved["method"]
    refitting = "--crossfit" if folds else "--method bootstrap" if method == "bootstrap" else None
    if resolved.get("model") and refitting:
        raise FairdesertError(
            f"--model cannot be combined with {refitting}, which fits its own nuisances"
        )
    boot = _boot(resolved, allow_off=False) if method == "bootstrap" else None
    config = _basis(resolved)
    options = _fit_options(resolved, floor=float(resolved["floor"]))
    sensitivity = _sensitivity(resolved)
    data = _load_dataset(resolved)

    if sensitivity.variant != "baseline" and method != "bootstrap":
        raise FairdesertError(
            "sensitivity variants support inference via --method bootstrap only"
        )
    # the full-data fit, and the bootstrap, the folds or the evaluation
    stages = {"fit": 0.0, "inference": 0.0}
    if method == "bootstrap":
        fitter = VariantFitter(config, options, sensitivity)
        # the full-data fit runs its restarts on the pool; VariantFitter's
        # replicate fits are already spread over it
        with _timed(stages, "fit"):
            full_fit = fit(data, config, options, sensitivity=sensitivity,
                           jobs=resolved["jobs"])
        with _timed(stages, "inference"):
            estimate = theta_bootstrap(
                fitter, data, replicates=boot, seed=resolved["seed"], level=level,
                full_fit=full_fit, jobs=resolved["jobs"],
            )
    elif method == "onestep" and folds:
        # each fold fits its own nuisances; a full-data fit would go unused
        with _timed(stages, "inference"):
            estimate = theta_onestep_crossfit(
                data, config, options, folds=folds,
                seed=resolved["seed"], level=level, jobs=resolved["jobs"],
            )
    else:
        if resolved.get("model"):
            with _reading("model"):
                artifact = load_model(resolved["model"])
            est, prop = artifact.estimates, artifact.propensity
        else:
            with _timed(stages, "fit"):
                est = fit(data, config, options, jobs=resolved["jobs"])
                prop = fit_propensity(data, config)
        with _timed(stages, "inference"):
            if method == "plugin":
                estimate = theta_plugin(est, data)
            else:
                estimate = theta_onestep(est, prop, data, level=level)
    out = _out_dir(resolved)
    (out / "theta.json").write_text(
        json.dumps(estimate.to_json_dict(), indent=2, sort_keys=True), encoding="utf-8"
    )
    text = f"theta_hat = {estimate.point:.6f} ({estimate.method})"
    if estimate.ci_low is not None:
        text += f", {int(level * 100)}% CI ({estimate.ci_low:.6f}, {estimate.ci_high:.6f})"
    (out / "theta.txt").write_text(text + "\n", encoding="utf-8")
    _write_meta(out, resolved, "theta", extra={"stage_seconds": stages})
    return 0


def cmd_check(resolved):
    config, limits = _basis(resolved), _implication_limits(resolved)
    data = _load_dataset(resolved)
    out = _out_dir(resolved)
    report = _write_implications(out, data, config, limits)
    print(report.to_text())
    _write_meta(out, resolved, "check")
    return 1 if report.flagged else 0


def cmd_sensitivity(resolved):
    target_rate = _rate(resolved)
    level = _level(resolved)
    boot = _boot(resolved, allow_off=True)
    config = _basis(resolved)
    options = _fit_options(resolved, floor=float(resolved["floor"]))
    data = _load_dataset(resolved)
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
    out = _out_dir(resolved)
    # the sweep's fits, and the bootstrap replicates of its grid points
    stages = {"fit": 0.0, "bootstrap": 0.0}
    table = run_sweep(data, config, options, spec, jobs=resolved["jobs"],
                      timed=functools.partial(_timed, stages))
    table.write_csv(out / "sweep.csv")
    table.write_metadata(out / "sweep_meta.json")
    _write_meta(out, resolved, "sensitivity", extra={"stage_seconds": stages})
    return 0


def cmd_simulate(resolved):
    config = DgpConfig(
        n=_rows(resolved, "n"),
        delta=_checked(resolved, "dgp-delta", float, lambda v: 0.0 <= v < 0.5, "lie in [0, 0.5)"),
        seed=resolved["seed"],
    )
    reps = _checked(resolved, "reps", int, lambda v: v >= 1, "be at least 1")
    methods = tuple(m.strip() for m in str(resolved["methods"]).split(",") if m.strip())
    basis, level = _basis(resolved), _level(resolved)
    options = _fit_options(resolved, _MC.fit_options)
    test_size = _rows(resolved, "test-size")
    try:
        settings = MonteCarloSettings(methods=methods, test_size=test_size, basis=basis,
                                      fit_options=options, level=level)
    except ValueError as exc:
        # the test size is checked above, so this is the method list's message
        raise FairdesertError(f"--{exc}") from exc
    out = _out_dir(resolved)
    summary = monte_carlo(config, reps, settings, jobs=resolved["jobs"])
    write_auc_summary_csv([summary], out / "auc_summary.csv")
    write_coverage_summary_csv([summary], out / "coverage_summary.csv")
    write_replications_csv([summary], out / "replications.csv")
    _write_meta(out, resolved, "simulate", extra={
        "runtime_s": summary.runtime_s, "stage_seconds": summary.stage_seconds,
        "ld_parity_misses": summary.ld_parity_misses})
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fairdesert",
        description="Estimate latent fair decision rules and the degree of "
        "unfairness from potentially biased observed decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        # `_resolve` checks a config file's entries against p's flags
        p.set_defaults(parser=p)
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
        p.add_argument("--variant", choices=VARIANTS, default=None)
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
