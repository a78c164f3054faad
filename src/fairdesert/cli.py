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
from typing import NamedTuple

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
    ALL_METHODS,
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


ALL = ("estimate", "predict", "theta", "check", "sensitivity", "simulate")
# the commands that fit the sieve on an --input CSV
FITTING = ("estimate", "theta", "sensitivity")
# simulate fits as the Monte Carlo study that the acceptance suite validates
_MC = MonteCarloSettings()


class Flag(NamedTuple):
    """One flag: the commands that register it, its help, its type (int,
    float, a tuple of choices, or None for text), its default, its range
    check, and when a run reads it.

    ``default`` and ``check`` may be dicts by command ("*" for the rest).
    ``check(value, resolved)`` returns the value the command reads, or raises
    ValueError with the message that follows the flag's name.  ``read_when``
    maps another flag to the values under which a run reads this one (None:
    that flag not given); a command without that flag sets no condition."""

    commands: tuple
    help: str
    type: object = None
    default: object = None
    check: object = None
    read_when: dict = {}


def _flag(key):
    """The command-line name of the setting ``key``."""
    return "--" + key.replace("_", "-")


def _within(ok, requirement):
    """A range: a value that is not ``ok`` fails with ``requirement``, which
    the flag's help shows."""
    def check(value, resolved):
        if not ok(value):
            raise ValueError(f"{requirement}, got {value}")
        return value
    check.requirement = requirement
    return check


def _checked_by(cls, field, parse=lambda value: value):
    """A range that ``cls`` checks on ``field``, of the value ``parse``
    makes; its message starts with the field's name, which the flag's name
    replaces."""
    def check(value, resolved):
        value = parse(value)
        try:
            cls(**{field: value})
        except ValueError as exc:
            raise ValueError(str(exc).partition(" ")[2]) from None
        return value
    return check


def _levels(text, resolved):
    """A "v0,v1" pair of --variant levels, or in a sweep ';'-separated pairs,
    each point once (`SweepSpec`)."""
    variant, sweep = resolved["variant"], resolved["command"] == "sensitivity"
    points = []
    for pair in str(text).split(";") if sweep else [str(text)]:
        try:
            v0, v1 = (float(v) for v in pair.split(","))
            points.append(SensitivityParams(variant, v0, v1))
        except ValueError as exc:
            raise ValueError(f"expects two numbers v0,v1 for variant {variant!r}, "
                             f"got {pair!r}: {exc}") from None
    if not sweep:
        return points[0]
    try:
        SweepSpec(variant, tuple(points)).params()
    except ValueError as exc:
        raise ValueError(str(exc).partition(" ")[2]) from None
    return tuple(points)


_SIEVE = FITTING + ("check", "simulate")
_WITHOUT_MODEL = {"model": (None,)}
# Refused and checked in this order, so that the flag that decides whether
# another is read comes first.
FLAGS = {
    "config": Flag(ALL, "JSON config file; flags override its entries"),
    "seed": Flag(ALL, "seed of every random draw", int, 0,
                 _within(lambda v: v >= 0, "must be a non-negative integer")),
    "out_dir": Flag(ALL, "output folder", default="fairdesert_out"),
    "jobs": Flag(ALL, "worker processes", int, len(os.sched_getaffinity(0)),
                 _within(lambda v: v >= 1, "expects at least 1 process")),
    # every command but simulate reads a CSV
    "input": Flag(ALL[:-1], "input CSV path"),
    "schema": Flag(ALL[:-1], "JSON column mapping (inline or file)",
                   check=lambda value, resolved: _load_json_arg(value, "schema")),
    "method": Flag(("theta",), "theta estimator", ("plugin", "onestep", "bootstrap"), "onestep"),
    "crossfit": Flag(("theta",), "cross-fitting folds", int, 0,
                     _within(lambda v: v == 0 or v >= 2, "must be 0 (off) or at least 2 folds"),
                     {"method": ("onestep",)}),
    "model": Flag(("predict", "theta"), "model.json written by estimate",
                  read_when={"method": ("plugin", "onestep"), "crossfit": (0,)}),
    "boot": Flag(("theta", "sensitivity"), "bootstrap replicates", int, 200, {
        "theta": _within(lambda v: v >= MIN_REPLICATES, f"must be at least {MIN_REPLICATES}"),
        "sensitivity": _within(lambda v: v == 0 or v >= MIN_REPLICATES,
                               f"must be 0 (no bootstrap) or at least {MIN_REPLICATES}"),
    }, {"method": ("bootstrap",)}),
    "level": Flag(("theta", "sensitivity", "simulate"), "confidence level", float, 0.95,
                  _within(lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
                  {"method": ("onestep", "bootstrap")}),
    "variant": Flag(FITTING, "model variant", VARIANTS, "baseline"),
    **{name: Flag(FITTING, f"{name}0,{name}1 levels (a ';'-separated grid in a sweep)",
                  check=_levels, read_when={"variant": (name,)}) for name in VARIANTS[1:]},
    "grid": Flag(("sensitivity",), "v0,v1;v0,v1;... grid points", check=_levels,
                 read_when={name: (None,) for name in VARIANTS[1:]}),
    "basis_degree": Flag(_SIEVE, "polynomial degree of the sieve", int,
                         {"simulate": _MC.basis.degree, "*": 3},
                         _within(lambda v: v >= 1, "must be at least 1"), _WITHOUT_MODEL),
    # 0 is the intercept-only model, whose functions ignore x
    "interaction_order": Flag(_SIEVE, "most covariates in one basis term; unset: pairwise "
                              "up to 4 covariates, else none", int,
                              {"simulate": _MC.basis.interaction_order},
                              _within(lambda v: v >= 0, "must be at least 0"), _WITHOUT_MODEL),
    "floor": Flag(FITTING, "floor c of the fitted nuisances, in [0, 0.5)", float, 1e-3,
                  _checked_by(FitOptions, "floor"), _WITHOUT_MODEL),
    "restarts": Flag(FITTING + ("simulate",), "optimizer starts per fit, at least 1", int,
                     {"simulate": _MC.fit_options.restarts, "*": 10},
                     _checked_by(FitOptions, "restarts"), _WITHOUT_MODEL),
    "tol": Flag(("estimate", "check"), "tolerance of the testable implications", float, 0.005,
                _within(lambda v: 0.0 <= v < math.inf, "must be a finite number at least 0")),
    "flag_threshold": Flag(("estimate", "check"), "violation share that flags an implication",
                           float, 0.1, _within(lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")),
    "threshold": Flag(("predict",), "score cut-off of a positive decision", float,
                      check=_within(math.isfinite, "must be a finite number")),
    "rate": Flag(("predict", "sensitivity"), "positive rate of the decision threshold", float,
                 check=_within(lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
                 read_when={"threshold": (None,)}),
    "n": Flag(("simulate",), "rows of each training draw", int, 2000,
              _within(lambda v: v >= MIN_ROWS, f"must be at least {MIN_ROWS}")),
    "reps": Flag(("simulate",), "replications", int, 100,
                 _within(lambda v: v >= 1, "must be at least 1")),
    "dgp_delta": Flag(("simulate",), "delta of the generative model", float, 0.0,
                      _within(lambda v: 0.0 <= v < 0.5, "must lie in [0, 0.5)")),
    "methods": Flag(("simulate",), f"comma list, each once, from {','.join(ALL_METHODS)}",
                    default=",".join(_MC.methods), check=_checked_by(
                        MonteCarloSettings, "methods",
                        lambda text: tuple(m.strip() for m in str(text).split(",") if m.strip()))),
    "test_size": Flag(("simulate",), f"rows of each test draw, at least {MIN_ROWS}", int,
                      _MC.test_size, _checked_by(MonteCarloSettings, "test_size")),
}


def _per_command(value, command):
    """``value``, or its entry for ``command`` where it differs by command."""
    return value.get(command, value.get("*")) if isinstance(value, dict) else value


def _config_value(command, key, value):
    """A config file's ``value`` for ``key``, checked as its flag's value is:
    through the flag's type (given the value's text, as argparse is) and
    choices; a text flag's value must be text, but the schema's may be the
    JSON object itself.  A key that names no flag of ``command`` fails."""
    flag = FLAGS.get(key.replace("-", "_"))
    if flag is None or command not in flag.commands or key == "config":
        raise FairdesertError(f"--config: {key!r} is not a setting of {command}")
    if value is None:
        return None
    if isinstance(flag.type, tuple):
        if value not in flag.type:
            raise FairdesertError(
                f"--config: {key!r} must be one of {', '.join(flag.type)}, got {value!r}")
    elif flag.type is not None:
        try:
            value = flag.type(str(value))
        except ValueError:
            raise FairdesertError(
                f"--config: {key!r}: invalid {flag.type.__name__} value {value!r}") from None
    elif not isinstance(value, str) and key != "schema":
        # a text flag; the schema may also be the JSON object itself
        raise FairdesertError(f"--config: {key!r} must be text, got {value!r}")
    return value


def _unread(key, resolved):
    """Why a run does not read the flag ``key``, given to it; None when it does."""
    for other, allowed in FLAGS[key].read_when.items():
        if other not in resolved or resolved[other] in allowed:
            continue
        if allowed == (None,):
            return (f"{_flag(key)} cannot be combined with {_flag(other)}; "
                    f"only a run without {_flag(other)} reads it")
        return (f"{_flag(key)} cannot be combined with {_flag(other)} {resolved[other]}; "
                f"only {_flag(other)} {' or '.join(map(str, allowed))} reads it")
    return None


def _resolve(args, unknown=()):
    """The settings of ``args.command``, all checked before the command runs:
    the flags over the --config file's entries, then the defaults, every
    value in its range, and a refusal of each given flag that the run does
    not read (``unknown`` holds the command-line words that name no flag of
    the command).  "record" holds the values before their checks, for
    run_meta.json."""
    command = args.command
    resolved = {key: value for key, value in vars(args).items() if key != "config"}
    for key, value in (_load_json_arg(args.config, "config") or {}).items():
        value = _config_value(command, key, value)
        key = key.replace("-", "_")
        if resolved[key] is None:
            resolved[key] = value
    keys = [key for key in FLAGS if key in resolved]
    given = [key for key in keys if resolved[key] is not None]
    for key in keys:
        if resolved[key] is None:
            resolved[key] = _per_command(FLAGS[key].default, command)
    unread = {key: why for key in given if (why := _unread(key, resolved))}
    resolved["record"] = dict(resolved)
    for key in keys:
        check = _per_command(FLAGS[key].check, command)
        if check is not None and resolved[key] is not None and key not in unread:
            try:
                resolved[key] = check(resolved[key], resolved)
            except ValueError as exc:
                raise FairdesertError(f"{_flag(key)} {exc}") from None
    if unread:
        raise FairdesertError(next(iter(unread.values())))
    if unknown:
        raise FairdesertError(f"{command} does not take {' '.join(unknown)}")
    return resolved


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
            k: v for k, v in sorted(resolved["record"].items()) if k not in ("func",)
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


def _fit_options(resolved, base=FitOptions()):
    """``base`` with --restarts, --seed and, where the command has it, --floor."""
    return replace(base, restarts=resolved["restarts"], seed=resolved["seed"],
                   floor=resolved.get("floor", base.floor))


def _sensitivity(resolved):
    """The chosen variant's --kappa, --delta or --zeta levels, or the baseline."""
    variant = resolved["variant"]
    if variant != "baseline" and resolved[variant] is None:
        raise FairdesertError(f"--{variant} v0,v1 required for variant {variant!r}")
    return resolved.get(variant) or SensitivityParams.baseline()


def _load_dataset(resolved) -> Dataset:
    if not resolved.get("input"):
        raise FairdesertError("--input CSV is required")
    with _reading("input"):
        schema_doc = _sniff_covariates(resolved["input"], resolved["schema"])
        raw = load_csv(resolved["input"], _schema_from(schema_doc))
    return scale_covariates(raw)


def _histogram(values, bins=20):
    counts, edges = np.histogram(values, bins=bins, range=(0.0, 1.0))
    return {"edges": edges.tolist(), "counts": counts.tolist()}


def _write_implications(out, data, config, resolved):
    """Fit the mu models, check the testable implications against --tol and
    --flag-threshold, and write implications.json and implications.txt."""
    report = check_testable_implications(
        fit_mu_models(data, config), data, tol=resolved["tol"],
        flag_threshold=resolved["flag_threshold"],
    )
    (out / "implications.json").write_text(report.to_json(), encoding="utf-8")
    (out / "implications.txt").write_text(report.to_text() + "\n", encoding="utf-8")
    return report


def cmd_estimate(resolved):
    config = BasisConfig(resolved["basis_degree"], resolved["interaction_order"])
    options = _fit_options(resolved)
    sensitivity = _sensitivity(resolved)
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
        report = _write_implications(out, data, config, resolved)
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
    rate_target, threshold = resolved["rate"], resolved["threshold"]
    with _reading("model"):
        artifact = load_model(resolved["model"])
    schema_doc = dict(resolved["schema"] or {})
    names = list(artifact.covariate_names)
    if schema_doc.setdefault("covariates", names) != names:
        raise FairdesertError(f"schema.covariates must be the model's covariates {names}, "
                              f"got {schema_doc['covariates']!r}")
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

    if threshold is None:
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
    level, folds, method = resolved["level"], resolved["crossfit"], resolved["method"]
    config = BasisConfig(resolved["basis_degree"], resolved["interaction_order"])
    options = _fit_options(resolved)
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
                fitter, data, replicates=resolved["boot"], seed=resolved["seed"], level=level,
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
            if prop is None and method == "onestep":
                raise FairdesertError("model document: no propensity coefficients, "
                                      "which --method onestep reads")
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
    config = BasisConfig(resolved["basis_degree"], resolved["interaction_order"])
    data = _load_dataset(resolved)
    out = _out_dir(resolved)
    report = _write_implications(out, data, config, resolved)
    print(report.to_text())
    _write_meta(out, resolved, "check")
    return 1 if report.flagged else 0


def cmd_sensitivity(resolved):
    config = BasisConfig(resolved["basis_degree"], resolved["interaction_order"])
    options = _fit_options(resolved)
    data = _load_dataset(resolved)
    variant = resolved["variant"]
    if variant == "baseline":
        raise FairdesertError("--variant kappa|delta|zeta is required for sweeps")
    spec = SweepSpec(
        variant=variant,
        grid=resolved[variant] or resolved["grid"] or DEFAULT_GRIDS[variant],
        bootstrap_replicates=resolved["boot"],
        level=resolved["level"],
        target_rate=resolved["rate"],
    )
    # the sweep's fits, and the bootstrap replicates of its grid points
    stages = {"fit": 0.0, "bootstrap": 0.0}
    table = run_sweep(data, config, options, spec, jobs=resolved["jobs"],
                      timed=functools.partial(_timed, stages))
    out = _out_dir(resolved)
    table.write_csv(out / "sweep.csv")
    table.write_metadata(out / "sweep_meta.json")
    _write_meta(out, resolved, "sensitivity", extra={"stage_seconds": stages})
    return 0


def cmd_simulate(resolved):
    config = DgpConfig(n=resolved["n"], delta=resolved["dgp_delta"], seed=resolved["seed"])
    basis = BasisConfig(resolved["basis_degree"], resolved["interaction_order"])
    settings = MonteCarloSettings(methods=resolved["methods"], test_size=resolved["test_size"],
                                  basis=basis, fit_options=_fit_options(resolved, _MC.fit_options),
                                  level=resolved["level"])
    out = _out_dir(resolved)
    summary = monte_carlo(config, resolved["reps"], settings, jobs=resolved["jobs"])
    write_auc_summary_csv([summary], out / "auc_summary.csv")
    write_coverage_summary_csv([summary], out / "coverage_summary.csv")
    write_replications_csv([summary], out / "replications.csv")
    _write_meta(out, resolved, "simulate", extra={
        "runtime_s": summary.runtime_s, "stage_seconds": summary.stage_seconds,
        "ld_parity_misses": summary.ld_parity_misses})
    return 0


def _help(flag, command):
    """The flag's help line: its text, default, range and readers."""
    default, check = (_per_command(v, command) for v in (flag.default, flag.check))
    notes = [f"default: {default}"] if default is not None else []
    notes += [check.requirement] if hasattr(check, "requirement") else []
    notes += [f"not read with {_flag(other)}" if allowed == (None,) else
              f"read only with {_flag(other)} {' or '.join(map(str, allowed))}"
              for other, allowed in flag.read_when.items() if command in FLAGS[other].commands]
    return f"{flag.help} ({'; '.join(notes)})" if notes else flag.help


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fairdesert",
        description="Estimate latent fair decision rules and the degree of "
        "unfairness from potentially biased observed decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, text in (
        ("estimate", cmd_estimate, "fit the sieve MLE and propensities"),
        ("predict", cmd_predict, "score new rows with a saved model"),
        ("theta", cmd_theta, "estimate the degree of unfairness"),
        ("check", cmd_check, "testable implications of the assumptions"),
        ("sensitivity", cmd_sensitivity, "sweep misspecification settings"),
        ("simulate", cmd_simulate, "Monte Carlo study of all methods"),
    ):
        p = sub.add_parser(command, help=text)
        p.set_defaults(func=func)
        for key, flag in FLAGS.items():
            if command in flag.commands:
                choices = flag.type if isinstance(flag.type, tuple) else None
                p.add_argument(_flag(key), type=None if choices else flag.type,
                               choices=choices, help=_help(flag, command))
    return parser


def main(argv=None):
    args, unknown = build_parser().parse_known_args(argv)
    try:
        resolved = _resolve(args, unknown)
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
