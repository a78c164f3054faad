"""Sensitivity sweeps: refit the sieve estimator over a grid of
misspecification settings and tabulate how the decision rule and the degree
of unfairness move.

Each grid point is an independent fit with the caller's options, so a row
does not depend on which other points the grid holds.  The baseline and the
grid points are fitted together by `sievemle.fit_many`, whose restarts share
one process pool; a point whose fit is bitwise the baseline's (a zero level
reads the same stratum table) reuses the baseline's restarts instead of
repeating them.  Inference per grid point uses the bootstrap.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .basis import BasisConfig
from .data import Dataset
from .errors import FairdesertError
from .sievemle import (
    FitOptions,
    NuisanceEstimates,
    SensitivityParams,
    decision_scores,
    fit_many,
    rate_threshold,
)
from .theta import theta_bootstrap, unfairness_integrand


@dataclass(frozen=True)
class SweepSpec:
    """A sweep: variant, grid of (v0, v1) pairs, and output settings.

    Every grid point gets its own cold fit; the table lists the points in
    sorted (v0, v1) order, whatever order ``grid`` gives them in.
    ``bootstrap_replicates`` of 0 skips the bootstrap: each row's theta is
    then the plug-in integrand mean, with no interval.
    """

    variant: str
    grid: tuple = ()
    bootstrap_replicates: int = 200
    level: float = 0.95
    target_rate: float | None = None

    def params(self):
        if not self.grid:
            raise ValueError("sweep grid must be non-empty")
        out = []
        for point in self.grid:
            if isinstance(point, SensitivityParams):
                if point.variant != self.variant:
                    raise ValueError("grid point variant mismatch")
                out.append(point)
            else:
                v0, v1 = point
                out.append(SensitivityParams(self.variant, v0, v1))
        return out


DEFAULT_GRIDS = {
    "delta": tuple((v, v) for v in (0.0, 0.025, 0.05, 0.1)),
    "zeta": tuple((v, v) for v in (0.0, 0.025, 0.05, 0.1)),
    "kappa": ((0.0, 0.0), (0.05, 0.05), (-0.05, -0.05)),
}


@dataclass
class SweepRow:
    v0: float | None
    v1: float | None
    theta: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    mean_abs_tau_diff: float | None = None
    flip_rate: float | None = None
    criterion: float | None = None
    converged: bool | None = None
    error: str | None = None

    FIELDS = (
        "v0", "v1", "theta", "ci_low", "ci_high",
        "mean_abs_tau_diff", "flip_rate", "criterion", "converged", "error",
    )

    def as_csv_row(self):
        return [getattr(self, name) for name in self.FIELDS]


@dataclass
class SweepTable:
    variant: str
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def write_csv(self, path):
        path = Path(path)
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(SweepRow.FIELDS)
            for row in self.rows:
                writer.writerow(row.as_csv_row())

    def write_metadata(self, path):
        Path(path).write_text(
            json.dumps({"variant": self.variant, **self.metadata}, indent=2, sort_keys=True),
            encoding="utf-8",
        )


def flip_rate(scores_a, scores_b, rate):
    """Fraction of units whose rate-preserving classifications differ."""
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("score vectors must have equal length")
    dec_a = a >= rate_threshold(a, rate)
    dec_b = b >= rate_threshold(b, rate)
    return float(np.mean(dec_a != dec_b))


def _sort_key(p: SensitivityParams):
    v0 = math.inf if callable(p.v0) else float(p.v0)
    v1 = math.inf if callable(p.v1) else float(p.v1)
    return (v0, v1)


def run_sweep(data: Dataset, config: BasisConfig, options: FitOptions,
              spec: SweepSpec, baseline: NuisanceEstimates | None = None,
              jobs=1, timed=lambda stage: contextlib.nullcontext()) -> SweepTable:
    """One fitted row per grid point; per-point failures recorded in-row.

    Rows come in sorted (v0, v1) order, and each grid point is fitted on its
    own with ``options``.  The fits - the baseline (unless given) and every
    grid point - are one `fit_many` call, so their restarts share one pool of
    ``jobs`` processes, and a point whose objective and starts are bitwise
    the baseline's reuses its restarts.  After that, each point's bootstrap
    replicates run on their own pool of ``jobs`` processes.  The table does
    not depend on ``jobs``.  A failing grid point keeps its row, with the
    error; a failing baseline fit raises.  ``metadata["fits"]`` counts the
    sieve fits that ran restarts of their own (`fit_many`).  ``timed(stage)``
    gives a context manager that the fits run in with stage ``"fit"``, and
    each point's bootstrap with ``"bootstrap"``; by default it does nothing.
    """
    grid = sorted(spec.params(), key=_sort_key)
    requests = [(data, config, options, point) for point in grid]
    if baseline is None:
        requests.insert(0, (data, config, options))
    with timed("fit"):
        outcomes, fits = fit_many(requests, jobs)
    if baseline is None:
        baseline, *outcomes = outcomes
        if isinstance(baseline, FairdesertError):
            raise baseline
    base_scores = decision_scores(baseline, data)
    target = spec.target_rate if spec.target_rate is not None else float(np.mean(data.y))

    rows = []
    for point, est in zip(grid, outcomes):
        row = SweepRow(
            v0=None if callable(point.v0) else float(point.v0),
            v1=None if callable(point.v1) else float(point.v1),
        )
        if isinstance(est, FairdesertError):
            row.error = str(est)
            rows.append(row)
            continue
        scores = decision_scores(est, data)
        row.criterion = est.diagnostics.criterion
        row.converged = est.diagnostics.converged
        row.mean_abs_tau_diff = float(np.mean(np.abs(scores - base_scores)))
        row.flip_rate = flip_rate(scores, base_scores, target)
        if spec.bootstrap_replicates > 0:
            fitter = VariantFitter(config, options, point)
            try:
                with timed("bootstrap"):
                    estimate = theta_bootstrap(
                        fitter, data, replicates=spec.bootstrap_replicates,
                        seed=options.seed, level=spec.level, full_fit=est, jobs=jobs,
                    )
                row.theta = estimate.point
                row.ci_low = estimate.ci_low
                row.ci_high = estimate.ci_high
            except FairdesertError as exc:
                row.theta = float(np.mean(unfairness_integrand(est, data)))
                row.error = f"bootstrap failed: {exc}"
        else:
            row.theta = float(np.mean(unfairness_integrand(est, data)))
        rows.append(row)

    metadata = {
        "n": data.n,
        "target_rate": target,
        "baseline_criterion": baseline.diagnostics.criterion,
        "seed": options.seed,
        "fits": fits,
    }
    return SweepTable(variant=spec.variant, rows=rows, metadata=metadata)


class VariantFitter:
    """Picklable fitter of bootstrap replicates under ``sensitivity``, for
    `theta.theta_bootstrap`: a dataset and a list of draws in - each a
    resample's count of each row, or None for the dataset itself - and per
    draw the `NuisanceEstimates` that `fit` returns on that resample or the
    `FairdesertError` it raises out, to rounding: each resample is fitted on
    its distinct rows, weighted by their counts, never materialised.  The
    fits are one `fit_many` call in this process, so their plug-in starts
    come from one lock-step count-weighted fit of the mu models on the
    dataset's rows (`regress.fit_mu_counts`), and their restarts run in
    lock-step groups.  A draw's outcome does not depend on the other draws
    of the call."""

    def __init__(self, config, options, sensitivity):
        self.config = config
        self.options = options
        self.sensitivity = sensitivity

    def __call__(self, data, draws):
        requests = [(data, self.config, self.options, self.sensitivity, counts)
                    for counts in draws]
        return fit_many(requests, jobs=1)[0]
