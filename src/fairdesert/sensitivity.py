"""Sensitivity sweeps: refit the sieve estimator over a grid of
misspecification settings and tabulate how the decision rule and the degree
of unfairness move.

Grid points are traversed in lexicographic order with warm starting from the
neighbouring solution (the criterion is non-convex, and neighbouring fits are
close); a cold-start pass on a tenth of the points guards against path
dependence.  Inference per grid point uses the bootstrap.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
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
    fit,
    rate_threshold,
)
from .theta import theta_bootstrap, unfairness_integrand

# share of the grid points refitted without warm starts
COLD_START_FRACTION = 0.1


@dataclass(frozen=True)
class SweepSpec:
    """A sweep: variant, grid of (v0, v1) pairs, and output settings.

    ``bootstrap_replicates`` of 0 skips the bootstrap: each row's theta is
    then the plug-in integrand mean, with no interval.
    """

    variant: str
    grid: tuple = ()
    reuse_warm_start: bool = True
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
              jobs=1) -> SweepTable:
    """One fitted row per grid point; per-point failures recorded in-row.

    The grid points are fitted in order (each warm-starts the next).  Every
    fit - the baseline, each grid point and the cold-start check - runs its
    restarts on ``jobs`` processes, and so does each point's bootstrap
    replicates; the table does not depend on ``jobs``.
    """
    grid = sorted(spec.params(), key=_sort_key)
    if baseline is None:
        baseline = fit(data, config, options, jobs=jobs)
    base_scores = decision_scores(baseline, data)
    target = spec.target_rate if spec.target_rate is not None else float(np.mean(data.y))

    rows = []
    warm = None
    for point in grid:
        row = SweepRow(
            v0=None if callable(point.v0) else float(point.v0),
            v1=None if callable(point.v1) else float(point.v1),
        )
        opts = options if warm is None or not spec.reuse_warm_start else replace(
            options, init_coefficients=warm
        )
        try:
            est = fit(data, config, opts, variant=spec.variant, sensitivity=point, jobs=jobs)
        except FairdesertError as exc:
            row.error = str(exc)
            rows.append(row)
            continue
        warm = est.coefficient_stack()
        scores = decision_scores(est, data)
        row.criterion = est.diagnostics.criterion
        row.converged = est.diagnostics.converged
        row.mean_abs_tau_diff = float(np.mean(np.abs(scores - base_scores)))
        row.flip_rate = flip_rate(scores, base_scores, target)
        if spec.bootstrap_replicates > 0:
            fitter = VariantFitter(config, options, spec.variant, point)
            try:
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
        "warm_start": spec.reuse_warm_start,
        "seed": options.seed,
    }
    metadata.update(_cold_start_check(data, config, options, spec, grid, rows, jobs))
    return SweepTable(variant=spec.variant, rows=rows, metadata=metadata)


class VariantFitter:
    """Picklable fitting closure for bootstrap replicates."""

    def __init__(self, config, options, variant, sensitivity):
        self.config = config
        self.options = options
        self.variant = variant
        self.sensitivity = sensitivity

    def __call__(self, dataset):
        return fit(dataset, self.config, self.options,
                   variant=self.variant, sensitivity=self.sensitivity)


def _cold_start_check(data, config, options, spec, grid, rows, jobs):
    """Refit a subset of grid points without warm starts; report the largest
    criterion discrepancy as a path-dependence diagnostic."""
    if not spec.reuse_warm_start or not grid:
        return {"cold_start_checked": 0, "cold_start_max_gap": 0.0}
    n_check = max(1, math.ceil(COLD_START_FRACTION * len(grid)))
    gaps = []
    for point, row in list(zip(grid, rows))[:n_check]:
        if row.error is not None or row.criterion is None:
            continue
        try:
            est = fit(data, config, options, variant=spec.variant, sensitivity=point,
                      jobs=jobs)
        except FairdesertError:
            continue
        gaps.append(abs(est.diagnostics.criterion - row.criterion))
    max_gap = max(gaps, default=0.0)
    return {
        "cold_start_checked": len(gaps),
        "cold_start_max_gap": max_gap,
        "path_dependence_flag": bool(max_gap > 1e-4),
    }
