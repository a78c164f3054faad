"""Serialization of fitted models to the JSON model document.

Field names are part of the external interface: "covariate_names", "scaling",
"basis", "coefficients" (with per-function vectors plus the propensity
matrix), "floor", "variant", "sensitivity", "diagnostics".
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import BasisConfig, SeriesFunction, basis_dimension
from .errors import FairdesertError
from .regress import PI_FLOOR, PropensityModel
from .sievemle import FitDiagnostics, NuisanceEstimates, SensitivityParams


@dataclass(frozen=True)
class ModelArtifact:
    """Everything needed to score new data: estimates, propensities, scaling."""

    estimates: NuisanceEstimates
    propensity: PropensityModel | None
    covariate_names: tuple
    scaling: tuple


def save_model(artifact: ModelArtifact, path):
    est = artifact.estimates
    for key in ("v0", "v1"):
        if callable(getattr(est.sensitivity, key)):
            raise FairdesertError(
                f"sensitivity.{key} is a per-row (callable) level, which a model "
                "document cannot store; refit with constant levels"
            )
    coefficients = {
        "tau0": est.tau0.gamma.tolist(),
        "tau1": est.tau1.gamma.tolist(),
        "alpha": est.alpha.gamma.tolist(),
        "beta": est.beta.gamma.tolist(),
    }
    if artifact.propensity is not None:
        coefficients["propensity"] = artifact.propensity.coefficients.tolist()
    doc = {
        "covariate_names": list(artifact.covariate_names),
        "scaling": [[lo, hi] for lo, hi in artifact.scaling],
        "basis": est.config.to_json_dict(),
        "coefficients": coefficients,
        "floor": est.floor,
        "variant": est.variant,
        "sensitivity": est.sensitivity.to_json_dict(),
        "diagnostics": est.diagnostics.to_json_dict() if est.diagnostics else None,
        "propensity_floor": artifact.propensity.floor if artifact.propensity else None,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")


def _invalid(message):
    return FairdesertError(f"model document: {message}")


@contextlib.contextmanager
def _field(name):
    """Name ``name`` in the error of a value there that does not build."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise _invalid(f"{name}: {exc}") from exc


def _coefficients(coef, key, shape):
    """``coefficients[key]`` as a float array, refused unless it has ``shape``
    and holds finite numbers."""
    with _field(f"coefficients.{key}"):
        values = np.asarray(coef[key], dtype=np.float64)
    if values.shape != shape or not np.all(np.isfinite(values)):
        raise _invalid(f"coefficients.{key} must hold {' x '.join(map(str, shape))} finite "
                       f"numbers for the basis on the named covariates, got shape "
                       f"{values.shape}")
    return values


def load_model(path) -> ModelArtifact:
    """The model document at ``path``.  A document that is not a JSON object,
    lacks a field, or holds a value of the wrong type, shape or range fails
    with FairdesertError("model document: ...")."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise _invalid(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise _invalid(f"expected a JSON object, got {type(doc).__name__}")
    missing = [key for key in ("covariate_names", "scaling", "basis", "coefficients", "floor")
               if key not in doc]
    if missing:
        raise _invalid(f"missing {', '.join(missing)}")
    names = doc["covariate_names"]
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise _invalid(f"covariate_names must be a list of column names, got {names!r}")
    with _field("scaling"):
        scaling = tuple((float(lo), float(hi)) for lo, hi in doc["scaling"])
    if len(scaling) != len(names) or not all(
            math.isfinite(lo) and math.isfinite(hi) and lo < hi for lo, hi in scaling):
        raise _invalid(f"scaling must hold one pair lo < hi of finite numbers per covariate "
                       f"({len(names)}), got {doc['scaling']!r}")
    floor = doc["floor"]
    if isinstance(floor, bool) or not isinstance(floor, (int, float)) or not 0 <= floor < 0.5:
        raise _invalid(f"floor must be a number in [0, 0.5), got {floor!r}")
    floor = float(floor)
    with _field("basis"):
        config = BasisConfig.from_json_dict(doc["basis"])
    coef = doc["coefficients"]
    if not isinstance(coef, dict):
        raise _invalid(f"coefficients must be a JSON object, got {type(coef).__name__}")
    dim = basis_dimension(config, len(names))
    make = lambda key: SeriesFunction(  # noqa: E731
        config, _coefficients(coef, key, (dim,)), lo=floor, hi=1 - floor
    )
    with _field("sensitivity"):
        sens_doc = doc.get("sensitivity") or {"variant": doc.get("variant", "baseline"),
                                              "v0": 0.0, "v1": 0.0}
        variant = sens_doc.get("variant", "baseline")
        if doc.get("variant", variant) != variant:
            raise _invalid(f"variant {doc['variant']!r} disagrees "
                           f"with sensitivity.variant {variant!r}")
        levels = [sens_doc.get(key) for key in ("v0", "v1")]
        for key, level in zip(("v0", "v1"), levels):
            if level is None and variant != "baseline":
                raise _invalid(
                    f"sensitivity.{key} of the {variant} variant is missing or null "
                    "(a per-row level cannot be stored); refit with constant levels"
                )
        sensitivity = SensitivityParams(variant, *(float(v or 0.0) for v in levels))
    with _field("diagnostics"):
        diag_doc = doc.get("diagnostics")
        diagnostics = FitDiagnostics.from_json_dict(diag_doc) if diag_doc else None
    estimates = NuisanceEstimates(
        tau0=make("tau0"), tau1=make("tau1"), alpha=make("alpha"), beta=make("beta"),
        sensitivity=sensitivity,
        diagnostics=diagnostics,
    )
    propensity = None
    if "propensity" in coef:
        with _field("propensity_floor"):
            propensity_floor = float(doc.get("propensity_floor") or PI_FLOOR)
        propensity = PropensityModel(config, _coefficients(coef, "propensity", (3, dim)),
                                     floor=propensity_floor)
    return ModelArtifact(
        estimates=estimates,
        propensity=propensity,
        covariate_names=tuple(names),
        scaling=scaling,
    )
