"""Serialization of fitted models to the JSON model document.

Field names are part of the external interface: "covariate_names", "scaling",
"basis", "coefficients" (with per-function vectors plus the propensity
matrix), "floor", "variant", "sensitivity", "diagnostics".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import BasisConfig, SeriesFunction
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


def load_model(path) -> ModelArtifact:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    config = BasisConfig.from_json_dict(doc["basis"])
    floor = float(doc["floor"])
    coef = doc["coefficients"]
    make = lambda key: SeriesFunction(  # noqa: E731
        config, np.asarray(coef[key], dtype=np.float64), lo=floor, hi=1 - floor
    )
    sens_doc = doc.get("sensitivity") or {"variant": doc.get("variant", "baseline"),
                                          "v0": 0.0, "v1": 0.0}
    variant = sens_doc.get("variant", "baseline")
    if doc.get("variant", variant) != variant:
        raise FairdesertError(f"model document: variant {doc['variant']!r} disagrees "
                              f"with sensitivity.variant {variant!r}")
    levels = [sens_doc.get(key) for key in ("v0", "v1")]
    for key, level in zip(("v0", "v1"), levels):
        if level is None and variant != "baseline":
            raise FairdesertError(
                f"model document: sensitivity.{key} of the {variant} variant is missing "
                "or null (a per-row level cannot be stored); refit with constant levels"
            )
    sensitivity = SensitivityParams(variant, *(float(v or 0.0) for v in levels))
    diag_doc = doc.get("diagnostics")
    diagnostics = FitDiagnostics.from_json_dict(diag_doc) if diag_doc else None
    estimates = NuisanceEstimates(
        tau0=make("tau0"), tau1=make("tau1"), alpha=make("alpha"), beta=make("beta"),
        sensitivity=sensitivity,
        diagnostics=diagnostics,
    )
    propensity = None
    if "propensity" in coef:
        propensity = PropensityModel(
            config,
            np.asarray(coef["propensity"], dtype=np.float64),
            floor=float(doc.get("propensity_floor") or PI_FLOOR),
        )
    return ModelArtifact(
        estimates=estimates,
        propensity=propensity,
        covariate_names=tuple(doc["covariate_names"]),
        scaling=tuple((float(lo), float(hi)) for lo, hi in doc["scaling"]),
    )
