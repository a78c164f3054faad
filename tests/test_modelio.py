import json

import numpy as np
import pytest

from fairdesert.basis import BasisConfig
from fairdesert.cli import main
from fairdesert.data import write_csv
from fairdesert.errors import FairdesertError
from fairdesert.modelio import ModelArtifact, load_model, save_model
from fairdesert.regress import fit_propensity
from fairdesert.sievemle import FitOptions, SensitivityParams, fit, predict_tau
from fairdesert.simulate import DgpConfig, gen_dataset


def test_model_document_round_trip(tmp_path):
    config = BasisConfig(interaction_order=1)
    data, _, _ = gen_dataset(DgpConfig(n=900, seed=30))
    est = fit(data, config, FitOptions(restarts=2, floor=0.05, seed=0))
    prop = fit_propensity(data, config)
    artifact = ModelArtifact(est, prop, data.covariate_names, data.scaling)
    path = tmp_path / "model.json"
    save_model(artifact, path)

    loaded = load_model(path)
    assert loaded.covariate_names == data.covariate_names
    assert loaded.scaling == data.scaling
    x = data.x[:20]
    assert np.array_equal(
        predict_tau(loaded.estimates, data.z[:20], x),
        predict_tau(est, data.z[:20], x),
    )
    assert np.array_equal(
        loaded.propensity.predict_matrix(x), prop.predict_matrix(x)
    )
    assert loaded.estimates.floor == est.floor
    assert loaded.estimates.variant == "baseline"


def test_model_document_keeps_restart_records(tmp_path):
    data, _, _ = gen_dataset(DgpConfig(n=900, seed=30))
    est = fit(data, BasisConfig(interaction_order=1), FitOptions(restarts=2, floor=0.05, seed=0))
    path = tmp_path / "model.json"
    save_model(ModelArtifact(est, None, data.covariate_names, data.scaling), path)
    assert load_model(path).estimates.diagnostics == est.diagnostics

    # a document written before restarts were recorded still loads
    doc = json.loads(path.read_text())
    del doc["diagnostics"]["restarts"], doc["diagnostics"]["winner"]
    path.write_text(json.dumps(doc))
    old = load_model(path).estimates.diagnostics
    assert old.restarts == () and old.winner is None
    assert old.criterion == est.diagnostics.criterion
    assert old.restarts_used == est.diagnostics.restarts_used


def test_model_document_variant_round_trip(tmp_path):
    config = BasisConfig(interaction_order=1)
    data, _, _ = gen_dataset(DgpConfig(n=900, seed=31))
    sens = SensitivityParams("delta", 0.03, 0.05)
    est = fit(data, config, FitOptions(restarts=2, floor=0.05, seed=0),
              variant="delta", sensitivity=sens)
    path = tmp_path / "model.json"
    save_model(ModelArtifact(est, None, data.covariate_names, data.scaling), path)
    loaded = load_model(path)
    assert loaded.estimates.variant == "delta"
    assert loaded.estimates.sensitivity.v0 == 0.03
    assert loaded.propensity is None


def test_save_rejects_per_row_level(tmp_path):
    data, _, _ = gen_dataset(DgpConfig(n=600, seed=32))
    sens = SensitivityParams("delta", lambda x: 0.02 + 0.02 * x[:, 0], 0.05)
    est = fit(data, BasisConfig(degree=1, interaction_order=1),
              FitOptions(restarts=1, floor=0.05, seed=0), variant="delta", sensitivity=sens)
    path = tmp_path / "model.json"
    with pytest.raises(FairdesertError, match=r"sensitivity\.v0 is a per-row"):
        save_model(ModelArtifact(est, None, data.covariate_names, data.scaling), path)
    assert not path.exists()


@pytest.fixture(scope="module")
def per_row_delta_model(tmp_path_factory):
    """A delta model document whose v0 is null, the form in which a per-row
    level was written before `save_model` refused it."""
    data, _, _ = gen_dataset(DgpConfig(n=600, seed=32))
    est = fit(data, BasisConfig(degree=1, interaction_order=1),
              FitOptions(restarts=1, floor=0.05, seed=0), variant="delta",
              sensitivity=SensitivityParams("delta", 0.03, 0.05))
    folder = tmp_path_factory.mktemp("model")
    path = folder / "model.json"
    save_model(ModelArtifact(est, None, data.covariate_names, data.scaling), path)
    doc = json.loads(path.read_text())
    doc["sensitivity"]["v0"] = None
    path.write_text(json.dumps(doc))
    write_csv(data, folder / "data.csv")
    return folder


def test_load_rejects_null_or_missing_variant_level(per_row_delta_model, tmp_path):
    path = per_row_delta_model / "model.json"
    assert json.loads(path.read_text())["sensitivity"]["v0"] is None
    with pytest.raises(FairdesertError, match=r"sensitivity\.v0"):
        load_model(path)
    doc = json.loads(path.read_text())
    doc["sensitivity"]["v0"] = 0.03
    del doc["sensitivity"]["v1"]
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps(doc))
    with pytest.raises(FairdesertError, match=r"sensitivity\.v1"):
        load_model(missing)


@pytest.mark.parametrize("command", ["predict", "theta"])
def test_cli_rejects_model_with_null_level(per_row_delta_model, tmp_path, capsys, command):
    rc = main([command, "--model", str(per_row_delta_model / "model.json"),
               "--input", str(per_row_delta_model / "data.csv"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "sensitivity.v0" in capsys.readouterr().err
