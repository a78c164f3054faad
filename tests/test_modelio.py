import json
import re
from pathlib import Path

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

# A model document as `estimate` wrote it while the basis settings still held
# "family" and "knots": fit on gen_dataset(DgpConfig(n=400, seed=3)) with
# BasisConfig(degree=1, interaction_order=1) and FitOptions(restarts=1,
# floor=0.05, seed=0), with its propensity model
FAMILY_MODEL = Path(__file__).parent / "data" / "polynomial_family_model.json"
FAMILY_MODEL_ROWS = """z,x1,x2
0,0.1,0.2
1,0.1,0.2
0,0.5,0.5
1,0.9,0.3
0,0.7,0.95
1,0.25,0.6
1,1.2,-0.1
0,0.0,1.0
"""
# predictions.csv of `predict --rate 0.5` on FAMILY_MODEL_ROWS, as written
# when the document was saved
FAMILY_MODEL_PREDICTIONS = """row,score,decision,covariates_clamped
1,0.22133304440939477,0,0
2,0.05593740363557393,0,0
3,0.5280687532755213,1,0
4,0.6588318427550712,1,0
5,0.6965378953039121,1,0
6,0.9271153745259445,1,0
7,0.05765709593579776,0,1
8,0.18131247489812585,0,0
"""
# A kappa model document as `estimate` wrote it while `fit` still took the
# variant twice: fit on the same draw, basis and options as FAMILY_MODEL, under
# SensitivityParams("kappa", 0.03, -0.02), with its propensity model
KAPPA_MODEL = Path(__file__).parent / "data" / "kappa_model.json"
KAPPA_MODEL_ROWS = """s,z,x1,x2
0,0,0.1,0.2
1,0,0.1,0.2
0,1,0.5,0.5
1,1,0.5,0.5
1,0,0.9,0.3
0,1,0.7,0.95
1,1,1.2,-0.1
0,0,0.0,1.0
"""
# predictions.csv of `predict --rate 0.5` on KAPPA_MODEL_ROWS, as written
# when the document was saved: an s=1 row scores kappa_z above its s=0 twin
KAPPA_MODEL_PREDICTIONS = """row,score,decision,covariates_clamped
1,0.21958321724758978,0,0
2,0.24958321724758978,0,0
3,0.8754754345428665,1,0
4,0.8554754345428665,1,0
5,0.832334653343729,1,0
6,0.9499927289866139,1,0
7,0.03080306218627987,0,1
8,0.16529542766622352,0,0
"""


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
    est = fit(data, config, FitOptions(restarts=2, floor=0.05, seed=0), sensitivity=sens)
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
              FitOptions(restarts=1, floor=0.05, seed=0), sensitivity=sens)
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
              FitOptions(restarts=1, floor=0.05, seed=0),
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


def test_document_naming_the_polynomial_family_predicts_as_before(tmp_path):
    doc = json.loads(FAMILY_MODEL.read_text())
    assert doc["basis"] == {"degree": 1, "family": "polynomial", "interaction_order": 1,
                            "knots": 3}
    assert load_model(FAMILY_MODEL).estimates.config == BasisConfig(degree=1,
                                                                    interaction_order=1)
    rows = tmp_path / "new.csv"
    rows.write_text(FAMILY_MODEL_ROWS)
    out = tmp_path / "out"
    assert main(["predict", "--model", str(FAMILY_MODEL), "--input", str(rows),
                 "--rate", "0.5", "--out-dir", str(out)]) == 0
    assert (out / "predictions.csv").read_text() == FAMILY_MODEL_PREDICTIONS


def test_saved_basis_holds_degree_and_interaction_order_only():
    assert BasisConfig(interaction_order=1).to_json_dict() == {"degree": 3,
                                                               "interaction_order": 1}
    assert BasisConfig.from_json_dict({"degree": 2}) == BasisConfig(degree=2)


def test_document_naming_another_family_is_refused(tmp_path, capsys):
    doc = json.loads(FAMILY_MODEL.read_text())
    doc["basis"]["family"] = "bspline"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FairdesertError, match="basis family 'bspline' is not supported"):
        load_model(path)
    rows = tmp_path / "new.csv"
    rows.write_text(FAMILY_MODEL_ROWS)
    rc = main(["predict", "--model", str(path), "--input", str(rows),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: model document: basis family 'bspline' is not supported")


def test_kappa_document_predicts_as_before(tmp_path):
    assert load_model(KAPPA_MODEL).estimates.sensitivity == SensitivityParams("kappa", 0.03,
                                                                              -0.02)
    rows = tmp_path / "new.csv"
    rows.write_text(KAPPA_MODEL_ROWS)
    out = tmp_path / "out"
    assert main(["predict", "--model", str(KAPPA_MODEL), "--input", str(rows),
                 "--rate", "0.5", "--out-dir", str(out)]) == 0
    assert (out / "predictions.csv").read_text() == KAPPA_MODEL_PREDICTIONS


def test_document_whose_two_variants_disagree_is_refused(tmp_path, capsys):
    doc = json.loads(KAPPA_MODEL.read_text())
    assert (doc["variant"], doc["sensitivity"]["variant"]) == ("kappa", "kappa")
    doc["variant"] = "baseline"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    message = "model document: variant 'baseline' disagrees with sensitivity.variant 'kappa'"
    with pytest.raises(FairdesertError, match=message):
        load_model(path)
    rows = tmp_path / "new.csv"
    rows.write_text(KAPPA_MODEL_ROWS)
    data, _, _ = gen_dataset(DgpConfig(n=400, seed=3))
    write_csv(data, tmp_path / "data.csv")
    for argv in (["predict", "--input", str(rows)],
                 ["theta", "--input", str(tmp_path / "data.csv")]):
        out = tmp_path / f"out-{argv[0]}"
        rc = main([*argv, "--model", str(path), "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_document_without_a_sensitivity_block_reads_its_variant_at_level_0(tmp_path):
    doc = json.loads(KAPPA_MODEL.read_text())
    del doc["sensitivity"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    est = load_model(path).estimates
    assert est.sensitivity == SensitivityParams("kappa", 0.0, 0.0)
    assert est.variant == "kappa"


def _family_model_with(edit):
    doc = json.loads(FAMILY_MODEL.read_text())
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("text, message", [
    ("{not json", "invalid JSON: Expecting property name"),
    ("[1, 2]", "expected a JSON object, got list"),
    ('{"basis": {}}', "missing covariate_names, scaling, coefficients, floor"),
    (_family_model_with(lambda d: d["coefficients"]["tau0"].pop()),
     "coefficients.tau0 must hold 3 finite numbers for the basis on the named covariates, "
     "got shape (2,)"),
    (_family_model_with(lambda d: d["coefficients"]["beta"].__setitem__(0, "x")),
     "coefficients.beta: could not convert string to float: 'x'"),
    (_family_model_with(lambda d: d["coefficients"]["propensity"].pop()),
     "coefficients.propensity must hold 3 x 3 finite numbers"),
    (_family_model_with(lambda d: d.update(floor="abc")),
     "floor must be a number in [0, 0.5), got 'abc'"),
    (_family_model_with(lambda d: d.update(floor=0.7)),
     "floor must be a number in [0, 0.5), got 0.7"),
    (_family_model_with(lambda d: d.update(scaling=d["scaling"][:1])),
     "scaling must hold one pair lo < hi of finite numbers per covariate (2)"),
    (_family_model_with(lambda d: d.update(scaling=[[0, 1], [2, 2]])),
     "scaling must hold one pair lo < hi of finite numbers per covariate (2)"),
    (_family_model_with(lambda d: d.update(covariate_names="x1")),
     "covariate_names must be a list of column names, got 'x1'"),
    (_family_model_with(lambda d: d["basis"].update(degree=0)), "basis: degree must be >= 1"),
], ids=["not-json", "list", "basis-only", "tau0-short", "beta-text", "propensity-short",
        "floor-text", "floor-0.7", "scaling-one-pair", "scaling-lo-equals-hi",
        "names-string", "degree-0"])
def test_malformed_document_exits_2_naming_the_document(tmp_path, capsys, text, message):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(FairdesertError, match=re.escape(f"model document: {message}")):
        load_model(path)
    rows = tmp_path / "new.csv"
    rows.write_text(FAMILY_MODEL_ROWS)
    out = tmp_path / "out"
    rc = main(["predict", "--model", str(path), "--input", str(rows), "--out-dir", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith(f"error: model document: {message}")
    # a FairdesertError is printed bare; any other exception with its type
    assert not re.match(r"error: \w+: ", lines[0]), lines[0]
    assert not out.exists()


def test_onestep_theta_refuses_a_document_without_propensities(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(_family_model_with(lambda d: d["coefficients"].pop("propensity")))
    assert load_model(path).propensity is None
    data, _, _ = gen_dataset(DgpConfig(n=400, seed=3))
    write_csv(data, tmp_path / "data.csv")
    argv = ["theta", "--input", str(tmp_path / "data.csv"), "--model", str(path)]
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == ("error: model document: no propensity coefficients, "
                                       "which --method onestep reads\n")
    assert not out.exists()
    # the plug-in theta reads no propensity
    assert main([*argv, "--method", "plugin", "--out-dir", str(out)]) == 0
