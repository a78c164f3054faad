import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairdesert.cli import main
from fairdesert.data import Dataset, write_csv
from fairdesert.parallel import blas_threads
from fairdesert.simulate import DgpConfig, gen_dataset

FAST = ["--interaction-order", "1", "--restarts", "2", "--floor", "0.05", "--seed", "7"]


@pytest.fixture(scope="module")
def train_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.csv"
    data, _, _ = gen_dataset(DgpConfig(n=1500, seed=6))
    write_csv(data, path)
    return path


def tree_digest(folder, skip=("run_meta.json",)):
    out = {}
    for p in sorted(folder.iterdir()):
        if p.name in skip:
            continue
        out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_estimate_outputs_and_determinism(train_csv, tmp_path):
    rc = main(["estimate", "--input", str(train_csv), "--out-dir", str(tmp_path / "a"), *FAST])
    assert rc in (0, 1)
    for name in ("model.json", "fit_report.json", "fit_report.txt", "per_unit.csv",
                 "implications.json", "implications.txt", "run_meta.json"):
        assert (tmp_path / "a" / name).exists()
    model = json.loads((tmp_path / "a" / "model.json").read_text())
    assert set(model) >= {"covariate_names", "scaling", "basis", "coefficients"}
    assert set(model["coefficients"]) == {"tau0", "tau1", "alpha", "beta", "propensity"}
    report = json.loads((tmp_path / "a" / "fit_report.json").read_text())
    assert len(report["alpha_histogram"]["counts"]) == 20

    rc2 = main(["estimate", "--input", str(train_csv), "--out-dir", str(tmp_path / "b"), *FAST])
    assert rc2 == rc
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def test_estimate_same_output_for_every_jobs(train_csv, tmp_path):
    for jobs in ("1", "2"):
        rc = main(["estimate", "--input", str(train_csv), "--out-dir", str(tmp_path / jobs),
                   *FAST, "--restarts", "4", "--jobs", jobs])
        assert rc in (0, 1)
    assert tree_digest(tmp_path / "1") == tree_digest(tmp_path / "2")
    report = json.loads((tmp_path / "1" / "fit_report.json").read_text())
    assert len(report["diagnostics"]["restarts"]) == report["diagnostics"]["restarts_used"] == 4
    model = json.loads((tmp_path / "1" / "model.json").read_text())
    assert model["diagnostics"] == report["diagnostics"]
    # why each restart stopped; the winner met the gradient tolerance
    messages = [r["message"] for r in report["diagnostics"]["restarts"]]
    assert set(messages) <= {"", "line search failed", "iteration limit", "non-finite start"}
    assert messages[report["diagnostics"]["winner"]] == ""


def _old_row_writer(path, header, columns, int_columns=()):
    """The per-row writer the CLI used before it wrote rows from lists."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(columns[0])):
            writer.writerow([i + 1, *(int(c[i]) if k in int_columns else c[i]
                                      for k, c in enumerate(columns))])
    return path.read_bytes()


def test_row_csvs_match_the_per_row_writer(fitted_model, train_csv, tmp_path):
    from fairdesert.data import CsvSchema, apply_scaling, load_csv, read_csv, scale_covariates
    from fairdesert.modelio import load_model
    from fairdesert.sievemle import predict_tau_sz

    artifact = load_model(fitted_model)
    est = artifact.estimates
    schema = CsvSchema(covariates=artifact.covariate_names)
    data = scale_covariates(load_csv(train_csv, schema))
    t0, t1, a, b = est.values(data.x)
    tau_obs = np.where(data.z == 1, t1, t0)
    old = _old_row_writer(tmp_path / "per_unit.csv",
                          ["row", "tau0", "tau1", "tau_zx", "alpha", "beta"],
                          [t0, t1, tau_obs, a, b])
    assert (fitted_model.parent / "per_unit.csv").read_bytes() == old

    rc = main(["predict", "--model", str(fitted_model), "--input", str(train_csv),
               "--rate", "0.3", "--out-dir", str(tmp_path / "pred")])
    assert rc == 0
    (z, s), x_raw = read_csv(train_csv, schema, ("z", "s"))
    x, clamped = apply_scaling(artifact.scaling, x_raw)
    scores = np.asarray(predict_tau_sz(est, s, z, x))
    threshold = json.loads((tmp_path / "pred" / "predict_report.json").read_text())["threshold"]
    old = _old_row_writer(tmp_path / "predictions.csv",
                          ["row", "score", "decision", "covariates_clamped"],
                          [scores, scores >= threshold, clamped], int_columns=(1, 2))
    assert (tmp_path / "pred" / "predictions.csv").read_bytes() == old


def test_estimate_positivity_exit_code(tmp_path):
    rng = np.random.default_rng(0)
    n = 200
    data = Dataset(
        s=np.zeros(n, dtype=int), z=rng.integers(0, 2, n), y=rng.integers(0, 2, n),
        x=rng.uniform(size=(n, 2)), covariate_names=("x1", "x2"),
        scaling=((0.0, 1.0), (0.0, 1.0)), scaled=True,
    )
    path = tmp_path / "degenerate.csv"
    write_csv(data, path)
    rc = main(["estimate", "--input", str(path), "--out-dir", str(tmp_path / "out"), *FAST])
    assert rc == 2


def test_missing_column_exit_code(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("s,z,y\n1,0,1\n", encoding="utf-8")
    rc = main(["theta", "--input", str(path), "--out-dir", str(tmp_path / "out"),
               "--schema", json.dumps({"covariates": ["missing"]})])
    assert rc == 2


@pytest.fixture(scope="module")
def fitted_model(train_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    main(["estimate", "--input", str(train_csv), "--out-dir", str(out), *FAST])
    return out / "model.json"


def test_predict_explicit_thresholds(fitted_model, train_csv, tmp_path):
    rc = main(["predict", "--model", str(fitted_model), "--input", str(train_csv),
               "--threshold", "1.0", "--out-dir", str(tmp_path / "high")])
    assert rc == 0
    with (tmp_path / "high" / "predictions.csv").open() as fh:
        decisions = [int(row["decision"]) for row in csv.DictReader(fh)]
    assert sum(decisions) == 0

    main(["predict", "--model", str(fitted_model), "--input", str(train_csv),
          "--threshold", "0.0", "--out-dir", str(tmp_path / "low")])
    with (tmp_path / "low" / "predictions.csv").open() as fh:
        decisions = [int(row["decision"]) for row in csv.DictReader(fh)]
    assert sum(decisions) == len(decisions)


def test_predict_rate_preserving(fitted_model, train_csv, tmp_path):
    rc = main(["predict", "--model", str(fitted_model), "--input", str(train_csv),
               "--rate", "0.0805", "--out-dir", str(tmp_path / "rate")])
    assert rc == 0
    report = json.loads((tmp_path / "rate" / "predict_report.json").read_text())
    assert report["positive_rate"] >= 0.0805
    with (tmp_path / "rate" / "predictions.csv").open() as fh:
        scores = np.array([float(row["score"]) for row in csv.DictReader(fh)])
    # minimality: one fewer positive would undershoot the target
    k = int(np.sum(scores >= report["threshold"]))
    assert (k - 1) / len(scores) < 0.0805


def scoring_csv(train_csv, path, row, column, value):
    """The first four training rows with one cell replaced."""
    with train_csv.open(newline="") as fh:
        rows = list(csv.DictReader(fh))[:4]
    rows[row - 1][column] = value
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path


@pytest.mark.parametrize("column, value, message", [
    ("x1", "nan", "non-finite covariate at row 3"),
    ("z", "2", "non-binary value '2' in column 'z' at row 3"),
    ("z", "yes", "non-binary value 'yes' in column 'z' at row 3"),
    ("s", "0.5", "non-binary value '0.5' in column 's' at row 3"),
], ids=["nan-covariate", "z-two", "z-yes", "s-half"])
def test_predict_rejects_bad_rows(fitted_model, train_csv, tmp_path, capsys,
                                  column, value, message):
    path = scoring_csv(train_csv, tmp_path / "score.csv", 3, column, value)
    rc = main(["predict", "--model", str(fitted_model), "--input", str(path),
               "--rate", "0.5", "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "predictions.csv").exists()


def test_predict_requires_input(fitted_model, tmp_path):
    rc = main(["predict", "--model", str(fitted_model), "--out-dir", str(tmp_path / "out")])
    assert rc == 2


def test_predict_honours_schema_binary_values(fitted_model, train_csv, tmp_path):
    scores = {}
    for name, z, extra in (("plain", "1", []), ("coded", "yes", [
            "--schema", json.dumps({"binary_values": {"yes": 1, "no": 0}})])):
        path = scoring_csv(train_csv, tmp_path / f"{name}.csv", 1, "z", z)
        rc = main(["predict", "--model", str(fitted_model), "--input", str(path),
                   "--threshold", "0.5", "--out-dir", str(tmp_path / name), *extra])
        assert rc == 0
        with (tmp_path / name / "predictions.csv").open() as fh:
            scores[name] = [row["score"] for row in csv.DictReader(fh)]
    assert scores["coded"] == scores["plain"]


@pytest.mark.parametrize("command, schema, field", [
    ("predict", {"z": 3}, "z"), ("predict", {"s": None}, "s"), ("predict", {"y": ["y"]}, "y"),
    ("check", {"z": 3}, "z"), ("check", {"covariates": [1]}, "covariates"),
], ids=["predict-z-number", "predict-s-null", "predict-y-list", "check-z-number",
        "check-covariate-number"])
def test_schema_names_that_are_not_text_exit_2_naming_the_field(fitted_model, train_csv,
                                                                 tmp_path, capsys, command,
                                                                 schema, field):
    out = tmp_path / "out"
    model = ["--model", str(fitted_model)] if command == "predict" else []
    rc = main([command, *model, "--input", str(train_csv),
               "--config", json.dumps({"schema": schema}), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {field} must be ") and len(err.splitlines()) == 1
    assert not any(out.glob("*.csv"))


@pytest.mark.parametrize("covariates", [[1], ["x9"], ["x2", "x1"], []],
                         ids=["number", "unknown", "reordered", "empty"])
def test_predict_refuses_schema_covariates_other_than_the_models(fitted_model, train_csv,
                                                                 tmp_path, capsys, covariates):
    out = tmp_path / "out"
    rc = main(["predict", "--model", str(fitted_model), "--input", str(train_csv),
               "--config", json.dumps({"schema": {"covariates": covariates}}),
               "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"error: schema.covariates must be the model's covariates ['x1', 'x2'], "
                   f"got {covariates!r}\n")
    assert not out.exists()


def test_predict_accepts_the_models_own_covariates(fitted_model, train_csv, tmp_path):
    rc = main(["predict", "--model", str(fitted_model), "--input", str(train_csv),
               "--config", json.dumps({"schema": {"covariates": ["x1", "x2"]}}),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 0 and (tmp_path / "out" / "predictions.csv").exists()


def test_predict_rejects_binary_codes_other_than_0_1(fitted_model, train_csv, tmp_path, capsys):
    path = scoring_csv(train_csv, tmp_path / "coded.csv", 1, "z", "yes")
    rc = main(["predict", "--model", str(fitted_model), "--input", str(path),
               "--threshold", "0.5", "--out-dir", str(tmp_path / "out"),
               "--schema", json.dumps({"binary_values": {"yes": 2}})])
    assert rc == 2
    assert "binary_values must map cell text to 0 or 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "predictions.csv").exists()


_SCORE_CELL = st.one_of(
    st.sampled_from(["0", "1", "0.0", "1.0", " 1", "2", "yes", "", "nan", "inf", "1e400",
                     "0x1p3", "1_0", '"0.5"', "\x00"]),
    st.floats().map(repr),
    st.text(alphabet="0123456789+-.eE ", max_size=6),
)


_SCORE_ROW = st.one_of(
    st.tuples(*[st.sampled_from(["0", "1"])] * 3,
              *[st.floats(-1e3, 1e3).map(repr)] * 2).map(list),
    st.lists(_SCORE_CELL, min_size=4, max_size=6),
)


@pytest.fixture(scope="module")
def scoring_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scoring")


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(_SCORE_ROW, max_size=5))
@example(rows=[["0", "1", "0", "0.5", "0.25"]])
def test_predict_scores_every_row_or_exits_2(fitted_model, scoring_dir, rows):
    path = scoring_dir / "score.csv"
    path.write_bytes("\r\n".join(["s,z,y,x1,x2", *map(",".join, rows)]).encode("utf-8"))
    out = Path(tempfile.mkdtemp(dir=scoring_dir))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["predict", "--model", str(fitted_model), "--input", str(path),
                   "--rate", "0.5", "--out-dir", str(out)])
    if rc == 0:
        with (out / "predictions.csv").open(newline="") as fh:
            scores = [float(row["score"]) for row in csv.DictReader(fh)]
        assert len(scores) == len(rows) and all(map(math.isfinite, scores))
    else:
        lines = err.getvalue().splitlines()
        assert rc == 2 and len(lines) == 1 and lines[0].startswith("error: ")
        # a FairdesertError is printed bare; any other exception with its type
        assert not re.match(r"error: \w+: ", lines[0]), lines[0]
        assert not (out / "predictions.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--input", "{missing}"], "error: --input: cannot read "),
    (["estimate", "--input", "{train}", "--schema", "{bad"], "error: --schema: invalid JSON: "),
    (["theta", "--input", "{train}", "--variant", "delta", "--delta", "0.05",
      "--method", "bootstrap"], "error: --delta expects two numbers"),
    (["theta", "--input", "{train}", "--variant", "delta", "--delta", "0.05,x",
      "--method", "bootstrap"], "error: --delta expects two numbers"),
    (["theta", "--input", "{train}", "--variant", "delta", "--delta", "1.5,0",
      "--method", "bootstrap"], "error: --delta expects two numbers"),
    (["sensitivity", "--input", "{train}", "--variant", "delta", "--grid", "0.05"],
     "error: --grid expects two numbers"),
    (["theta", "--input", "{train}", "--variant", "delta", "--delta", "0.05,0.05",
      "--method", "bootstrap", "--jobs", "0"], "error: --jobs expects at least 1"),
    (["sensitivity", "--input", "{train}", "--variant", "delta", "--jobs", "-1"],
     "error: --jobs expects at least 1"),
], ids=["missing-input", "bad-schema-json", "one-delta", "non-numeric-delta",
        "delta-out-of-range", "one-value-grid", "theta-jobs-0", "sensitivity-jobs-negative"])
def test_bad_arguments_exit_2_with_one_line(train_csv, tmp_path, capsys, argv, message):
    argv = [a.replace("{missing}", str(tmp_path / "missing.csv"))
             .replace("{train}", str(train_csv)) for a in argv]
    rc = main([*argv, "--out-dir", str(tmp_path / "out"), *FAST])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(message) and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--restarts", "0"], "error: --restarts must be at least 1, got 0"),
    (["estimate", "--restarts", "-3"], "error: --restarts must be at least 1, got -3"),
    (["estimate", "--floor", "0.6"], "error: --floor must satisfy 0 <= floor < 0.5"),
    (["predict", "--model", "{model}", "--rate", "0"], "error: --rate must lie in (0, 1]"),
    (["sensitivity", "--variant", "delta", "--boot", "0", "--restarts", "1", "--rate", "0"],
     "error: --rate must lie in (0, 1]"),
    (["sensitivity", "--variant", "delta", "--boot", "-1"],
     "error: --boot must be 0 (no bootstrap) or at least 200, got -1"),
    (["sensitivity", "--variant", "delta", "--boot", "50"],
     "error: --boot must be 0 (no bootstrap) or at least 200, got 50"),
    (["theta", "--method", "onestep", "--crossfit", "1"],
     "error: --crossfit must be 0 (off) or at least 2 folds, got 1"),
    (["theta", "--method", "onestep", "--crossfit", "-2"],
     "error: --crossfit must be 0 (off) or at least 2 folds, got -2"),
], ids=["restarts-0", "restarts-negative", "floor-0.6", "predict-rate-0", "sensitivity-rate-0",
        "sensitivity-boot-negative", "sensitivity-boot-50", "theta-crossfit-1",
        "theta-crossfit-negative"])
def test_bad_values_exit_2_before_any_fit(train_csv, fitted_model, tmp_path, capsys,
                                          monkeypatch, argv, message):
    import fairdesert.cli as cli
    import fairdesert.sensitivity as sensitivity
    import fairdesert.theta as theta

    started = []

    def recording(name, original):
        def wrapper(*args, **kwargs):
            started.append(name)
            return original(*args, **kwargs)
        return wrapper

    for module, name in ((cli, "fit"), (sensitivity, "fit_many"), (theta, "fit_many"),
                         (cli, "load_model")):
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    argv = [a.replace("{model}", str(fitted_model)) for a in argv]
    rc = main([*argv, "--input", str(train_csv), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(message) and len(err.splitlines()) == 1
    assert started == []


def _level_argv(command, level):
    return {
        "theta": ["theta", "--input", "{train}"],
        "sensitivity": ["sensitivity", "--input", "{train}", "--variant", "delta"],
        "simulate": ["simulate", "--n", "200", "--reps", "1"],
    }[command] + ["--level", level]


@pytest.mark.parametrize("argv, message", [
    *(pytest.param(_level_argv(command, level),
                   f"error: --level must lie in (0, 1), got {float(level)}",
                   id=f"{command}-level-{level}")
      for command in ("theta", "sensitivity", "simulate") for level in ("0", "1", "1.5", "nan")),
    *(pytest.param(["predict", "--model", "{model}", "--input", "{train}",
                    f"--threshold={threshold}"],
                   f"error: --threshold must be a finite number, got {float(threshold)}",
                   id=f"predict-threshold-{threshold}")
      for threshold in ("nan", "inf", "-inf")),
    *(pytest.param(["theta", "--input", "{train}", "--method", "bootstrap", "--variant", "delta",
                    "--delta", "0.05,0.05", "--boot", boot],
                   f"error: --boot must be at least 200, got {boot}", id=f"theta-boot-{boot}")
      for boot in ("0", "50", "-1")),
    *(pytest.param(["simulate", "--n", "200", "--reps", "1", "--test-size", size],
                   f"error: --test-size must be at least 100, got {size}",
                   id=f"simulate-test-size-{size}")
      for size in ("0", "50", "99")),
])
def test_bad_level_or_threshold_exits_2_before_any_work(train_csv, fitted_model, tmp_path,
                                                        capsys, monkeypatch, argv, message):
    import fairdesert.cli as cli
    import fairdesert.sensitivity as sensitivity

    started = []

    def stopping(name):
        def stub(*args, **kwargs):
            started.append(name)
            raise RuntimeError(f"{name} was reached")
        return stub

    for module, name in ((cli, "fit"), (sensitivity, "fit_many"), (cli, "load_model"),
                         (cli, "load_csv"), (cli, "monte_carlo")):
        monkeypatch.setattr(module, name, stopping(name))
    argv = [a.replace("{model}", str(fitted_model)).replace("{train}", str(train_csv))
            for a in argv]
    rc = main([*argv, "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(message) and len(err.splitlines()) == 1
    assert started == []


@pytest.mark.parametrize("flag, value, message", [
    *(("--n", n, f"error: --n must be at least 100, got {n}") for n in ("50", "99")),
    *(("--reps", reps, f"error: --reps must be at least 1, got {reps}") for reps in ("0", "-1")),
    *(("--dgp-delta", delta, f"error: --dgp-delta must lie in [0, 0.5), got {float(delta)}")
      for delta in ("-0.1", "0.5", "nan")),
    *(("--methods", methods,
       f"error: --methods must name one or more of dsd, uml, ftu, mlc, ld, got {got}")
      for methods, got in (("dsd,foo", "'dsd', 'foo'"), ("DSD", "'DSD'"), ("", "none"),
                           (" , ", "none"))),
    ("--methods", "uml,uml", "error: --methods must name each method once, got uml, uml"),
])
def test_simulate_bad_flag_exits_2_before_the_output_folder(tmp_path, capsys, monkeypatch,
                                                            flag, value, message):
    import fairdesert.cli as cli

    def stub(*args, **kwargs):
        raise RuntimeError("monte_carlo was reached")

    monkeypatch.setattr(cli, "monte_carlo", stub)
    out = tmp_path / "out"
    argv = {"--n": "200", "--reps": "1", "--test-size": "1000", flag: value}
    rc = main(["simulate", *(a for pair in argv.items() for a in pair), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(message) and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.fixture(scope="module")
def no_positive_csv(tmp_path_factory):
    from dataclasses import replace

    path = tmp_path_factory.mktemp("data") / "no_positive.csv"
    data, _, _ = gen_dataset(DgpConfig(n=400, seed=3))
    write_csv(replace(data, y=np.zeros_like(data.y)), path)
    return path


@pytest.mark.parametrize("argv, message", [
    (["theta", "--input", "{train}", "--level", "0"], "error: --level must lie in (0, 1)"),
    (["theta", "--input", "{train}", "--variant", "delta", "--delta", "0.05,0.05"],
     "error: sensitivity variants support inference via --method bootstrap only"),
    (["sensitivity", "--input", "{train}", "--variant", "delta", "--boot", "50"],
     "error: --boot must be 0 (no bootstrap) or at least 200"),
    (["predict", "--model", "{model}", "--input", "{train}", "--threshold=nan"],
     "error: --threshold must be a finite number"),
    (["estimate", "--input", "{train}", "--restarts", "0"], "error: --restarts must be at least 1"),
    (["estimate", "--input", "{train}", "--variant", "delta"],
     "error: --delta v0,v1 required for variant 'delta'"),
    (["check", "--input", "{missing}"], "error: --input: cannot read "),
    (["check", "--input", "{train}", "--config", "{bad"], "error: --config: invalid JSON: "),
    (["check", "--input", "{train}", "--config", "{missing}.json"],
     "error: --config: cannot read "),
    (["check", "--input", "{train}", "--schema", "{missing}.json"],
     "error: --schema: cannot read "),
    (["check", "--input", "{train}", "--config", "[1,2]"],
     "error: --config: expected a JSON object, got [1, 2]\n"),
    (["check", "--input", "{train}", "--schema", "[1]"],
     "error: --schema: expected a JSON object, got [1]\n"),
    (["predict", "--model", "{missing}.json", "--input", "{train}"],
     "error: --model: cannot read "),
    (["predict", "--model", "{model}", "--input", "{missing}"], "error: --input: cannot read "),
    (["theta", "--model", "{missing}.json", "--input", "{train}"],
     "error: --model: cannot read "),
    (["check", "--input", "{train}", "--schema", '{"covariates": "x1"}'],
     "error: covariates must be a list of column names; got 'x1'\n"),
    *((["check", "--input", "{train}", "--schema", f'{{"covariates": {names}}}'],
       f"error: covariates must name distinct columns other than the s, z and y columns; "
       f"got {got}\n")
      for names, got in (('["x1", "x1"]', "x1"), ('["s", "x1"]', "s"),
                         ('["x1", "y", "z"]', "y, z"))),
    (["sensitivity", "--input", "{train}", "--variant", "delta", "--grid", "0,0;0.05,0.05;0,0"],
     "error: --grid names the point 0.0,0.0 twice\n"),
    # levels compare as numbers
    (["sensitivity", "--input", "{train}", "--variant", "delta", "--grid", "0,0;0,-0"],
     "error: --grid names the point 0.0,-0.0 twice\n"),
    (["sensitivity", "--input", "{train}", "--variant", "delta",
      "--delta", "0.05,0.05;0.1,0.1;0.05,0.05"], "error: --delta names the point 0.05,0.05 twice\n"),
    # without --rate the target is the mean outcome, here 0
    (["sensitivity", "--input", "{no_positive}", "--variant", "delta", "--boot", "0", *FAST],
     "error: the sweep's target rate (--rate; by default the mean outcome) must lie in "
     "(0, 1], got 0.0\n"),
], ids=["theta-level-0", "theta-variant-without-bootstrap", "sensitivity-boot-50",
        "predict-threshold-nan", "estimate-restarts-0", "estimate-delta-without-levels",
        "check-missing-input", "config-bad-json", "config-missing-file",
        "schema-missing-file", "config-list", "schema-list", "predict-model-missing",
        "predict-input-missing", "theta-model-missing",
        *("schema-" + c for c in ("string", "repeated", "s-column", "y-and-z-columns")),
        "sweep-grid-repeated", "sweep-grid-negative-zero", "sweep-delta-repeated",
        "sweep-mean-outcome-0"])
def test_refused_run_leaves_no_output_folder(train_csv, fitted_model, no_positive_csv, tmp_path,
                                             capsys, argv, message):
    argv = [a.replace("{model}", str(fitted_model)).replace("{train}", str(train_csv))
             .replace("{missing}", str(tmp_path / "missing.csv"))
             .replace("{no_positive}", str(no_positive_csv)) for a in argv]
    out = tmp_path / "out"
    rc = main([*argv, "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_simulate_defaults_to_the_monte_carlo_fit(tmp_path):
    # without --basis-degree, --interaction-order or --restarts, one CLI
    # replication is run_replication's row under MonteCarloSettings()
    from dataclasses import replace

    from fairdesert.simulate import MIN_ROWS, MonteCarloSettings, oracle_theta, run_replication

    rc = main(["simulate", "--n", "600", "--reps", "1", "--seed", "3", "--methods", "dsd,uml",
               "--test-size", str(MIN_ROWS), "--jobs", "1", "--out-dir", str(tmp_path)])
    assert rc == 0
    with (tmp_path / "replications.csv").open(newline="") as fh:
        (got,) = csv.DictReader(fh)
    config = DgpConfig(n=600, seed=3)
    settings = replace(MonteCarloSettings(), methods=("dsd", "uml"), test_size=MIN_ROWS)
    want = run_replication(config, 0, settings, theta_true=oracle_theta(config))
    assert {k: got[k] for k in want} == {k: str(v) for k, v in want.items()}
    resolved = json.loads((tmp_path / "run_meta.json").read_text())["resolved_config"]
    basis, options = settings.basis, settings.fit_options
    assert (resolved["basis_degree"], resolved["interaction_order"], resolved["restarts"]) == (
        basis.degree, basis.interaction_order, options.restarts)


@pytest.mark.parametrize("argv, config, message", [
    (["theta"], {"method": "bogus"},
     "error: --config: 'method' must be one of plugin, onestep, bootstrap, got 'bogus'"),
    (["estimate"], {"variant": "foo"},
     "error: --config: 'variant' must be one of baseline, kappa, delta, zeta, got 'foo'"),
    (["estimate"], {"restarts": "abc"}, "error: --config: 'restarts': invalid int value 'abc'"),
    (["estimate"], {"restarts": 2.5}, "error: --config: 'restarts': invalid int value 2.5"),
    (["estimate"], {"basis-degree": True},
     "error: --config: 'basis-degree': invalid int value True"),
    (["estimate"], {"floor": "low"}, "error: --config: 'floor': invalid float value 'low'"),
    (["estimate"], {"reps": 3}, "error: --config: 'reps' is not a setting of estimate"),
    (["check"], {"variant": "delta"}, "error: --config: 'variant' is not a setting of check"),
    (["check"], {"out_dir": 5}, "error: --config: 'out_dir' must be text, got 5"),
    (["estimate"], {"input": ["a.csv"]}, "error: --config: 'input' must be text, got ['a.csv']"),
    (["estimate"], {"variant": "delta", "delta": [0.05, 0.05]},
     "error: --config: 'delta' must be text, got [0.05, 0.05]"),
], ids=["theta-method-bogus", "estimate-variant-foo", "restarts-text", "restarts-fraction",
        "basis-degree-bool", "floor-text", "estimate-unknown-key", "check-foreign-key",
        "out-dir-number", "input-list", "delta-list"])
def test_config_entries_are_checked_like_flags(train_csv, tmp_path, capsys, monkeypatch,
                                               argv, config, message):
    import fairdesert.cli as cli

    def stub(*args, **kwargs):
        raise RuntimeError("a fit was reached")

    for name in ("fit", "load_csv"):
        monkeypatch.setattr(cli, name, stub)
    out = tmp_path / "out"
    rc = main([*argv, "--input", str(train_csv), "--config", json.dumps(config),
               "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(message) and len(err.splitlines()) == 1
    assert not out.exists()


def _command_argv(command):
    return {
        "sensitivity": ["sensitivity", "--input", "{train}", "--variant", "delta"],
        "simulate": ["simulate", "--n", "200", "--reps", "1"],
    }.get(command, [command, "--input", "{train}"])


def _named_flag_cases():
    cases = []
    for command in ("check", "estimate"):
        for tol in ("nan", "inf", "-1"):
            cases.append((command, "tol", tol,
                          f"--tol must be a finite number at least 0, got {float(tol)}"))
        for threshold in ("7", "-0.1", "nan"):
            cases.append((command, "flag-threshold", threshold,
                          f"--flag-threshold must lie in [0, 1], got {float(threshold)}"))
    for command in ("estimate", "theta", "sensitivity", "simulate", "check"):
        cases.append((command, "basis-degree", "0", "--basis-degree must be at least 1, got 0"))
    for command in ("estimate", "theta", "sensitivity", "simulate"):
        cases.append((command, "seed", "-1", "--seed must be a non-negative integer, got -1"))
    for command in ("estimate", "theta", "sensitivity", "simulate", "check"):
        cases.append((command, "interaction-order", "-1",
                      "--interaction-order must be at least 0, got -1"))
    return [pytest.param(*case, given, id=f"{case[0]}-{case[1]}={case[2]}-{given}")
            for case in cases for given in ("flag", "config")]


@pytest.mark.parametrize("command, flag, value, message, given", _named_flag_cases())
def test_bad_tolerance_degree_or_seed_exits_2_naming_its_flag(train_csv, tmp_path, capsys,
                                                              monkeypatch, command, flag, value,
                                                              message, given):
    import fairdesert.cli as cli
    import fairdesert.sensitivity as sensitivity

    def stub(*args, **kwargs):
        raise RuntimeError("work was reached")

    for module, name in ((cli, "fit"), (cli, "load_csv"), (cli, "monte_carlo"),
                         (sensitivity, "fit_many")):
        monkeypatch.setattr(module, name, stub)
    argv = [a.replace("{train}", str(train_csv)) for a in _command_argv(command)]
    argv += [f"--{flag}={value}"] if given == "flag" else ["--config", json.dumps({flag: value})]
    out = tmp_path / "out"
    rc = main([*argv, "--restarts", "2", "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["--crossfit", "2"], "--crossfit"),
    (["--method", "bootstrap", "--variant", "delta", "--delta", "0.05,0.05"],
     "--method bootstrap"),
], ids=["crossfit", "bootstrap"])
def test_theta_refuses_a_model_it_would_not_use(train_csv, tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    rc = main(["theta", "--input", str(train_csv), "--model", str(tmp_path / "no_such.json"),
               *argv, "--out-dir", str(out), *FAST])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: --model cannot be combined with {flag}")
    assert not out.exists()


@pytest.mark.parametrize("argv, config, flag, method", [
    (["--method", "plugin", "--crossfit", "2"], {}, "--crossfit", "plugin"),
    (["--method", "plugin", "--boot", "7"], {}, "--boot", "plugin"),
    (["--method", "bootstrap", "--crossfit", "2"], {}, "--crossfit", "bootstrap"),
    (["--boot", "200"], {}, "--boot", "onestep"),
    (["--method", "plugin"], {"boot": 250}, "--boot", "plugin"),
    ([], {"method": "bootstrap", "crossfit": 0}, "--crossfit", "bootstrap"),
    (["--method", "plugin", "--level", "0.9"], {}, "--level", "plugin"),
    (["--method", "plugin"], {"level": 0.9}, "--level", "plugin"),
], ids=["plugin-crossfit", "plugin-boot", "bootstrap-crossfit", "onestep-boot",
        "plugin-config-boot", "config-bootstrap-crossfit", "plugin-level",
        "plugin-config-level"])
def test_theta_refuses_a_flag_its_method_does_not_read(train_csv, tmp_path, capsys,
                                                       monkeypatch, argv, config, flag, method):
    import fairdesert.cli as cli

    def stub(*args, **kwargs):
        raise RuntimeError("a fit was reached")

    for name in ("fit", "load_csv"):
        monkeypatch.setattr(cli, name, stub)
    out = tmp_path / "out"
    rc = main(["theta", "--input", str(train_csv), *argv, "--config", json.dumps(config),
               "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {flag} cannot be combined with --method {method}")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, config, flag, variant", [
    (["estimate", "--kappa", "0.1,0.1"], {}, "--kappa", "baseline"),
    (["estimate"], {"kappa": "0.1,0.1"}, "--kappa", "baseline"),
    (["estimate", "--variant", "delta", "--delta", "0.05,0.05", "--zeta", "0.1,0.1"], {},
     "--zeta", "delta"),
    (["theta", "--method", "bootstrap", "--variant", "delta", "--delta", "0.05,0.05",
      "--kappa", "0.1,0.1"], {}, "--kappa", "delta"),
    (["theta", "--method", "bootstrap"], {"variant": "delta", "delta": "0.05,0.05",
                                          "kappa": "0.1,0.1"}, "--kappa", "delta"),
    (["theta", "--delta", "0.05,0.05"], {}, "--delta", "baseline"),
    (["sensitivity", "--variant", "zeta", "--kappa", "0.1,0.1"], {}, "--kappa", "zeta"),
    (["sensitivity", "--variant", "delta"], {"zeta": "0.1,0.1"}, "--zeta", "delta"),
], ids=["estimate-kappa", "estimate-config-kappa", "estimate-delta-zeta",
        "theta-bootstrap-delta-kappa", "theta-config-delta-kappa", "theta-baseline-delta",
        "sensitivity-zeta-kappa", "sensitivity-config-delta-zeta"])
def test_variant_flag_refused_unless_the_variant_reads_it(train_csv, tmp_path, capsys,
                                                          monkeypatch, argv, config, flag,
                                                          variant):
    import fairdesert.cli as cli
    import fairdesert.sensitivity as sensitivity

    def stub(*args, **kwargs):
        raise RuntimeError("work was reached")

    for module, name in ((cli, "fit"), (cli, "load_csv"), (sensitivity, "fit_many")):
        monkeypatch.setattr(module, name, stub)
    out = tmp_path / "out"
    rc = main([*argv, "--input", str(train_csv), "--config", json.dumps(config),
               "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"error: {flag} cannot be combined with --variant {variant}; "
                   f"only --variant {flag[2:]} reads it\n")
    assert not out.exists()


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("command, pairs, flag_message, config_message", [
    ("check", {"floor": "0.3", "restarts": "7"},
     "check does not take --floor 0.3 --restarts 7", "--config: 'floor' is not a setting of check"),
    ("theta", {"model": "{model}", "basis-degree": "2", "restarts": "5", "floor": "0.2",
               "interaction-order": "0"},
     "--basis-degree cannot be combined with --model; only a run without --model reads it", None),
    ("sensitivity", {"variant": "delta", "delta": "0.1,0.1", "grid": "0.2,0.2;0.3,0.3"},
     "--grid cannot be combined with --delta; only a run without --delta reads it", None),
    ("sensitivity", {"variant": "delta", "grid": ""},
     "--grid expects two numbers v0,v1 for variant 'delta', got ''", None),
    ("sensitivity", {"variant": "delta", "delta": ""},
     "--delta expects two numbers v0,v1 for variant 'delta', got ''", None),
    ("predict", {"model": "{model}", "rate": "0.3", "threshold": "0.5"},
     "--rate cannot be combined with --threshold; only a run without --threshold reads it", None),
], ids=["check-floor-restarts", "theta-model-fit-flags", "sensitivity-delta-grid",
        "sensitivity-empty-grid", "sensitivity-empty-delta", "predict-rate-threshold"])
def test_flag_the_run_would_not_read_exits_2(train_csv, fitted_model, tmp_path, capsys,
                                             monkeypatch, command, pairs, flag_message,
                                             config_message, given):
    import fairdesert.cli as cli
    import fairdesert.sensitivity as sensitivity

    def stub(*args, **kwargs):
        raise RuntimeError("work was reached")

    for module, name in ((cli, "fit"), (cli, "load_csv"), (cli, "load_model"),
                         (sensitivity, "fit_many")):
        monkeypatch.setattr(module, name, stub)
    pairs = {flag: value.replace("{model}", str(fitted_model)) for flag, value in pairs.items()}
    if given == "flag":
        argv = [a for flag, value in pairs.items() for a in (f"--{flag}", value)]
    else:
        argv = ["--config", json.dumps(pairs)]
    message = flag_message if given == "flag" else config_message or flag_message
    out = tmp_path / "out"
    rc = main([command, "--input", str(train_csv), *argv, "--out-dir", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}"), lines
    assert not re.match(r"error: \w+: ", lines[0]), lines[0]
    assert not out.exists()


# each command's flags, written out; 85 command-flag pairs in all
COMMAND_FLAGS = {
    "estimate": "config seed out-dir jobs input schema variant kappa delta zeta basis-degree "
                "interaction-order floor restarts tol flag-threshold",
    "predict": "config seed out-dir jobs input schema model threshold rate",
    "theta": "config seed out-dir jobs input schema method crossfit model boot level variant "
             "kappa delta zeta basis-degree interaction-order floor restarts",
    "check": "config seed out-dir jobs input schema basis-degree interaction-order tol "
             "flag-threshold",
    "sensitivity": "config seed out-dir jobs input schema boot level variant kappa delta zeta "
                   "grid basis-degree interaction-order floor restarts rate",
    "simulate": "config seed out-dir jobs level basis-degree interaction-order restarts n reps "
                "dgp-delta methods test-size",
}


def test_each_command_registers_its_flags():
    import argparse

    from fairdesert.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {command: {option: action.help for action in parser._actions
                       for option in action.option_strings if option not in ("-h", "--help")}
             for command, parser in sub.choices.items()}
    assert {command: sorted(flags) for command, flags in helps.items()} == {
        command: sorted(f"--{flag}" for flag in flags.split())
        for command, flags in COMMAND_FLAGS.items()}
    assert sum(map(len, helps.values())) == 85
    # the help line gives the default, the range and the readers
    assert helps["theta"]["--boot"] == ("bootstrap replicates (default: 200; must be at least 200;"
                                        " read only with --method bootstrap)")
    assert helps["sensitivity"]["--boot"].startswith(
        "bootstrap replicates (default: 200; must be 0 (no bootstrap) or at least 200)")
    assert "default: 4" in helps["simulate"]["--restarts"]
    assert "default: 10" in helps["estimate"]["--restarts"]


def test_config_schema_may_be_a_json_object(train_csv, tmp_path, capsys):
    schema = {"s": "s", "z": "z", "y": "y"}
    rc = main(["check", "--input", str(train_csv), "--config", json.dumps({"schema": schema}),
               "--out-dir", str(tmp_path / "object")])
    assert rc in (0, 1)
    rc = main(["check", "--input", str(train_csv), "--schema", json.dumps(schema),
               "--out-dir", str(tmp_path / "text")])
    assert rc in (0, 1)
    assert tree_digest(tmp_path / "object") == tree_digest(tmp_path / "text")
    capsys.readouterr()
    for bad in (5, ["s"]):
        out = tmp_path / "refused"
        rc = main(["estimate", "--input", str(train_csv), "--config",
                   json.dumps({"schema": bad}), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: --config: ") and len(err.splitlines()) == 1
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--method", "plugin"], ["--method", "onestep"], ["--model", "{model}"],
    ["--crossfit", "2"],
], ids=["plugin", "onestep", "model", "crossfit"])
def test_theta_records_stage_seconds(train_csv, fitted_model, tmp_path, argv):
    import time

    argv = [a.replace("{model}", str(fitted_model)) for a in argv]
    # a run on a saved model reads no fit flag
    fast = ["--seed", "7"] if "--model" in argv else FAST
    started = time.perf_counter()
    rc = main(["theta", "--input", str(train_csv), *argv, "--out-dir", str(tmp_path), *fast])
    wall = time.perf_counter() - started
    assert rc == 0
    stages = json.loads((tmp_path / "run_meta.json").read_text())["stage_seconds"]
    assert set(stages) == {"fit", "inference"}
    assert all(v >= 0 for v in stages.values()) and sum(stages.values()) <= wall
    # the fit is the full-data fit: none when --model supplies it or the
    # folds fit their own
    assert (stages["fit"] > 0) == ("--model" not in argv and "--crossfit" not in argv)
    assert stages["inference"] > 0


@pytest.mark.parametrize("argv, keys", [
    (["estimate"], {"fit", "propensity", "implications", "write"}),
    (["sensitivity", "--variant", "delta", "--grid", "0.05,0.05", "--boot", "0"],
     {"fit", "bootstrap"}),
    (["sensitivity", "--variant", "delta", "--grid", "0.05,0.05", "--boot", "200",
      "--restarts", "1", "--basis-degree", "1"], {"fit", "bootstrap"}),
], ids=["estimate", "sensitivity-boot-0", "sensitivity-bootstrap"])
def test_estimate_and_sensitivity_record_stage_seconds(train_csv, tmp_path, argv, keys):
    import time

    started = time.perf_counter()
    rc = main([argv[0], "--input", str(train_csv), *FAST, *argv[1:],
               "--out-dir", str(tmp_path)])
    wall = time.perf_counter() - started
    assert rc in (0, 1)
    stages = json.loads((tmp_path / "run_meta.json").read_text())["stage_seconds"]
    assert set(stages) == keys
    assert all(v >= 0 for v in stages.values()) and sum(stages.values()) <= wall
    assert stages["fit"] > 0
    if "bootstrap" in stages:
        assert (stages["bootstrap"] > 0) == ("200" in argv)


def test_theta_methods_agree_on_identity(train_csv, tmp_path):
    rc = main(["theta", "--input", str(train_csv), "--method", "plugin",
               "--out-dir", str(tmp_path / "plugin"), *FAST])
    assert rc == 0
    plugin = json.loads((tmp_path / "plugin" / "theta.json").read_text())
    assert plugin["method"] == "plugin" and plugin["stderr"] is None

    rc = main(["theta", "--input", str(train_csv), "--method", "onestep",
               "--out-dir", str(tmp_path / "onestep"), *FAST])
    assert rc == 0
    onestep = json.loads((tmp_path / "onestep" / "theta.json").read_text())
    assert onestep["ci_low"] <= onestep["point"] <= onestep["ci_high"]
    assert abs(onestep["point"] - plugin["point"]) > 0  # differs by the augmentation mean


def test_theta_crossfit_same_output_for_every_jobs(train_csv, tmp_path):
    outputs = []
    for jobs in ("1", "2"):
        rc = main(["theta", "--input", str(train_csv), "--method", "onestep", "--crossfit", "2",
                   "--out-dir", str(tmp_path / jobs), *FAST, "--jobs", jobs])
        assert rc == 0
        outputs.append((tmp_path / jobs / "theta.json").read_bytes())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["flags"]["crossfit_folds"] == 2


def test_theta_bootstrap_same_output_for_every_jobs(tmp_path, monkeypatch):
    from fairdesert import cli

    real_fit, full_fit_jobs = cli.fit, []

    def recording_fit(*args, **kwargs):
        full_fit_jobs.append(kwargs.get("jobs"))
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(cli, "fit", recording_fit)
    path = tmp_path / "small.csv"
    write_csv(gen_dataset(DgpConfig(n=400, seed=9))[0], path)
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        rc = main(["theta", "--input", str(path), "--method", "bootstrap", "--variant", "delta",
                   "--delta", "0.05,0.05", "--basis-degree", "1", "--interaction-order", "1",
                   "--restarts", "3", "--floor", "0.05", "--seed", "7", "--jobs", jobs,
                   "--out-dir", str(out)])
        assert rc == 0
        outputs.append((out / "theta.json").read_bytes())
    # the full-data fit is made once, with the resolved --jobs
    assert full_fit_jobs == [1, 2]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["flags"]["replicates"] == 200


def test_theta_on_fair_outcomes(tmp_path):
    # replace the observed decision with the latent one: no unfairness left
    data, ystar, _ = gen_dataset(DgpConfig(n=2000, seed=12))
    fair = Dataset(
        s=data.s, z=data.z, y=ystar, x=data.x,
        covariate_names=data.covariate_names, scaling=data.scaling, scaled=True,
    )
    path = tmp_path / "fair.csv"
    write_csv(fair, path)
    rc = main(["theta", "--input", str(path), "--method", "onestep",
               "--out-dir", str(tmp_path / "out"),
               "--interaction-order", "1", "--restarts", "2", "--seed", "3"])
    assert rc == 0
    result = json.loads((tmp_path / "out" / "theta.json").read_text())
    assert abs(result["point"]) < 0.05
    assert result["ci_low"] <= 0.02


def test_check_detects_constructed_sign_violation(tmp_path):
    rng = np.random.default_rng(9)
    n = 4000
    s = rng.integers(0, 2, n)
    z = rng.integers(0, 2, n)
    mu = {(0, 0): 0.45, (0, 1): 0.25, (1, 0): 0.5, (1, 1): 0.7}
    p = np.array([mu[(si, zi)] for si, zi in zip(s, z)])
    y = (rng.random(n) < p).astype(int)
    data = Dataset(s, z, y, rng.uniform(size=(n, 2)), ("x1", "x2"),
                   ((0.0, 1.0), (0.0, 1.0)), scaled=True)
    path = tmp_path / "viol.csv"
    write_csv(data, path)
    rc = main(["check", "--input", str(path), "--out-dir", str(tmp_path / "out"),
               "--interaction-order", "1"])
    assert rc == 1
    report = json.loads((tmp_path / "out" / "implications.json").read_text())
    # fitted spreads carry sampling noise, so detection stays below the exact
    # rate the checker reaches on noiseless constructed mu
    assert report["violation_fractions"]["sign_agreement"] > 0.8


def test_check_passes_on_model_consistent_data(tmp_path):
    rng = np.random.default_rng(10)
    n = 4000
    s = rng.integers(0, 2, n)
    z = rng.integers(0, 2, n)
    mu = {(0, 0): 0.225, (0, 1): 0.45, (1, 0): 0.405, (1, 1): 0.66}
    p = np.array([mu[(si, zi)] for si, zi in zip(s, z)])
    y = (rng.random(n) < p).astype(int)
    data = Dataset(s, z, y, rng.uniform(size=(n, 2)), ("x1", "x2"),
                   ((0.0, 1.0), (0.0, 1.0)), scaled=True)
    path = tmp_path / "ok.csv"
    write_csv(data, path)
    rc = main(["check", "--input", str(path), "--out-dir", str(tmp_path / "out"),
               "--interaction-order", "1"])
    assert rc == 0


def test_sensitivity_cli(train_csv, tmp_path):
    rc = main(["sensitivity", "--input", str(train_csv), "--variant", "delta",
               "--grid", "0,0;0.05,0.05", "--boot", "0",
               "--out-dir", str(tmp_path / "sweep"), *FAST])
    assert rc == 0
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    meta = json.loads((tmp_path / "sweep" / "sweep_meta.json").read_text())
    assert meta["variant"] == "delta"
    # the baseline and the 0.05 point; the (0, 0) point reuses the baseline's fit
    assert meta["fits"] == 2


def test_simulate_cli(tmp_path):
    rc = main(["simulate", "--n", "600", "--reps", "2", "--methods", "dsd",
               "--test-size", "4000", "--jobs", "1", "--seed", "5",
               "--out-dir", str(tmp_path / "sim")])
    assert rc == 0
    for name in ("auc_summary.csv", "coverage_summary.csv", "replications.csv", "run_meta.json"):
        assert (tmp_path / "sim" / name).exists()
    meta = json.loads((tmp_path / "sim" / "run_meta.json").read_text())
    assert meta["resolved_config"]["seed"] == 5
    env = meta["environment"]
    assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
    assert env["nproc"] == len(os.sched_getaffinity(0))
    assert env["blas_pins"] == {name: os.environ.get(name) for name in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    assert env["blas_threads"] == blas_threads()
    stages = meta["stage_seconds"]
    assert set(stages) == {"train_draw", "dsd", "theta", "test_draw", "scoring"}
    assert 0 < sum(stages.values()) <= meta["runtime_s"]
    # no LD fit, so no LD reweighting fell short
    assert meta["ld_parity_misses"] == 0


def _run_fresh(code):
    """stdout of ``python -c code`` in a fresh process that imports the package
    from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH"))
        if p
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_meta_records_no_scipy_version_without_scipy(train_csv, tmp_path, monkeypatch):
    import importlib.util

    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *args: None if name == "scipy" else find_spec(name, *args))
    assert main(["check", "--input", str(train_csv), "--out-dir", str(tmp_path)]) in (0, 1)
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["environment"]["scipy"] is None
    assert meta["environment"]["numpy"] == np.__version__


def test_import_does_not_load_scipy_stats():
    """scipy.special, scipy.stats and scipy.linalg cost most of a second at
    every process start, and scipy's OpenBLAS starts a second thread pool;
    even a bare ``import scipy`` costs about 10 ms, so no scipy module loads."""
    out = _run_fresh(
        "import json, sys, fairdesert, fairdesert.cli\n"
        "from fairdesert.parallel import blas_threads\n"
        "print(json.dumps([sorted(m for m in sys.modules\n"
        "                         if m == 'scipy' or m.startswith('scipy.')),\n"
        "                  sorted(blas_threads())]))"
    )
    loaded, blas = json.loads(out)
    assert loaded == []
    assert "scipy" not in blas


def test_first_use_imports_no_numpy_submodule(tmp_path):
    """Every numpy submodule a run needs loads with the package, not inside a
    timed stage."""
    out = _run_fresh(textwrap.dedent(f"""
        import json, sys
        from fairdesert.cli import main
        from fairdesert.data import write_csv
        from fairdesert.simulate import (DgpConfig, MonteCarloSettings, gen_dataset,
                                         oracle_theta, run_replication)

        before = {{m for m in sys.modules if m.startswith("numpy")}}
        config = DgpConfig(n=300, seed=3)
        theta = oracle_theta(config)
        run_replication(config, 0, MonteCarloSettings(test_size=1000), theta_true=theta)
        out = {str(tmp_path)!r}
        write_csv(gen_dataset(config)[0], out + "/train.csv")
        fast = {FAST!r}
        assert main(["estimate", "--input", out + "/train.csv", "--out-dir", out + "/fit",
                     *fast]) in (0, 1)
        assert main(["theta", "--input", out + "/train.csv", "--out-dir", out + "/theta",
                     *fast]) in (0, 1)
        assert main(["predict", "--model", out + "/fit/model.json", "--input",
                     out + "/train.csv", "--out-dir", out + "/pred"]) == 0
        print(json.dumps(sorted({{m for m in sys.modules if m.startswith("numpy")}} - before)))
    """))
    assert json.loads(out.splitlines()[-1]) == []


def test_config_file_merge(train_csv, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "interaction_order": 1, "restarts": 2, "floor": 0.05, "seed": 7,
    }))
    rc = main(["estimate", "--input", str(train_csv), "--config", str(conf),
               "--out-dir", str(tmp_path / "via_config")])
    assert rc in (0, 1)
    rc2 = main(["estimate", "--input", str(train_csv), "--out-dir", str(tmp_path / "via_flags"),
                *FAST])
    assert tree_digest(tmp_path / "via_config") == tree_digest(tmp_path / "via_flags")


def test_schema_mapping(tmp_path):
    data, _, _ = gen_dataset(DgpConfig(n=900, seed=14))
    path = tmp_path / "named.csv"
    from fairdesert.data import CsvSchema

    write_csv(data, path, CsvSchema(s="race", z="quality", y="callback",
                                    covariates=("exp1", "exp2")))
    schema = json.dumps({"s": "race", "z": "quality", "y": "callback",
                         "covariates": ["exp1", "exp2"]})
    rc = main(["check", "--input", str(path), "--schema", schema,
               "--out-dir", str(tmp_path / "out"), "--interaction-order", "1"])
    assert rc in (0, 1)
