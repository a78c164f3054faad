import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdesert import sievemle
from fairdesert.basis import BasisConfig
from fairdesert.errors import FitError
from fairdesert.sensitivity import DEFAULT_GRIDS, SweepSpec, flip_rate, run_sweep
from fairdesert.sievemle import FitOptions, fit
from fairdesert.simulate import DgpConfig, gen_dataset, oracle_theta

CONFIG = BasisConfig(interaction_order=1)
# no logit ridge here: the shrinkage that stabilizes the replication harness
# biases the variant-model theta plug-ins that sweeps report
OPTS = FitOptions(restarts=2, floor=0.05, relevance_margin=1e-3, seed=0)


def test_flip_rate_identical_scores():
    scores = np.linspace(0.1, 0.9, 20)
    assert flip_rate(scores, scores, 0.3) == 0.0


def test_flip_rate_reversed_ranking():
    scores = np.linspace(0.05, 0.95, 10)
    assert flip_rate(scores, scores[::-1], 0.5) == 1.0


def test_flip_rate_below_resolution():
    scores = np.linspace(0.1, 0.9, 50)
    assert flip_rate(scores, scores + 1e-12, 0.4) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.05, 0.95))
def test_flip_rate_symmetric(seed, rate):
    rng = np.random.default_rng(seed)
    a = rng.uniform(size=30)
    b = rng.uniform(size=30)
    assert flip_rate(a, b, rate) == flip_rate(b, a, rate)


def test_flip_rate_length_mismatch():
    with pytest.raises(ValueError):
        flip_rate(np.ones(3), np.ones(4), 0.5)


def test_default_grids_shape():
    assert DEFAULT_GRIDS["delta"][0] == (0.0, 0.0)
    assert len(DEFAULT_GRIDS["kappa"]) == 3


def test_sweep_zero_point_reproduces_baseline():
    data, _, _ = gen_dataset(DgpConfig(n=1200, seed=50))
    spec = SweepSpec(variant="delta", grid=((0.0, 0.0),), bootstrap_replicates=0)
    table = run_sweep(data, CONFIG, OPTS, spec)
    row = table.rows[0]
    assert row.error is None
    assert row.criterion == pytest.approx(table.metadata["baseline_criterion"], abs=1e-6)
    assert row.mean_abs_tau_diff < 5e-4
    assert row.flip_rate <= 0.005


def test_sweep_recovers_true_delta_row():
    # data generated with two-sided unfairness at 0.05: the matching grid row
    # should land closest to the oracle theta
    config = DgpConfig(n=6000, delta=0.05, seed=8)
    data, _, _ = gen_dataset(config)
    theta_true = oracle_theta(config)
    spec = SweepSpec(
        variant="delta",
        grid=((0.0, 0.0), (0.05, 0.05), (0.1, 0.1)),
        bootstrap_replicates=0,
    )
    table = run_sweep(data, CONFIG, OPTS, spec)
    errors = [abs(row.theta - theta_true) for row in table.rows]
    assert int(np.argmin(errors)) == 1


def test_sweep_rows_deterministic_without_warm_start():
    data, _, _ = gen_dataset(DgpConfig(n=1000, seed=51))
    spec = SweepSpec(
        variant="zeta", grid=((0.0, 0.0), (0.05, 0.05)), bootstrap_replicates=0,
    )
    t1 = run_sweep(data, CONFIG, OPTS, spec)
    t2 = run_sweep(data, CONFIG, OPTS, spec)
    assert [r.__dict__ for r in t1.rows] == [r.__dict__ for r in t2.rows]


def test_sweep_bootstrap_rows_same_for_every_jobs():
    data, _, _ = gen_dataset(DgpConfig(n=400, seed=54))
    config = BasisConfig(degree=1, interaction_order=1)
    opts = FitOptions(restarts=1, floor=0.05, relevance_margin=1e-3, seed=0)
    spec = SweepSpec(variant="delta", grid=((0.0, 0.0), (0.05, 0.05)),
                     bootstrap_replicates=200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        serial = run_sweep(data, config, opts, spec, jobs=1)
        parallel = run_sweep(data, config, opts, spec, jobs=2)
    assert [r.__dict__ for r in serial.rows] == [r.__dict__ for r in parallel.rows]
    assert all(r.error is None and r.ci_low <= r.theta <= r.ci_high for r in serial.rows)


def test_sweep_records_per_point_failures():
    data, _, _ = gen_dataset(DgpConfig(n=1000, seed=52))
    bad_opts = FitOptions(restarts=1, max_iter=1, seed=0)
    spec = SweepSpec(variant="delta", grid=((0.0, 0.0), (0.05, 0.05)),
                     bootstrap_replicates=0)
    table = run_sweep(data, CONFIG, bad_opts, spec, baseline=_quick_baseline(data))
    assert all(row.error is not None for row in table.rows)
    assert len(table.rows) == 2


def _quick_baseline(data):
    return fit(data, CONFIG, OPTS)


def test_sweep_fits_each_grid_point_once(monkeypatch):
    data, _, _ = gen_dataset(DgpConfig(n=600, seed=56))
    runs = []
    minimize_group = sievemle._minimize_group

    def counting(problems, group):
        runs.extend([1] * len(group))
        return minimize_group(problems, group)

    monkeypatch.setattr(sievemle, "_minimize_group", counting)
    spec = SweepSpec(variant="delta", grid=((0.05, 0.05), (0.0, 0.0), (0.1, 0.1)),
                     bootstrap_replicates=0)
    table = run_sweep(data, CONFIG, OPTS, spec)
    # one set of restarts per distinct problem: the baseline, then every grid
    # point but (0, 0), whose objective and starts are bitwise the baseline's
    distinct = 1 + len(spec.grid) - 1
    assert len(runs) == distinct * OPTS.restarts
    assert table.metadata["fits"] == distinct
    zero = table.rows[0]
    assert (zero.v0, zero.v1) == (0.0, 0.0)
    assert zero.criterion == table.metadata["baseline_criterion"]
    assert zero.mean_abs_tau_diff == 0.0 and zero.flip_rate == 0.0


def test_sweep_raises_when_the_baseline_fit_fails():
    data, _, _ = gen_dataset(DgpConfig(n=1000, seed=52))
    bad_opts = FitOptions(restarts=1, max_iter=1, seed=0)
    spec = SweepSpec(variant="delta", grid=((0.05, 0.05),), bootstrap_replicates=0)
    with pytest.raises(FitError, match="no restart converged"):
        run_sweep(data, CONFIG, bad_opts, spec)


def test_sweep_row_does_not_depend_on_other_points():
    data, _, _ = gen_dataset(DgpConfig(n=600, seed=57))
    baseline = _quick_baseline(data)
    pair = run_sweep(data, CONFIG, OPTS, SweepSpec(
        variant="delta", grid=((0.0, 0.0), (0.05, 0.05)), bootstrap_replicates=0,
    ), baseline=baseline)
    alone = run_sweep(data, CONFIG, OPTS, SweepSpec(
        variant="delta", grid=((0.05, 0.05),), bootstrap_replicates=0,
    ), baseline=baseline)
    assert pair.rows[1].__dict__ == alone.rows[0].__dict__


def test_sweep_csv_and_metadata(tmp_path):
    data, _, _ = gen_dataset(DgpConfig(n=1000, seed=53))
    spec = SweepSpec(variant="kappa", grid=((0.0, 0.0),), bootstrap_replicates=0)
    table = run_sweep(data, CONFIG, OPTS, spec)
    table.write_csv(tmp_path / "sweep.csv")
    table.write_metadata(tmp_path / "sweep_meta.json")
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
    assert header.startswith("v0,v1,theta")
    import json

    meta = json.loads((tmp_path / "sweep_meta.json").read_text())
    assert meta["variant"] == "kappa"
    assert set(meta) == {"variant", "n", "target_rate", "baseline_criterion", "seed", "fits"}
    # the (0, 0) point reuses the baseline's restarts
    assert meta["fits"] == 1


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        SweepSpec(variant="delta").params()
    spec = SweepSpec(variant="delta", grid=((0.0, 0.0),))
    assert spec.params()[0].variant == "delta"


def test_sweep_fit_rows_same_for_every_jobs():
    # without a bootstrap, jobs reaches only the restarts of every fit
    data, _, _ = gen_dataset(DgpConfig(n=600, seed=55))
    spec = SweepSpec(variant="delta", grid=((0.0, 0.0), (0.05, 0.05)), bootstrap_replicates=0)
    opts = FitOptions(restarts=3, floor=0.05, relevance_margin=1e-3, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        serial = run_sweep(data, CONFIG, opts, spec, jobs=1)
        parallel = run_sweep(data, CONFIG, opts, spec, jobs=2)
    assert [r.__dict__ for r in serial.rows] == [r.__dict__ for r in parallel.rows]
    assert serial.metadata == parallel.metadata
    assert all(r.error is None for r in serial.rows)
