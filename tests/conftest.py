import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fairdesert import basis, theta
from fairdesert.basis import BasisConfig
from fairdesert.data import Dataset
from fairdesert.simulate import DgpConfig, gen_dataset

RESULTS_FILE = Path(__file__).parent / "_acceptance_results.json"


@pytest.fixture(scope="session")
def small_dgp():
    """One n=2000 draw of the synthetic generative model."""
    return gen_dataset(DgpConfig(n=2000, seed=42))


@pytest.fixture(scope="session")
def univariate_basis():
    return BasisConfig(interaction_order=1)


@pytest.fixture
def tiny_dataset():
    rng = np.random.default_rng(0)
    n = 40
    return Dataset(
        s=rng.integers(0, 2, n),
        z=rng.integers(0, 2, n),
        y=rng.integers(0, 2, n),
        x=rng.uniform(size=(n, 2)),
        covariate_names=("x1", "x2"),
        scaling=((0.0, 1.0), (0.0, 1.0)),
        scaled=True,
    )


def _scipy_expit(u, out=None):
    """`basis.expit` as it was when it called scipy.special.expit, taking
    `basis.expit`'s ``out``."""
    from scipy import special

    out = special.expit(np.asarray(u, dtype=np.float64), out=out)
    return float(out) if out.ndim == 0 else out


@pytest.fixture
def scipy_primitives(monkeypatch):
    """scipy's expit and normal quantile in place of the package's own, in
    every module that binds them: values pinned before the package dropped
    scipy.special must then come back to the bit."""
    from scipy.special import ndtri

    shipped = basis.expit
    for name, module in list(sys.modules.items()):
        if name.startswith("fairdesert") and getattr(module, "expit", None) is shipped:
            monkeypatch.setattr(module, "expit", _scipy_expit)
    monkeypatch.setattr(theta, "NormalDist", lambda: SimpleNamespace(inv_cdf=ndtri))


def record_criterion(number, passed, detail):
    """Accumulate acceptance-criterion outcomes for the terminal summary."""
    results = {}
    if RESULTS_FILE.exists():
        results = json.loads(RESULTS_FILE.read_text())
    results[str(number)] = {"passed": bool(passed), "detail": detail}
    RESULTS_FILE.write_text(json.dumps(results, indent=2, sort_keys=True))


def pytest_terminal_summary(terminalreporter):
    if not RESULTS_FILE.exists():
        return
    results = json.loads(RESULTS_FILE.read_text())
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(results, key=int):
        entry = results[key]
        status = "PASS" if entry["passed"] else "FAIL"
        terminalreporter.write_line(f"criterion {key}: {status} - {entry['detail']}")


def pytest_sessionstart(session):
    if RESULTS_FILE.exists():
        RESULTS_FILE.unlink()
