"""Sieve maximum likelihood for the latent decision rule and mechanism.

Fits xi = (tau0, tau1, alpha, beta) by maximizing the empirical conditional
log-likelihood of Y given (S, Z, X) over logistic series families, with each
function parametrized as c + (1 - 2c) expit{gamma' phi(x)} so the floor
constraint holds by construction.  The relevance requirement
|tau1 - tau0| >= c enters as a smooth hinge penalty and is re-checked after
optimization.  Three sensitivity variants replace the stratum mixture
components: prescribed legitimate support (kappa), two-sided unfairness
(delta), and a z-differential mechanism (zeta).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.random import SeedSequence, default_rng

from .basis import BasisConfig, SeriesFunction, expand_matrix, expit, logit, orthonormal_design
from .data import Dataset, require_positivity
from .errors import FairdesertError, FitError, RelevanceWarning
from .identify import (
    PointwiseMu,
    _bilinear,
    check_levels,
    identification_denominator,
    invert_tau,
    mechanism,
    recover_mechanism,
    stratum_table,
)
from .optimize import bfgs_minimize
from .parallel import map_jobs
from .regress import fit_mu_models

VARIANTS = ("baseline", "kappa", "delta", "zeta")
# BFGS stops once the gradient sup-norm falls below this
GRAD_TOL = 1e-8
# ridge of the per-stratum mu fits behind the plug-in start
RIDGE_INIT = 1e-8


@dataclass(frozen=True)
class SensitivityParams:
    """Misspecification settings selecting a model variant.

    ``v0``/``v1`` are the two sensitivity levels for the chosen variant -
    (kappa0, kappa1), (delta0, delta1) or (zeta0, zeta1) - each either a
    constant or a callable mapping the scaled covariate matrix to per-row
    values (for grid-tabulated, x-dependent settings).
    """

    variant: str = "baseline"
    v0: object = 0.0
    v1: object = 0.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        check_levels(self.variant, *(float(v) for v in (self.v0, self.v1) if not callable(v)))

    def evaluate(self, x):
        """Per-row sensitivity values (v0_i, v1_i) at the scaled covariates."""
        n = np.atleast_2d(x).shape[0]
        out = []
        for v in (self.v0, self.v1):
            vals = np.asarray(v(x) if callable(v) else v, dtype=np.float64)
            vals = np.broadcast_to(vals, (n,)).copy()
            check_levels(self.variant, vals)
            out.append(vals)
        return out[0], out[1]

    def to_json_dict(self):
        return {
            "variant": self.variant,
            "v0": None if callable(self.v0) else float(self.v0),
            "v1": None if callable(self.v1) else float(self.v1),
        }

    @classmethod
    def baseline(cls):
        return cls("baseline", 0.0, 0.0)


@dataclass(frozen=True)
class FitOptions:
    """Optimizer settings for the sieve fit.

    ``restarts`` (at least 1) counts total initializations: the plug-in start
    derived from the closed-form inversion (always included when it can be
    built) plus randomized stratum-mean intercept starts.
    ``init_coefficients`` prepends a warm start.
    """

    restarts: int = 10
    max_iter: int = 500
    floor: float = 1e-3
    relevance_penalty: float = 1e3
    relevance_margin: float | None = None
    ridge: float = 0.0
    seed: int = 0
    include_plugin_start: bool = True
    init_coefficients: np.ndarray | None = None

    def __post_init__(self):
        # each message starts with the field's name; the CLI flags share them
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not 0.0 <= self.floor < 0.5:
            raise ValueError(f"floor must satisfy 0 <= floor < 0.5, got {self.floor}")

    @property
    def margin(self):
        return self.floor if self.relevance_margin is None else self.relevance_margin


@dataclass(frozen=True)
class RestartRecord:
    """How one BFGS restart of a sieve fit ended.

    ``start`` is "warm" (``FitOptions.init_coefficients``), "plugin" or
    "random"; ``objective`` is the penalized negative log-likelihood it
    reached; ``evaluations`` counts its objective evaluations; ``message`` is
    why BFGS stopped: "" (gradient tolerance met), "line search failed",
    "iteration limit" or "non-finite start".  ``evaluations`` and ``message``
    are None in model documents written before they were recorded.
    """

    start: str
    iterations: int
    objective: float
    grad_norm: float
    converged: bool
    evaluations: int | None = None
    message: str | None = None


@dataclass(frozen=True)
class FitDiagnostics:
    """The winning restart's fit, plus one record per restart in start order.

    ``winner`` indexes ``restarts``; both default to empty for model
    documents written before restarts were recorded.
    """

    criterion: float
    penalty: float
    grad_norm: float
    iterations: int
    restarts_used: int
    converged: bool
    relevance_violation_frac: float
    n: int
    restarts: tuple = ()
    winner: int | None = None

    def to_json_dict(self):
        return {
            "criterion": self.criterion,
            "penalty": self.penalty,
            "grad_norm": self.grad_norm,
            "iterations": self.iterations,
            "restarts_used": self.restarts_used,
            "converged": self.converged,
            "relevance_violation_frac": self.relevance_violation_frac,
            "n": self.n,
            "restarts": [asdict(r) for r in self.restarts],
            "winner": self.winner,
        }

    @classmethod
    def from_json_dict(cls, doc):
        restarts = tuple(RestartRecord(**r) for r in doc.get("restarts", ()))
        return cls(**{**doc, "restarts": restarts})


@dataclass(frozen=True)
class NuisanceEstimates:
    """Fitted nuisance functions plus the variant they were fit under."""

    tau0: SeriesFunction
    tau1: SeriesFunction
    alpha: SeriesFunction
    beta: SeriesFunction
    variant: str = "baseline"
    sensitivity: SensitivityParams = field(default_factory=SensitivityParams.baseline)
    diagnostics: FitDiagnostics | None = None

    @property
    def config(self):
        return self.tau0.config

    @property
    def floor(self):
        return self.tau0.lo

    def values(self, x):
        """Evaluate (tau0, tau1, alpha, beta) at scaled covariates; (n, 4) columns."""
        phi = expand_matrix(x, self.config)
        return tuple(f.eval_features(phi) for f in (self.tau0, self.tau1, self.alpha, self.beta))

    def coefficient_stack(self):
        return np.concatenate(
            [self.tau0.gamma, self.tau1.gamma, self.alpha.gamma, self.beta.gamma]
        )


def stratum_probability(t0, t1, a, b, s, z, variant="baseline", sv0=0.0, sv1=0.0):
    """f(Y=1 | s, z, x) for candidate function values under a model variant.

    Values are clamped into [1e-12, 1-1e-12] for log safety; the clamp only
    binds for extreme sensitivity settings.
    """
    t0, t1, a, b, s, z, sv0, sv1 = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (t0, t1, a, b, s, z, sv0, sv1))
    )
    tz = np.where(z == 1, t1, t0)
    m = np.where(s == 1, b, a)
    p, _, _ = _bilinear(stratum_table(s, z, variant, sv0, sv1), tz, m)
    return np.clip(p, 1e-12, 1 - 1e-12)


class SieveProblem:
    """Penalized negative log-likelihood with analytic gradient.

    Packs the four coefficient vectors as [tau0, tau1, alpha, beta]; each
    function is c + (1 - 2c) expit(gamma' phi).  With ``precondition`` the
    feature columns are orthonormalized (`basis.orthonormal_design`) and
    optimization runs in the rotated coordinates - the polynomial Gram matrix
    is badly conditioned and quasi-Newton convergence suffers without this;
    `to_original` maps packed coefficients back to the raw basis exactly.

    Every variant's stratum probability is bilinear in tz = tau_Z(x) and
    m = alpha(x) (S=0 rows) or beta(x) (S=1 rows).  With the (shift, c, f) of
    `identify.mechanism`, q = tz + shift and the m-driven flip at rate
    1 - f (1 - m),

        S=0 rows:  p = q f (1 - m) + (1 - q) c
        S=1 rows:  p = 1 - c q - (1 - q) f (1 - m),

    which `identify.stratum_table` stores per row as p = e + g (tz - u)(m - w)
    with (e, g, u, w) = (c on S=0 / 1 - c on S=1, -f, S - shift, 1 - c/f).
    The product form keeps p exact next to 0 and 1, as the closed forms do
    (expanded, p = k0 + k1 tz + k2 m + k3 tz m with (k0, k1, k2, k3) =
    (e + g u w, -g w, -g u, g)).  One evaluation is then one (n, J) x (J, 4)
    product, one expit and one (J, n) x (n, 4) product, whatever the variant.

    The (n, 4) blocks of logits, values and gradient weights are C-ordered, so
    row i's four functions sit at flat positions 4i .. 4i + 3.  ``idx_t`` =
    4i + Z_i and ``idx_m`` = 4i + 2 + S_i are the flat positions of the two
    values row i's likelihood reads, tau_Z(x_i) and m(x_i): `value_grad`
    gathers them with one ``take`` each and scatters their gradient weights
    back into a zero block the same way.  The other two entries of a row get
    weight only from the relevance hinge (tau0, tau1), which is worked out on
    the few rows where |tau1 - tau0| is below the margin, and from the ridge.
    """

    def __init__(self, data: Dataset, config: BasisConfig, options: FitOptions,
                 variant="baseline", sensitivity=None, precondition=False):
        sensitivity = sensitivity or SensitivityParams(variant)
        if sensitivity.variant != variant:
            raise ValueError("sensitivity variant does not match the requested variant")
        self.config = config
        self.options = options
        self.variant = variant
        self.sensitivity = sensitivity
        self.phi = expand_matrix(data.x, config)
        self.n, self.j = self.phi.shape
        self.r_block = None
        pre = orthonormal_design(self.phi) if precondition else None
        if pre is not None:
            self.phi, self.r_block = pre
        self.y = np.asarray(data.y, dtype=np.float64)
        self.y1 = self.y == 1
        # d(-mean log-likelihood)/dp = (p - y) / {p (1 - p) n} = dneg_sign / lik
        self.dneg_sign = (1 - 2 * self.y) / self.n
        self.s = np.asarray(data.s, dtype=np.float64)
        self.z = np.asarray(data.z, dtype=np.float64)
        self.sv0, self.sv1 = sensitivity.evaluate(data.x)
        self.table = stratum_table(self.s, self.z, variant, self.sv0, self.sv1)
        rows = 4 * np.arange(self.n)
        self.idx_t = rows + (self.z == 1)
        self.idx_m = rows + 2 + (self.s == 1)
        self.c = options.floor
        self.margin = options.margin
        self.lam = options.relevance_penalty
        self.ridge = options.ridge

    @property
    def dim(self):
        return 4 * self.j

    def unpack(self, stack):
        j = self.j
        return stack[:j], stack[j:2 * j], stack[2 * j:3 * j], stack[3 * j:]

    def to_original(self, stack):
        """Map packed coefficients from working coordinates to the raw basis."""
        if self.r_block is None:
            return np.asarray(stack, dtype=np.float64)
        return np.concatenate([np.linalg.solve(self.r_block, g) for g in self.unpack(stack)])

    def from_original(self, stack):
        if self.r_block is None:
            return np.asarray(stack, dtype=np.float64)
        return np.concatenate([self.r_block @ g for g in self.unpack(stack)])

    def _blocks(self, stack):
        """(n, 4) logits, function values and expit derivative factors."""
        logits = self.phi @ np.reshape(stack, (4, self.j)).T
        sig = expit(logits)
        scaled = (1 - 2 * self.c) * sig
        return logits, self.c + scaled, scaled * (1 - sig)

    def functions(self, stack):
        """Function values, expit derivative factors, and logits per point."""
        logits, vals, slopes = self._blocks(stack)
        return list(vals.T), list(slopes.T), list(logits.T)

    def _likelihood(self, vals):
        """Per-row probability of the observed outcome, and the partials of
        f(Y=1 | s, z, x) in tz and m."""
        flat = vals.ravel()
        p, dp_dt, dp_dm = _bilinear(self.table, flat.take(self.idx_t), flat.take(self.idx_m))
        # np.clip's values, without its wrapper's overhead
        p = np.minimum(np.maximum(p, 1e-12, out=p), 1 - 1e-12, out=p)
        return np.where(self.y1, p, 1 - p), dp_dt, dp_dm

    def value_grad(self, stack):
        logits, vals, slopes = self._blocks(stack)
        lik, dp_dt, dp_dm = self._likelihood(vals)
        n = self.n
        value = -(np.log(lik).sum() / n)
        dneg_dp = self.dneg_sign / lik

        weights = np.zeros((n, 4))
        flat = weights.ravel()
        flat[self.idx_t] = dneg_dp * dp_dt
        flat[self.idx_m] = dneg_dp * dp_dm
        diff = vals[:, 1] - vals[:, 0]
        gap = np.abs(diff)
        # the relevance hinge is zero where the gap meets the margin, which is
        # on all but a few rows (a NaN gap counts as active)
        active = np.nonzero(~(gap >= self.margin))[0]
        if active.size:
            hinge = self.margin - gap[active]
            squares = np.zeros(n)
            squares[active] = hinge ** 2
            value += self.lam * (squares.sum() / n)
            dpen_ddiff = self.lam * 2 * hinge * (-np.sign(diff[active])) / n
            weights[active, 0] -= dpen_ddiff
            weights[active, 1] += dpen_ddiff
        weights *= slopes
        if self.ridge > 0:
            # coordinate-free shrinkage of the demeaned logit functions;
            # stabilizes the decomposition into (tau, alpha, beta) at small n
            centered = logits - logits.mean(axis=0)
            value += 0.5 * self.ridge * float(np.sum(centered * centered)) / n
            weights += (self.ridge / n) * centered
        return float(value), (self.phi.T @ weights).T.ravel()

    def criterion(self, stack):
        """Mean conditional log-likelihood (no penalty) at the packed point."""
        return float(np.mean(np.log(self._likelihood(self._blocks(stack)[1])[0])))


def _target_to_gamma(problem, values, valid):
    """Least-squares pull-back of target function values onto the basis."""
    c = problem.c
    lo, hi = c + 1e-4, 1 - c - 1e-4
    w = logit((np.clip(values, lo, hi) - c) / (1 - 2 * c))
    gamma, *_ = np.linalg.lstsq(problem.phi[valid], w[valid], rcond=None)
    return gamma


def _plugin_start(problem, data):
    """Initialization from the closed-form inversion of direct mu_sz fits."""
    mu_model = fit_mu_models(data, problem.config, ridge=RIDGE_INIT)
    mu = mu_model.predict_all(data.x)
    m = PointwiseMu(*mu.T)
    valid = np.abs(identification_denominator(m)) > 1e-8
    if valid.sum() < problem.j:
        raise FitError("too few identifiable points for a plug-in start")
    t0 = np.full(data.n, 0.5)
    t1 = np.full(data.n, 0.5)
    t0[valid], t1[valid] = invert_tau(PointwiseMu(*mu[valid].T), tol=1e-8)
    t0c = np.clip(t0, 0.02, 0.98)
    t1c = np.clip(t1, 0.02, 0.98)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = recover_mechanism(m, t0c, t1c)
    return np.concatenate([
        _target_to_gamma(problem, t0, valid),
        _target_to_gamma(problem, t1, valid),
        _target_to_gamma(problem, np.asarray(rec.alpha), valid),
        _target_to_gamma(problem, np.asarray(rec.beta), valid),
    ])


def _random_starts(problem, data, count, seed):
    """Zero-slope starts with randomized intercepts around stratum means."""
    rng = default_rng(SeedSequence(entropy=seed, spawn_key=(17,)))
    means = {}
    for s in (0, 1):
        for z in (0, 1):
            mask = (data.s == s) & (data.z == z)
            means[(s, z)] = float(np.clip(data.y[mask].mean(), 0.05, 0.95))
    starts = []
    for _ in range(count):
        stack = np.zeros(problem.dim)
        t0 = means[(0, 0)]
        t1 = means[(0, 1)]
        a = rng.uniform(0.02, 0.35)
        b = rng.uniform(0.02, 0.35)
        for k, v in enumerate((t0, t1, a, b)):
            u = logit(v) + rng.normal(0.0, 0.5)
            stack[k * problem.j] = u
        starts.append(stack)
    return starts


def _minimize_task(problems, task):
    """One BFGS restart: problem ``k`` of ``problems`` from the packed start ``s0``."""
    k, max_iter, s0 = task
    return bfgs_minimize(problems[k].value_grad, s0, tol=GRAD_TOL, max_iter=max_iter)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_objective(a: SieveProblem, b: SieveProblem):
    """Whether ``a.value_grad`` and ``b.value_grad`` read bitwise-equal inputs
    (the stratum table, which tells sensitivity levels apart, before the
    larger design)."""
    return all(_same_bits(getattr(a, name), getattr(b, name))
               for name in ("c", "margin", "lam", "ridge", "y", "idx_t", "idx_m", "table", "phi"))


def _setup(data, config, options=None, variant="baseline", sensitivity=None):
    """The preconditioned problem of one `fit` call, its packed starts and their kinds."""
    options = options or FitOptions()
    sensitivity = sensitivity or SensitivityParams(variant)
    require_positivity(data)
    problem = SieveProblem(data, config, options, variant, sensitivity, precondition=True)

    starts, kinds = [], []
    if options.init_coefficients is not None:
        init = np.asarray(options.init_coefficients, dtype=np.float64)
        if init.size != problem.dim:
            raise ValueError("init_coefficients length mismatch")
        starts.append(problem.from_original(init))
        kinds.append("warm")
    if options.include_plugin_start:
        try:
            starts.append(_plugin_start(problem, data))
            kinds.append("plugin")
        except (FairdesertError, np.linalg.LinAlgError):
            pass
    n_random = max(options.restarts - len(starts), 0)
    starts.extend(
        problem.from_original(s0)
        for s0 in _random_starts(problem, data, n_random, options.seed)
    )
    kinds.extend(["random"] * n_random)
    return problem, starts, kinds


def _finish(problem, kinds, results):
    """The estimates from one fit's restart results, in start order."""
    acceptable = [i for i, r in enumerate(results)
                  if np.isfinite(r.fun) and r.grad_norm <= 1e-4]
    if not acceptable:
        best_norm = min((r.grad_norm for r in results), default=math.inf)
        raise FitError(
            f"no restart converged (best gradient norm {best_norm:.2e} over "
            f"{len(results)} starts)"
        )
    winner = min(acceptable, key=lambda i: results[i].fun)
    best = results[winner]

    (t0, t1, a, b), _, _ = problem.functions(best.x)
    viol_frac = float(np.mean(np.abs(t1 - t0) < problem.margin))
    if viol_frac > 0.10:
        # _finish <- _fit_many <- fit or fit_many <- their caller
        warnings.warn(
            f"relevance constraint |tau1 - tau0| >= {problem.margin:g} fails on "
            f"{viol_frac:.1%} of the sample: the auxiliary variable may be irrelevant",
            RelevanceWarning,
            stacklevel=4,
        )
    criterion = problem.criterion(best.x)
    diagnostics = FitDiagnostics(
        criterion=criterion,
        penalty=float(best.fun + criterion),
        grad_norm=best.grad_norm,
        iterations=best.iterations,
        restarts_used=len(kinds),
        converged=best.converged,
        relevance_violation_frac=viol_frac,
        n=problem.n,
        restarts=tuple(
            RestartRecord(kind, r.iterations, float(r.fun), r.grad_norm, r.converged,
                          r.evaluations, r.message)
            for kind, r in zip(kinds, results)
        ),
        winner=winner,
    )
    c = problem.c
    g0, g1, ga, gb = problem.unpack(problem.to_original(best.x))
    make = lambda g: SeriesFunction(problem.config, g, lo=c, hi=1 - c)  # noqa: E731
    return NuisanceEstimates(
        tau0=make(g0), tau1=make(g1), alpha=make(ga), beta=make(gb),
        variant=problem.variant, sensitivity=problem.sensitivity, diagnostics=diagnostics,
    )


def _fit_many(requests, jobs):
    """`fit_many`; `fit` calls this rather than `fit_many`, so that a tracer
    that wraps the public functions (``perfbench/tracing.py``) still sees a
    fit's restarts directly under its ``fit`` span."""
    setups = []
    problems, tasks, slot_of = [], [], {}
    fits = 0
    for request in requests:
        try:
            problem, starts, kinds = _setup(*request)
        except FairdesertError as exc:
            setups.append(exc)
            continue
        k = next((i for i, p in enumerate(problems) if _same_objective(p, problem)), None)
        if k is None:
            k = len(problems)
            problems.append(problem)
        max_iter = problem.options.max_iter
        fresh = len(tasks)
        slots = []
        for s0 in starts:
            key = (k, max_iter, s0.tobytes())
            if key not in slot_of:
                slot_of[key] = len(tasks)
                tasks.append((k, max_iter, s0))
            slots.append(slot_of[key])
        fits += len(tasks) > fresh
        setups.append((problem, kinds, slots))

    results = map_jobs(_minimize_task, tasks, jobs, shared=(tuple(problems),))
    outcomes = []
    for setup in setups:
        if isinstance(setup, FairdesertError):
            outcomes.append(setup)
            continue
        problem, kinds, slots = setup
        try:
            outcomes.append(_finish(problem, kinds, [results[i] for i in slots]))
        except FairdesertError as exc:
            outcomes.append(exc)
    return outcomes, fits


def fit_many(requests, jobs=1):
    """`fit` for each request, with every restart of every request on one pool.

    Each request is a tuple of `fit`'s arguments ``(data, config, options,
    variant, sensitivity)``; trailing ones may be left out.  All restarts run
    in one `parallel.map_jobs` call on ``jobs`` processes.  A restart runs once
    when an earlier request minimizes the same objective - bitwise-equal
    design, outcomes, stratum table, gather indices and options - from a
    bitwise-equal start with the same ``max_iter``; the later request reuses
    its result, so a zero-level sensitivity point repeats no work of the
    baseline.  Returns ``(outcomes, fits)``: per request, in order, the
    `NuisanceEstimates` that ``fit(*request)`` returns or the `FairdesertError`
    it raises; and ``fits``, the number of requests that ran a restart of
    their own.  Other exceptions propagate.
    """
    return _fit_many(requests, jobs)


def fit(data: Dataset, config: BasisConfig, options: FitOptions | None = None,
        variant="baseline", sensitivity=None, jobs=1) -> NuisanceEstimates:
    """Sieve maximum likelihood fit; best of multi-start quasi-Newton runs.

    The restarts run on ``jobs`` processes (`parallel.map_jobs`) and come back
    in start order, so the fit does not depend on ``jobs``.  Deterministic
    given (data, config, options.seed).  Raises FitError when no restart
    reaches an acceptable gradient norm; attaches a warning when the
    relevance constraint fails on more than 10% of the sample
    (`RelevanceWarning`).  The one-request case of `fit_many`.
    """
    (outcome,), _ = _fit_many([(data, config, options, variant, sensitivity)], jobs)
    if isinstance(outcome, FairdesertError):
        raise outcome
    return outcome


def predict_tau(est: NuisanceEstimates, z, x):
    """tau_hat(z, x) = (1 - z) tau0_hat(x) + z tau1_hat(x) at scaled covariates:
    a float for one point x (1-d), an (n,) array for an (n, d) matrix."""
    point = np.ndim(x) < 2
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    phi = expand_matrix(x, est.config)
    z = np.broadcast_to(np.asarray(z), (x.shape[0],))
    out = np.where(z == 1, est.tau1.eval_features(phi), est.tau0.eval_features(phi))
    return float(out[0]) if point else out


def predict_tau_sz(est: NuisanceEstimates, s, z, x):
    """Decision rule including prescribed legitimate support: tau_hat_{sz}(x) =
    tau_hat_{0z}(x) + shift, the shift of `identify.mechanism` (s kappa_z(x)
    under kappa, zero otherwise), clipped into [0, 1].  A float for one point
    x (1-d), an (n,) array for an (n, d) matrix."""
    point = np.ndim(x) < 2
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    shift, _, _ = mechanism(np.broadcast_to(s, (n,)), np.broadcast_to(z, (n,)),
                            est.variant, *est.sensitivity.evaluate(x))
    shifted = predict_tau(est, z, x) + shift
    clipped = (shifted < 0) | (shifted > 1)
    if np.any(clipped):
        warnings.warn(
            f"kappa shift left [0, 1] at {int(np.sum(clipped))} point(s); clipped",
            stacklevel=2,
        )
    out = np.clip(shifted, 0.0, 1.0)
    return float(out[0]) if point else out


def decision_scores(est: NuisanceEstimates, data: Dataset):
    """Per-row decision scores tau_hat_{SZ}(X), shape (n,) (see `predict_tau_sz`)."""
    return predict_tau_sz(est, data.s, data.z, data.x)


def rate_threshold(scores, target_rate):
    """Largest threshold whose predicted-positive rate is >= target_rate."""
    if not 0.0 < target_rate <= 1.0:
        raise ValueError("target rate must lie in (0, 1]")
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    k = min(max(int(math.ceil(target_rate * n)), 1), n)
    return float(np.partition(scores, n - k)[n - k])
