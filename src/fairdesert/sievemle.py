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

from .basis import (
    MONOMIAL_BLOCK_ROWS,
    BasisConfig,
    SeriesFunction,
    expand_matrix,
    expit,
    logit,
    orthonormal_design,
)
from .data import Dataset
from .errors import FairdesertError, FitError, PositivityError, RelevanceWarning
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
from .optimize import _bfgs_lockstep, bfgs_minimize
from .parallel import chunk_size, map_jobs
from .regress import fit_mu_counts

VARIANTS = ("baseline", "kappa", "delta", "zeta")
# BFGS stops once the gradient sup-norm falls below this
GRAD_TOL = 1e-8
# most rows that one lock-step group of restarts stacks (`_groups`): past
# about 32 768 the stacked blocks no longer stay in cache
GROUP_ROWS = 16_384
# ridge of the per-stratum mu fits behind the plug-in start
RIDGE_INIT = 1e-8


@dataclass(frozen=True)
class SensitivityParams:
    """Misspecification settings selecting a model variant, the one place it is named.

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
    """Fitted nuisance functions plus the sensitivity settings they were fit under."""

    tau0: SeriesFunction
    tau1: SeriesFunction
    alpha: SeriesFunction
    beta: SeriesFunction
    sensitivity: SensitivityParams = field(default_factory=SensitivityParams.baseline)
    diagnostics: FitDiagnostics | None = None

    @property
    def variant(self):
        return self.sensitivity.variant

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

    `value_grad` is the one-problem case of `_Stack.value_grad`, on a stack
    of this problem alone that is made once; `_Stack.value_grad` evaluates k
    problems of one shape at once for the lock-step restarts of `fit_many`.
    It writes every (k, n, 4) and length-k n intermediate into one buffer
    set per process, reallocated when k or n changes, so problems of one
    size share it and a sweep's K problems do not hold K sets; it returns a
    fresh value and gradient.  Two threads must not evaluate at
    once.  `functions` and `criterion` run the same code into new arrays.

    Every problem is count-weighted.  ``counts`` (one per row of ``data``,
    ``np.bincount(rows, minlength=data.n)`` of n drawn rows) makes it the
    problem of the resample repeating row i ``counts[i]`` times, fitted on
    its distinct rows with their counts as weights: a resample of n rows
    holds about (1 - 1/e) n distinct rows.  Without ``counts`` it is the
    problem of ``data`` itself, the resample whose counts are all one.
    The problem runs on ``rows`` (`_weighted_rows`: the rows of positive
    count, padded with rows of count 0 to a length that depends on the
    resample size alone, so the problems of one size stack), ``counts``
    holds their weights and ``size`` the resample size, which every mean
    divides by: the log-likelihood, the relevance hinge, the ridge's means
    and squares, `criterion` and `_finish`'s violation share.  The QR
    preconditioner is taken on the sqrt(counts)-scaled design
    (`basis.orthonormal_design`).  The value and gradient are the
    materialised resample's to rounding; with counts of one they are the
    unweighted sums' to the bit, as every weight then multiplies by 1.0.
    """

    def __init__(self, data: Dataset, config: BasisConfig, options: FitOptions, *,
                 sensitivity=SensitivityParams(), precondition=False, phi=None,
                 counts=None):
        self.config = config
        self.options = options
        self.sensitivity = sensitivity
        # the data itself is the resample that draws each row once
        counts = np.ones(data.n, int) if counts is None else counts
        self.rows, self.counts = _weighted_rows(counts, data.n)
        x, s, z, y = (v[self.rows] for v in (data.x, data.s, data.z, data.y))
        # ``phi``: expand_matrix(data.x, config), when the caller has it
        self.phi = expand_matrix(x, config) if phi is None else phi[self.rows]
        self.n, self.j = self.phi.shape
        self.size = int(np.sum(self.counts))
        self.r_block = None
        pre = orthonormal_design(self.phi, self.counts) if precondition else None
        if pre is not None:
            self.phi, self.r_block = pre
        self.y = np.asarray(y, dtype=np.float64)
        self.not_y = 1 - self.y
        # d(-mean log-likelihood)/dp = (p - y) / {p (1 - p) n} = dneg_sign / lik
        self.dneg_sign = self.counts * (1 - 2 * self.y) / self.size
        self.s = np.asarray(s, dtype=np.float64)
        self.z = np.asarray(z, dtype=np.float64)
        self.sv0, self.sv1 = sensitivity.evaluate(x)
        self.table = stratum_table(self.s, self.z, sensitivity.variant, self.sv0, self.sv1)
        starts = 4 * np.arange(self.n)
        self.idx_t = starts + (self.z == 1)
        self.idx_m = starts + 2 + (self.s == 1)
        self.c = options.floor
        self.margin = options.margin
        self.lam = options.relevance_penalty
        self.ridge = options.ridge
        self._stack = None

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

    def _alone(self):
        """The `_Stack` of this problem alone, made at its first use."""
        if self._stack is None:
            self._stack = _Stack((self,))
        return self._stack

    def _blocks(self, stack):
        """(n, 4) logits, function values and expit derivative factors."""
        return [block[0] for block in self._alone()._blocks(np.reshape(stack, (1, -1)))]

    def functions(self, stack):
        """Function values, expit derivative factors, and logits per point."""
        logits, vals, slopes = self._blocks(stack)
        return list(vals.T), list(slopes.T), list(logits.T)

    def _likelihood(self, vals):
        """Per-row probability of the observed outcome, and the partials of
        f(Y=1 | s, z, x) in tz and m."""
        return self._alone()._likelihood(vals[None])

    def value_grad(self, stack):
        values, grads = self._alone().value_grad(np.reshape(stack, (1, -1)))
        return float(values[0]), grads[0]

    def criterion(self, stack):
        """Mean conditional log-likelihood (no penalty) at the packed point."""
        return self._criterion(self._blocks(stack)[1])

    def _criterion(self, vals):
        """`criterion` from the (n, 4) function values."""
        logs = np.log(self._likelihood(vals)[0])
        return float(np.sum(self.counts * logs) / self.size)


def _padded_length(size):
    """The rows of a count-weighted problem on a resample of ``size`` rows
    (`_weighted_rows`): the expected distinct rows, (1 - 1/e) size, plus
    3 sqrt(size), about 9.6 standard deviations of their number."""
    return min(size, math.ceil((1 - math.exp(-1)) * size + 3 * math.sqrt(size)))


def _weighted_rows(counts, n):
    """The rows of a count-weighted `SieveProblem` and their counts, as
    floats: the rows of positive count in order, then rows of count 0 in
    order up to `_padded_length` of the resample size - or up to the size
    itself when more rows are drawn - as far as ``counts`` has them.  The
    rows depend on ``counts`` alone.  ValueError unless ``counts`` holds one
    non-negative integer per row of n, summing to n (not an index array)."""
    counts = np.asarray(counts)
    size = int(np.sum(counts))
    if counts.shape != (n,) or counts.dtype.kind not in "iu" or counts.min() < 0 or size != n:
        raise ValueError(f"counts must hold one non-negative integer per row of the {n} rows, "
                         f"summing to {n}; got shape {counts.shape}, {counts.dtype}, sum {size}")
    drawn = np.flatnonzero(counts)
    length = _padded_length(size)
    if drawn.size > length:
        length = size
    rows = np.concatenate([drawn, np.flatnonzero(counts == 0)[:max(length - drawn.size, 0)]])
    return rows, counts[rows].astype(np.float64)


def _joined(arrays, axis):
    """``np.concatenate(arrays, axis)``, without a copy for one array."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis)


class _Stack:
    """`SieveProblem.value_grad` of k problems of equal (n, J), floor, margin,
    relevance penalty and ridge, in one evaluation.

    Problem b's rows are rows b n .. b n + n - 1 of the (k n, 4) blocks, so
    its flat gather and scatter positions are its own plus 4 n b; its (n, J)
    design is slice b of a (k, n, J) stack.  Every operation is the one-problem
    operation on each slice: stacked matmuls and sums along the last axis of
    C-contiguous arrays give each problem the bits it gets alone, so the
    values and gradients are bitwise those of each problem's `value_grad`,
    which is the k = 1 case.  One problem's stack shares its arrays.  The
    problems share one resample size.
    """

    def __init__(self, problems):
        first = problems[0]
        self.k = len(problems)
        self.n, self.j, self.size = first.n, first.j, first.size
        self.c, self.margin, self.lam, self.ridge = first.c, first.margin, first.lam, first.ridge
        self.counts = _joined([p.counts for p in problems], 0)
        self.phi = _joined([p.phi[None] for p in problems], 0)
        offsets = range(0, 4 * self.n * self.k, 4 * self.n)
        self.idx_t = _joined([p.idx_t + o if o else p.idx_t
                              for p, o in zip(problems, offsets)], 0)
        self.idx_m = _joined([p.idx_m + o if o else p.idx_m
                              for p, o in zip(problems, offsets)], 0)
        self.table = _joined([p.table for p in problems], 1)
        self.not_y = _joined([p.not_y for p in problems], 0)
        self.dneg_sign = _joined([p.dneg_sign for p in problems], 0)
        if self.ridge > 0:
            # each logit's count, in the (k, n, 4) layout of the blocks and
            # the (n, k, 4) one of the ridge's column sums (one array for k = 1)
            block = np.repeat(self.counts[:, None], 4, axis=1).reshape(self.k, self.n, 4)
            self.count_block = block
            self.count_across = np.ascontiguousarray(block.transpose(1, 0, 2))

    def _blocks(self, stacks, out=None):
        """(k, n, 4) logits, function values and expit derivative factors at
        the (k, 4 J) packed points, written into the three arrays of ``out``
        when it is given."""
        logits, vals, slopes = out or (np.empty((self.k, self.n, 4)) for _ in range(3))
        # a C-ordered (J, 4) right factor makes the product much faster
        right = np.ascontiguousarray(np.reshape(stacks, (self.k, 4, self.j)).transpose(0, 2, 1))
        np.matmul(self.phi, right, out=logits)
        sig = expit(logits, out=slopes)
        scaled = np.multiply(1 - 2 * self.c, sig, out=vals)
        np.multiply(scaled, np.subtract(1, sig, out=sig), out=slopes)
        return logits, np.add(self.c, scaled, out=vals), slopes

    def _likelihood(self, vals, out=None):
        """Per-row probability of the observed outcome, and the partials of
        f(Y=1 | s, z, x) in tz and m, all k n rows in one array each, written
        into the three arrays of ``out`` when it is given."""
        tz, m, dp_dt = out or np.empty((3, self.k * self.n))
        flat = vals.ravel()
        # mode="clip" lets take write straight into its out; the indices are in range
        flat.take(self.idx_t, out=tz, mode="clip")
        flat.take(self.idx_m, out=m, mode="clip")
        p, dp_dt, dp_dm = _bilinear(self.table, tz, m, out=(m, dp_dt, tz))
        # np.clip's values, without its wrapper's overhead
        p = np.minimum(np.maximum(p, 1e-12, out=p), 1 - 1e-12, out=p)
        # |(1 - y) - p| is p where y = 1 and 1 - p where y = 0, exactly
        return np.abs(np.subtract(self.not_y, p, out=p), out=p), dp_dt, dp_dm

    def value_grad(self, stacks):
        """Values (k,) and gradients (k, 4 J) at the (k, 4 J) packed points."""
        k, n, size, counts = self.k, self.n, self.size, self.counts
        buffers = _buffers(k, n)
        logits, vals, slopes = self._blocks(stacks, buffers.blocks)
        lik, dp_dt, dp_dm = self._likelihood(vals, buffers.rows[:3])
        scratch, diff = buffers.rows[3:]
        logs = np.log(lik, out=scratch)
        logs *= counts
        values = -(logs.reshape(k, n).sum(axis=1) / size)
        dneg_dp = np.divide(self.dneg_sign, lik, out=lik)

        weights = buffers.weights
        weights.fill(0.0)
        flat = weights.ravel()
        flat[self.idx_t] = np.multiply(dneg_dp, dp_dt, out=dp_dt)
        flat[self.idx_m] = np.multiply(dneg_dp, dp_dm, out=dp_dm)
        rows = vals.reshape(k * n, 4)
        np.subtract(rows[:, 1], rows[:, 0], out=diff)
        gap = np.abs(diff, out=scratch)
        # the relevance hinge is zero where the gap meets the margin, which is
        # on all but a few rows (a NaN gap counts as active)
        met = np.greater_equal(gap, self.margin, out=buffers.met)
        active = np.nonzero(np.logical_not(met, out=met))[0]
        if active.size:
            hinge = self.margin - gap[active]
            # the count-weighted hinge, and its weighted square
            squared = hinge ** 2 * counts[active]
            hinge *= counts[active]
            dpen_ddiff = self.lam * 2 * hinge * (-np.sign(diff[active])) / size
            squares = scratch
            squares.fill(0.0)
            squares[active] = squared
            # only the problems with an active row take the penalty
            hit = np.zeros(k, dtype=bool)
            hit[active // n] = True
            values[hit] += self.lam * (squares.reshape(k, n).sum(axis=1)[hit] / size)
            rows = weights.reshape(k * n, 4)
            rows[active, 0] -= dpen_ddiff
            rows[active, 1] += dpen_ddiff
        weights *= slopes
        if self.ridge > 0:
            # coordinate-free shrinkage of the demeaned logit functions;
            # stabilizes the decomposition into (tau, alpha, beta) at small n.
            # Each column mean sums its rows' weighted logits in order, as
            # (counts * logits).sum(axis=1) does, but over one (n, 4 k) block,
            # whose reduction runs an inner loop 4 k long rather than 4: the
            # same bits, in less time
            across = np.multiply(logits.transpose(1, 0, 2), self.count_across,
                                 out=buffers.across())
            means = across.reshape(n, 4 * k).sum(axis=0).reshape(k, 1, 4) / size
            centered = np.subtract(logits, np.repeat(means, n, axis=1), out=logits)
            # vals is read for the last time above
            weighted = np.multiply(centered, self.count_block, out=vals)
            squares = np.multiply(weighted, centered, out=logits)
            values += 0.5 * self.ridge * squares.reshape(k, 4 * n).sum(axis=1) / size
            weights += np.multiply(self.ridge / size, weighted, out=weighted)
        grads = np.matmul(np.swapaxes(self.phi, 1, 2), weights)
        return values, grads.transpose(0, 2, 1).reshape(k, 4 * self.j)


class _Buffers:
    """The scratch arrays of one `_Stack.value_grad` evaluation of k problems
    on n rows each: three (k, n, 4) blocks for `_Stack._blocks`, the weight
    block, five length-k n rows, a length-k n mask and, under a ridge, an
    (n, k, 4) block."""

    def __init__(self, k, n):
        self.shape = (k, n)
        *self.blocks, self.weights = np.empty((4, k, n, 4))
        self.rows = tuple(np.empty((5, k * n)))
        self.met = np.empty(k * n, dtype=bool)
        self._across = None

    def across(self):
        """The (n, k, 4) block, made at its first use: a fit without a ridge
        holds none."""
        if self._across is None:
            k, n = self.shape
            self._across = np.empty((n, k, 4))
        return self._across


_BUFFERS = None


def _buffers(k, n):
    """This process's one buffer set, reallocated when k or n changes."""
    global _BUFFERS
    if _BUFFERS is None or _BUFFERS.shape != (k, n):
        _BUFFERS = _Buffers(k, n)
    return _BUFFERS


def _target_to_gamma(c, design, root, values):
    """Least-squares pull-back of one function's target values onto the
    basis, for floor ``c``: ``design`` holds the rows' design times ``root``,
    the square roots of their counts, so that each row weighs as its repeats
    would.  One solve per function: `lstsq` with several right-hand sides is
    not bitwise the solve of each."""
    lo, hi = c + 1e-4, 1 - c - 1e-4
    w = logit((np.clip(values, lo, hi) - c) / (1 - 2 * c))
    gamma, *_ = np.linalg.lstsq(design, w * root, rcond=None)
    return gamma


def _plugin_starts(data, phi, counts, problems):
    """The plug-in start of each of ``problems``, the problem of the resample
    of ``data`` that ``counts[i]`` gives (None: ``data`` itself), or the
    FairdesertError or LinAlgError that it gives: the initialization from
    the closed-form inversion of direct mu_sz fits.  Each problem takes its
    targets at its own rows and pulls them back by count-weighted least
    squares.

    ``phi`` is ``expand_matrix(data.x, config)``.  The mu fits are one
    `regress.fit_mu_counts` call, weighted by the counts, so they run in
    lock-step; entries of None share one fit.  A resample with an empty
    stratum fails there with PositivityError.  The inversion from mu to the
    targets works row by row, so it runs once on the (k, n) stack of the
    fits' mu at the rows of ``data``, and each problem gathers its own rows;
    then one least-squares pull-back per problem.  A start does not depend
    on the other entries.
    """
    fits, fit_of, whole = [], [], None
    for c in counts:
        if c is None and whole is not None:
            fit_of.append(whole)
            continue
        fit_of.append(len(fits))
        if c is None:
            whole = len(fits)
        fits.append(c)
    models = fit_mu_counts(data, problems[0].config, fits, RIDGE_INIT, phi=phi)
    # the fitted draws' places in the stack
    fitted = {b: i for i, b in enumerate(
        b for b, model in enumerate(models) if not isinstance(model, FairdesertError))}
    if fitted:
        mu = np.stack([models[b].predict_features(phi) for b in fitted])
        m = PointwiseMu(*np.moveaxis(mu, 2, 0))
        valid = np.abs(identification_denominator(m)) > 1e-8
        t0 = np.full(valid.shape, 0.5)
        t1 = np.full(valid.shape, 0.5)
        t0[valid], t1[valid] = invert_tau(PointwiseMu(*mu[valid].T), tol=1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rec = recover_mechanism(m, np.clip(t0, 0.02, 0.98), np.clip(t1, 0.02, 0.98))
        targets = (t0, t1, np.asarray(rec.alpha), np.asarray(rec.beta))
    starts = []
    for problem, b in zip(problems, fit_of):
        if isinstance(models[b], FairdesertError):
            starts.append(models[b])
            continue
        i = fitted[b]
        valid_b = valid[i][problem.rows]
        weights = problem.counts[valid_b]
        # the identifiable rows of the resample, repeats counted
        if weights.sum() < problem.j:
            starts.append(FitError("too few identifiable points for a plug-in start"))
            continue
        root = np.sqrt(weights)
        design = problem.phi[valid_b] * root[:, None]
        try:
            starts.append(np.concatenate([
                _target_to_gamma(problem.c, design, root, v[i][problem.rows][valid_b])
                for v in targets]))
        except np.linalg.LinAlgError as exc:
            starts.append(exc)
    return starts


def _random_starts(problem, count, seed):
    """Zero-slope starts with randomized intercepts around the stratum means
    of ``problem``'s outcomes (count-weighted: those of its resample)."""
    if count == 0:
        return []
    rng = default_rng(SeedSequence(entropy=seed, spawn_key=(17,)))
    means = {}
    for s in (0, 1):
        for z in (0, 1):
            mask = (problem.s == s) & (problem.z == z)
            weights = problem.counts[mask]
            mean = np.sum(weights * problem.y[mask]) / np.sum(weights)
            means[(s, z)] = float(np.clip(mean, 0.05, 0.95))
    starts = []
    for _ in range(count):
        stack = np.zeros(problem.dim)
        a = rng.uniform(0.02, 0.35)
        b = rng.uniform(0.02, 0.35)
        for k, v in enumerate((means[(0, 0)], means[(0, 1)], a, b)):
            stack[k * problem.j] = logit(v) + rng.normal(0.0, 0.5)
        starts.append(stack)
    return starts


def _minimize_group(problems, group):
    """BFGS restarts in lock-step, one per task ``(k, max_iter, s0)`` of
    ``group``: problem ``k`` of ``problems`` from the packed start ``s0``.
    The tasks share ``max_iter`` and their problems stack (`_groups`); one
    task runs alone, on its problem's `SieveProblem.value_grad`."""
    if len(group) == 1:
        ((k, max_iter, s0),) = group
        return [bfgs_minimize(problems[k].value_grad, s0, tol=GRAD_TOL, max_iter=max_iter)]
    objective = _GroupObjective([problems[k] for k, _, _ in group])
    return _bfgs_lockstep(objective, np.stack([s0 for _, _, s0 in group]), tol=GRAD_TOL,
                          max_iter=group[0][1])


class _GroupObjective:
    """The objective of a lock-step group for `optimize._bfgs_lockstep`: its
    live starts on one `_Stack` of their problems.  Finished starts stay in
    the stack, evaluated at their last point, until the live ones fall to
    3/4 of it; restacking every time a start finishes would cost O(k^2)."""

    def __init__(self, problems):
        self.problems = problems
        self._restack(np.arange(len(problems)))

    def _restack(self, ids):
        self.ids = ids
        self.stack = _Stack([self.problems[i] for i in ids])
        self.points = None

    def __call__(self, ids, x):
        if 4 * len(ids) <= 3 * len(self.ids):
            self._restack(ids)
        if len(ids) == len(self.ids):
            self.points = x
            return self.stack.value_grad(x)
        rows = np.searchsorted(self.ids, ids)
        self.points = self.points.copy()
        self.points[rows] = x
        values, grads = self.stack.value_grad(self.points)
        return values[rows], grads[rows]


def _groups(problems, tasks, chunk):
    """The indices of ``tasks`` in lock-step groups, in task order.  A group's
    tasks share ``max_iter`` and their problems stack: equal (n, J), floor,
    margin, relevance penalty, ridge and resample size.  A group holds at
    most `GROUP_ROWS` stacked rows (at least one task) and at most ``chunk``
    tasks."""
    groups, filling = [], {}
    for i, (k, max_iter, _) in enumerate(tasks):
        p = problems[k]
        key = (p.n, p.j, p.c, p.margin, p.lam, p.ridge, p.size, max_iter)
        group = filling.get(key)
        if group is None or len(group) >= min(chunk, max(1, GROUP_ROWS // p.n)):
            group = filling[key] = []
            groups.append(group)
        group.append(i)
    return groups


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_objective(a: SieveProblem, b: SieveProblem):
    """Whether ``a.value_grad`` and ``b.value_grad`` read bitwise-equal inputs
    (the stratum table, which tells sensitivity levels apart, before the
    larger design)."""
    return all(_same_bits(getattr(a, name), getattr(b, name))
               for name in ("c", "margin", "lam", "ridge", "size", "counts", "y", "idx_t",
                            "idx_m", "table", "phi"))


# the defaults of a `fit_many` request's optional options, sensitivity and counts
_DEFAULTS = (None, SensitivityParams(), None)


def _setups(requests):
    """Per `fit_many` request, in order, the preconditioned problem of its
    fit, its packed starts and their kinds, or the PositivityError of a
    request with an empty stratum.

    Requests on one dataset and basis share its design: `basis.expand_matrix`
    works row by row, so a resample gathers its rows of the design.  A
    resample's problem is count-weighted on its distinct rows (`SieveProblem`'s
    ``counts``); no resample is materialised.  The requests on one dataset
    and basis share one `_plugin_starts` call, whose mu fits check each
    request's strata, once.
    """
    parents, problems, counts = {}, [], []
    for i, request in enumerate(requests):
        if len(request) > 3 and not isinstance(request[3], SensitivityParams):
            raise TypeError(f"request {i}: {request[3]!r} is not a SensitivityParams")
        data, config, options, sensitivity, c = (*request, *_DEFAULTS[len(request) - 2:])
        key = (id(data), config)
        if key not in parents:
            parents[key] = data, expand_matrix(data.x, config), []
        parents[key][2].append(i)
        problems.append(SieveProblem(data, config, options or FitOptions(),
                                     sensitivity=sensitivity, precondition=True,
                                     phi=parents[key][1], counts=c))
        counts.append(c)

    plugin = {}
    for data, phi, members in parents.values():
        plugin.update(zip(members, _plugin_starts(data, phi, [counts[i] for i in members],
                                                  [problems[i] for i in members])))

    setups = []
    for i, problem in enumerate(problems):
        if isinstance(plugin[i], PositivityError):
            setups.append(plugin[i])
            continue
        options = problem.options
        starts = []
        if options.init_coefficients is not None:
            init = np.asarray(options.init_coefficients, dtype=np.float64)
            if init.size != problem.dim:
                raise ValueError("init_coefficients length mismatch")
            starts.append(problem.from_original(init))
        kinds = ["warm"] * len(starts)
        # any other plug-in start that fails (FairdesertError, LinAlgError) is left out
        if isinstance(plugin[i], np.ndarray):
            starts.append(plugin[i])
            kinds.append("plugin")
        n_random = max(options.restarts - len(starts), 0)
        starts.extend(problem.from_original(s0)
                      for s0 in _random_starts(problem, n_random, options.seed))
        kinds.extend(["random"] * n_random)
        setups.append((problem, starts, kinds))
    return setups


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

    _, vals, _ = problem._blocks(best.x)
    short = np.abs(vals[:, 1] - vals[:, 0]) < problem.margin
    viol_frac = float(np.sum(problem.counts[short]) / problem.size)
    if viol_frac > 0.10:
        # _finish <- _fit_many <- fit or fit_many <- their caller
        warnings.warn(
            f"relevance constraint |tau1 - tau0| >= {problem.margin:g} fails on "
            f"{viol_frac:.1%} of the sample: the auxiliary variable may be irrelevant",
            RelevanceWarning,
            stacklevel=4,
        )
    criterion = problem._criterion(vals)
    diagnostics = FitDiagnostics(
        criterion=criterion,
        penalty=float(best.fun + criterion),
        grad_norm=best.grad_norm,
        iterations=best.iterations,
        restarts_used=len(kinds),
        converged=best.converged,
        relevance_violation_frac=viol_frac,
        n=problem.size,
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
        sensitivity=problem.sensitivity, diagnostics=diagnostics,
    )


def _fit_many(requests, jobs):
    """`fit_many`; `fit` calls this rather than `fit_many`, so that a tracer
    that wraps the public functions (``perfbench/tracing.py``) still sees a
    fit's restarts directly under its ``fit`` span."""
    setups = []
    problems, tasks, slot_of = [], [], {}
    # the problems by their counts' bytes, which a shared objective shares:
    # the resamples of a bootstrap chunk then compare with no other problem
    by_counts = {}
    fits = 0
    for setup in _setups(requests):
        if isinstance(setup, FairdesertError):
            setups.append(setup)
            continue
        problem, starts, kinds = setup
        same = by_counts.setdefault(problem.counts.tobytes(), [])
        k = next((i for i in same if _same_objective(problems[i], problem)), None)
        if k is None:
            k = len(problems)
            problems.append(problem)
            same.append(k)
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

    groups = _groups(problems, tasks, chunk_size(len(tasks), jobs))
    results = [None] * len(tasks)
    done = map_jobs(_minimize_group, [[tasks[i] for i in group] for group in groups], jobs,
                    shared=(tuple(problems),))
    for group, group_results in zip(groups, done):
        for i, result in zip(group, group_results, strict=True):
            results[i] = result
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

    Each request is a tuple ``(data, config, options, sensitivity, counts)``:
    `fit`'s arguments, and a resample's count of each row of ``data``
    (``np.bincount(rows, minlength=data.n)``) or None for ``data`` itself.
    Trailing items may be left out; a fourth item that is not a
    `SensitivityParams` raises TypeError, and counts that are not one
    non-negative integer per row summing to n (an index array, say) raise
    ValueError.  A resample is fitted count-weighted on its distinct rows,
    never materialised (`_setups`), so its fit matches the materialised
    resample's to rounding, not to the bit; no outcome depends on the other
    requests, and a request without counts, or with counts all one, gets
    `fit`'s bits: every fit runs the one count-weighted path.  All restarts
    run in one `parallel.map_jobs` call on ``jobs`` processes, in lock-step
    groups (`_groups`, each one `optimize._bfgs_lockstep` on a `_Stack` of
    its problems), and every restart ends bitwise as it does alone, so the
    outcomes do not depend on the grouping.  A restart runs once when an
    earlier request minimizes the same objective (`_same_objective`) from a
    bitwise-equal start with the same ``max_iter``; the later request reuses
    its result, so a zero-level sensitivity point repeats no work of the
    baseline.  Returns ``(outcomes, fits)``: per request, in order, the
    `NuisanceEstimates` that `fit` returns for it or the `FairdesertError` it
    raises; and ``fits``, the number of requests that ran a restart of their
    own.  Other exceptions propagate.
    """
    return _fit_many(requests, jobs)


def fit(data: Dataset, config: BasisConfig, options: FitOptions | None = None, *,
        sensitivity=SensitivityParams(), jobs=1) -> NuisanceEstimates:
    """Sieve maximum likelihood fit; best of multi-start quasi-Newton runs.

    The restarts run on ``jobs`` processes (`parallel.map_jobs`) and come back
    in start order, so the fit does not depend on ``jobs``.  Deterministic
    given (data, config, options.seed).  Raises FitError when no restart
    reaches an acceptable gradient norm; attaches a warning when the
    relevance constraint fails on more than 10% of the sample
    (`RelevanceWarning`).  ``sensitivity`` names the variant and its levels.
    The one-request case of `fit_many`.
    """
    (outcome,), _ = _fit_many([(data, config, options, sensitivity)], jobs)
    if isinstance(outcome, FairdesertError):
        raise outcome
    return outcome


def predict_tau(est: NuisanceEstimates, z, x):
    """tau_hat(z, x) = (1 - z) tau0_hat(x) + z tau1_hat(x) at scaled covariates:
    a float for one point x (1-d), an (n,) array for an (n, d) matrix.

    Rows are done in blocks of `basis.MONOMIAL_BLOCK_ROWS`, each expanding its
    own basis, so the memory used beyond the output stays small; every row
    gets the bits it gets from one expansion of the whole matrix."""
    point = np.ndim(x) < 2
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    z = np.broadcast_to(np.asarray(z), (n,))
    out = np.empty(n)
    for start in range(0, n, MONOMIAL_BLOCK_ROWS):
        rows = slice(start, start + MONOMIAL_BLOCK_ROWS)
        phi = expand_matrix(x[rows], est.config)
        out[rows] = np.where(z[rows] == 1, est.tau1.eval_features(phi),
                             est.tau0.eval_features(phi))
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
