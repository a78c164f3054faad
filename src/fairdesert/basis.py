"""Polynomial sieve bases and logistic series functions.

Every nuisance function in the package is represented as expit{gamma' phi(x)}
for a feature vector phi built here.  Polynomial features are monomials kept
under three rules: at most ``interaction_order`` distinct covariates multiply
together, each covariate enters with power at most ``degree``, and a k-way
cross term carries total degree at most max(degree, k).  With the defaults
(degree 3, pairwise interactions) this is the total-degree-3 monomial set.
Ordering is graded lexicographic so serialized coefficient vectors are stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import FairdesertError

# rows per block of `monomials_matrix`, of `sievemle.predict_tau` and of the
# Monte Carlo test-draw scoring: a block's powers and columns stay in cache,
# and no (n, J) design is built for a whole large array.  A multiple of 8, so
# that a BLAS matrix-vector product gives each row of a block the bits it gets
# in the whole array (OpenBLAS computes the rows past its kernel's unroll on
# another path, so other block sizes can differ in the last bit)
MONOMIAL_BLOCK_ROWS = 4096


def expit(u, out=None):
    """Logistic function 1 / (1 + exp(-u)); a float for scalar input.

    Built in place in one new array, or in ``out`` (a float64 array of u's
    shape) when it is given.  Below u = -709.78 exp(-u) overflows to inf and
    the result is 0 (the exact value is below 5.6e-309), so the overflow is
    not reported.
    """
    u = np.asarray(u, dtype=np.float64)
    out = np.negative(u, out=np.empty(u.shape) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return float(out) if out.ndim == 0 else out


def logit(p):
    p = np.asarray(p, dtype=np.float64)
    out = np.log(p) - np.log1p(-p)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class BasisConfig:
    """Polynomial sieve settings.

    ``interaction_order`` of None resolves to pairwise interactions for up to
    four covariates and to no interactions for wider problems, keeping the
    basis dimension well below n.  The constant basis function is always
    included.
    """

    degree: int = 3
    interaction_order: int | None = None

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.interaction_order is not None and self.interaction_order < 0:
            raise ValueError("interaction_order must be non-negative")

    def resolved_interaction_order(self, d):
        if self.interaction_order is None:
            return min(2, d) if d <= 4 else 1
        return min(self.interaction_order, d)

    def to_json_dict(self):
        return {"degree": self.degree, "interaction_order": self.interaction_order}

    @classmethod
    def from_json_dict(cls, doc):
        """Also reads documents that name ``"family": "polynomial"`` (with a
        ``knots`` entry, which the polynomial family never used); any other
        family raises FairdesertError."""
        family = doc.get("family", "polynomial")
        if family != "polynomial":
            raise FairdesertError(
                f"model document: basis family {family!r} is not supported; "
                "only the polynomial family is"
            )
        return cls(degree=int(doc.get("degree", 3)),
                   interaction_order=doc.get("interaction_order"))


def monomial_exponents(d, degree, interaction_order, per_dim_degree=None):
    """Ordered exponent vectors of the retained monomials.

    ``per_dim_degree`` optionally caps individual coordinates below ``degree``
    (used to avoid duplicated columns when binary covariates enter a design).
    Ordering is graded lexicographic: by total degree, then x1-major.
    """
    caps = [degree] * d if per_dim_degree is None else [min(degree, c) for c in per_dim_degree]
    exps = [(0,) * d]
    interaction_order = min(interaction_order, d)
    for k in range(1, interaction_order + 1):
        budget = max(degree, k)
        for support in combinations(range(d), k):
            for combo in _compositions(k, budget, [caps[j] for j in support]):
                e = [0] * d
                for j, p in zip(support, combo):
                    e[j] = p
                exps.append(tuple(e))
    exps.sort(key=lambda e: (sum(e), tuple(-p for p in e)))
    return tuple(exps)


def _compositions(k, total_budget, caps):
    """All exponent tuples of length k with entries in [1, cap] summing to <= budget."""
    if k == 0:
        yield ()
        return
    for p in range(1, min(caps[0], total_budget - (k - 1)) + 1):
        for rest in _compositions(k - 1, total_budget - p, caps[1:]):
            yield (p,) + rest


def monomials_matrix(x, exponents):
    """Evaluate monomial features for a (n, d) matrix; returns (n, J), C-ordered.

    Rows are done in blocks of MONOMIAL_BLOCK_ROWS: each block computes every
    (coordinate, power) it needs once, on a contiguous copy of its columns,
    and forms each monomial as the left-to-right product of its factors, as
    per-column evaluation ``x[:, 0] ** e0 * x[:, 1] ** e1 * ...`` does, so the
    result is the same to the bit.  The block keeps the powers in cache and
    the memory used beyond the output small.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    out = np.empty((n, len(exponents)))
    factors = [[(dim, p) for dim, p in enumerate(e) if p] for e in exponents]
    needed = sorted({f for fs in factors for f in fs})
    for start in range(0, n, MONOMIAL_BLOCK_ROWS):
        stop = min(start + MONOMIAL_BLOCK_ROWS, n)
        xt = np.ascontiguousarray(x[start:stop].T)
        # x ** 1 is x exactly, so a first power is the row of the copy itself
        powers = {(dim, p): xt[dim] if p == 1 else xt[dim] ** p for dim, p in needed}
        block = out[start:stop]
        for j, fs in enumerate(factors):
            if not fs:
                block[:, j] = 1.0
                continue
            col = powers[fs[0]]
            for f in fs[1:]:
                col = col * powers[f]
            block[:, j] = col
    return out


def orthonormal_design(phi, counts=None):
    """QR preconditioner of a design matrix, or None when it is near-singular.

    With phi = Q R, returns (Q sqrt(n), R / sqrt(n)): the first has orthogonal
    columns of mean square one and, times the second, gives phi back, so a
    fit on the first with coefficients u is the fit on phi with coefficients
    gamma = (R / sqrt(n))^-1 u.  Polynomial designs are badly conditioned and
    quasi-Newton steps converge slowly in their raw coordinates.  When some
    |R_jj| is at most 1e-10 max |R_jj| the inverse is unreliable, and None
    tells the caller to stay in the raw coordinates.

    ``counts`` (all one by default) weighs row i as ``counts[i]`` repeats of
    it: the QR is of the sqrt(counts)-scaled design, n is the sum of the
    counts, and the first array is phi (R / sqrt(n))^-1, whose columns have
    weighted mean square one.  A row of positive count takes its row of
    Q sqrt(n) / sqrt(count), which is the first array's row to rounding and
    its very bits where the count is one; a row of count 0 takes its row of
    phi (R / sqrt(n))^-1.
    """
    counts = np.ones(phi.shape[0]) if counts is None else counts
    root = np.sqrt(counts)[:, None]
    q, r = np.linalg.qr(phi * root)
    diag = np.abs(np.diag(r))
    if not np.min(diag) > 1e-10 * np.max(diag):
        return None
    scale = math.sqrt(np.sum(counts))
    r = r / scale
    return np.divide(q * scale, root, out=phi @ np.linalg.inv(r), where=root > 0), r


def basis_exponents(config: BasisConfig, d):
    """Exponent vectors of the basis functions of ``config`` on d covariates."""
    return monomial_exponents(d, config.degree, config.resolved_interaction_order(d))


def expand_matrix(x, config: BasisConfig):
    """Feature matrix phi(X) for all rows of x; first column is the constant 1."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return monomials_matrix(x, basis_exponents(config, x.shape[1]))


def basis_dimension(config: BasisConfig, d):
    return len(basis_exponents(config, d))


@dataclass(frozen=True)
class SeriesFunction:
    """A logistic series function lo + (hi - lo) * expit{gamma' phi(x)}.

    With the default range (0, 1) this is the plain logistic series; the sieve
    estimator uses (c, 1 - c) to keep fitted nuisances inside the floor.
    """

    config: BasisConfig
    gamma: np.ndarray
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=np.float64)
        gamma.setflags(write=False)
        object.__setattr__(self, "gamma", gamma)
        if not 0.0 <= self.lo < self.hi <= 1.0:
            raise ValueError("range must satisfy 0 <= lo < hi <= 1")

    def eval_features(self, phi):
        return self.from_unit(expit(phi @ self.gamma))

    def from_unit(self, sig):
        """The function's values where expit of its logit is ``sig``: ``sig``
        kept off 0 and 1, then mapped onto (lo, hi)."""
        sig = np.clip(sig, 1e-15, 1.0 - 1e-15)
        return self.lo + (self.hi - self.lo) * sig

    def eval_matrix(self, x):
        return self.eval_features(expand_matrix(x, self.config))

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            return float(self.eval_matrix(x[None, :])[0])
        return self.eval_matrix(x)


def intercept_only(config: BasisConfig, value, lo=0.0, hi=1.0, d=1):
    """SeriesFunction that is constant at ``value`` (handy for tests/starts)."""
    j = basis_dimension(config, d)
    gamma = np.zeros(j)
    gamma[0] = logit((value - lo) / (hi - lo))
    return SeriesFunction(config, gamma, lo, hi)
