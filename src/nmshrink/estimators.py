"""Point estimators of the probability matrix from negative multinomial counts.

All estimators return a dense m x N float matrix, or a (..., m, N) stack
for a stack of count matrices (each matrix estimated on its own, with the
same bits as alone).  Estimators in the squared-error family put exact zeros
where the corresponding count is zero; posterior-mean estimators (for the
Kullback-Leibler-type loss) are strictly positive everywhere.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .kernel import (
    ConditionError,
    GChoice,
    PriorSpec,
    delta_hb,
    delta_nu,
    require_hb_assumptions,
)
from .model import CountMatrix, GeneralizedDirichlet, require_r

__all__ = [
    "umvu",
    "shrink_general",
    "eb_delta_rule",
    "eb",
    "eb0",
    "hb",
    "dirichlet_posterior_mean",
    "hb_posterior_mean",
]

# A shrinkage rule maps the grand total (or an array of grand totals) to a
# strictly positive amount.
DeltaRule = Callable[[int], float]


def _shrunk(x: CountMatrix, denominators: np.ndarray) -> np.ndarray:
    """Entries x_ij / denominators[..., j], with zero counts mapped to exact zero."""
    return np.divide(x.x, denominators[..., None, :], out=np.zeros(x.x.shape), where=x.x > 0)


def umvu(x: CountMatrix, r: float) -> np.ndarray:
    """Unbiased estimator with entries X_ij / (r + colsum_j - 1).

    A zero count gives a zero entry, so the denominator is only ever used
    where the column sum is at least 1 and stays positive for any r > 0.
    """
    require_r(r)
    return _shrunk(x, r + x.col_sums.astype(float) - 1.0)


def shrink_general(x: CountMatrix, r: float, delta: DeltaRule) -> np.ndarray:
    """Shrinkage family: X_ij / (r + colsum_j - 1 + delta(grand_sum)).

    `delta` must be strictly positive; +inf is allowed and shrinks every
    entry to zero.
    """
    require_r(r)
    d = np.asarray(delta(x.grand_sum), dtype=float)
    if not np.all(d > 0):
        raise ValueError(f"delta must be strictly positive, got {d}")
    return _shrunk(x, r + x.col_sums.astype(float) - 1.0 + d[..., None])


def eb_delta_rule(m: int, n_columns: int, r: float) -> DeltaRule:
    """Empirical Bayes shrinkage amount 1 + m + N m r / z.

    At z = 0 the estimate is the zero matrix no matter which value in
    (1 + m + N m r, inf) is used; the +inf sentinel makes that explicit.
    """
    require_r(r)

    def rule(z: int) -> float:
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.where(z == 0, math.inf, 1.0 + m + n_columns * m * r / z)
        return float(out) if out.ndim == 0 else out

    return rule


def eb(x: CountMatrix, r: float) -> np.ndarray:
    """Empirical Bayes estimator pooling all columns through the grand total."""
    return shrink_general(x, r, eb_delta_rule(x.m, x.n_columns, r))


def eb0(x: CountMatrix, r: float) -> np.ndarray:
    """Columnwise empirical Bayes: each column estimated from itself alone.

    Entry X_ij / (r + colsum_j + m + m r / colsum_j); an all-zero column
    maps to an all-zero column.
    """
    require_r(r)
    z = x.col_sums.astype(float)
    safe_z = np.maximum(z, 1.0)
    denom = np.where(z > 0, r + z + x.m + x.m * r / safe_z, math.inf)
    return _shrunk(x, denom)


def hb(
    x: CountMatrix, r: float, alpha: float, beta: float, g: GChoice
) -> np.ndarray:
    """Hierarchical Bayes estimator under the squared-error loss geometry.

    Every column is shrunk by the same kernel ratio, a symmetric function of
    the column sums; the kernel adds its per-column terms in ascending order
    of the sums, so permuting the columns permutes the output bit for bit.
    One kernel evaluation covers every matrix of a stack; an all-zero matrix
    needs none and maps to the zero matrix.
    """
    z = x.col_sums
    nonzero = x.grand_sum > 0
    # delta_hb checks alpha, beta, r, m and the assumptions before its kernel.
    if z.ndim == 1 and nonzero:
        d = delta_hb(alpha, beta, g, r, x.m, z)  # one matrix: a float
    elif np.any(nonzero):
        d = np.full(z.shape[:-1], math.inf)
        d[nonzero] = delta_hb(alpha, beta, g, r, x.m, z[nonzero])
        d = d[..., None]
    else:
        require_hb_assumptions(alpha, beta, g, r, x.m, x.n_columns)
        d = math.inf
    return _shrunk(x, r + z - 1.0 + d)


def dirichlet_posterior_mean(
    x: CountMatrix, r: float, a0: float, a: np.ndarray
) -> np.ndarray:
    """Posterior mean (X_ij + a_i) / (r + a0 + colsum_j + a_dot).

    Proper exactly when r + a0 > 0; entries are strictly positive.
    """
    require_r(r)
    weights = GeneralizedDirichlet(a0, a)
    if weights.a.shape != (x.m,):
        raise ValueError("a must have length m")
    if not r + weights.a0 > 0:
        raise ConditionError("posterior mean requires r + a0 > 0")
    denom = r + weights.a0 + x.col_sums.astype(float) + weights.a_dot
    return (x.x.astype(float) + weights.a[:, None]) / denom[..., None, :]


def hb_posterior_mean(x: CountMatrix, r: float, prior: PriorSpec) -> np.ndarray:
    """Posterior mean under the hierarchical prior.

    Each column's Dirichlet denominator is enlarged by its own kernel ratio,
    so every entry is strictly smaller than the plain Dirichlet posterior
    mean's.  One kernel evaluation covers every column of every matrix, and
    `delta_nu` refuses a bad r or an improper posterior.
    """
    if prior.m != x.m:
        raise ValueError("prior dimension does not match the count matrix")
    z = x.col_sums
    deltas = delta_nu(
        prior.alpha,
        prior.beta,
        prior.g,
        r,
        prior.a0,
        prior.a_dot,
        z[..., None, :],
        np.arange(x.n_columns),
    )
    denom = r + prior.a0 + z + prior.a_dot + deltas
    return (x.x + prior.a[:, None]) / denom[..., None, :]
