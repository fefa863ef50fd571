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
from .model import CountMatrix

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
    counts = x.x.astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(counts > 0, counts / denominators[..., None, :], 0.0)
    return out


def umvu(x: CountMatrix, r: float) -> np.ndarray:
    """Unbiased estimator with entries X_ij / (r + colsum_j - 1).

    A zero count gives a zero entry, so the denominator is only ever used
    where the column sum is at least 1 and stays positive for any r > 0.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    return _shrunk(x, r + x.col_sums.astype(float) - 1.0)


def shrink_general(x: CountMatrix, r: float, delta: DeltaRule) -> np.ndarray:
    """Shrinkage family: X_ij / (r + colsum_j - 1 + delta(grand_sum)).

    `delta` must be strictly positive; +inf is allowed and shrinks every
    entry to zero.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    d = np.asarray(delta(x.grand_sum), dtype=float)
    if not np.all(d > 0):
        raise ValueError(f"delta must be strictly positive, got {d}")
    return _shrunk(x, r + x.col_sums.astype(float) - 1.0 + d[..., None])


def eb_delta_rule(m: int, n_columns: int, r: float) -> DeltaRule:
    """Empirical Bayes shrinkage amount 1 + m + N m r / z.

    At z = 0 the estimate is the zero matrix no matter which value in
    (1 + m + N m r, inf) is used; the +inf sentinel makes that explicit.
    """

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
    if not r > 0:
        raise ValueError("r must be positive")
    z = x.col_sums.astype(float)
    safe_z = np.maximum(z, 1.0)
    denom = np.where(z > 0, r + z + x.m + x.m * r / safe_z, math.inf)
    return _shrunk(x, denom)


def hb(
    x: CountMatrix, r: float, alpha: float, beta: float, g: GChoice
) -> np.ndarray:
    """Hierarchical Bayes estimator under the squared-error loss geometry.

    Every column is shrunk by the same kernel ratio evaluated at the vector
    of column sums, so the output is equivariant under column permutations.
    One kernel evaluation covers every matrix of a stack; an all-zero matrix
    needs none and maps to the zero matrix.
    """
    require_hb_assumptions(alpha, beta, g, r, x.m, x.n_columns)
    z = x.col_sums
    d = np.full(z.shape[:-1], math.inf)
    nonzero = np.asarray(x.grand_sum) > 0
    if nonzero.any():
        d[nonzero] = delta_hb(alpha, beta, g, r, x.m, z[nonzero])
    return _shrunk(x, r + z.astype(float) - 1.0 + d[..., None])


def dirichlet_posterior_mean(
    x: CountMatrix, r: float, a0: float, a: np.ndarray
) -> np.ndarray:
    """Posterior mean (X_ij + a_i) / (r + a0 + colsum_j + a_dot).

    Proper exactly when r + a0 > 0; entries are strictly positive.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    a = np.asarray(a, dtype=float)
    if a.shape != (x.m,):
        raise ValueError("a must have length m")
    if not np.all(a > 0):
        raise ValueError("all a_i must be positive")
    if not r + a0 > 0:
        raise ConditionError("posterior mean requires r + a0 > 0")
    denom = r + a0 + x.col_sums.astype(float) + a.sum()
    return (x.x.astype(float) + a[:, None]) / denom[..., None, :]


def hb_posterior_mean(x: CountMatrix, r: float, prior: PriorSpec) -> np.ndarray:
    """Posterior mean under the hierarchical prior.

    Each column's Dirichlet denominator is enlarged by its own kernel ratio,
    so every entry is strictly smaller than the plain Dirichlet posterior
    mean's.  One kernel evaluation covers every column of every matrix, and
    `delta_nu` refuses an improper posterior.
    """
    if not r > 0:
        raise ValueError("r must be positive")
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
    denom = r + prior.a0 + z.astype(float) + prior.a_dot + deltas
    return (x.x.astype(float) + prior.a[:, None]) / denom[..., None, :]
