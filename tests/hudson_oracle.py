"""The exact enumeration of `risklab.hudson_check` as nmshrink wrote it
before the check became a sum over one column's two-count law; kept as a
test oracle.

It builds the joint law of both columns of an m <= 2, N <= 2 model by
enumerating each column's count vectors up to a shared cap (with its own
copy of the pmf formula) and sums both sides of the identity over it.  The
helpers are copied unchanged alongside the branch, so the oracle does not
lean on the library's versions.  `enumerate_sides` is the branch lifted
into a function returning (lhs, rhs).

`column_cap` is the one-column cap of `risklab._column_cap` as it was
while `_nbinom_sf` was the exact tail `betainc`, copied unchanged.
"""

from __future__ import annotations

import numpy as np
from scipy.special import betainc, gammaln

from nmshrink.model import ModelParams, ProbColumn


def _column_support(m: int, cap: int) -> np.ndarray:
    """All count vectors of length m with sum <= cap."""
    if m == 1:
        return np.arange(cap + 1, dtype=np.int64)[:, None]
    if m == 2:
        rows = [
            (x1, x2)
            for x1 in range(cap + 1)
            for x2 in range(cap + 1 - x1)
        ]
        return np.array(rows, dtype=np.int64)
    raise ValueError("enumeration supports m <= 2 only")


def _column_log_pmf(support: np.ndarray, r: float, col: ProbColumn) -> np.ndarray:
    totals = support.sum(axis=1)
    return (
        gammaln(r + totals)
        - gammaln(r)
        - gammaln(support + 1.0).sum(axis=1)
        + r * np.log(col.p0)
        + support @ np.log(col.p)
    )


def _h_values(h_kind: str, xi: np.ndarray, colsum: np.ndarray, r: float):
    """h(X) and h(X + e_{i,nu}) as functions of (X_{i,nu}, colsum_nu)."""
    if h_kind == "indicator":
        return (xi >= 1).astype(float), np.ones_like(xi, dtype=float)
    if h_kind == "linear-in-one-count":
        with np.errstate(invalid="ignore", divide="ignore"):
            h = np.where(xi >= 1, xi / (r + colsum - 1.0), 0.0)
        h_shift = (xi + 1.0) / (r + colsum)
        return h, h_shift
    if h_kind == "zero":
        return np.zeros_like(xi, dtype=float), np.zeros_like(xi, dtype=float)
    raise ValueError(f"unknown h_kind {h_kind!r}")


def _nbinom_sf(k: int, r: float, p0: float) -> float:
    """P(X > k) for X negative binomial with size r and success probability p0."""
    return float(betainc(k + 1.0, r, 1.0 - p0))


def column_cap(r: float, p0: float, p_inu: float, tol: float) -> int:
    """Column-sum cap whose truncation error on either side is below tol/10."""
    cap = 16
    h_bound = max(1.0, 1.0 / r)
    mean = r * (1.0 - p0) / p0
    while cap <= 2**22:
        sf = _nbinom_sf(cap, r, p0)
        tail_mean = mean * _nbinom_sf(cap - 1, r + 1.0, p0)
        # lhs tail: |h| <= h_bound and the 1/p factor; rhs tail: (r + colsum)
        # grows linearly in the column sum.
        if h_bound / p_inu * sf + h_bound * (r * sf + tail_mean) < tol / 10.0:
            return cap
        cap *= 2
    raise RuntimeError("truncation bound unattainable at this tolerance")


def _enumeration_caps(truth: ModelParams, i: int, nu: int, tol: float) -> list[int]:
    """Per-column support caps with total truncation error below tol/10."""
    r = truth.r
    cap = 16
    p_inu = float(truth.columns[nu].p[i])
    h_bound = max(1.0, 1.0 / r)
    while cap <= 2**22:
        bound = 0.0
        for k, col in enumerate(truth.columns):
            p0 = col.p0
            sf = _nbinom_sf(cap, r, p0)
            mean = r * (1.0 - p0) / p0
            tail_mean = mean * _nbinom_sf(cap - 1, r + 1.0, p0)
            # lhs tail: |h| <= h_bound and the 1/p factor
            bound += h_bound / p_inu * sf
            # rhs tail: (r + colsum_nu) grows linearly in the exceeded column
            if k == nu:
                bound += h_bound * (r * sf + tail_mean)
            else:
                bound += h_bound * (r + mean) * sf
        if bound < tol / 10.0:
            return [cap] * truth.n_columns
        cap *= 2
    raise RuntimeError("truncation bound unattainable at this tolerance")


def enumerate_sides(
    h_kind: str, r: float, p: ModelParams, i: int, nu: int, tol: float = 1e-8
) -> tuple[float, float]:
    """Both sides of the identity by joint enumeration (m <= 2, N <= 2)."""
    truth = ModelParams(r, p.columns)
    m, n_cols = truth.m, truth.n_columns
    if not (0 <= i < m and 0 <= nu < n_cols):
        raise ValueError("index out of range")
    p_inu = float(truth.columns[nu].p[i])

    if m <= 2 and n_cols <= 2:
        caps = _enumeration_caps(truth, i, nu, tol)
        supports = [_column_support(m, caps[k]) for k in range(n_cols)]
        log_pmfs = [
            _column_log_pmf(supports[k], r, truth.columns[k]) for k in range(n_cols)
        ]
        if n_cols == 1:
            joint = np.exp(log_pmfs[0])
            xi = supports[0][:, i].astype(float)
            colsum = supports[0].sum(axis=1).astype(float)
        else:
            joint = np.exp(log_pmfs[0][:, None] + log_pmfs[1][None, :])
            xi_col = supports[nu][:, i].astype(float)
            cs_col = supports[nu].sum(axis=1).astype(float)
            if nu == 0:
                xi, colsum = xi_col[:, None], cs_col[:, None]
            else:
                xi, colsum = xi_col[None, :], cs_col[None, :]
        h, h_shift = _h_values(h_kind, xi, colsum, r)
        lhs = float((joint * h / p_inu).sum())
        rhs = float((joint * (r + colsum) / (xi + 1.0) * h_shift).sum())
        return lhs, rhs
    raise ValueError("enumeration supports m <= 2 and N <= 2 only")
