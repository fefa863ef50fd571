"""The row loop of `kernel.log_kernel` as nmshrink wrote it before the
Gamma ratios became one table per kernel call and before the bookkeeping of
a depth step covered all exponents at once; kept as a test oracle.

The quadrature functions are copied unchanged.  `_shared_log_integrand`
evaluates gammaln(x + xi_nu) and, in the far branch, betaln for every (row,
column, panel, node), and `_log_kernel_rows` hands it the rows themselves.
For each exponent in turn the row loop then takes its panel terms
(`_panel_terms`), its tail depths (`_tail_depths`) and, after the last
depth step, its log-sum-exp with the non-finite and error-estimate checks.  The finiteness
test is the analytic one, from the two factors kept in `condition_oracle`.
`per_column_integrand()` runs the library's `log_kernel` (argument checks
and row blocks) with this loop in place of its own, so the two share only
the panel grid, its weights and the tolerances.
"""

from __future__ import annotations

import contextlib
import math
from unittest import mock

import numpy as np
from condition_oracle import small_t_finite, tail_finite
from scipy.special import betaln, gammaln

from nmshrink import kernel
from nmshrink.kernel import (
    _FAR_ARGUMENT,
    _GL_W,
    _INITIAL_DEPTH,
    _LOG_JAC,
    _LOG_T,
    _LOW_W,
    _MAX_DEPTH,
    _T,
    ERROR_TOL,
    MAX_TOTAL_NODES,
    REMAINDER_TOL,
    QuadratureError,
)


def kernel_is_finite(alpha, beta, g, xi0, xi):
    """Analytic finiteness of K(alpha, beta, g, xi0, xi), broadcast over a
    stack of xi (..., N) and an array of alpha."""
    xi = np.asarray(xi, dtype=float)
    n_positive = np.count_nonzero(xi > 0, axis=-1)
    small = small_t_finite(alpha, g, n_positive if xi0 == 0 else 0)
    return (xi0 >= 0) & small & tail_finite(alpha, beta, g, xi.sum(axis=-1))


def _shared_log_integrand(beta, g, xi0, xi, panels) -> np.ndarray:
    """Log-integrand without its t^(alpha-1) factor, plus the log Jacobian
    and half-width, for rows xi (R, N) on a slice of panels: (R, P, 64)."""
    t = _T[panels]
    x = t + xi0
    gx = gammaln(x)
    far = x > _FAR_ARGUMENT
    x_far = x[far] if far.any() else None
    out = np.empty((xi.shape[0],) + t.shape)
    out[...] = _LOG_JAC[panels] - beta * t + g.log_g(t)
    for xi_nu in xi.T:
        ratio = gx - gammaln(x + xi_nu[:, None, None])
        if x_far is not None:
            b = xi_nu[:, None]
            with np.errstate(invalid="ignore"):
                ratio[:, far] = np.where(b > 0, betaln(x_far, b) - gammaln(b), 0.0)
        out += ratio
    return out


def _panel_terms(shared: np.ndarray, alpha: float, panels):
    """Log contribution of each panel and the gap between its 64-node and
    32-node sums, relative to the 64-node sum."""
    lf = shared + (alpha - 1.0) * _LOG_T[panels]
    peak = lf.max(axis=-1)
    f = np.exp(lf - peak[..., None])
    full = (f * _GL_W).sum(axis=-1)
    low = (f[..., 1::2] * _LOW_W).sum(axis=-1)
    return peak + np.log(full), np.abs(full - low) / full


def _tail_depths(c: np.ndarray, reach: int) -> np.ndarray:
    """First depth >= 6 of each side at which the tail may stop, or 0 where
    none up to `reach` qualifies; c holds the rows' panel contributions."""
    n_rows = c.shape[0]
    by_side = c[:, : 2 * reach].reshape(n_rows, reach, 2)
    first = by_side[:, :_INITIAL_DEPTH].reshape(n_rows, -1)
    top = first.max(axis=1)
    initial = top + np.log(np.exp(first - top[:, None]).sum(axis=1))
    # step[:, j] compares depth j + 2 with depth j + 1
    step = by_side[:, 1:] - by_side[:, :-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        remainder = by_side[:, 1:] + step - np.log(-np.expm1(step))
    ok = (step < 0) & (remainder <= initial[:, None, None] + math.log(REMAINDER_TOL))
    ok[:, : _INITIAL_DEPTH - 2] = False
    return np.where(ok.any(axis=1), ok.argmax(axis=1) + 2, 0)


def _log_kernel_rows(alphas, beta, g, xi0, xi) -> np.ndarray:
    """log K for rows xi (R, N) and exponents alphas (K,): shape (R, K)."""
    n_rows, n_panels = xi.shape[0], 2 * _MAX_DEPTH
    finite = kernel_is_finite(alphas[None, :], beta, g, xi0, xi[:, None, :])
    finite = np.broadcast_to(finite, (n_rows, alphas.size))
    c = np.full((alphas.size, n_rows, n_panels), -np.inf)
    err = np.zeros_like(c)
    depth = np.zeros((alphas.size, n_rows, 2), dtype=int)
    todo = np.flatnonzero(finite.any(axis=1))
    done = 0
    while todo.size:
        reach = min(_MAX_DEPTH, max(_INITIAL_DEPTH, 2 * done))
        panels = slice(2 * done, 2 * reach)
        shared = _shared_log_integrand(beta, g, xi0, xi[todo], panels)
        for k, alpha in enumerate(alphas):
            c[k, todo, panels], err[k, todo, panels] = _panel_terms(shared, alpha, panels)
            found = _tail_depths(c[k, todo], reach)
            depth[k, todo] = np.where(depth[k, todo] > 0, depth[k, todo], found)
        settled = ((depth[:, todo] > 0).all(axis=2) | ~finite[todo].T).all(axis=0)
        done = reach
        if done == _MAX_DEPTH and not settled.all():
            raise QuadratureError(
                f"node budget {MAX_TOTAL_NODES} exceeded; integral is too close "
                "to divergence for the panel grid"
            )
        todo = todo[~settled]

    out = np.full((n_rows, alphas.size), math.inf)
    panel_depth = np.arange(n_panels) // 2 + 1
    side = np.arange(n_panels) % 2
    for k in range(alphas.size):
        rows = np.flatnonzero(finite[:, k])
        used = panel_depth[None, :] <= depth[k, rows][:, side]
        ck = np.where(used, c[k, rows], -np.inf)
        top = ck.max(axis=1)
        weight = np.exp(ck - top[:, None])
        # Every row sums all 2 * _MAX_DEPTH panel slots, unused ones as
        # zeros, so its sum does not depend on the depths of other rows.
        mass = weight.sum(axis=1)
        value = top + np.log(mass)
        if not np.all(np.isfinite(value)):
            raise QuadratureError("kernel quadrature produced a non-finite value")
        gap = (np.where(used, err[k, rows], 0.0) * weight).sum(axis=1) / mass
        if np.any(gap**2 > ERROR_TOL):
            raise QuadratureError(
                f"estimated relative error {np.max(gap) ** 2:.1e} exceeds "
                f"{ERROR_TOL:g}; the integrand is too sharply peaked for the panels"
            )
        out[rows, k] = value
    return out


@contextlib.contextmanager
def per_column_integrand():
    """Within the block, every kernel of nmshrink.kernel is evaluated by the
    per-exponent row loop and per-column integrand above."""
    with mock.patch.object(kernel, "_log_kernel_rows", _log_kernel_rows):
        yield
