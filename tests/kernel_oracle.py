"""The row loop and log-integrand of `kernel.log_kernel` as nmshrink wrote
them before the Gamma ratios became one table per kernel call; kept as a
test oracle.

Both functions are copied unchanged: `_shared_log_integrand` evaluates
gammaln(x + xi_nu) and, in the far branch, betaln for every (row, column,
panel, node), and `_log_kernel_rows` hands it the rows themselves.
`per_column_integrand()` runs the library's evaluator with this loop in
place of its own, so the two share only the panel sums and tail tests.
"""

from __future__ import annotations

import contextlib
import math
from unittest import mock

import numpy as np
from scipy.special import betaln, gammaln

from nmshrink import kernel
from nmshrink.kernel import (
    _FAR_ARGUMENT,
    _INITIAL_DEPTH,
    _LOG_JAC,
    _MAX_DEPTH,
    _T,
    ERROR_TOL,
    MAX_TOTAL_NODES,
    QuadratureError,
    _panel_terms,
    _tail_depths,
    kernel_is_finite,
)


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
    row loop and per-column integrand above."""
    with mock.patch.object(kernel, "_log_kernel_rows", _log_kernel_rows):
        yield
