"""The dyadic Gauss-Legendre panel rule that `kernel.log_kernel` used before
its double-exponential rule, kept as a test oracle with its own grid.

The integral is taken on omega = t/(1+t), split at 1/2 into two sides, each
covered by dyadic panels [2^-(d+1), 2^-d] with the 64-point Gauss-Legendre
rule.  Each row evaluates gammaln(x + xi_nu) and, once t + xi0 > 1e6 where
two log-gammas would cancel, betaln for every (column, panel, node).  For
each exponent in turn a row grows its tail depth per side until the
geometric remainder estimate is below 1e-13 of the integral, within 2^14
nodes, and sums its panels by log-sum-exp.  Each panel's 64-point sum is
compared with an interpolatory 32-point rule on every other node; the
squared relative gap is the error estimate.  The finiteness test is the
analytic one, from the two factors kept in `condition_oracle`.  It shares
no quadrature code with the library: `panel_log_kernel` takes the
arguments of `log_kernel`.
"""

from __future__ import annotations

import math

import numpy as np
from condition_oracle import small_t_finite, tail_finite
from scipy.special import betaln, gammaln

from nmshrink.kernel import QuadratureError

GL_NODE_COUNT = 64
MAX_TOTAL_NODES = 2**14
# Panels per side that fit in the node budget.
_MAX_DEPTH = MAX_TOTAL_NODES // (2 * GL_NODE_COUNT)
_INITIAL_DEPTH = 6
# Tail growth stops once the estimated remainder is below this fraction.
REMAINDER_TOL = 1e-13
# Largest accepted relative error estimate of one kernel.
ERROR_TOL = 1e-10
# Above this argument a difference of log-gammas loses digits to
# cancellation, while betaln switches to an asymptotic expansion.
_FAR_ARGUMENT = 1e6

_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_NODE_COUNT)


def _embedded_weights() -> np.ndarray:
    """Interpolatory weights on every other Gauss-Legendre node, exact to
    degree 31 (all positive)."""
    nodes = _GL_X[1::2]
    moments = np.zeros(nodes.size)
    moments[0] = 2.0
    vander = np.polynomial.legendre.legvander(nodes, nodes.size - 1)
    return np.linalg.solve(vander.T, moments)


_LOW_W = _embedded_weights()


def _panel_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """t, log t and log(dt/du * half-width) at the nodes of every panel.

    Panel p = 2 (d - 1) + side covers u in [2^-(d+1), 2^-d]; side 0 maps
    u to t = u/(1-u) and side 1 to t = (1-u)/u, and dt/du = (1+t)^2 on both.
    """
    depth = np.arange(1, _MAX_DEPTH + 1, dtype=float)
    half = 0.25 * 2.0**-depth
    u = 3.0 * half[:, None] + half[:, None] * _GL_X[None, :]
    t = np.stack([u / (1.0 - u), (1.0 - u) / u], axis=1).reshape(-1, GL_NODE_COUNT)
    log_jac = 2.0 * np.log1p(t) + np.repeat(np.log(half), 2)[:, None]
    return t, np.log(t), log_jac


_T, _LOG_T, _LOG_JAC = _panel_grid()


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


def panel_log_kernel(alpha, beta, g, xi0, xi):
    """log K by the panel rule, with the shapes of `log_kernel`: xi (..., N)
    and alpha a scalar or a 1-d sequence give xi.shape[:-1] + shape(alpha)."""
    alphas = np.asarray(alpha, dtype=float)
    xi = np.asarray(xi, dtype=float)
    rows = xi.reshape(-1, xi.shape[-1])
    out = _log_kernel_rows(alphas.ravel(), float(beta), g, float(xi0), rows)
    out = out.reshape(xi.shape[:-1] + alphas.shape)
    return float(out) if out.ndim == 0 else out
