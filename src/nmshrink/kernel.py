"""Stable evaluation of the gamma-mixing kernel integral and its ratios.

The kernel is

    K(alpha, beta, g, xi0, xi)
        = int_0^inf t^(alpha-1) e^(-beta t) g(t)
              prod_nu Gamma(t + xi0) / Gamma(t + xi0 + xi_nu) dt

for alpha > 0 and beta >= 0, both finite (`require_alpha_beta`, checked first
wherever they are taken), xi0 >= 0 and a nonnegative vector xi, with the
mixing weight g(t) = (t / (1 + kappa t))^(c+1) of `GChoice`, whose c = -1
member g = 1 has a zero log array, taken without log passes.  The ratios
K(alpha+1, ...)/K(alpha, ...) are the estimators' shrinkage amounts, so K must
be evaluated to high relative accuracy where naive Gamma ratios overflow.

Strategy: substitute omega = t/(1+t) and split (0, 1) at 1/2 into two sides,
each mapped to u in (0, 1/2] with its singular end at u = 0.  Every kernel
uses the same grid: dyadic panels [2^-(d+1), 2^-d], d = 1, 2, ..., on both
sides, each with the 64-point Gauss-Legendre rule.  The log-integrand is
built from log-gamma differences (through betaln once t + xi0 > 1e6, where
two log-gammas would cancel), and panels are combined by log-sum-exp.

One call evaluates a stack of xi rows for several exponents alpha: the
integrand for alpha + 1 is the one for alpha times t, so each node is
computed once for all exponents.  The Gamma ratios are computed once for
each distinct xi value of the call and shared by every row that holds that
value; each entry is the same floating-point operation a row alone would
make, so a row's bits do not depend on the rows it shares a table with.
Each (row, alpha) pair starts at depth 6 and grows its own tail depth per
side until the geometric remainder estimate is below 1e-13 of the integral,
within 2^14 nodes.  It then sums only its own panels, in a fixed order, so
its value does not depend on the other rows or exponents of the call.
A depth step takes the panel terms one exponent at a time, so the
temporaries of a pass grow with the row block only, not with the number of
exponents.  The rest of the step works on every (row, alpha) pair at once:
the tail-depth search, the depth update and the test for settled rows, and
after the last step one log-sum-exp with its non-finite and error-estimate
checks.  For the one to three rows of a single estimate these small array
operations cost about as much as the node work, so they run once per step
rather than once per exponent.
Divergence is decided analytically per exponent and reported as +inf; the
quadrature never runs on a divergent integral.  That analytic test,
`kernel_finite`, is also every propriety and validity condition of the
package, each at its smallest admissible xi.

Each panel's 64-point sum is compared with an interpolatory 32-point rule on
every other node of the same panel.  With e the summed differences relative
to the integral, the error estimate is e^2: the 64-point Gauss rule is exact
to four times the degree of the 32-point rule, so on these panels, where the
integrand is analytic, its error is of order e^4, and squaring keeps a
margin.  (Against an independent quadrature of the sharp peaks at
alpha = 1600 to 12800, beta = 1, the measured error stayed below it.)
Rounding in the log-gamma differences, about 1e-16 of their size, is not
part of the estimate.  A kernel whose estimate exceeds 1e-10, that runs out
of nodes, or that evaluates to a non-finite number raises QuadratureError
rather than returning a silently wrong value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GeneralizedDirichlet

__all__ = [
    "GChoice",
    "PriorSpec",
    "QuadratureError",
    "ConditionError",
    "log_kernel",
    "delta_hb",
    "delta_nu",
    "kernel_finite",
    "kernel_is_finite",
    "prior_proper",
    "posterior_proper",
    "hb_assumptions_hold",
    "require_alpha_beta",
    "require_hb_assumptions",
    "quadrature_settings",
]

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
# Rows evaluated together: smaller blocks keep the temporaries in cache,
# larger ones spread the fixed cost of a call over more rows.  hb on the
# nine 1000-replication risk-table stacks took 573 and 671 ms at 64 rows,
# 657 and 758 at 128, 698 and 822 at 32, 891 and 896 at 256 (medians of 5
# interleaved repeats, two sessions, 2-core Xeon).
_ROW_BLOCK = 64

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
# Depth and side of each panel slot.
_PANEL_DEPTH = np.arange(2 * _MAX_DEPTH) // 2 + 1
_PANEL_SIDE = np.arange(2 * _MAX_DEPTH) % 2


class QuadratureError(RuntimeError):
    """A kernel could not be evaluated to the accuracy contract within budget."""


class ConditionError(ValueError):
    """A propriety or dominance precondition does not hold."""


@dataclass(frozen=True)
class GChoice:
    """Mixing weight g(t) = (t / (1 + kappa t))^(c+1) on (0, inf).

    Bounded for c + 1 >= 0 and kappa > 0.  Its c = -1 member is the constant
    g = 1 (``constant_one``, whatever kappa), the only nonincreasing one:
    for c + 1 > 0, g is strictly increasing, so dominance checks requiring
    monotone g reject it.
    """

    c: float
    kappa: float

    def __post_init__(self) -> None:
        if not self.c + 1.0 >= 0:
            raise ValueError("komaki exponent c+1 must be >= 0 (boundedness)")
        if not self.kappa > 0:
            raise ValueError("komaki kappa must be positive")
        if not (math.isfinite(self.c) and math.isfinite(self.kappa)):
            raise ValueError("komaki c and kappa must be finite")

    @classmethod
    def constant_one(cls) -> "GChoice":
        return cls(-1.0, 1.0)

    @classmethod
    def komaki(cls, c: float, kappa: float) -> "GChoice":
        return cls(float(c), float(kappa))

    def log_g(self, t: np.ndarray) -> np.ndarray:
        q = self.small_t_exponent
        if q == 0.0:
            return np.zeros_like(t)
        return q * (np.log(t) - np.log1p(self.kappa * t))

    @property
    def nonincreasing(self) -> bool:
        return self.small_t_exponent == 0.0

    @property
    def small_t_exponent(self) -> float:
        """Power q = c + 1 such that g(t) ~ t^q as t -> 0."""
        return self.c + 1.0


@dataclass(frozen=True)
class PriorSpec:
    """Hierarchical prior parameters (alpha, beta, g, a0, a)."""

    alpha: float
    beta: float
    g: GChoice
    a0: float
    a: np.ndarray

    def __post_init__(self) -> None:
        require_alpha_beta(self.alpha, self.beta)
        weights = GeneralizedDirichlet(self.a0, self.a)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "a0", weights.a0)
        object.__setattr__(self, "a", weights.a)

    @property
    def a_dot(self) -> float:
        return float(self.a.sum())

    @property
    def m(self) -> int:
        return self.a.size


def require_alpha_beta(alpha, beta: float) -> None:
    """Raise ValueError unless alpha > 0 (each of a sequence of exponents) and
    beta >= 0, both finite: the shape and rate every hierarchical rule assumes."""
    alphas = np.ravel(alpha).tolist()
    if not (all(a > 0 for a in alphas) and beta >= 0):
        raise ValueError("alpha must be positive and beta nonnegative")
    if not all(math.isfinite(v) for v in (*alphas, beta)):
        raise ValueError("alpha and beta must be finite")


def tail_finite(alpha: float, beta: float, g: GChoice, total: float) -> bool:
    """Whether int_1^inf t^(alpha - total - 1) e^(-beta t) g(t) dt converges.

    g has the positive finite limit kappa^-(c+1) at infinity, so only the
    power matters when beta = 0.
    """
    return beta > 0 or alpha < total


def small_t_finite(alpha: float, g: GChoice, n: float) -> bool:
    """Whether int_0^1 t^(alpha - n - 1) g(t) dt converges."""
    return alpha + g.small_t_exponent > n


def kernel_finite(alpha, beta: float, g: GChoice, xi0: float, n_positive, total):
    """Whether xi0 >= 0 and K(alpha, beta, g, xi0, xi) is finite for the xi
    with `n_positive` positive entries summing to `total` (only these two
    numbers matter).  Every propriety and validity condition of the package
    is this test at the smallest admissible xi.  Broadcasts over alpha,
    n_positive and total.
    """
    small = small_t_finite(alpha, g, n_positive if xi0 == 0 else 0)
    return (xi0 >= 0) & small & tail_finite(alpha, beta, g, total)


def kernel_is_finite(
    alpha: float, beta: float, g: GChoice, xi0: float, xi: np.ndarray
) -> bool:
    """Analytic finiteness test for K(alpha, beta, g, xi0, xi).

    Broadcasts: xi may be a stack (..., N) and alpha an array, giving an
    array of verdicts.
    """
    xi = np.asarray(xi, dtype=float)
    n_positive = np.count_nonzero(xi > 0, axis=-1)
    return kernel_finite(alpha, beta, g, xi0, n_positive, xi.sum(axis=-1))


def prior_proper(prior: PriorSpec, n_columns: int) -> bool:
    """Propriety of the hierarchical prior over N probability columns: K at
    xi0 = a0 and xi_nu = a_dot is finite."""
    total = n_columns * prior.a_dot
    return kernel_finite(prior.alpha, prior.beta, prior.g, prior.a0, n_columns, total)


def posterior_proper(prior: PriorSpec, n_columns: int, r: float) -> bool:
    """Propriety of the posterior for every possible count matrix: the prior
    test with a0 shifted by r (all-zero counts are the binding case)."""
    xi0, total = prior.a0 + float(r), n_columns * prior.a_dot
    return kernel_finite(prior.alpha, prior.beta, prior.g, xi0, n_columns, total)


def hb_assumptions_hold(
    alpha: float, beta: float, g: GChoice, r: float, m: int, n_columns: int
) -> bool:
    """Validity condition for the column-sum shrinkage ratio delta_hb: K at
    xi0 = r - m and xi_nu = m is finite.  That is, r > m with a finite tail
    integral at total N*m, or r = m with additionally alpha + q0 > N.
    """
    return kernel_finite(alpha, beta, g, r - m, n_columns, n_columns * m)


def require_hb_assumptions(
    alpha: float, beta: float, g: GChoice, r: float, m: int, n_columns: int
) -> None:
    """Raise as `require_alpha_beta`, then ConditionError unless `hb_assumptions_hold`."""
    require_alpha_beta(alpha, beta)
    if not hb_assumptions_hold(alpha, beta, g, r, m, n_columns):
        raise ConditionError(
            "the hierarchical Bayes shrinkage ratio requires r > m with a finite "
            "tail integral, or r = m with additionally alpha + (g exponent at 0) > N"
        )


def quadrature_settings() -> dict:
    return {
        "rule": f"{GL_NODE_COUNT}-node Gauss-Legendre on dyadic panels",
        "substitution": "omega = t/(1+t)",
        "initial_depth": _INITIAL_DEPTH,
        "node_cap": MAX_TOTAL_NODES,
        "remainder_tol": REMAINDER_TOL,
        "error_estimate": "squared relative gap between the 64-node rule and "
        "a 32-node rule on alternate nodes",
        "error_tol": ERROR_TOL,
    }


def _shared_log_integrand(beta, g, xi0, values, index, panels) -> np.ndarray:
    """Log-integrand without its t^(alpha-1) factor, plus the log Jacobian
    and half-width, on a slice of panels: (R, P, 64) for rows xi (R, N)
    given as distinct values (U,) and xi = values[index]."""
    from scipy.special import betaln, gammaln

    t = _T[panels]
    x = t + xi0
    ratio = gammaln(x) - gammaln(x + values[:, None, None])
    far = x > _FAR_ARGUMENT
    if far.any():
        b = values[:, None]
        with np.errstate(invalid="ignore"):
            ratio[:, far] = np.where(b > 0, betaln(x[far], b) - gammaln(b), 0.0)
    out = np.empty((index.shape[0],) + t.shape)
    out[...] = _LOG_JAC[panels] - beta * t + g.log_g(t)
    for column in index.T:
        out += ratio[column]
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
    n_rows, n_alphas, n_panels = xi.shape[0], alphas.size, 2 * _MAX_DEPTH
    finite = kernel_is_finite(alphas[None, :], beta, g, xi0, xi[:, None, :])
    finite = np.broadcast_to(finite, (n_rows, n_alphas))
    # One (row, exponent) pair per kernel: its panel sums, their 64/32-node
    # gaps and its tail depth per side.
    c = np.full((n_rows, n_alphas, n_panels), -np.inf)
    err = np.zeros_like(c)
    depth = np.zeros((n_rows, n_alphas, 2), dtype=int)
    todo = np.flatnonzero(finite.any(axis=1))
    # Rows still growing their tails, as indices into the distinct values.
    # One row shares its table with no other: its own values are the table.
    if todo.size > 1:
        values, index = np.unique(xi[todo], return_inverse=True)
    else:
        values, index = xi[todo].ravel(), np.arange(todo.size * xi.shape[1])
    index = index.reshape(todo.size, xi.shape[1])
    done = 0
    while todo.size:
        reach = min(_MAX_DEPTH, max(_INITIAL_DEPTH, 2 * done))
        panels = slice(2 * done, 2 * reach)
        shared = _shared_log_integrand(beta, g, xi0, values, index, panels)
        for k, alpha in enumerate(alphas):
            c[todo, k, panels], err[todo, k, panels] = _panel_terms(shared, alpha, panels)
        reached = depth[todo]
        found = _tail_depths(c[todo].reshape(-1, n_panels), reach)
        reached = np.where(reached > 0, reached, found.reshape(reached.shape))
        depth[todo] = reached
        settled = ((reached > 0).all(axis=2) | ~finite[todo]).all(axis=1)
        done = reach
        if done == _MAX_DEPTH and not settled.all():
            raise QuadratureError(
                f"node budget {MAX_TOTAL_NODES} exceeded; integral is too close "
                "to divergence for the panel grid"
            )
        todo, index = todo[~settled], index[~settled]
        if todo.size and settled.any():
            # Deeper panels need the values of the remaining rows only.
            held = np.zeros(values.size, dtype=bool)
            held[index] = True
            values, index = values[held], (np.cumsum(held) - 1)[index]

    # Every finite pair sums all 2 * _MAX_DEPTH panel slots, unused ones as
    # zeros, so its sum does not depend on the depths of other pairs.
    rows, ks = np.nonzero(finite)
    used = _PANEL_DEPTH <= depth[rows, ks][:, _PANEL_SIDE]
    ck = np.where(used, c[rows, ks], -np.inf)
    top = ck.max(axis=1)
    weight = np.exp(ck - top[:, None])
    mass = weight.sum(axis=1)
    value = top + np.log(mass)
    if not np.all(np.isfinite(value)):
        raise QuadratureError("kernel quadrature produced a non-finite value")
    gap = (np.where(used, err[rows, ks], 0.0) * weight).sum(axis=1) / mass
    if np.any(gap**2 > ERROR_TOL):
        raise QuadratureError(
            f"estimated relative error {np.max(gap) ** 2:.1e} exceeds "
            f"{ERROR_TOL:g}; the integrand is too sharply peaked for the panels"
        )
    out = np.full((n_rows, n_alphas), math.inf)
    out[rows, ks] = value
    return out


def log_kernel(alpha, beta: float, g: GChoice, xi0: float, xi: np.ndarray):
    """log K(alpha, beta, g, xi0, xi), or +inf where the integral diverges.

    `xi` has shape (..., N), one kernel per vector along the last axis.
    `alpha` is a scalar or a 1-d sequence of exponents, all evaluated on the
    same nodes in one pass.  The result has shape xi.shape[:-1] +
    shape(alpha); it is a float for one vector and a scalar alpha.

    Divergence is detected analytically before any quadrature runs.  An
    exhausted node budget or an error estimate above tolerance raises
    QuadratureError rather than returning a silently wrong value.
    """
    alphas = np.asarray(alpha, dtype=float)
    if alphas.ndim > 1 or alphas.size == 0:
        raise ValueError("alpha must be a scalar or a nonempty 1-d sequence")
    require_alpha_beta(alphas, beta)
    if not xi0 >= 0:
        raise ValueError("xi0 must be nonnegative")
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 0 or xi.size == 0:
        raise ValueError("xi must be a nonempty vector")
    if np.any(xi < 0):
        raise ValueError("xi entries must be nonnegative")
    if not (math.isfinite(xi0) and np.isfinite(xi).all()):
        raise ValueError("xi0 and xi must be finite")

    rows = xi.reshape(-1, xi.shape[-1])
    out = np.concatenate(
        [
            _log_kernel_rows(alphas.ravel(), float(beta), g, float(xi0), rows[i : i + _ROW_BLOCK])
            for i in range(0, rows.shape[0], _ROW_BLOCK)
        ]
    ).reshape(xi.shape[:-1] + alphas.shape)
    return float(out) if out.ndim == 0 else out


def _counts(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z)
    if z.ndim == 0 or z.size == 0 or np.any(z < 0):
        raise ValueError("z must be a vector of nonnegative counts")
    return z


def _ratio(logk: np.ndarray):
    """exp(log K(alpha+1) - log K(alpha)) with math.exp, so a row gives the
    same bits alone as in a stack."""
    diff = np.asarray(logk[..., 1] - logk[..., 0])
    out = np.array([math.exp(v) for v in diff.ravel()]).reshape(diff.shape)
    return float(out) if out.ndim == 0 else out


def delta_hb(alpha: float, beta: float, g: GChoice, r: float, m: int, z: np.ndarray):
    """Shrinkage amount K(alpha+1, ..., z + m)/K(alpha, ..., z + m) at xi0 = r - m.

    `z` has shape (..., N); the result has shape z.shape[:-1] and is a float
    for one vector.  Finite and positive except possibly at z = 0, where +inf
    may be returned (the corresponding estimate is the zero matrix, so
    downstream code treats the infinity as total shrinkage).
    """
    z = _counts(z)
    require_hb_assumptions(alpha, beta, g, r, m, z.shape[-1])
    logk = log_kernel([alpha, alpha + 1.0], beta, g, r - m, z.astype(float) + float(m))
    if not np.all(np.isfinite(logk[..., 0])):
        raise QuadratureError("denominator kernel did not evaluate finitely")
    return _ratio(logk)


def delta_nu(
    alpha: float,
    beta: float,
    g: GChoice,
    r: float,
    a0: float,
    a_dot: float,
    z: np.ndarray,
    nu,
):
    """Per-column shrinkage K(alpha+1, ...)/K(alpha, ...) at xi = z + a_dot + e_nu.

    `z` has shape (..., N) and `nu` is a column index or an integer array
    that broadcasts against z.shape[:-1]; the result has the broadcast shape
    and is a float for one vector and one index.  Requires posterior
    propriety (xi0 = r + a0 with the tail and small-t integrability
    conditions); always finite and positive under it.
    """
    require_alpha_beta(alpha, beta)
    z = _counts(z)
    n_cols = z.shape[-1]
    nu = np.asarray(nu)
    if nu.dtype.kind not in "iu" or np.any((nu < 0) | (nu >= n_cols)):
        raise ValueError("nu out of range")
    if not a_dot > 0:
        raise ValueError("a_dot must be positive")
    ra0 = r + a0
    if not kernel_finite(alpha, beta, g, ra0, n_cols, n_cols * a_dot):
        raise ConditionError(
            "delta_nu requires a proper posterior: r + a0 > 0 (or = 0 with "
            "alpha + (g exponent at 0) > N) and a finite tail integral"
        )
    shape = np.broadcast_shapes(z.shape[:-1], nu.shape)
    xi = np.broadcast_to(z, shape + (n_cols,)) + float(a_dot)
    xi += np.arange(n_cols) == np.broadcast_to(nu, shape)[..., None]
    logk = log_kernel([alpha, alpha + 1.0], beta, g, ra0, xi)
    if not np.all(np.isfinite(logk)):
        raise QuadratureError("kernel did not evaluate finitely under propriety")
    return _ratio(logk)
