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

Strategy: substitute t = exp((pi/2) sinh s), which makes the integrand
decay double exponentially in s at both ends (Takahasi & Mori 1974), and
sum it by the trapezoid rule on |s| <= 4.5: 181 nodes at the first step
h = 0.05, spanning t from about 2e-31 to 5e30.  Near either end the
integrand in t is a power t^(p-1), and p is the exponent `kernel_finite`
tests: alpha + (g exponent at 0), less the number of positive xi when
xi0 = 0, at the lower end, and sum(xi) - alpha above for beta = 0.  The
mass beyond each end node is added from that power.  The Gamma ratios come
from `model._log_gamma_ratio`, the package's one log-gamma: it gives each
difference without forming either term, so no large argument cancels.

One call evaluates a stack of xi rows for several exponents alpha on the
same nodes, every row's integrand from `_log_integrand`.  The Gamma ratios
are computed once for each distinct xi value of the call and shared by
every row that holds that value, and one vector's own sorted columns are
its table; each row adds its columns in ascending order of xi, and each
table entry is the same floating-point operation a row alone would make,
so a row's bits depend neither on the rows it shares a table with nor on
the order of its columns.  A row raised by one in column nu, as `delta_nu`'s
xi = z + a_dot + e_nu, is its vector's row less log(t + xi0 + xi_nu) at
every node, since Gamma(x + xi_nu + 1) = (x + xi_nu) Gamma(x + xi_nu): the
N rows of one vector take one log-gamma row and N logs, on the first step
and on every finer one.  A row so taken rounds differently from the
explicit row by about one ulp of log K, 2.9e-11 relative in the ratio at
log K near -2.5e5 (column sums near 1e4).
The first step's terms of the nodes alone, log(t'(s)/t) - beta t + log g(t)
and the parts of the log-gamma differences that do not involve xi, are
computed once per process for each (xi0, beta, g) and kept read-only in a
small bounded memo; so a call on one count matrix pays for little but its
xi terms and its node sums.  The first step sums every (row, alpha) pair of
a block at once; only the pairs that go on to halve h are tracked one by
one, and finer steps compute their node terms per call.
Divergence is decided analytically per (row, alpha) pair, by `kernel_finite`,
before any sum: a divergent pair is +inf and is never summed, and a block
that holds one evaluates each exponent on the rows it converges at.  That
analytic test is also every propriety and validity condition of the
package, each at its smallest admissible xi.

The h sum is compared with its 2h subset, every other node.  With e their
relative gap, the error estimate is e^2, since the error of the rule falls
about as the square of the step's error when h halves, plus an end term at
each end.  Where the integrand is a power with exponent p, that term is
twice the leading Euler-Maclaurin error of the trapezoid rule there,
(h/12) |p (pi/2) cosh(4.5) - tanh(4.5)| times the end node's share of the
sum: it falls as h^2 as h halves, as the end error does, and matched the
true error of the closed forms Gamma(p) and pi/sin(pi p) to 3 digits for p
from 0.1 to 0.25.  Above, for beta > 0, no power holds, and the end node's
share of the sum is the term.  Each
(row, alpha) pair whose estimate exceeds 1e-10 halves h, and only its own
sum counts, so its value does not depend on the other rows or exponents of
the call.  Rounding in the log-gamma differences, about 1e-16 of their
size, is not part of the estimate.  A kernel whose estimate still exceeds
1e-10 within 2^14 nodes, or that evaluates to a non-finite number, raises
QuadratureError rather than returning a silently wrong value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import GeneralizedDirichlet, _gamma_nodes, _log_gamma_ratio_from
from .model import require_counts, require_r

__all__ = [
    "GChoice",
    "PriorSpec",
    "QuadratureError",
    "ConditionError",
    "log_kernel",
    "delta_hb",
    "delta_nu",
    "kernel_finite",
    "prior_proper",
    "posterior_proper",
    "hb_assumptions_hold",
    "require_alpha_beta",
    "require_hb_assumptions",
    "quadrature_settings",
]

# Nodes t = exp((pi/2) sinh s) at s = -DE_SPAN + k h, first with h = DE_STEP.
DE_STEP = 0.05
DE_SPAN = 4.5
MAX_TOTAL_NODES = 2**14
# Largest accepted relative error estimate of one kernel.
ERROR_TOL = 1e-10
# Intervals at the first level; each further level halves h.
_COARSE = round(2 * DE_SPAN / DE_STEP)
_MAX_LEVEL = ((MAX_TOTAL_NODES - 1) // _COARSE).bit_length() - 1
# Rows evaluated together: smaller blocks keep the temporaries in cache,
# larger ones spread the fixed cost of a call over more rows.  The HB
# kernels of the three 3000-row risk-table case batches took 62-69 ms in
# all at 128 rows, 68-91 at 256 and 80-107 at 64 (best of 5, three
# interleaved rounds, 2-core Xeon).
_ROW_BLOCK = 128


def _node_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """t, log t and log((dt/ds) / t) at the nodes of the finest level; level
    L takes every 2^(_MAX_LEVEL - L)-th of them."""
    s = np.linspace(-DE_SPAN, DE_SPAN, _COARSE * 2**_MAX_LEVEL + 1)
    log_t = 0.5 * math.pi * np.sinh(s)
    return np.exp(log_t), log_t, np.log(0.5 * math.pi * np.cosh(s))


_T, _LOG_T, _LOG_DS = _node_grid()
# (dt/ds) / t at either end of the node range, and the derivative of
# log((dt/ds) / t) there (up to sign).
_END_DS = 0.5 * math.pi * math.cosh(DE_SPAN)
_END_TANH = math.tanh(DE_SPAN)
# Safety factor on the end terms of the error estimate.
_END_SAFETY = 2.0
# The nodes of the first step, their log t, and how many (xi0, beta, g) keys
# keep their node terms (`_first_step`).
_FIRST = slice(None, None, 2**_MAX_LEVEL)
_LOG_T_FIRST = _LOG_T[_FIRST]
_FIRST_STEP_KEYS = 16


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
    @functools.cache
    def constant_one(cls) -> "GChoice":
        """g = 1, one instance per process (it is frozen)."""
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

    @functools.cached_property
    def a_dot(self) -> float:
        return float(self.a.sum())

    @property
    def m(self) -> int:
        return self.a.size


def require_alpha_beta(alpha, beta: float) -> None:
    """Raise ValueError unless alpha > 0 (each of a sequence of exponents) and
    beta >= 0, both finite: the shape and rate every hierarchical rule assumes."""
    alphas = [alpha] if isinstance(alpha, float) else np.ravel(alpha).tolist()
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
    return small & ((xi0 >= 0) & tail_finite(alpha, beta, g, total))


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
    """Raise ValueError unless alpha is a scalar and m a positive integer,
    and as `require_alpha_beta` and `model.require_r`; then ConditionError
    unless `hb_assumptions_hold`."""
    if np.ndim(alpha):
        raise ValueError("alpha must be a scalar")
    require_alpha_beta(alpha, beta)
    require_r(r)
    if not (m > 0 and float(m).is_integer()):
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if not hb_assumptions_hold(alpha, beta, g, r, m, n_columns):
        raise ConditionError(
            "the hierarchical Bayes shrinkage ratio requires r > m with a finite "
            "tail integral, or r = m with additionally alpha + (g exponent at 0) > N"
        )


def quadrature_settings() -> dict:
    return {
        "rule": f"exp-sinh trapezoid, h = {DE_STEP:g} halved per kernel as needed",
        "substitution": f"t = exp((pi/2) sinh s), |s| <= {DE_SPAN:g}",
        "node_cap": MAX_TOTAL_NODES,
        "error_estimate": "squared relative gap between the h and 2h sums, "
        "plus twice the leading Euler-Maclaurin end error of each end's power",
        "error_tol": ERROR_TOL,
    }


def _level_terms(beta, g, xi0, nodes) -> tuple[np.ndarray, tuple, np.ndarray]:
    """The terms of one step's integrand that depend on the nodes alone:
    the base row log(t'(s)/t) - beta t + log g(t), the node part
    `_gamma_nodes(x)` of the Gamma ratios, and x = t + xi0."""
    t = _T[nodes]
    x = t + xi0
    return _LOG_DS[nodes] - beta * t + g.log_g(t), _gamma_nodes(x), x


@functools.lru_cache(maxsize=_FIRST_STEP_KEYS)
def _first_step(xi0: float, beta: float, g: GChoice) -> tuple[np.ndarray, tuple, np.ndarray]:
    """`_level_terms` at the first step, read-only, computed once per process
    for a key and kept for the `_FIRST_STEP_KEYS` keys used last (about
    12 KB each)."""
    base, gamma, x = _level_terms(beta, g, xi0, _FIRST)
    for a in (base, *gamma, x):
        a.flags.writeable = False
    return base, gamma, x


def _log_integrand(terms: tuple, xi: np.ndarray, col=None) -> np.ndarray:
    """Log of the integrand in s without its t^alpha factor on one step's
    nodes, from its `_level_terms`: (R, n) for rows xi (R, N), each raised by
    one in column col[i] when `col` (R,) is given (module docstring).  One
    row, or rows of `col` that all raise one vector, take no table.
    """
    base, gamma, x = terms
    if xi.shape[0] == 1 or (col is not None and (xi == xi[0]).all()):
        ratio = _log_gamma_ratio_from(gamma, np.sort(xi[0]))
        out = ratio[0] + base
        for row in ratio[1:]:
            out += row
        out = out[None]
    else:
        flat = np.sort(xi, axis=None)
        values = flat[np.concatenate(([True], flat[1:] != flat[:-1]))]
        index = np.searchsorted(values, np.sort(xi, axis=1))
        # base + ratio[first column], then the other columns in turn.
        ratio = _log_gamma_ratio_from(gamma, values)
        out = (ratio + base)[index[:, 0]]
        for column in index[:, 1:].T:
            out += ratio[column]
    return out if col is None else out - np.log(x + xi[np.arange(col.size), col][:, None])


def _end_weight(p, level: int):
    """Error per unit end-node share of the sum at an end where the integrand
    is the power with exponent p: the leading Euler-Maclaurin term of the
    trapezoid rule, (h/12) |F'/F| with F'/F = p (pi/2) cosh(DE_SPAN) -
    tanh(DE_SPAN) in s, times a safety factor."""
    return _END_SAFETY * DE_STEP / (12 * 2**level) * np.abs(p * _END_DS - _END_TANH)


def _node_sums(lf, p_low, p_high, beta: float, level: int):
    """Value log K and error estimate of the node sums at step `level`, for
    the log integrands lf (..., n) with end exponents p_low and p_high (...);
    lf is overwritten."""
    peak = lf.max(axis=-1)
    lf -= peak[..., None]
    f = np.exp(lf, out=lf)
    full = f.sum(axis=-1)
    low, high = f[..., 0], f[..., -1]
    # Trapezoid sum on [-DE_SPAN, DE_SPAN] plus the two remainders; above,
    # for beta > 0, p_high is inf and its remainder is 0.
    sums = DE_STEP / 2**level * (full - 0.5 * (low + high))
    rest = low / p_low
    ends = low * _end_weight(p_low, level)
    if beta == 0:
        rest += high / p_high
        ends += high * _end_weight(p_high, level)
    else:  # no power holds above: the end node's share is the term
        ends += high
    value = peak + np.log(sums + rest / _END_DS)
    gap = (full - 2.0 * f[..., ::2].sum(axis=-1)) / full
    return value, gap**2 + ends / full


def _log_kernel_rows(alphas, beta, g, xi0, xi, col=None) -> np.ndarray:
    """log K for rows xi (R, N), each raised by one in column col[i] when
    `col` is given, and exponents alphas (K,): shape (R, K), every row's
    integrand from `_log_integrand`.

    Each (row, alpha) pair starts at step h = DE_STEP and halves it until its
    error estimate is within ERROR_TOL; its value is its own node sum at the
    step it stops at, whatever the other rows and exponents need.  A pair
    `kernel_finite` rejects is +inf and is never summed: when a block holds
    one, each exponent runs alone on the rows it converges at.  Otherwise the
    first step takes every pair of the block at once, on the node terms
    `_first_step` keeps, and `_finer_steps` takes the pairs left.
    """
    # The number of positive xi matters only at xi0 = 0, their total only at
    # beta = 0: then the raised rows are formed.
    if xi0 == 0 or beta == 0:
        explicit = xi if col is None else xi + (np.arange(xi.shape[1]) == col[:, None])
    n_positive = (explicit > 0).sum(axis=1)[:, None] if xi0 == 0 else 0
    total = explicit.sum(axis=1)[:, None] if beta == 0 else 0
    finite = kernel_finite(alphas, beta, g, xi0, n_positive, total)
    if not finite.all():
        finite = np.broadcast_to(finite, (xi.shape[0], alphas.size))
        out = np.full(finite.shape, math.inf)
        for k in np.flatnonzero(finite.any(axis=0)):
            rows = finite[:, k]
            out[rows, k] = _log_kernel_rows(
                alphas[k : k + 1], beta, g, xi0, xi[rows], None if col is None else col[rows]
            )[:, 0]
        return out
    # Near either end the integrand in t is a power t^(p - 1), with the
    # exponent p that kernel_finite tests for positivity, so the mass beyond
    # the last node is F(end) / (p t'(s)/t) in s.  Above it is added only for
    # beta = 0: otherwise e^(-beta t) has already ended the tail, and the end
    # node's share of the sum bounds the error there.
    p_low = alphas + g.small_t_exponent - n_positive
    p_high = total - alphas if beta == 0 else math.inf
    lf = _log_integrand(_first_step(xi0, beta, g), xi, col)[:, None, :]
    lf = lf + alphas[:, None] * _LOG_T_FIRST
    out, estimate = _node_sums(lf, p_low, p_high, beta, 0)
    if not np.isfinite(out).all():
        raise QuadratureError("kernel quadrature produced a non-finite value")
    done = estimate <= ERROR_TOL
    if not done.all():
        _finer_steps(out, ~done, alphas, beta, g, xi0, xi, col, p_low, p_high)
    return out


def _finer_steps(out, pending, alphas, beta, g, xi0, xi, col, p_low, p_high) -> None:
    """Halve h for the pending (row, alpha) pairs of `_log_kernel_rows`, each
    until its own estimate is within ERROR_TOL, and write their values to out."""
    rows, ks = np.nonzero(pending)
    p_low = np.broadcast_to(p_low, out.shape)[rows, ks]
    p_high = np.broadcast_to(p_high, out.shape)[rows, ks]
    for level in range(1, _MAX_LEVEL + 1):
        nodes = slice(None, None, 2 ** (_MAX_LEVEL - level))
        terms = _level_terms(beta, g, xi0, nodes)
        lf = _log_integrand(terms, xi[rows], None if col is None else col[rows])
        lf += alphas[ks, None] * _LOG_T[nodes]
        value, estimate = _node_sums(lf, p_low, p_high, beta, level)
        if not np.isfinite(value).all():
            raise QuadratureError("kernel quadrature produced a non-finite value")
        ok = estimate <= ERROR_TOL
        out[rows[ok], ks[ok]] = value[ok]
        rows, ks, p_low, p_high = rows[~ok], ks[~ok], p_low[~ok], p_high[~ok]
        if not rows.size:
            return
    # The shortest repr of the estimate, so it never reads as the tolerance.
    raise QuadratureError(
        f"estimated relative error {float(estimate.max())!r} exceeds {ERROR_TOL:g} "
        f"within the node budget {MAX_TOTAL_NODES}; the integrand is too "
        "sharply peaked or too close to divergence"
    )


def log_kernel(alpha, beta: float, g: GChoice, xi0: float, xi: np.ndarray):
    """log K(alpha, beta, g, xi0, xi), or +inf where the integral diverges.

    `xi` has shape (..., N), one kernel per vector along the last axis.
    `alpha` is a scalar or a 1-d sequence of exponents, all evaluated on the
    same nodes in one pass.  The result has shape xi.shape[:-1] +
    shape(alpha); it is a float for one vector and a scalar alpha.

    Divergence is detected analytically before any quadrature runs.  An
    exhausted node budget or an error estimate above tolerance raises
    QuadratureError rather than returning a silently wrong value.  This is
    the one check of a raw xi0 and xi; `delta_nu`, whose rows are raised in
    one column, builds them from checked counts and calls `_log_kernels`.
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
    # One pass for the smallest and one for the largest xi when both hold.
    if not (xi.min() >= 0 and xi.max() < math.inf and math.isfinite(xi0)):
        if (xi < 0).any():
            raise ValueError("xi entries must be nonnegative")
        raise ValueError("xi0 and xi must be finite")
    rows = xi.reshape(-1, xi.shape[-1])
    out = _log_kernels(alphas.ravel(), float(beta), g, float(xi0), rows)
    out = out.reshape(xi.shape[:-1] + alphas.shape)
    return float(out) if out.ndim == 0 else out


def _log_kernels(alphas, beta: float, g: GChoice, xi0: float, xi, col=None) -> np.ndarray:
    """`_log_kernel_rows` on each block of _ROW_BLOCK rows xi (R, N): shape (R, K)."""
    blocks = []
    for i in range(0, xi.shape[0], _ROW_BLOCK):
        block = slice(i, i + _ROW_BLOCK)
        cols = None if col is None else col[block]
        blocks.append(_log_kernel_rows(alphas, beta, g, xi0, xi[block], cols))
    return np.concatenate(blocks)


def _ratio(logk: np.ndarray):
    """exp(log K(alpha+1) - log K(alpha)) with math.exp, so a row gives the
    same bits alone as in a stack."""
    diff = logk[..., 1] - logk[..., 0]
    if diff.ndim == 0:
        return math.exp(diff)
    out = np.fromiter(map(math.exp, diff.ravel().tolist()), float, diff.size)
    return out.reshape(diff.shape)


def delta_hb(alpha: float, beta: float, g: GChoice, r: float, m: int, z: np.ndarray):
    """Shrinkage amount K(alpha+1, ..., z + m)/K(alpha, ..., z + m) at xi0 = r - m.

    `z` has shape (..., N), column sums that pass `model.require_counts`; the
    result has shape z.shape[:-1] and is a float for one vector.  Finite and
    positive except possibly at z = 0, where +inf may be returned (the
    corresponding estimate is the zero matrix, so downstream code treats the
    infinity as total shrinkage).
    """
    z = require_counts(z, 1)
    require_hb_assumptions(alpha, beta, g, r, m, z.shape[-1])
    logk = log_kernel([alpha, alpha + 1.0], beta, g, r - m, z + float(m))
    if not np.isfinite(logk[..., 0]).all():
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

    `z` has shape (..., N), column sums that pass `model.require_counts`, and
    `nu` is a column index or an integer array that broadcasts against
    z.shape[:-1]; the result has the broadcast shape and is a float for one
    vector and one index.  Requires posterior propriety (xi0 = r + a0 with
    the tail and small-t integrability conditions); always finite and
    positive under it.

    Each row's integrand is its vector's, at xi = z + a_dot, less
    log(t + xi0 + z_nu + a_dot) at every node (module docstring), so it can
    differ from `log_kernel` on the explicit row by about one ulp of each
    log K; a row's bits do not depend on the other rows of the call.
    """
    if np.ndim(alpha):
        raise ValueError("alpha must be a scalar")
    require_alpha_beta(alpha, beta)
    require_r(r)
    z = require_counts(z, 1)
    n_cols = z.shape[-1]
    nu = np.asarray(nu)
    if nu.dtype.kind not in "iu" or nu.min(initial=0) < 0 or nu.max(initial=0) >= n_cols:
        raise ValueError("nu out of range")
    shape = np.broadcast(z[..., 0], nu).shape  # NumPy's refusal of bad shapes
    if not 0 < a_dot < math.inf:
        raise ValueError(f"a_dot must be positive and finite, got {a_dot!r}")
    ra0 = r + a0
    if not math.isfinite(ra0):
        raise ValueError(f"r + a0 must be finite, got {ra0!r}")
    if not kernel_finite(alpha, beta, g, ra0, n_cols, n_cols * a_dot):
        raise ConditionError(
            "delta_nu requires a proper posterior: r + a0 > 0 (or = 0 with "
            "alpha + (g exponent at 0) > N) and a finite tail integral"
        )
    # One row per (vector, column) pair: the vector's xi, raised in column nu.
    rows, col = np.empty(shape + (n_cols,)), np.empty(shape, np.intp)
    rows[...], col[...] = z + float(a_dot), nu
    rows, col = rows.reshape(-1, n_cols), col.ravel()
    logk = _log_kernels(np.array([alpha, alpha + 1.0]), float(beta), g, float(ra0), rows, col)
    if not np.isfinite(logk).all():
        raise QuadratureError("kernel did not evaluate finitely under propriety")
    return _ratio(logk.reshape(shape + (2,)))
