"""Adaptive reference quadrature for the kernel integral, kept as a test oracle.

This is the evaluator nmshrink used before its one-pass panel grid: composite
64-point Gauss-Legendre panels on omega = t/(1+t), laid out dyadically toward
both endpoints, extended until the estimated remainder is negligible, with
interior panels split where the log-integrand varies by more than 30 nats.
Gamma ratios use a rising-factorial log-product for integer xi (exact at any
t, so heavy beta = 0 tails stay accurate) and log-gamma differences
otherwise.  `extra_refine` halves every panel that many times more.

It evaluates one kernel per call and is slow; the tests use it to check the
library's evaluator, never the other way round.
"""

from __future__ import annotations

import math

import numpy as np
from kernel_oracle import kernel_is_finite
from scipy.special import gammaln

from nmshrink.kernel import GChoice, QuadratureError

GL_NODE_COUNT = 64
MAX_TOTAL_NODES = 2**14
SPLIT_THRESHOLD_NATS = 30.0
# Panels contributing below this relative level are left alone.
_NEGLIGIBLE_LOG = math.log(1e-16)
# Endpoint extension stops once the estimated remainder is below this level.
_REMAINDER_LOG = math.log(1e-13)
_INITIAL_DEPTH = 6

_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_NODE_COUNT)
_LOG_GL_W = np.log(_GL_W)


def _lse(a: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    m = a.max()
    if not np.isfinite(m):
        return float(m) if m < 0 else math.inf
    return float(m + np.log(np.exp(a - m).sum()))


def _log_gamma_ratio_sum(
    t: np.ndarray, xi0: float, xi: np.ndarray, use_rising: bool
) -> np.ndarray:
    """sum_nu log[ Gamma(t + xi0) / Gamma(t + xi0 + xi_nu) ] for a node array t."""
    if use_rising:
        kmax = int(xi.max())
        if kmax == 0:
            return np.zeros_like(t)
        logs = np.log(t[:, None] + (xi0 + np.arange(kmax))[None, :])
        csum = np.cumsum(logs, axis=1)
        out = np.zeros_like(t)
        for x_nu in xi:
            k = int(x_nu)
            if k > 0:
                out -= csum[:, k - 1]
        return out
    return len(xi) * gammaln(t + xi0) - gammaln(t[:, None] + xi0 + xi[None, :]).sum(
        axis=1
    )


class _PanelIntegrator:
    """Composite Gauss-Legendre accumulation of log integrals on (0, 1/2]
    from each endpoint, in log space."""

    def __init__(self, logf_left, logf_right):
        # Each closure takes u in (0, 1/2]; left maps u -> t = u/(1-u),
        # right maps u -> t = (1-u)/u, so both singular ends sit at u = 0.
        self.sides = [logf_left, logf_right]
        self.panels: list[tuple[int, float, float, float, float]] = []
        self.n_nodes = 0

    def _eval_panel(self, side: int, lo: float, hi: float):
        self.n_nodes += GL_NODE_COUNT
        if self.n_nodes > MAX_TOTAL_NODES:
            raise QuadratureError(
                f"node budget {MAX_TOTAL_NODES} exceeded; integral is too close "
                "to divergence or too sharply peaked for the panel rules"
            )
        half = 0.5 * (hi - lo)
        u = 0.5 * (hi + lo) + half * _GL_X
        lf = self.sides[side](u)
        lf = np.where(np.isfinite(lf), lf, -np.inf)
        contrib = _lse(lf + (_LOG_GL_W + math.log(half)))
        finite = lf[np.isfinite(lf)]
        span = float(finite.max() - finite.min()) if finite.size else 0.0
        return (side, lo, hi, contrib, span)

    def _total(self) -> float:
        return _lse(np.array([p[3] for p in self.panels]))

    def run(self, extra_refine: int = 0) -> float:
        for side in (0, 1):
            for k in range(1, _INITIAL_DEPTH + 1):
                self.panels.append(self._eval_panel(side, 2.0 ** -(k + 1), 2.0**-k))
        self._extend_ends()
        self._split_wide()
        for _ in range(extra_refine):
            self._halve_all()
        return self._total()

    def _extend_ends(self) -> None:
        for side in (0, 1):
            while True:
                depth_panels = sorted(
                    (p for p in self.panels if p[0] == side), key=lambda p: p[1]
                )
                last, prev = depth_panels[0], depth_panels[1]
                total = self._total()
                c_last, c_prev = last[3], prev[3]
                if c_last == -np.inf:
                    break
                grow = c_last >= c_prev
                remainder = np.inf
                if not grow:
                    ratio = math.exp(c_last - c_prev)
                    remainder = c_last + math.log(ratio / (1.0 - ratio))
                if not grow and remainder <= total + _REMAINDER_LOG:
                    break
                lo = last[1]
                self.panels.append(self._eval_panel(side, lo / 2.0, lo))

    def _split_wide(self) -> None:
        while True:
            total = self._total()
            wide = [
                i
                for i, p in enumerate(self.panels)
                if p[4] > SPLIT_THRESHOLD_NATS and p[3] > total + _NEGLIGIBLE_LOG
            ]
            if not wide:
                return
            for i in sorted(wide, reverse=True):
                side, lo, hi, _, _ = self.panels.pop(i)
                mid = 0.5 * (lo + hi)
                self.panels.append(self._eval_panel(side, lo, mid))
                self.panels.append(self._eval_panel(side, mid, hi))

    def _halve_all(self) -> None:
        old, self.panels = self.panels, []
        self.n_nodes = 0
        for side, lo, hi, _, _ in old:
            mid = 0.5 * (lo + hi)
            self.panels.append(self._eval_panel(side, lo, mid))
            self.panels.append(self._eval_panel(side, mid, hi))


def adaptive_log_kernel(
    alpha: float,
    beta: float,
    g: GChoice,
    xi0: float,
    xi: np.ndarray,
    *,
    gamma_ratio: str = "auto",
    extra_refine: int = 0,
) -> float:
    """log K(alpha, beta, g, xi0, xi) for one 1-d xi, or +inf when it diverges.

    `gamma_ratio` selects how the Gamma ratios are evaluated: "rising"
    (integer xi only), "lgamma", or "auto" (rising for integer xi <= 4096).
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not beta >= 0:
        raise ValueError("beta must be nonnegative")
    if not xi0 >= 0:
        raise ValueError("xi0 must be nonnegative")
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1 or xi.size == 0:
        raise ValueError("xi must be a nonempty vector")
    if np.any(xi < 0):
        raise ValueError("xi entries must be nonnegative")

    if not kernel_is_finite(alpha, beta, g, xi0, xi):
        return math.inf

    integral_xi = np.all(xi == np.floor(xi))
    if gamma_ratio == "rising":
        if not integral_xi:
            raise ValueError("rising-factorial path requires integer xi")
        use_rising = True
    elif gamma_ratio == "lgamma":
        use_rising = False
    elif gamma_ratio == "auto":
        use_rising = bool(integral_xi and xi.max() <= 4096)
    else:
        raise ValueError(f"unknown gamma_ratio mode: {gamma_ratio!r}")

    xi_int = xi.astype(np.int64) if use_rising else xi

    def logf_from_t(t: np.ndarray) -> np.ndarray:
        return (
            (alpha - 1.0) * np.log(t)
            - beta * t
            + g.log_g(t)
            + _log_gamma_ratio_sum(t, xi0, xi_int, use_rising)
            + 2.0 * np.log1p(t)
        )

    def logf_left(u: np.ndarray) -> np.ndarray:
        return logf_from_t(u / (1.0 - u))

    def logf_right(u: np.ndarray) -> np.ndarray:
        return logf_from_t((1.0 - u) / u)

    return _PanelIntegrator(logf_left, logf_right).run(extra_refine=extra_refine)


def adaptive_ratio(alpha, beta, g, xi0, xi, **kw) -> float:
    """K(alpha+1)/K(alpha) from two adaptive quadratures."""
    num = adaptive_log_kernel(alpha + 1.0, beta, g, xi0, xi, **kw)
    den = adaptive_log_kernel(alpha, beta, g, xi0, xi, **kw)
    return math.exp(num - den)
