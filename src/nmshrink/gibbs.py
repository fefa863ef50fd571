"""Conjugate Gibbs sampler for the hierarchical shrinkage prior, run on t.

The joint density over the probability columns p and a latent positive
scalar t is

    t^(alpha-1) e^(-beta t) prod_nu [ p0_nu^(t + a0 - 1) prod_i p_i,nu^(a_i,nu - 1) ],

whose two full conditionals are a gamma draw for t and independent Dirichlet
draws for the columns:

    t | p  ~  Gamma(shape alpha, rate beta + sum_nu log(1/p0_nu))
    p | t  ~  prod_nu Dirichlet(t + a0, a_nu)

t depends on p only through the leftover masses p0_nu, and by Dirichlet
aggregation p0_nu | t ~ Beta(t + a0, a_nu.), where a_nu. sums column nu of
the weights.  Writing p0_nu = Ga / (Ga + Gb) with Ga ~ Gamma(t + a0) and
Gb ~ Gamma(a_nu.), one step of the t-marginal of the joint chain is

    t  <-  E / (beta + sum_nu log1p(Gb_nu / Ga_nu)),    E ~ Gamma(alpha),

which has exactly the law of the t component of the two-block chain.  Only
Ga depends on t, so E and Gb are drawn for a block of iterations at a time
and each step makes one gamma call of size N.  Only the kept t values are
stored, so memory does not grow with the burn-in or the thinning.  Shapes
t + a0 below one are drawn in log space, log G(s) = log G(s + 1) + log(U)/s,
so log(1/p0) stays finite however small t gets.  Given t the columns are
exactly Dirichlet, so p is drawn only at the kept iterations, in one call
after the loop.

Conditioning on counts only shifts the parameters (a0 -> r + a0,
a_nu -> x_nu + a_nu), so the same chain targets prior and posterior.  The
sampler is restricted to the constant mixing weight g = 1; other weights
break conjugacy and are covered by the deterministic kernel quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import ConditionError, GChoice, PriorSpec, QuadratureError
from .kernel import kernel_finite, posterior_proper
from .model import CountMatrix, make_rng

__all__ = [
    "ChainConfig",
    "Chain",
    "run_prior",
    "run_posterior",
    "ess",
    "mcmc_delta_estimates",
    "joint_prior_proper",
]


@dataclass(frozen=True)
class ChainConfig:
    """Length, warm-up, thinning and seed of one chain."""

    n_iter: int
    burn_in: int = 0
    seed: int = 0
    thin: int = 1

    def __post_init__(self) -> None:
        if not self.n_iter > self.burn_in >= 0:
            raise ValueError("need n_iter > burn_in >= 0")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")

    @property
    def n_kept(self) -> int:
        span = self.n_iter - self.burn_in
        return (span + self.thin - 1) // self.thin


@dataclass
class Chain:
    """Kept draws in array form, plus the bookkeeping delta estimates need."""

    t: np.ndarray
    p: np.ndarray  # (n_kept, m, N)
    r: float | None = None
    a0: float | None = None
    a_dot: float | None = None
    col_sums: np.ndarray | None = None

    def ess_t(self) -> float:
        return ess(self.t)

    def posterior_mean_p(self) -> np.ndarray:
        return self.p.mean(axis=0)


def joint_prior_proper(
    alpha: float, beta: float, a0: float, a_cols: np.ndarray
) -> bool:
    """Propriety of the joint (p, t) prior with per-column Dirichlet weights:
    K with g = 1 at xi0 = a0 and the column totals of `a_cols` is finite.
    """
    a_cols = np.asarray(a_cols, dtype=float)
    g1 = GChoice.constant_one()
    return kernel_finite(alpha, beta, g1, a0, a_cols.shape[1], float(a_cols.sum()))


# Iterations whose t-independent randomness is drawn at once; it bounds the
# chain's memory whatever n_iter is.
_BLOCK = 4096


def _sample(
    alpha: float,
    beta: float,
    a0_eff: float,
    a_cols: np.ndarray,
    cfg: ChainConfig,
    **meta,
) -> Chain:
    """Run the t-marginal chain and draw p | t at the kept iterations.

    `a0_eff` is the leftover-mass exponent: the raw a0 for the prior, r + a0
    for the posterior; the callers' propriety checks make it nonnegative.
    """
    rng = make_rng(cfg.seed)
    m, n_cols = a_cols.shape
    gamma = rng.standard_gamma
    a_dot = a_cols.sum(axis=0)
    kept_t: list[float] = []
    t = alpha / (beta + 1.0)
    for start in range(0, cfg.n_iter, _BLOCK):
        n = min(_BLOCK, cfg.n_iter - start)
        # The draws that do not depend on t, for a block of iterations at
        # once: E ~ Gamma(alpha), and Gb ~ Gamma(a_nu.) in log space.
        e = gamma(alpha, size=n).tolist()
        log_gb = np.log(gamma(a_dot + 1.0, size=(n, n_cols)))
        log_gb += np.log1p(-rng.random((n, n_cols))) / a_dot
        gb = np.exp(log_gb)
        ts = [0.0] * n
        for i in range(n):
            s = t + a0_eff
            if s >= 1.0:
                rate = beta + float(np.log1p(gb[i] / gamma(s, size=n_cols)).sum())
            else:
                log_ga = np.log(gamma(s + 1.0, size=n_cols))
                log_ga += np.log1p(-rng.random(n_cols)) / s
                rate = beta + float(np.logaddexp(0.0, log_gb[i] - log_ga).sum())
            t = e[i] / rate
            if not 0.0 < t + a0_eff < math.inf:
                raise QuadratureError(
                    "gibbs chain left the floating-point range at iteration "
                    f"{start + i}: t + a0_eff = {t + a0_eff!r}"
                )
            ts[i] = t
        # The first kept iteration at or after `start`, relative to it.
        skip = cfg.burn_in - start
        kept_t.extend(ts[max(skip, skip % cfg.thin) :: cfg.thin])
    kept = np.array(kept_t)
    y0 = gamma((kept + a0_eff)[:, None], size=(kept.size, n_cols))
    y = gamma(a_cols, size=(kept.size, m, n_cols))
    p = y / (y0 + y.sum(axis=1))[:, None, :]
    return Chain(kept, p, **meta)


def run_prior(
    alpha: float,
    beta: float,
    a0: float,
    a_cols: np.ndarray,
    cfg: ChainConfig,
) -> Chain:
    """Chain targeting the joint prior; refuses improper configurations."""
    a_cols = np.asarray(a_cols, dtype=float)
    if a_cols.ndim != 2 or not np.all(a_cols > 0):
        raise ValueError("a_cols must be a positive m x N matrix")
    if not joint_prior_proper(alpha, beta, a0, a_cols):
        raise ConditionError(
            "joint prior is improper: need a0 >= 0 and "
            "min(max(a0, alpha - N), max(a_total - alpha, beta)) > 0"
        )
    return _sample(alpha, beta, a0, a_cols, cfg)


def run_posterior(
    x: CountMatrix, r: float, prior: PriorSpec, cfg: ChainConfig
) -> Chain:
    """Chain targeting the posterior given the count matrix, with the
    metadata needed by mcmc_delta_estimates.

    The conditionals use a0_eff = r + a0 and per-column weights x_nu + a.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    if prior.m != x.m:
        raise ValueError("prior dimension does not match the count matrix")
    if prior.g.kind != "constant_one":
        raise ConditionError(
            "the sampler requires the constant mixing weight; other weights "
            "break conjugacy (use the kernel quadrature instead)"
        )
    if not posterior_proper(prior, x.n_columns, r):
        raise ConditionError("posterior is improper for this prior and r")
    a_cols = x.x.astype(float) + prior.a[:, None]
    return _sample(
        prior.alpha,
        prior.beta,
        r + prior.a0,
        a_cols,
        cfg,
        r=float(r),
        a0=prior.a0,
        a_dot=prior.a_dot,
        col_sums=np.array(x.col_sums),
    )


def ess(x: np.ndarray) -> float:
    """Effective sample size via the initial positive-sequence estimator.

    Pairwise autocorrelation sums are truncated at the first negative pair
    and forced nonincreasing before summation.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    v = x.var()
    if v == 0:
        return float(n)
    centered = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centered, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real / n
    rho = acov / acov[0]
    n_pairs = n // 2
    pair = rho[0 : 2 * n_pairs : 2] + rho[1 : 2 * n_pairs : 2]
    pos = np.nonzero(pair <= 0)[0]
    if pos.size:
        pair = pair[: pos[0]]
    if pair.size == 0:
        return float(n)
    pair = np.minimum.accumulate(pair)
    tau = 2.0 * pair.sum() - 1.0
    tau = max(tau, 1.0 / n)
    return float(n / tau)


def mcmc_delta_estimates(
    chain: Chain, mode: str = "ss", nu: int | None = None
) -> float:
    """Monte Carlo estimate of a shrinkage amount from posterior draws of t.

    mode "ss": the posterior mean of t (valid for the constant mixing
    weight, where the column-sum shrinkage ratio equals E[t | X]).

    mode "kl": the ratio E[t w]/E[w] with w = 1/(t + r + a0 + z_nu + a_dot),
    matching the per-column kernel ratio for column `nu`.
    """
    t = np.asarray(chain.t, dtype=float)
    if t.size == 0:
        raise ValueError("empty chain")
    if mode == "ss":
        return float(t.mean())
    if mode == "kl":
        if nu is None:
            raise ValueError("mode 'kl' needs a column index nu")
        if chain.r is None or chain.a0 is None or chain.a_dot is None:
            raise ValueError("chain lacks posterior metadata (use run_posterior)")
        if chain.col_sums is None or not 0 <= nu < chain.col_sums.size:
            raise ValueError("nu out of range for this chain")
        w = 1.0 / (t + chain.r + chain.a0 + float(chain.col_sums[nu]) + chain.a_dot)
        return float((t * w).mean() / w.mean())
    raise ValueError(f"unknown mode: {mode!r}")
