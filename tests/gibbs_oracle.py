"""Joint (p, t) Gibbs sampler, kept as a test oracle.

This is the sampler nmshrink used before its chain on the t-marginal: a
systematic scan that draws t from its gamma full conditional given the
columns, then every column from its Dirichlet full conditional given t,
wrapping each draw in a validated frozen `GibbsState`.  Column draws whose
coordinates underflow to zero are redrawn (at most 100 times).

It is slow; the tests use it to check the library's chain, never the other
way round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from nmshrink.gibbs import Chain, ChainConfig
from nmshrink.kernel import ConditionError, PriorSpec, posterior_proper
from nmshrink.model import CountMatrix, ProbColumn, make_rng


@dataclass(frozen=True)
class GibbsState:
    """One (p, t) draw; p is an m x N matrix of valid probability columns."""

    p: np.ndarray
    t: float

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 2:
            raise ValueError("p must be an m x N matrix")
        if np.any(p <= 0) or np.any(p.sum(axis=0) >= 1):
            raise ValueError("every column must lie in the open simplex interior")
        if not self.t > 0:
            raise ValueError("t must be positive")
        p = np.array(p, copy=True)
        p.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "t", float(self.t))

    def columns(self) -> tuple[ProbColumn, ...]:
        return tuple(ProbColumn(self.p[:, j]) for j in range(self.p.shape[1]))


def _draw_columns(
    rng: np.random.Generator, shape0: float, a_cols: np.ndarray
) -> np.ndarray:
    """Columnwise Dirichlet(shape0, a_cols[:, nu]) draws, returning the m x N
    matrix of non-leftover coordinates."""
    _, n_cols = a_cols.shape
    y0 = rng.gamma(shape0, size=n_cols)
    y = rng.gamma(a_cols)
    # Shape parameters near zero can underflow a coordinate to exact zero.
    bad = (y0 <= 0) | (y <= 0).any(axis=0)
    tries = 0
    while bad.any():
        tries += 1
        if tries > 100:
            raise RuntimeError("gibbs column draws kept degenerating")
        y0[bad] = rng.gamma(shape0, size=int(bad.sum()))
        y[:, bad] = rng.gamma(a_cols[:, bad])
        bad = (y0 <= 0) | (y <= 0).any(axis=0)
    return y / (y0 + y.sum(axis=0))[None, :]


def gibbs_step(
    state: GibbsState,
    alpha: float,
    beta: float,
    a0_eff: float,
    a_cols: np.ndarray,
    rng: np.random.Generator,
) -> GibbsState:
    """One systematic-scan update of (t, p).

    `a0_eff` is the effective leftover-mass exponent: the raw a0 for prior
    simulation, r + a0 for posterior simulation.  It must be nonnegative so
    every Dirichlet parameter t + a0_eff stays positive.
    """
    if a0_eff < 0:
        raise ConditionError("a0_eff must be nonnegative")
    a_cols = np.asarray(a_cols, dtype=float)
    if a_cols.shape != state.p.shape:
        raise ValueError("a_cols must match the shape of state.p")
    p0 = 1.0 - state.p.sum(axis=0)
    rate = beta + float(np.log(1.0 / p0).sum())
    t_new = float(rng.gamma(alpha, 1.0 / rate))
    while t_new <= 0.0:
        t_new = float(rng.gamma(alpha, 1.0 / rate))
    p_new = _draw_columns(rng, t_new + a0_eff, a_cols)
    return GibbsState(p_new, t_new)


def _run_chain(
    alpha: float,
    beta: float,
    a0_eff: float,
    a_cols: np.ndarray,
    cfg: ChainConfig,
) -> Iterator[GibbsState]:
    rng = make_rng(cfg.seed)
    m, n_cols = a_cols.shape
    t0 = alpha / (beta + 1.0)
    p0 = _draw_columns(rng, 1.0, np.ones((m, n_cols)))
    state = GibbsState(p0, t0)
    for i in range(cfg.n_iter):
        state = gibbs_step(state, alpha, beta, a0_eff, a_cols, rng)
        if i >= cfg.burn_in and (i - cfg.burn_in) % cfg.thin == 0:
            yield state


def posterior_chain(
    x: CountMatrix, r: float, prior: PriorSpec, cfg: ChainConfig
) -> Iterator[GibbsState]:
    """Gibbs chain targeting the posterior given the count matrix.

    The conditionals use a0_eff = r + a0 and per-column weights x_nu + a.
    """
    if prior.m != x.m:
        raise ValueError("prior dimension does not match the count matrix")
    if prior.g.c != -1.0:
        raise ConditionError(
            "the sampler requires the constant mixing weight; other weights "
            "break conjugacy (use the kernel quadrature instead)"
        )
    if not posterior_proper(prior, x.n_columns, r):
        raise ConditionError("posterior is improper for this prior and r")
    a_cols = x.x.astype(float) + prior.a[:, None]
    return _run_chain(prior.alpha, prior.beta, r + prior.a0, a_cols, cfg)


def collect(states: Iterator[GibbsState], **meta) -> Chain:
    """Materialize a chain of states into arrays."""
    ts = []
    ps = []
    for s in states:
        ts.append(s.t)
        ps.append(s.p)
    if not ts:
        raise ValueError("empty chain")
    return Chain(np.array(ts), np.array(ps), **meta)


def run_posterior(
    x: CountMatrix, r: float, prior: PriorSpec, cfg: ChainConfig
) -> Chain:
    """Posterior chain with the metadata its `delta_ss` and `delta_kl` need."""
    return collect(
        posterior_chain(x, r, prior, cfg),
        r=float(r),
        a0=prior.a0,
        a_dot=prior.a_dot,
        col_sums=np.array(x.col_sums),
    )
