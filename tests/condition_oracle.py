"""Propriety and validity predicates as nmshrink wrote them out, one per
use, before they became calls of `kernel.kernel_finite`; kept as a test
oracle.

The bodies are copied unchanged, with the two factors they share
(`tail_finite`, `small_t_finite`) copied alongside, so the oracle does not
lean on the library's versions.  `delta_nu_condition` is the inline check of
`delta_nu`, lifted into a function.
"""

from __future__ import annotations

from nmshrink.kernel import GChoice, PriorSpec


def tail_finite(alpha: float, beta: float, g: GChoice, total: float) -> bool:
    return beta > 0 or alpha < total


def small_t_finite(alpha: float, g: GChoice, n: float) -> bool:
    return alpha + g.small_t_exponent > n


def prior_proper(prior: PriorSpec, n_columns: int) -> bool:
    """Propriety of the hierarchical prior over N probability columns."""
    tail = tail_finite(prior.alpha, prior.beta, prior.g, n_columns * prior.a_dot)
    if prior.a0 > 0:
        return tail
    if prior.a0 == 0:
        return tail and small_t_finite(prior.alpha, prior.g, n_columns)
    return False


def posterior_proper(prior: PriorSpec, n_columns: int, r: float) -> bool:
    """Propriety of the posterior for every possible count matrix."""
    shifted = PriorSpec(prior.alpha, prior.beta, prior.g, prior.a0 + float(r), prior.a)
    return prior_proper(shifted, n_columns)


def hb_assumptions_hold(
    alpha: float, beta: float, g: GChoice, r: float, m: int, n_columns: int
) -> bool:
    """Validity condition for the column-sum shrinkage ratio delta_hb."""
    tail = tail_finite(alpha, beta, g, n_columns * m)
    if r > m:
        return tail
    if r == m:
        return tail and small_t_finite(alpha, g, n_columns)
    return False


def delta_nu_condition(
    alpha: float,
    beta: float,
    g: GChoice,
    r: float,
    a0: float,
    a_dot: float,
    n_cols: int,
) -> bool:
    """The propriety check `delta_nu` made before evaluating its kernels."""
    ra0 = r + a0
    tail = tail_finite(alpha, beta, g, n_cols * a_dot)
    ok = (ra0 > 0 and tail) or (
        ra0 == 0 and tail and small_t_finite(alpha, g, n_cols)
    )
    return ok
