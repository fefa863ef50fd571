"""Analytic checkers for propriety and dominance conditions.

Every checker is a pure predicate over closed-form inequalities; nothing here
runs quadrature or simulation.  Propriety and kernel-ratio validity are the
one test `kernel.kernel_finite`.  Every closed-form check
(`check_prior_propriety` and each `*_dominance_conditions`) returns a
`Verdict`: named conditions, whose conjunction is `.holds`, and the text,
with both sides of each bound, that the command line prints.
`check_shrinkage_conditions` sweeps a rule over z instead and reports where
it first fails.  `dominance_table` applies the estimator-level conditions to
the three benchmark cases of the risk laboratory, each with the HB prior of
its risk table (`risklab.CASES`).  The dominance conditions take n in 1..N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernel import (
    GChoice,
    PriorSpec,
    hb_assumptions_hold,
    posterior_proper,
    prior_proper,
    require_alpha_beta,
    small_t_finite,
    tail_finite,
)
from .model import GeneralizedDirichlet, require_r
from .risklab import CASES, loss_columns

__all__ = [
    "ShrinkageRuleReport",
    "Verdict",
    "check_prior_propriety",
    "check_shrinkage_conditions",
    "eb_dominance_conditions",
    "hb_dominance_conditions",
    "kl_dominance_conditions",
    "jeffreys_prior",
    "dominance_table",
]

# Absolute slack for closed-form inequality comparisons.
_EPS = 1e-12


@dataclass(frozen=True)
class Verdict:
    """Named conditions and a text with both sides of their inequalities."""

    conditions: dict[str, bool]
    text: str

    @property
    def holds(self) -> bool:
        return all(self.conditions.values())


@dataclass(frozen=True)
class ShrinkageRuleReport:
    holds_up_to_z_max: bool
    first_violation: int | None


def check_prior_propriety(prior: PriorSpec, n_columns: int) -> Verdict:
    """Exact propriety verdict for the hierarchical prior, with its reasons.

    The prior is proper iff a0 > 0 (or a0 = 0 with the small-t integrability
    test) together with a finite tail integral of t^(alpha - N a_dot - 1)
    e^(-beta t) g(t); the posterior verdict, `kernel.posterior_proper`, is
    the same test with a0 shifted by r.  The one condition is
    `kernel.prior_proper`; the text spells out its two parts.
    """
    tail = tail_finite(prior.alpha, prior.beta, prior.g, n_columns * prior.a_dot)
    small = small_t_finite(prior.alpha, prior.g, n_columns)

    parts = []
    if prior.a0 > 0:
        parts.append(f"a0={prior.a0:g} > 0")
    elif prior.a0 == 0:
        parts.append(
            "a0=0, small-t test "
            f"alpha+q0={prior.alpha + prior.g.small_t_exponent:g} > N={n_columns}: "
            f"{'ok' if small else 'FAILS'}"
        )
    else:
        parts.append(f"a0={prior.a0:g} < 0 makes the prior improper")
    parts.append(
        "tail test beta>0 or alpha < N*a_dot "
        f"({prior.alpha:g} vs {n_columns * prior.a_dot:g}): "
        f"{'ok' if tail else 'FAILS'}"
    )
    return Verdict({"prior proper": prior_proper(prior, n_columns)}, "; ".join(parts))


def check_shrinkage_conditions(
    delta: Callable[[int], float], r: float, m: int, n: int, z_max: int
) -> ShrinkageRuleReport:
    """Verify the two shrinkage-rule dominance conditions for z = 1..z_max.

    Condition (i): z*delta(z) <= (z+1)*delta(z+1).
    Condition (ii), for z >= 2: when delta(z) <= 2(m-3) the combination
    (m-6)*delta(z) + 2(m-3)*r must be nonnegative; otherwise
    n*[(m-6)*delta(z) + 2(m-3)*r] >= (z-1)*[delta(z) - 2(m-3)].

    Requires r >= 5/2.  Verification over all of N is impossible mechanically,
    so the caller chooses z_max and closed-form rules are handled by the
    analytic limit facts in the tests.
    """
    require_r(r)
    if not r >= 2.5:
        raise ValueError("the shrinkage-rule conditions assume r >= 5/2")
    if z_max < 1:
        raise ValueError("z_max must be at least 1")
    dz1 = float(delta(1))
    for z in range(1, z_max + 1):
        dz, dz1 = dz1, float(delta(z + 1))
        if z * dz > (z + 1) * dz1 + _EPS:
            return ShrinkageRuleReport(False, z)
        if z >= 2:
            core = (m - 6) * dz + 2 * (m - 3) * r
            if dz <= 2 * (m - 3):
                if core < -_EPS:
                    return ShrinkageRuleReport(False, z)
            else:
                if n * core < (z - 1) * (dz - 2 * (m - 3)) - _EPS:
                    return ShrinkageRuleReport(False, z)
    return ShrinkageRuleReport(True, None)


def eb_dominance_conditions(m: int, r: float) -> Verdict:
    """Named conditions under which empirical Bayes beats the unbiased
    estimator; they do not involve the number of columns being estimated."""
    require_r(r)
    m_ok, r_ok = m >= 7, r >= 2.5
    text = f"m={m} {'>=' if m_ok else '<'} 7; r={r:g} {'>=' if r_ok else '<'} 5/2"
    return Verdict({"m >= 7": m_ok, "r >= 5/2": r_ok}, text)


def hb_dominance_conditions(
    alpha: float,
    beta: float,
    g: GChoice,
    r: float,
    m: int,
    n: int,
    n_columns: int | None = None,
) -> Verdict:
    """Named conditions for hierarchical Bayes dominance (squared error).

    The delta_hb validity assumptions, a nonincreasing g, and
    alpha + 1 <= min(n(m-2), nm/2 + beta*r).  The tail integrability part of
    the assumptions involves the total number of columns N; pass `n_columns`
    when it differs from n (it only matters when beta = 0); n is in 1..N.
    """
    require_alpha_beta(alpha, beta)
    require_r(r)
    if n_columns is not None:
        loss_columns(n_columns, n)
    n_cols = n if n_columns is None else n_columns
    bound = min(n * (m - 2), n * m / 2 + beta * r)
    conditions = {
        "delta_hb valid (r > m, or r = m with alpha + q0 > N; finite tail)": (
            hb_assumptions_hold(alpha, beta, g, r, m, n_cols)
        ),
        "g nonincreasing": g.nonincreasing,
        "alpha + 1 <= min(n(m-2), nm/2 + beta r)": alpha + 1 <= bound + _EPS,
    }
    text = f"alpha+1={alpha + 1:g} vs min(n(m-2), nm/2+beta*r)={bound:g}"
    return Verdict(conditions, text)


def kl_dominance_conditions(
    prior: PriorSpec, r: float, n: int, n_columns: int
) -> Verdict:
    """Named conditions for the hierarchical posterior mean to beat the
    Dirichlet posterior mean (KL loss): posterior propriety, nonincreasing g,
    a0 + a_dot + 1 >= 0 and alpha + 1 <= n(-a0 - 2), for n in 1..N."""
    require_r(r)
    loss_columns(n_columns, n)
    alpha, a0 = prior.alpha, prior.a0
    bound = n * (-a0 - 2)
    conditions = {
        "posterior proper": posterior_proper(prior, n_columns, r),
        "g nonincreasing": prior.g.nonincreasing,
        "a0 + a_dot + 1 >= 0": a0 + prior.a_dot + 1 >= -_EPS,
        "alpha + 1 <= n(-a0 - 2)": alpha + 1 <= bound + _EPS,
    }
    return Verdict(conditions, f"alpha+1={alpha + 1:g} vs n(-a0-2)={bound:g}")


def jeffreys_prior(m: int) -> GeneralizedDirichlet:
    """Dirichlet parameters of the information-based default prior:
    a0 = (1 - m)/2 with every a_i = 1/2."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return GeneralizedDirichlet((1.0 - m) / 2.0, np.full(m, 0.5))


def dominance_table() -> list[dict]:
    """Apply the dominance conditions to the three benchmark cases.

    Returns one row per case with boolean verdicts for the columnwise
    empirical Bayes (EB0), pooled empirical Bayes (EB), and hierarchical
    Bayes (HB) estimators, each evaluated at n = N.  EB0 and EB share the
    one empirical Bayes condition.  Rows follow `risklab.CASES`: a case's
    record gives r and the HB prior of its risk table, its truths m and N.
    """
    rows = []
    for case in CASES.values():
        truth = next(iter(case.truths.values()))
        r, m, n = case.r, truth.m, truth.n_columns
        eb = eb_dominance_conditions(m, r).holds
        hb = hb_dominance_conditions(case.alpha, case.beta, case.g, r, m, n).holds
        rows.append({"case": case.name, "EB0": eb, "EB": eb, "HB": hb})
    return rows
