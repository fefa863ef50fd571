"""One finiteness predicate behind every propriety and validity condition,
checked against the hand-written copies it replaced (condition_oracle)."""

import math

import condition_oracle as oracle
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmshrink import kernel
from nmshrink.audit import (
    check_prior_propriety,
    hb_dominance_conditions,
    kl_dominance_conditions,
)
from nmshrink.estimators import hb
from nmshrink.kernel import ConditionError, GChoice, PriorSpec
from nmshrink.model import CountMatrix
from nmshrink.risklab import make_estimator

G_CHOICES = [
    GChoice.constant_one(),
    GChoice.komaki(-1.0, 2.0),  # nonincreasing, q0 = 0
    GChoice.komaki(0.5, 1.0),  # q0 = 1.5
]
# 0.1 and 1/3 are not dyadic: N * a_dot and a float sum can differ in the
# last bit.
WEIGHTS = [0.1, 1 / 3, 0.5, 1.0, 2.0]
HALVES = st.integers(1, 40).map(lambda k: k / 2)


@st.composite
def cases(draw):
    g = draw(st.sampled_from(G_CHOICES))
    beta = draw(st.sampled_from([0.0, 0.5, 1.0]))
    n_cols = draw(st.integers(1, 6))
    a = np.array(draw(st.lists(st.sampled_from(WEIGHTS), min_size=1, max_size=5)))
    m = a.size
    a_cols = np.array(
        draw(
            st.lists(
                st.lists(st.sampled_from(WEIGHTS), min_size=n_cols, max_size=n_cols),
                min_size=m,
                max_size=m,
            )
        )
    )
    r = m + draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 2.0]))  # r = m edge
    # a0 = 0 and r + a0 = 0 edges, and either side of them
    a0 = draw(st.sampled_from([0.0, 0.5, -1.0, -r, -r + 0.5, -r - 0.5]))
    edges = [
        n_cols * float(a.sum()),  # alpha = N a_dot
        float(n_cols * m),  # the hb tail at total N m
        n_cols - g.small_t_exponent,  # alpha + q0 = N
        float(n_cols),
        float(a_cols.sum()),  # the joint prior's tail
    ]
    alpha = draw(st.sampled_from([e for e in edges if e > 0]) | HALVES)
    return alpha, beta, g, r, m, a0, a, a_cols, n_cols


def delta_nu_refuses(alpha, beta, g, r, a0, a_dot, n_cols) -> bool:
    """Whether delta_nu raises ConditionError; the kernel itself is stubbed
    out, so only the check runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "log_kernel", lambda *args: np.zeros(2))
        try:
            kernel.delta_nu(alpha, beta, g, r, a0, a_dot, np.zeros(n_cols, int), 0)
        except ConditionError:
            return True
    return False


class TestOnePredicate:
    @settings(max_examples=500, deadline=None)
    @given(cases())
    # beta = 0 and alpha = N a_dot = 2.6 exactly, where the float sum of N
    # copies of a_dot is 2.6000000000000005
    @example((6 * (0.1 + 1 / 3), 0.0, G_CHOICES[0], 2.5, 2, 0.5,
              np.array([0.1, 1 / 3]), np.full((2, 6), 0.1), 6))
    def test_agrees_with_each_copy(self, case):
        alpha, beta, g, r, m, a0, a, a_cols, n_cols = case
        prior = PriorSpec(alpha, beta, g, a0, a)
        assert kernel.prior_proper(prior, n_cols) is oracle.prior_proper(prior, n_cols)
        assert kernel.posterior_proper(prior, n_cols, r) is oracle.posterior_proper(
            prior, n_cols, r
        )
        assert kernel.hb_assumptions_hold(
            alpha, beta, g, r, m, n_cols
        ) is oracle.hb_assumptions_hold(alpha, beta, g, r, m, n_cols)
        a_dot = prior.a_dot
        assert delta_nu_refuses(alpha, beta, g, r, a0, a_dot, n_cols) is not (
            oracle.delta_nu_condition(alpha, beta, g, r, a0, a_dot, n_cols)
        )

    @settings(max_examples=300, deadline=None)
    @given(cases())
    def test_audit_verdict_is_the_predicate(self, case):
        alpha, beta, g, _, _, a0, a, _, n_cols = case
        prior = PriorSpec(alpha, beta, g, a0, a)
        verdict = check_prior_propriety(prior, n_cols)
        assert verdict.holds is kernel.prior_proper(prior, n_cols)

    def test_negative_xi0_is_never_finite(self):
        g1 = GChoice.constant_one()
        assert not kernel.kernel_finite(5.0, 1.0, g1, -1e-300, 1, 1.0)
        assert kernel.kernel_finite(5.0, 1.0, g1, 0.0, 4, 1.0)
        assert not kernel.kernel_finite(5.0, 1.0, g1, 0.0, 5, 1.0)

    def test_hb_errors_share_one_text(self):
        g1 = GChoice.constant_one()
        with pytest.raises(ConditionError) as direct:
            kernel.delta_hb(6.0, 1.0, g1, 2.0, 3, np.array([1, 2]))
        with pytest.raises(ConditionError) as estimator:
            hb(CountMatrix(np.zeros((3, 2), dtype=int)), 2.0, 6.0, 1.0, g1)
        assert str(direct.value) == str(estimator.value)


# Every entry point that takes the hierarchical shape alpha and rate beta as
# numbers, called with otherwise valid arguments (r = 8 above m).
X = CountMatrix(np.array([[3, 0], [2, 1], [0, 4]]))
ALPHA_BETA_CALLS = {
    "PriorSpec": lambda a, b, g: PriorSpec(a, b, g, 0.5, np.ones(3)),
    "log_kernel": lambda a, b, g: kernel.log_kernel([a, a + 1], b, g, 1.0, [3.0, 5.0]),
    "hb": lambda a, b, g: hb(X, 8.0, a, b, g),
    "delta_hb": lambda a, b, g: kernel.delta_hb(a, b, g, 8.0, 3, np.array([5, 5])),
    "delta_nu": lambda a, b, g: kernel.delta_nu(a, b, g, 8.0, 0.5, 3.0, [5, 5], 0),
    "make_estimator": lambda a, b, g: make_estimator("hb", alpha=a, beta=b, g=g),
    "hb_dominance_conditions": lambda a, b, g: hb_dominance_conditions(
        a, b, g, 8, 7, 3
    ),
    "kl_dominance_conditions": lambda a, b, g: kl_dominance_conditions(
        a, b, g, 1.0, np.ones(3), 8, 3, 3
    ),
}
RULE_SIGN = "alpha must be positive and beta nonnegative"
RULE_FINITE = "alpha and beta must be finite"
BAD_ALPHA_BETA = [
    (0.0, 1.0, GChoice.constant_one(), RULE_SIGN),
    (-1.0, 1.0, GChoice.constant_one(), RULE_SIGN),
    (0.0, 1.0, GChoice.komaki(1.0, 1.0), RULE_SIGN),
    (-1.0, 1.0, GChoice.komaki(1.0, 1.0), RULE_SIGN),
    (14.0, -0.1, GChoice.constant_one(), RULE_SIGN),
    (math.inf, 1.0, GChoice.constant_one(), RULE_FINITE),
]


class TestOneAlphaBetaRule:
    """Bad hyperparameters are bad input (ValueError) on every entry point,
    refused before any condition is tested (never a ConditionError)."""

    @pytest.mark.parametrize("alpha, beta, g, message", BAD_ALPHA_BETA)
    @pytest.mark.parametrize("name", sorted(ALPHA_BETA_CALLS))
    def test_refused_by_the_rule(self, name, alpha, beta, g, message):
        call = ALPHA_BETA_CALLS[name]
        call(14.0, 1.0, g)  # the call's other arguments are valid
        with pytest.raises(ValueError) as refused:
            call(alpha, beta, g)
        assert not isinstance(refused.value, ConditionError)
        assert str(refused.value) == message
