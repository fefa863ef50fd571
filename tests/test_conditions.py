"""One finiteness predicate behind every propriety and validity condition,
checked against the hand-written copies it replaced (condition_oracle)."""

import condition_oracle as oracle
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmshrink import kernel
from nmshrink.estimators import hb
from nmshrink.gibbs import joint_prior_proper
from nmshrink.kernel import ConditionError, GChoice, PriorSpec
from nmshrink.model import CountMatrix

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
        assert joint_prior_proper(alpha, beta, a0, a_cols) is oracle.joint_prior_proper(
            alpha, beta, a0, a_cols
        )
        a_dot = prior.a_dot
        assert delta_nu_refuses(alpha, beta, g, r, a0, a_dot, n_cols) is not (
            oracle.delta_nu_condition(alpha, beta, g, r, a0, a_dot, n_cols)
        )

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
