"""One finiteness predicate behind every propriety and validity condition,
checked against the hand-written copies it replaced (condition_oracle), and
one rule each for the hyperparameters alpha, beta, the size r and the counts."""

import math
import warnings

import condition_oracle as oracle
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmshrink import estimators, kernel
from nmshrink.audit import (
    check_prior_propriety,
    check_shrinkage_conditions,
    eb_dominance_conditions,
    hb_dominance_conditions,
    kl_dominance_conditions,
)
from nmshrink.estimators import hb
from nmshrink.gibbs import ChainConfig, run_posterior
from nmshrink.kernel import ConditionError, GChoice, PriorSpec
from nmshrink.model import (
    CountMatrix,
    ModelParams,
    ProbColumn,
    nm_log_pmf,
    nm_moments,
    nm_sample,
    require_counts,
)
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
        mp.setattr(kernel, "_log_kernels", lambda *args: np.zeros((1, 2)))
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
        if r == 0:  # r = m - 1 at m = 1: bad input, refused before any condition
            with pytest.raises(ValueError, match="^r must be positive and finite") as bad:
                delta_nu_refuses(alpha, beta, g, r, a0, a_dot, n_cols)
            assert not isinstance(bad.value, ConditionError)
            return
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
        PriorSpec(a, b, g, 1.0, np.ones(3)), 8, 3, 3
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


# Every public entry point that takes the size r, called with otherwise valid
# arguments.  Where a condition involves r (hb's r > m, propriety's r + a0),
# the other arguments make it fail at r = 0, so a bad r must be refused first.
G1 = GChoice.constant_one()
COLUMN = ProbColumn(np.array([0.2, 0.3]))
ZEROS = CountMatrix(np.zeros((3, 2), dtype=int))
IMPROPER_BELOW_5 = PriorSpec(6.0, 1.0, G1, -5.0, np.ones(3))
R_CALLS = {
    "ModelParams": lambda r: ModelParams(r, (COLUMN,)),
    "nm_log_pmf": lambda r: nm_log_pmf(np.array([1, 2]), r, COLUMN),
    "nm_sample": lambda r: nm_sample(r, COLUMN, np.random.default_rng(0)),
    "nm_moments": lambda r: nm_moments(r, COLUMN),
    "umvu": lambda r: estimators.umvu(X, r),
    "shrink_general": lambda r: estimators.shrink_general(X, r, lambda z: 1.0),
    "eb_delta_rule": lambda r: estimators.eb_delta_rule(3, 2, r),
    "eb": lambda r: estimators.eb(X, r),
    "eb0": lambda r: estimators.eb0(X, r),
    "hb": lambda r: hb(X, r, 14.0, 1.0, G1),
    "hb zero counts": lambda r: hb(ZEROS, r, 14.0, 1.0, G1),
    "dirichlet_posterior_mean": lambda r: estimators.dirichlet_posterior_mean(
        X, r, -5.0, np.ones(3)
    ),
    "hb_posterior_mean": lambda r: estimators.hb_posterior_mean(X, r, IMPROPER_BELOW_5),
    "delta_hb": lambda r: kernel.delta_hb(14.0, 1.0, G1, r, 3, np.array([5, 5])),
    "delta_nu": lambda r: kernel.delta_nu(6.0, 1.0, G1, r, -5.0, 3.0, [5, 5], 0),
    "run_posterior": lambda r: run_posterior(X, r, IMPROPER_BELOW_5, ChainConfig(10)),
    "check_shrinkage_conditions": lambda r: check_shrinkage_conditions(
        lambda z: 1.0, r, 7, 3, 10
    ),
    "eb_dominance_conditions": lambda r: eb_dominance_conditions(7, r),
    "hb_dominance_conditions": lambda r: hb_dominance_conditions(14.0, 1.0, G1, r, 7, 3),
    "kl_dominance_conditions": lambda r: kl_dominance_conditions(
        IMPROPER_BELOW_5, r, 3, 3
    ),
}
BAD_R = [0.0, -0.5, math.inf, -math.inf, math.nan]
# The entry points that also take alpha and beta: (alpha, beta) -> call at r.
ALPHA_BETA_R_CALLS = {
    "hb": lambda a, b, r: hb(X, r, a, b, G1),
    "hb zero counts": lambda a, b, r: hb(ZEROS, r, a, b, G1),
    "delta_hb": lambda a, b, r: kernel.delta_hb(a, b, G1, r, 3, np.array([5, 5])),
    "delta_nu": lambda a, b, r: kernel.delta_nu(a, b, G1, r, -5.0, 3.0, [5, 5], 0),
    "hb_dominance_conditions": lambda a, b, r: hb_dominance_conditions(a, b, G1, r, 7, 3),
    "kl_dominance_conditions": lambda a, b, r: kl_dominance_conditions(
        PriorSpec(a, b, G1, -5.0, np.ones(3)), r, 3, 3
    ),
}


class TestOneRRule:
    """A size r outside (0, inf) is bad input (ValueError) on every entry
    point, refused by `model.require_r` with its message before any condition
    is tested; a bad alpha or beta is still refused first."""

    @pytest.mark.parametrize("r", BAD_R)
    @pytest.mark.parametrize("name", sorted(R_CALLS))
    def test_refused_by_the_rule(self, name, r):
        call = R_CALLS[name]
        call(8.0)  # the call's other arguments are valid
        with pytest.raises(ValueError) as refused:
            call(r)
        assert not isinstance(refused.value, ConditionError)
        assert str(refused.value) == f"r must be positive and finite, got {r!r}"

    @pytest.mark.parametrize("r", BAD_R)
    @pytest.mark.parametrize("name", sorted(ALPHA_BETA_R_CALLS))
    def test_alpha_beta_rule_comes_first(self, name, r):
        with pytest.raises(ValueError) as refused:
            ALPHA_BETA_R_CALLS[name](-1.0, 1.0, r)
        assert str(refused.value) == RULE_SIGN


# Every entry point that takes counts, on a vector z of two entries, and the
# block its 2^53 message names.
COUNT_CALLS = {
    "CountMatrix": (lambda z: CountMatrix(np.array([z])), "matrix"),
    "nm_log_pmf": (lambda z: nm_log_pmf(np.array(z), 2.0, COLUMN), "vector"),
    "delta_hb": (lambda z: kernel.delta_hb(14.0, 1.0, G1, 8.0, 7, np.array(z)), "vector"),
    "delta_nu": (lambda z: kernel.delta_nu(6.0, 1.0, G1, 8.0, -3.0, 3.0, np.array(z), 0),
                 "vector"),
}
# Counts the rule refuses, with its message ({} is the block).
BAD_COUNTS = {
    "2.5": ([2.5, 3], "counts must be integers"),
    "-1": ([-1, 3], "counts must be nonnegative"),
    "nan": ([math.nan, 3], "counts must be integers"),
    "inf": ([math.inf, 3], "the counts of a {} must total below 2^53"),
    "-inf": ([-math.inf, 3], "counts must be nonnegative"),
    "string": (["1", "2"], "counts must be integers"),
    "total 2^53": ([2**52, 2**52], "the counts of a {} must total below 2^53"),
}


class TestOneCountRule:
    """Counts that are not nonnegative whole numbers totalling below 2^53 are
    bad input (ValueError, never NumPy's TypeError) on every entry point,
    refused by `model.require_counts` with its message and no warning."""

    @pytest.mark.parametrize("bad", BAD_COUNTS)
    @pytest.mark.parametrize("name", COUNT_CALLS)
    def test_refused_by_the_rule(self, name, bad):
        call, block = COUNT_CALLS[name]
        call([2, 3])  # the call's other arguments are valid
        z, message = BAD_COUNTS[bad]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as refused:
                call(z)
        assert str(refused.value) == message.format(block)

    def test_whole_numbers_come_back_as_c_ordered_int64(self):
        x = np.asfortranarray([[2.0, 0.0], [1.0, 3.0]])
        for given in (x, x.astype(np.uint8), x > 0):
            got = require_counts(given, 2)
            assert got.dtype == np.int64 and got.flags.c_contiguous
            np.testing.assert_array_equal(got, given)

    def test_each_trailing_block_totals_below_2_to_53(self):
        # Two vectors of 2^53 - 1 each: as vectors they pass, as one matrix not.
        stack = np.array([[2**52, 2**52 - 1], [2**52, 2**52 - 1]])
        np.testing.assert_array_equal(require_counts(stack, 1), stack)
        with pytest.raises(ValueError, match="counts of a matrix must total below 2\\^53"):
            require_counts(stack, 2)

    @pytest.mark.parametrize("x, ndim, what", [
        (3, 1, "1-d vector"), ([], 1, "1-d vector"), ([1, 2], 2, "2-d matrix"),
        ([[]], 2, "2-d matrix"),
    ])
    def test_too_few_dimensions_or_empty(self, x, ndim, what):
        with pytest.raises(ValueError, match=f"^counts must form a nonempty {what}$"):
            require_counts(x, ndim)
