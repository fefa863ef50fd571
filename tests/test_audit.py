"""Closed-form propriety and dominance checkers."""

import numpy as np
import pytest

from nmshrink.audit import (
    check_eb_dominance,
    check_hb_dominance,
    check_kl_dominance,
    check_prior_propriety,
    check_shrinkage_conditions,
    dominance_table,
    jeffreys_prior,
)
from nmshrink.estimators import eb_delta_rule
from nmshrink.kernel import GChoice, PriorSpec, posterior_proper

G1 = GChoice.constant_one()


def spec(alpha, beta, a0, a):
    return PriorSpec(alpha, beta, G1, a0, np.asarray(a, dtype=float))


class TestPriorPropriety:
    def test_positive_a0_with_decay(self):
        for alpha in (0.5, 3.0, 50.0):
            rep = check_prior_propriety(spec(alpha, 1.0, 0.5, [1.0, 1.0]), 2)
            assert rep.prior_proper

    def test_tail_failure_without_decay(self):
        rep = check_prior_propriety(spec(6.0, 0.0, 1.0, [1.0, 1.0, 1.0]), 2)
        assert not rep.prior_proper
        assert "tail" in rep.reasons

    def test_improper_prior_proper_posterior(self):
        m = 3
        prior = spec(2.0, 1.0, -float(m), np.ones(m))
        assert not check_prior_propriety(prior, 4).prior_proper
        assert posterior_proper(prior, 4, m + 1.0)
        assert not posterior_proper(prior, 4, m - 1.0)

    def test_a0_zero_boundary(self):
        good = check_prior_propriety(spec(4.0, 1.0, 0.0, np.ones(3)), 3)
        assert good.prior_proper
        bad = check_prior_propriety(spec(2.0, 1.0, 0.0, np.ones(3)), 3)
        assert not bad.prior_proper


class TestShrinkageConditions:
    def test_requires_r_at_least_5_halves(self):
        with pytest.raises(ValueError):
            check_shrinkage_conditions(lambda z: 1.0, 2.0, 7, 1, 10)

    def test_small_constant_holds(self):
        # delta = c0 <= 2(m-3) works when m >= 6(r + c0)/(2r + c0)
        m, r, c0 = 7, 3.0, 2.0
        assert m >= 6 * (r + c0) / (2 * r + c0)
        rep = check_shrinkage_conditions(lambda z: c0, r, m, 2, 2000)
        assert rep.holds_up_to_z_max and rep.first_violation is None

    def test_growth_condition_for_decaying_rule(self):
        # c1 + c2/z satisfies the product-monotonicity condition (i)
        rule = eb_delta_rule(3, 2, 3.0)  # 4 + 18/z: fails (ii) for small m
        for z in range(1, 500):
            assert z * rule(z) <= (z + 1) * rule(z + 1) + 1e-9

    def test_two_branch_hand_case(self):
        # m=5, delta = 2(m-3) = 4: the first branch needs -delta + 4r >= 0,
        # true exactly when r >= 1; r >= 5/2 makes it hold.
        rep = check_shrinkage_conditions(lambda z: 4.0, 2.5, 5, 1, 1000)
        assert rep.holds_up_to_z_max

    def test_violation_is_reported_with_location(self):
        # A large constant lands in the second branch, whose right side
        # grows linearly in z: must fail at some finite z.
        rep = check_shrinkage_conditions(lambda z: 50.0, 2.5, 7, 1, 10_000)
        assert not rep.holds_up_to_z_max
        assert rep.first_violation is not None
        z = rep.first_violation
        assert 1 * ((7 - 6) * 50.0 + 2 * 4 * 2.5) < (z - 1) * (50.0 - 8.0)

    def test_eb_rule_passes_at_dominance_thresholds(self):
        # Pooled empirical Bayes rule checked at n = N
        for m, r, n_cols in [(7, 2.5, 3), (9, 3.0, 7), (8, 8.0, 2)]:
            rule = eb_delta_rule(m, n_cols, r)
            rep = check_shrinkage_conditions(rule, r, m, n_cols, 10_000)
            assert rep.holds_up_to_z_max, (m, r, n_cols, rep.first_violation)

    def test_remark_limit_proxy(self):
        # Any rule with a finite limit that passes the checker must satisfy
        # m >= 2 + delta(inf)/2 (numerical proxy at z = 10^4).
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = int(rng.integers(4, 12))
            r = float(rng.uniform(2.5, 9.0))
            c0 = float(rng.uniform(0.1, 2.5 * (m - 2)))
            rep = check_shrinkage_conditions(lambda z, c0=c0: c0, r, m, 3, 10_000)
            if rep.holds_up_to_z_max:
                assert m >= 2 + c0 / 2 - 0.1


class TestEbDominance:
    def test_threshold_cases(self):
        assert check_eb_dominance(7, 2.5)
        assert check_eb_dominance(7, 8.0)
        assert not check_eb_dominance(3, 4.0)
        assert not check_eb_dominance(1, 2.0)
        assert not check_eb_dominance(6, 100.0)
        assert not check_eb_dominance(7, 2.49)


class TestHbDominance:
    def test_benchmark_cases(self):
        assert check_hb_dominance(14.0, 1.0, G1, 8.0, 7, 3)  # 15 <= min(15, 18.5)
        assert check_hb_dominance(6.0, 1.0, G1, 4.0, 3, 7)  # 7 <= min(7, 14.5)
        assert not check_hb_dominance(6.0, 1.0, G1, 2.0, 1, 7)  # n(m-2) < 0

    def test_rejects_increasing_g(self):
        gk = GChoice.komaki(1.0, 1.0)
        assert not check_hb_dominance(2.0, 1.0, gk, 8.0, 7, 3)

    def test_alpha_bound_is_sharp(self):
        assert check_hb_dominance(14.0, 1.0, G1, 8.0, 7, 3)
        assert not check_hb_dominance(14.01, 1.0, G1, 8.0, 7, 3)

    def test_r_equal_m_needs_alpha_above_n(self):
        assert check_hb_dominance(8.0, 1.0, G1, 7.0, 7, 3)
        assert not check_hb_dominance(2.5, 1.0, G1, 7.0, 7, 3, n_columns=3)


class TestKlDominance:
    def test_nonnegative_a0_fails(self):
        assert not check_kl_dominance(1.0, 1.0, G1, 0.0, np.ones(3), 4.0, 3, 3)

    def test_jeffreys_reduction(self):
        # With the information-based default, the bound alpha + 1 <= n(-a0-2)
        # becomes alpha + 1 <= n(m-5)/2 (keeping r clear of the propriety
        # boundary r + a0 = 0).
        for m in (9, 11):
            jp = jeffreys_prior(m)
            r = m / 2.0 + 1.0
            for n in (2, 3):
                for alpha in (0.5, 1.0, 2.0, 5.0, 8.0):
                    lhs = check_kl_dominance(alpha, 1.0, G1, jp.a0, jp.a, r, n, n)
                    assert lhs == (alpha + 1 <= n * (m - 5) / 2)

    def test_boundary_propriety_alternative(self):
        # r + a0 = 0 is accepted when alpha > N
        m = 9
        jp = jeffreys_prior(m)
        r = (m - 1) / 2.0
        assert jp.a0 + r == 0
        assert check_kl_dominance(4.0, 1.0, G1, jp.a0, jp.a, r, 3, 3)
        assert not check_kl_dominance(2.0, 1.0, G1, jp.a0, jp.a, r, 3, 3)

    def test_acceptance_configuration(self):
        jp = jeffreys_prior(9)
        assert check_kl_dominance(5.0, 1.0, G1, jp.a0, jp.a, 5.0, 3, 3)


class TestJeffreys:
    def test_values(self):
        jp1 = jeffreys_prior(1)
        assert jp1.a0 == 0.0
        np.testing.assert_allclose(jp1.a, [0.5])
        assert jeffreys_prior(3).a0 == -1.0
        assert jeffreys_prior(9).a0 == -4.0


class TestDominanceTable:
    def test_benchmark_pattern(self):
        rows = dominance_table()
        pattern = {r["case"]: (r["EB0"], r["EB"], r["HB"]) for r in rows}
        assert pattern["i"] == (True, True, True)
        assert pattern["ii"] == (False, False, True)
        assert pattern["iii"] == (False, False, False)
