"""Closed-form propriety and dominance checkers."""

import numpy as np
import pytest

from nmshrink.audit import (
    check_prior_propriety,
    check_shrinkage_conditions,
    dominance_table,
    eb_dominance_conditions,
    hb_dominance_conditions,
    jeffreys_prior,
    kl_dominance_conditions,
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
            assert rep.holds

    def test_tail_failure_without_decay(self):
        rep = check_prior_propriety(spec(6.0, 0.0, 1.0, [1.0, 1.0, 1.0]), 2)
        assert not rep.holds
        assert "tail" in rep.text

    def test_improper_prior_proper_posterior(self):
        m = 3
        prior = spec(2.0, 1.0, -float(m), np.ones(m))
        assert not check_prior_propriety(prior, 4).holds
        assert posterior_proper(prior, 4, m + 1.0)
        assert not posterior_proper(prior, 4, m - 1.0)

    def test_a0_zero_boundary(self):
        good = check_prior_propriety(spec(4.0, 1.0, 0.0, np.ones(3)), 3)
        assert good.holds
        bad = check_prior_propriety(spec(2.0, 1.0, 0.0, np.ones(3)), 3)
        assert not bad.holds


class TestShrinkageConditions:
    def test_requires_r_at_least_5_halves(self):
        with pytest.raises(ValueError):
            check_shrinkage_conditions(lambda z: 1.0, 2.0, 7, 1, 10)

    def test_requires_z_max_at_least_1(self):
        with pytest.raises(ValueError, match="z_max must be at least 1"):
            check_shrinkage_conditions(lambda z: 1.0, 2.5, 7, 1, 0)

    def test_rule_called_once_per_z(self):
        # delta(z + 1) of one z is delta(z) of the next: z_max + 1 calls.
        rule, calls = eb_delta_rule(7, 3, 2.5), []

        def counted(z):
            calls.append(z)
            return rule(z)

        rep = check_shrinkage_conditions(counted, 2.5, 7, 3, 1000)
        assert rep.holds_up_to_z_max
        assert calls == list(range(1, 1002))

    def test_product_decrease_fails_condition_i(self):
        # z * delta(z) = 1/z decreases, so condition (i) fails at z = 1.
        rep = check_shrinkage_conditions(lambda z: 1.0 / z**2, 3.0, 7, 3, 100)
        assert (rep.holds_up_to_z_max, rep.first_violation) == (False, 1)

    def test_negative_core_fails_the_first_branch(self):
        # delta = -60/z keeps z * delta constant, so (i) holds; at z = 2,
        # delta = -30 <= 2(m-3) = 8 and (m-6) delta + 2(m-3) r = -30 + 20 < 0.
        rep = check_shrinkage_conditions(lambda z: -60.0 / z, 2.5, 7, 3, 100)
        assert (rep.holds_up_to_z_max, rep.first_violation) == (False, 2)

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
        assert eb_dominance_conditions(7, 2.5).holds
        assert eb_dominance_conditions(7, 8.0).holds
        assert not eb_dominance_conditions(3, 4.0).holds
        assert not eb_dominance_conditions(1, 2.0).holds
        assert not eb_dominance_conditions(6, 100.0).holds
        assert not eb_dominance_conditions(7, 2.49).holds


class TestHbDominance:
    def test_benchmark_cases(self):
        # 15 <= min(15, 18.5)
        assert hb_dominance_conditions(14.0, 1.0, G1, 8.0, 7, 3).holds
        # 7 <= min(7, 14.5)
        assert hb_dominance_conditions(6.0, 1.0, G1, 4.0, 3, 7).holds
        # n(m-2) < 0
        assert not hb_dominance_conditions(6.0, 1.0, G1, 2.0, 1, 7).holds

    def test_rejects_increasing_g(self):
        gk = GChoice.komaki(1.0, 1.0)
        assert not hb_dominance_conditions(2.0, 1.0, gk, 8.0, 7, 3).holds

    def test_alpha_bound_is_sharp(self):
        assert hb_dominance_conditions(14.0, 1.0, G1, 8.0, 7, 3).holds
        assert not hb_dominance_conditions(14.01, 1.0, G1, 8.0, 7, 3).holds

    def test_r_equal_m_needs_alpha_above_n(self):
        assert hb_dominance_conditions(8.0, 1.0, G1, 7.0, 7, 3).holds
        assert not hb_dominance_conditions(2.5, 1.0, G1, 7.0, 7, 3, n_columns=3).holds


class TestColumnCount:
    """n counts the first n of the N columns: beyond N it is bad input."""

    def test_hb_refuses_n_beyond_n_columns(self):
        with pytest.raises(ValueError, match=r"n must be in 1\.\.3, got 5"):
            hb_dominance_conditions(5.0, 1.0, G1, 8.0, 7, 5, n_columns=3)
        # Without n_columns, N is n.
        assert hb_dominance_conditions(5.0, 1.0, G1, 8.0, 7, 5).holds

    def test_kl_refuses_n_beyond_n_columns(self):
        with pytest.raises(ValueError, match=r"n must be in 1\.\.2, got 9"):
            kl_dominance_conditions(spec(5.0, 1.0, -4.0, np.full(3, 0.5)), 5.0, 9, 2)


class TestKlDominance:
    def test_nonnegative_a0_fails(self):
        verdict = kl_dominance_conditions(spec(1.0, 1.0, 0.0, np.ones(3)), 4.0, 3, 3)
        assert not verdict.holds

    def test_jeffreys_reduction(self):
        # With the information-based default, the bound alpha + 1 <= n(-a0-2)
        # becomes alpha + 1 <= n(m-5)/2 (keeping r clear of the propriety
        # boundary r + a0 = 0).
        for m in (9, 11):
            jp = jeffreys_prior(m)
            r = m / 2.0 + 1.0
            for n in (2, 3):
                for alpha in (0.5, 1.0, 2.0, 5.0, 8.0):
                    lhs = kl_dominance_conditions(spec(alpha, 1.0, jp.a0, jp.a), r, n, n)
                    assert lhs.holds == (alpha + 1 <= n * (m - 5) / 2)

    def test_boundary_propriety_alternative(self):
        # r + a0 = 0 is accepted when alpha > N
        m = 9
        jp = jeffreys_prior(m)
        r = (m - 1) / 2.0
        assert jp.a0 + r == 0
        assert kl_dominance_conditions(spec(4.0, 1.0, jp.a0, jp.a), r, 3, 3).holds
        assert not kl_dominance_conditions(spec(2.0, 1.0, jp.a0, jp.a), r, 3, 3).holds

    def test_acceptance_configuration(self):
        jp = jeffreys_prior(9)
        assert kl_dominance_conditions(spec(5.0, 1.0, jp.a0, jp.a), 5.0, 3, 3).holds


class TestJeffreys:
    def test_values(self):
        jp1 = jeffreys_prior(1)
        assert jp1.a0 == 0.0
        np.testing.assert_allclose(jp1.a, [0.5])
        assert jeffreys_prior(3).a0 == -1.0
        assert jeffreys_prior(9).a0 == -4.0

    def test_needs_a_column(self):
        with pytest.raises(ValueError, match="m must be at least 1"):
            jeffreys_prior(0)


class TestDominanceTable:
    def test_benchmark_pattern(self):
        rows = dominance_table()
        pattern = {r["case"]: (r["EB0"], r["EB"], r["HB"]) for r in rows}
        assert pattern["i"] == (True, True, True)
        assert pattern["ii"] == (False, False, True)
        assert pattern["iii"] == (False, False, False)
