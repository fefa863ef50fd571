"""Estimator formulas, nesting relations, and the MCMC cross-check."""

import functools
import math

import numpy as np
import pytest
from scipy.special import gammaln

from nmshrink.estimators import (
    dirichlet_posterior_mean,
    eb,
    eb0,
    eb_delta_rule,
    hb,
    hb_posterior_mean,
    shrink_general,
    umvu,
)
from nmshrink.kernel import ConditionError, GChoice, PriorSpec, delta_hb, delta_nu
from nmshrink.model import CountMatrix, ProbColumn, make_rng, nm_sample
from nmshrink.risklab import CASES, _sample_stack

G1 = GChoice.constant_one()


def counts(rows) -> CountMatrix:
    return CountMatrix(np.array(rows))


class TestUmvu:
    def test_hand_column(self):
        x = counts([[3], [2], [0]])
        np.testing.assert_allclose(umvu(x, 8.0), [[3 / 12], [2 / 12], [0.0]])

    def test_all_zero(self):
        x = counts([[0, 0], [0, 0]])
        np.testing.assert_array_equal(umvu(x, 2.0), np.zeros((2, 2)))

    def test_small_r_accepted(self):
        x = counts([[1], [0]])
        out = umvu(x, 0.5)
        assert out[0, 0] == pytest.approx(1 / 0.5)
        assert out[1, 0] == 0.0

    def test_unbiased_by_enumeration(self):
        # m = N = 1, r = 2, p = 0.5: exact expectation over x <= 400
        r, p = 2.0, 0.5
        ks = np.arange(401)
        log_pmf = (
            gammaln(r + ks) - gammaln(r) - gammaln(ks + 1.0)
            + r * math.log(1 - p) + ks * math.log(p)
        )
        w = np.exp(log_pmf)
        est = np.where(ks >= 1, ks / (r + ks - 1.0), 0.0)
        assert abs((w * est).sum() - p) < 1e-8


class TestShrinkGeneral:
    def test_constant_delta_matches_dirichlet_bayes_rule(self):
        # delta = a0 + m reproduces X / (r + a0 + colsum + m - 1)
        x = counts([[3, 1], [2, 0], [0, 5]])
        r, a0 = 8.0, 2.0
        out = shrink_general(x, r, lambda z: a0 + x.m)
        expect = np.where(
            x.x > 0, x.x / (r + a0 + x.col_sums + x.m - 1.0)[None, :], 0.0
        )
        np.testing.assert_allclose(out, expect)

    def test_delta_to_zero_recovers_umvu(self):
        x = counts([[3, 1], [2, 0], [0, 5]])
        out = shrink_general(x, 8.0, lambda z: 1e-14)
        np.testing.assert_allclose(out, umvu(x, 8.0), rtol=1e-12)

    def test_strictly_below_umvu_on_positive_counts(self):
        x = counts([[3, 1], [2, 0], [0, 5]])
        u, s = umvu(x, 8.0), shrink_general(x, 8.0, lambda z: 2.0)
        pos = x.x > 0
        assert np.all(s[pos] < u[pos])
        assert np.all(s[~pos] == 0.0)

    def test_monotone_in_delta(self):
        x = counts([[3, 1], [2, 0], [0, 5]])
        a = shrink_general(x, 8.0, lambda z: 1.0)
        b = shrink_general(x, 8.0, lambda z: 3.0)
        pos = x.x > 0
        assert np.all(b[pos] < a[pos])

    def test_rejects_nonpositive_delta(self):
        x = counts([[1]])
        with pytest.raises(ValueError):
            shrink_general(x, 2.0, lambda z: 0.0)


class TestEb:
    def test_delta_rule_hand_value(self):
        # m=7, N=3, r=8, grand total 10: 1 + 7 + 168/10 = 24.8
        assert eb_delta_rule(7, 3, 8.0)(10) == pytest.approx(24.8)

    def test_delta_rule_limit(self):
        rule = eb_delta_rule(7, 3, 8.0)
        assert rule(10**9) == pytest.approx(1 + 7, abs=1e-5)

    def test_delta_rule_zero_sentinel(self):
        assert eb_delta_rule(7, 3, 8.0)(0) == math.inf

    def test_matches_explicit_formula(self):
        x = counts([[3, 1], [2, 0], [0, 5]])
        r = 8.0
        d = 1 + 3 + 2 * 3 * r / x.grand_sum
        expect = np.where(x.x > 0, x.x / (r + x.col_sums - 1.0 + d)[None, :], 0.0)
        np.testing.assert_allclose(eb(x, r), expect)

    def test_all_zero_maps_to_zero(self):
        x = counts([[0, 0], [0, 0]])
        np.testing.assert_array_equal(eb(x, 4.0), np.zeros((2, 2)))


class TestEb0:
    def test_single_column_equals_pooled_eb(self):
        x = counts([[3], [2], [0]])
        np.testing.assert_allclose(eb0(x, 8.0), eb(x, 8.0))

    def test_hand_column(self):
        x = counts([[3], [2], [0]])
        denom = 8.0 + 5 + 3 + 3 * 8.0 / 5
        np.testing.assert_allclose(
            eb0(x, 8.0), [[3 / denom], [2 / denom], [0.0]]
        )

    def test_columnwise_equivariance(self):
        x = counts([[3, 1, 0], [2, 0, 4]])
        perm = [2, 0, 1]
        out = eb0(x, 4.0)
        out_perm = eb0(CountMatrix(x.x[:, perm]), 4.0)
        np.testing.assert_allclose(out_perm, out[:, perm])

    def test_zero_column(self):
        x = counts([[0, 3], [0, 1]])
        out = eb0(x, 4.0)
        assert np.all(out[:, 0] == 0.0)
        assert np.all(out[:, 1] > 0.0)


class TestHb:
    def test_all_zero_maps_to_zero(self):
        x = counts([[0, 0, 0]] * 7)
        np.testing.assert_array_equal(
            hb(x, 8.0, 14.0, 1.0, G1), np.zeros((7, 3))
        )

    def test_all_zero_matrix_is_kept_out_of_the_kernel(self):
        # beta = 0, m = N = 2, r = 3 and alpha = 3.9 just below N m = 4: the
        # kernel at the all-zero matrix (xi = m) is the one closest to tail
        # divergence, and delta_hb fails there, so hb must not evaluate it.
        zero, x = np.zeros((2, 2), dtype=int), np.array([[3, 1], [0, 2]])
        fit = functools.partial(hb, r=3.0, alpha=3.9, beta=0.0, g=G1)
        np.testing.assert_array_equal(fit(counts(zero)), np.zeros((2, 2)))
        alone = fit(counts(x))
        assert np.all(np.isfinite(alone)) and np.all((alone > 0) == (x > 0))
        stacked = fit(CountMatrix(np.stack([zero, x, zero])))
        assert np.array_equal(stacked, np.stack([zero, alone, zero]))

    def test_balanced_columns_share_shrinkage(self):
        col = [[2], [1], [3], [0], [1], [2], [1]]
        x = counts([row * 3 for row in col])
        out = hb(x, 8.0, 14.0, 1.0, G1)
        np.testing.assert_allclose(out[:, 0], out[:, 1])
        np.testing.assert_allclose(out[:, 0], out[:, 2])

    def test_column_permutation_equivariance(self):
        # Bitwise, on the three risk-table case batches: the 1000 seed-42
        # replications of each of a case's three truths.
        for case in CASES.values():
            x = np.concatenate([_sample_stack(truth, 42, range(1000))
                                for truth in case.truths.values()])
            prior = (case.alpha, case.beta, case.g)
            out = hb(CountMatrix(x), case.r, *prior)
            n_cols = x.shape[-1]
            for perm in (np.roll(np.arange(n_cols), 1), np.arange(n_cols)[::-1]):
                out_perm = hb(CountMatrix(x[..., perm]), case.r, *prior)
                assert np.array_equal(out_perm, out[..., perm]), case

    def test_matches_delta_formula(self):
        x = counts([[3, 1, 2], [2, 0, 1], [0, 5, 4]])
        d = delta_hb(6.0, 1.0, G1, 4.0, 3, x.col_sums)
        expect = np.where(x.x > 0, x.x / (4.0 + x.col_sums - 1.0 + d)[None, :], 0.0)
        np.testing.assert_allclose(hb(x, 4.0, 6.0, 1.0, G1), expect)

    def test_assumption_violation(self):
        x = counts([[1, 2]] * 7)
        with pytest.raises(ConditionError):
            hb(x, 2.0, 14.0, 1.0, G1)

    def test_bounded_increasing_weight_still_evaluates(self):
        # The non-monotone weight is outside the dominance theory but the
        # estimator itself stays well defined.
        x = counts([[3, 1, 2], [2, 2, 1], [1, 5, 4]])
        out = hb(x, 8.0, 14.0, 1.0, GChoice.komaki(0.5, 1.0))
        assert np.all(np.isfinite(out))
        assert np.all((out > 0) == (x.x > 0))

    def test_agrees_with_gibbs_reciprocal_moment(self):
        # Entries are 1 / E[1/p | counts]; estimate that expectation from the
        # conjugate sampler and require 2% relative agreement wherever the
        # Monte Carlo moment is well behaved (counts >= 2).
        from nmshrink.gibbs import ChainConfig, run_posterior

        rng = make_rng(0)
        cols = [nm_sample(8.0, ProbColumn(np.ones(7) / 8.0), rng) for _ in range(3)]
        x = CountMatrix(np.column_stack(cols))
        assert np.all(x.x >= 2), "seed chosen so every count is at least 2"
        out = hb(x, 8.0, 14.0, 1.0, G1)
        prior = PriorSpec(14.0, 1.0, G1, -7.0, np.ones(7))
        chain = run_posterior(
            x, 8.0, prior, ChainConfig(n_iter=60_000, burn_in=10_000, seed=5)
        )
        oracle = 1.0 / (1.0 / chain.p).mean(axis=0)
        assert np.all(np.abs(out / oracle - 1.0) < 0.02)


class TestDirichletPosteriorMean:
    def test_hand_value(self):
        x = counts([[0]])
        out = dirichlet_posterior_mean(x, 2.0, 0.0, np.array([1.0]))
        assert out[0, 0] == pytest.approx(1.0 / 3.0)

    def test_column_sums(self):
        x = counts([[3, 1], [2, 0], [0, 5]])
        a = np.array([0.5, 0.5, 0.5])
        out = dirichlet_posterior_mean(x, 4.0, -1.0, a)
        z = x.col_sums
        expect = (z + 1.5) / (4.0 - 1.0 + z + 1.5)
        np.testing.assert_allclose(out.sum(axis=0), expect)
        assert np.all(out > 0)

    def test_propriety_guard(self):
        x = counts([[1]])
        with pytest.raises(ConditionError):
            dirichlet_posterior_mean(x, 1.0, -1.0, np.array([0.5]))

    @pytest.mark.parametrize("r", [0.0, -0.5])
    def test_rejects_nonpositive_r(self, r):
        # a0 = 3 keeps r + a0 > 0: r itself is out of the model
        with pytest.raises(ValueError, match="r must be positive"):
            dirichlet_posterior_mean(counts([[1]]), r, 3.0, np.array([0.5]))

    def test_rejects_weights_of_another_length(self):
        with pytest.raises(ValueError, match="a must have length m"):
            dirichlet_posterior_mean(counts([[1], [2]]), 4.0, 3.0, np.ones(3))


class TestHbPosteriorMean:
    def _prior(self, m):
        return PriorSpec(5.0, 1.0, G1, -(m - 1) / 2.0, np.full(m, 0.5))

    def test_matches_delta_nu_formula(self):
        x = counts([[3, 1], [2, 0], [0, 5]])
        prior = self._prior(3)
        out = hb_posterior_mean(x, 4.0, prior)
        z = x.col_sums
        deltas = np.array(
            [
                delta_nu(5.0, 1.0, G1, 4.0, prior.a0, prior.a_dot, z, nu)
                for nu in range(2)
            ]
        )
        expect = (x.x + 0.5) / (4.0 + prior.a0 + z + prior.a_dot + deltas)[None, :]
        np.testing.assert_allclose(out, expect)

    def test_dominated_by_dirichlet_posterior_mean(self):
        x = counts([[3, 1], [2, 0], [0, 5]])
        prior = self._prior(3)
        plain = dirichlet_posterior_mean(x, 4.0, prior.a0, prior.a)
        shrunk = hb_posterior_mean(x, 4.0, prior)
        assert np.all(shrunk < plain)
        assert np.all(shrunk > 0)

    def test_balanced_symmetry(self):
        x = counts([[2, 2], [1, 1], [3, 3]])
        out = hb_posterior_mean(x, 4.0, self._prior(3))
        np.testing.assert_allclose(out[:, 0], out[:, 1], rtol=1e-12)

    def test_propriety_guard(self):
        x = counts([[1, 1]])
        prior = PriorSpec(5.0, 1.0, G1, -3.0, np.array([0.5]))
        with pytest.raises(ConditionError):
            hb_posterior_mean(x, 1.0, prior)

    @pytest.mark.parametrize("r", [0.0, -0.5])
    def test_rejects_nonpositive_r(self, r):
        prior = PriorSpec(5.0, 1.0, G1, 3.0, np.full(3, 0.5))
        with pytest.raises(ValueError, match="r must be positive"):
            hb_posterior_mean(counts([[3, 1], [2, 0], [0, 5]]), r, prior)


class TestStacks:
    def test_stack_matches_each_matrix_bit_for_bit(self):
        # Each matrix of a (reps, m, N) stack, including an all-zero one,
        # gets exactly the estimate it gets alone.
        rng = make_rng(3)
        x = rng.integers(0, 6, size=(5, 3, 2))
        x[2] = 0
        stack = CountMatrix(x)
        prior = PriorSpec(5.0, 1.0, G1, -1.0, np.full(3, 0.5))
        for fn in (
            umvu,
            eb,
            eb0,
            lambda c, r: hb(c, r, 6.0, 1.0, G1),
            lambda c, r: dirichlet_posterior_mean(c, r, prior.a0, prior.a),
            lambda c, r: hb_posterior_mean(c, r, prior),
        ):
            out = fn(stack, 4.0)
            assert out.shape == x.shape
            for k in range(x.shape[0]):
                assert np.array_equal(out[k], fn(CountMatrix(x[k]), 4.0))

    def test_hb_pm_stack_across_row_blocks(self):
        # 100 matrices of N = 3 columns are 300 kernel rows, so the row blocks
        # split some matrices' columns; at r + a0 = 0 each row has a kernel
        # that halves h.  Each matrix still gets exactly the estimate it gets
        # alone.
        x = make_rng(5).integers(0, 4, size=(100, 2, 3))
        x[7] = 0
        prior = PriorSpec(3.2, 1.0, G1, -1.0, np.full(2, 0.05))
        out = hb_posterior_mean(CountMatrix(x), 1.0, prior)
        for k in range(x.shape[0]):
            assert np.array_equal(out[k], hb_posterior_mean(CountMatrix(x[k]), 1.0, prior))


def _sweep_matrices(seed: int = 42, n: int = 50) -> list[CountMatrix]:
    """Count matrices built as the benchmark's cli-sweep builds them: m = 7,
    N = 3, column sums on a log grid from about 10 to about 1e4, each column
    multinomial given its sum."""
    rng = np.random.default_rng([seed, 200])
    weights = np.array([1, 1, 1, 1, 2, 2, 2]) / 10.0
    out = []
    for mu in np.geomspace(10.0, 1e4, n):
        sums = np.rint(mu * np.array([0.7, 1.0, 1.3])).astype(np.int64)
        out.append(counts(np.column_stack([rng.multinomial(z, weights) for z in sums])))
    return out


class TestOneMatrixPins:
    """SHA-256 of the float64 bytes of hb and hb-pm on the 50 seed-42 sweep
    matrices, one matrix per call.  HB was recorded before the kernel kept its
    first-step node terms and stopped building pair lists at the first step,
    and every hb estimate keeps its bits.  HB_PM was recorded when `delta_nu`
    began to take each column's row from its count vector's base row: its
    ratios moved by at most 2.9e-11 relative, and its estimates by at most
    4.7e-15 (it was b444b6114a0201176f4e75fce86b2dfe131481cc8d3c8a1b22a8bc381ff1eaee)."""

    HB = "e6d56edf0b7512f437d71ca99f905170c2576ab69a8df369f9ae36bfe9cfb08e"
    HB_PM = "8df2175cf8baaaf0865ee1fb6c4954697dbf331661e6288ed4915926a7dc9ef0"

    def test_estimates_keep_their_bits(self):
        import hashlib

        prior = PriorSpec(14.0, 1.0, G1, -3.0, np.full(7, 0.5))
        xs = _sweep_matrices()
        got_hb = b"".join(hb(x, 8.0, 14.0, 1.0, G1).tobytes() for x in xs)
        got_pm = b"".join(hb_posterior_mean(x, 8.0, prior).tobytes() for x in xs)
        assert hashlib.sha256(got_hb).hexdigest() == self.HB
        assert hashlib.sha256(got_pm).hexdigest() == self.HB_PM
