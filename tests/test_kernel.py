"""Kernel integral: accuracy, divergence detection, and ratio properties."""

import math
import re
import warnings

import numpy as np
import pytest
from adaptive_kernel import adaptive_log_kernel, adaptive_ratio
from kernel_oracle import panel_log_kernel

from nmshrink import kernel
from nmshrink.estimators import hb, hb_posterior_mean
from nmshrink.kernel import (
    ConditionError,
    GChoice,
    PriorSpec,
    QuadratureError,
    delta_hb,
    delta_nu,
    kernel_finite,
    log_kernel,
    posterior_proper,
    prior_proper,
)
from nmshrink.model import CountMatrix, _log_gamma_ratio

G1 = GChoice.constant_one()

# High-precision quadrature oracles (mpmath, 40 digits) for
# int_0^inf t^(a-1) e^(-b t) g(t) prod Gamma(t+xi0)/Gamma(t+xi0+xi) dt:
#   (alpha=1, beta=1, xi0=1, xi=[1], g=1)      -> log int e^-t/(1+t) dt
ORACLE_EXP_OVER_1PT = -0.5169319590020456
#   (alpha=2.5, beta=0.7, xi0=1.5, xi=[2,3], g=1)
ORACLE_TWO_COLUMN = -5.903903134104634
#   (alpha=3, beta=0.5, xi0=2, xi=[1], g=(t/(1+2t))^2)
ORACLE_KOMAKI = -0.7919283094065629
#   (alpha=2, beta=0, xi0=1, xi=[3], g=1)
ORACLE_BETA_ZERO = -1.3408466457338799


class TestGChoice:
    def test_constant_one(self):
        assert GChoice.constant_one() is G1  # one frozen instance, built once
        assert G1.nonincreasing
        assert np.all(G1.log_g(np.array([0.1, 5.0])) == 0.0)

    def test_komaki_values(self):
        g = GChoice.komaki(1.0, 2.0)
        t = np.array([0.5, 3.0])
        np.testing.assert_allclose(g.log_g(t), 2.0 * np.log(t / (1 + 2.0 * t)))
        assert not g.nonincreasing
        assert g.small_t_exponent == 2.0

    def test_komaki_degenerate_exponent_is_flat(self):
        g = GChoice.komaki(-1.0, 1.0)
        assert g.nonincreasing
        assert np.all(g.log_g(np.array([0.2, 2.0])) == 0.0)

    def test_komaki_validation(self):
        for c, kappa in [(-1.5, 1.0), (0.0, 0.0), (math.inf, 1.0), (0.0, math.inf)]:
            with pytest.raises(ValueError):
                GChoice.komaki(c, kappa)


class TestPriorSpec:
    @pytest.mark.parametrize("alpha, beta", [(math.inf, 1.0), (6.0, math.inf)])
    def test_infinite_alpha_or_beta_refused(self, alpha, beta):
        with pytest.raises(ValueError, match="alpha and beta must be finite"):
            PriorSpec(alpha, beta, G1, 0.5, np.ones(3))


@pytest.mark.parametrize("kappa", [0.5, 1.0, 3.0])
class TestConstantKomaki:
    """komaki(-1, kappa) is g = 1 whatever kappa: every kernel value and
    estimate has the bits of constant_one."""

    Z = np.array([[10, 0, 3], [45, 50, 32], [0, 0, 0], [1, 2, 3]])

    def test_log_kernel(self, kappa):
        g, alphas, xi = GChoice.komaki(-1.0, kappa), [6.0, 7.0], self.Z + 0.5
        for beta, xi0 in [(1.0, 1.0), (0.0, 0.0), (0.5, 2.5)]:
            assert np.array_equal(log_kernel(alphas, beta, g, xi0, xi),
                                  log_kernel(alphas, beta, G1, xi0, xi))

    def test_ratios(self, kappa):
        g, z = GChoice.komaki(-1.0, kappa), self.Z[1:]
        assert np.array_equal(delta_hb(14.0, 1.0, g, 8.0, 7, z),
                              delta_hb(14.0, 1.0, G1, 8.0, 7, z))
        nu = np.arange(3)
        assert np.array_equal(delta_nu(6.0, 1.0, g, 4.0, 0.5, 3.0, z[:, None, :], nu),
                              delta_nu(6.0, 1.0, G1, 4.0, 0.5, 3.0, z[:, None, :], nu))

    def test_hb_estimate(self, kappa):
        from nmshrink.estimators import hb
        from nmshrink.model import CountMatrix

        x = CountMatrix(np.stack([np.tile(row, (7, 1)) for row in self.Z]))
        assert np.array_equal(hb(x, 8.0, 14.0, 1.0, GChoice.komaki(-1.0, kappa)),
                              hb(x, 8.0, 14.0, 1.0, G1))


class TestLogKernel:
    def test_trivial_exponential_integral(self):
        # xi = 0 leaves int t^0 e^-t dt = 1 for any xi0
        for xi0 in (0.0, 0.7, 5.0):
            assert log_kernel(1.0, 1.0, G1, xi0, np.array([0.0])) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_oracle_values(self):
        assert log_kernel(1.0, 1.0, G1, 1.0, np.array([1.0])) == pytest.approx(
            ORACLE_EXP_OVER_1PT, abs=1e-10
        )
        assert log_kernel(2.5, 0.7, G1, 1.5, np.array([2.0, 3.0])) == pytest.approx(
            ORACLE_TWO_COLUMN, abs=1e-10
        )
        assert log_kernel(
            3.0, 0.5, GChoice.komaki(1.0, 2.0), 2.0, np.array([1.0])
        ) == pytest.approx(ORACLE_KOMAKI, abs=1e-10)
        assert log_kernel(2.0, 0.0, G1, 1.0, np.array([3.0])) == pytest.approx(
            ORACLE_BETA_ZERO, abs=1e-10
        )

    def test_divergence_signals(self):
        # tail: beta = 0 and alpha >= sum(xi)
        assert log_kernel(3.0, 0.0, G1, 1.0, np.array([3.0])) == math.inf
        assert log_kernel(3.5, 0.0, G1, 1.0, np.array([3.0])) == math.inf
        # small t: xi0 = 0 and alpha <= number of positive xi
        assert log_kernel(2.0, 1.0, G1, 0.0, np.array([3.0, 2.0])) == math.inf
        assert not kernel_finite(2.0, 1.0, G1, 0.0, 2, 5.0)  # two positive xi, total 5
        # xi0 = 0 is fine when alpha is large enough
        assert math.isfinite(log_kernel(2.5, 1.0, G1, 0.0, np.array([3.0, 2.0])))

    def test_zero_xi_coordinates_drop_out(self):
        a = log_kernel(2.0, 1.0, G1, 1.0, np.array([2.0, 0.0]))
        b = log_kernel(2.0, 1.0, G1, 1.0, np.array([2.0]))
        assert a == pytest.approx(b, abs=1e-12)

    def test_komaki_exponent_rescues_small_t(self):
        # alpha <= s0 diverges for constant g but converges once g ~ t^(c+1)
        gk = GChoice.komaki(1.5, 1.0)
        assert log_kernel(1.0, 1.0, G1, 0.0, np.array([2.0, 2.0])) == math.inf
        assert math.isfinite(log_kernel(1.0, 1.0, gk, 0.0, np.array([2.0, 2.0])))

    def test_matches_adaptive_oracle(self):
        # The former rising-factorial/log-gamma agreement cases, now checked
        # against the adaptive integrator (rising path where xi is integral).
        for alpha, beta, xi0, xi in [
            (6.0, 1.0, 1.0, np.array([5.0, 9.0, 2.0])),
            (14.0, 1.0, 1.0, np.array([63.0, 55.0, 40.0])),
            (2.0, 0.0, 1.0, np.array([3.0, 4.0])),
            (6.0, 1.0, 0.0, np.array([8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0])),
        ]:
            want = adaptive_log_kernel(alpha, beta, G1, xi0, xi, gamma_ratio="rising")
            assert log_kernel(alpha, beta, G1, xi0, xi) == pytest.approx(want, abs=1e-10)

    def test_matches_refined_oracle(self):
        # The adaptive integrator with every panel halved once more.
        for alpha, beta, xi0, xi in [
            (14.0, 1.0, 1.0, np.array([63.0, 55.0, 40.0])),
            (6.0, 1.0, 1.0, np.array([3.0, 2.0, 4.0, 1.0, 2.0, 3.0, 2.0])),
            (2.5, 0.7, 1.5, np.array([2.0, 3.0])),
        ]:
            fine = adaptive_log_kernel(alpha, beta, G1, xi0, xi, extra_refine=1)
            assert abs(log_kernel(alpha, beta, G1, xi0, xi) - fine) < 1e-10

    def test_near_divergence_raises_rather_than_lies(self):
        with pytest.raises(QuadratureError):
            log_kernel(2.9999999, 0.0, G1, 1.0, np.array([3.0]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            log_kernel(0.0, 1.0, G1, 1.0, np.array([1.0]))
        with pytest.raises(ValueError):
            log_kernel(1.0, -1.0, G1, 1.0, np.array([1.0]))
        with pytest.raises(ValueError):
            log_kernel(1.0, 1.0, G1, -0.5, np.array([1.0]))
        with pytest.raises(ValueError):
            log_kernel(1.0, 1.0, G1, 1.0, np.array([-1.0]))
        # Non-finite arguments are bad input, not a quadrature failure.
        for alpha, beta, xi0, xi in [
            (math.inf, 1.0, 1.0, [1.0]),
            ([1.0, math.inf], 1.0, 1.0, [1.0]),
            (1.0, math.inf, 1.0, [1.0]),
            (1.0, 1.0, math.inf, [1.0]),
            (1.0, 1.0, 1.0, [3.0, math.nan]),
            (1.0, 1.0, 1.0, [[3.0, 2.0], [math.inf, 1.0]]),
        ]:
            with pytest.raises(ValueError, match="must be finite"):
                log_kernel(alpha, beta, G1, xi0, np.array(xi))


class TestDeltaHB:
    def test_ratio_identity(self):
        z = np.array([10, 10, 10])
        d = delta_hb(14.0, 1.0, G1, 8.0, 7, z)
        xi = z + 7.0
        expected = math.exp(
            log_kernel(15.0, 1.0, G1, 1.0, xi) - log_kernel(14.0, 1.0, G1, 1.0, xi)
        )
        assert d == expected

    def test_monotone_under_increments(self):
        base = np.array([2, 3, 1])
        d0 = delta_hb(6.0, 1.0, G1, 4.0, 3, base)
        for nu in range(3):
            z = base.copy()
            z[nu] += 1
            assert delta_hb(6.0, 1.0, G1, 4.0, 3, z) <= d0 + 1e-12

    def test_assumption_violations(self):
        with pytest.raises(ConditionError):
            delta_hb(6.0, 1.0, G1, 2.0, 7, np.array([1, 2, 3]))  # r < m
        with pytest.raises(ConditionError):
            # r = m needs alpha > N
            delta_hb(2.0, 1.0, G1, 3.0, 3, np.array([1, 2, 3]))
        # r = m with alpha > N is accepted
        assert math.isfinite(delta_hb(4.0, 1.0, G1, 3.0, 3, np.array([1, 2, 3])))

    def test_zero_counts_can_give_infinity(self):
        # beta = 0 with alpha + 1 >= N m makes the numerator diverge at z = 0
        assert delta_hb(6.5, 0.0, G1, 8.0, 7, np.array([0])) == math.inf
        # ... but any nonzero count restores finiteness
        assert math.isfinite(delta_hb(6.5, 0.0, G1, 8.0, 7, np.array([1])))

    def test_vanishes_as_one_column_grows(self):
        vals = [
            delta_hb(6.0, 1.0, G1, 2.0, 1, np.array([k, 2, 2, 2, 2, 2, 2]))
            for k in (10, 100, 1000)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_balanced_growth_limit_rate(self):
        # With alpha + 1 < N and r > m, delta at z + k*1 behaves like
        # (alpha/N)/log k; check the normalized ratio trends to 1.
        alpha, n_cols, r, m = 0.9, 2, 2.0, 1
        ratios = []
        for k in (100, 1000, 10_000):
            d = delta_hb(alpha, 1.0, G1, r, m, np.array([k, k]))
            ratios.append(d / ((alpha / n_cols) / math.log(k)))
        assert abs(ratios[2] - 1) < abs(ratios[1] - 1) < abs(ratios[0] - 1)
        assert abs(ratios[2] - 1) < 0.35


class TestDeltaNu:
    def test_finite_and_positive(self):
        d = delta_nu(6.0, 1.0, G1, 4.0, 0.0, 3.0, np.array([5, 2, 7]), 0)
        assert 0 < d < math.inf

    def test_symmetric_under_constant_counts(self):
        z = np.array([4, 4, 4])
        vals = [delta_nu(5.0, 1.0, G1, 5.0, -2.0, 4.5, z, nu) for nu in range(3)]
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[1] == pytest.approx(vals[2], rel=1e-12)

    def test_monotone_in_every_coordinate(self):
        z = np.array([3, 1, 5])
        d0 = delta_nu(6.0, 1.0, G1, 4.0, 0.5, 2.5, z, 1)
        for nu_prime in range(3):
            z2 = z.copy()
            z2[nu_prime] += 1
            assert delta_nu(6.0, 1.0, G1, 4.0, 0.5, 2.5, z2, 1) <= d0 + 1e-12

    def test_vanishes_as_any_column_grows(self):
        for nu_prime in (0, 1):
            vals = []
            for k in (10, 100, 1000):
                z = np.array([2, 3])
                z[nu_prime] += k
                vals.append(delta_nu(5.0, 1.0, G1, 3.0, 0.0, 2.0, z, 0))
            assert vals[0] > vals[1] > vals[2]

    def test_propriety_violation(self):
        with pytest.raises(ConditionError):
            delta_nu(5.0, 1.0, G1, 1.0, -2.0, 4.5, np.array([1, 2]), 0)  # r+a0 < 0
        with pytest.raises(ConditionError):
            # beta = 0 and alpha >= N a_dot breaks the tail integral
            delta_nu(9.0, 0.0, G1, 5.0, 0.5, 4.0, np.array([1, 2]), 0)


# delta_nu takes each raised row xi = z + a_dot + e_nu from its vector's base
# row less log(t + xi0 + z_nu + a_dot); log_kernel on the explicit rows is the
# oracle.  (alpha, beta, g, r, a0, a_dot, z, nu, whether some pairs halve h)
BASE_ROW_CASES = {
    "scalar nu": (6.0, 1.0, G1, 4.0, 0.5, 3.0, [5, 2, 7], 1, False),
    "array nu, large sums": (14.0, 1.0, G1, 8.0, -3.0, 3.5, [4000, 9000, 13000],
                             [2, 0, 1, 0], False),
    "broadcast stack": (5.0, 1.0, G1, 4.0, 0.5, 2.5, [[[3, 1, 5]], [[0, 2, 2]], [[7, 7, 1]]],
                        [0, 1, 2], False),
    "r + a0 = 0 with alpha + q0 > N": (3.2, 1.0, G1, 1.0, -1.0, 0.1,
                                       [[[0, 0, 0]], [[2, 0, 1]]], [0, 1, 2], True),
    "beta = 0, finite tail": (2.0, 0.0, G1, 3.0, 0.5, 1.0, [3, 1, 2], [0, 1, 2], False),
    "komaki g": (6.0, 1.0, GChoice.komaki(0.5, 2.0), 4.0, 0.5, 3.0, [[5, 2, 7], [0, 1, 0]],
                 [[0], [2]], False),
    "small xi0": (0.3, 1.0, G1, 0.1, 0.0, 0.2, [0, 0, 1], [0, 1, 2], True),
}


class TestBaseRows:
    @pytest.mark.parametrize("name", BASE_ROW_CASES)
    def test_delta_nu_matches_the_explicit_rows(self, name, monkeypatch):
        alpha, beta, g, r, a0, a_dot, z, nu, halves = BASE_ROW_CASES[name]
        z, nu = np.array(z), np.array(nu)
        raised = []
        log_integrand = kernel._log_integrand

        def spy(terms, xi, col=None):
            raised.append(col is not None)
            return log_integrand(terms, xi, col)

        monkeypatch.setattr(kernel, "_log_integrand", spy)
        got = delta_nu(alpha, beta, g, r, a0, a_dot, z, nu)
        # One block of rows: a step after the first is a pair halving h, and
        # every step takes the raised rows from their vectors' base rows.
        assert (len(raised) > 1) == halves and all(raised)
        monkeypatch.undo()
        rows = z + a_dot + (np.arange(z.shape[-1]) == nu[..., None])
        logk = log_kernel([alpha, alpha + 1.0], beta, g, r + a0, rows)
        want = np.exp(logk[..., 1] - logk[..., 0])
        assert np.shape(got) == want.shape == np.broadcast(z[..., 0], nu).shape
        np.testing.assert_allclose(got, want, rtol=kernel.ERROR_TOL, atol=0)


class TestPropriety:
    def test_prior_proper_examples(self):
        a = np.ones(3)
        # beta > 0 with a0 > 0 is always proper
        assert prior_proper(PriorSpec(20.0, 1.0, G1, 0.5, a), 2)
        # beta = 0 needs alpha < N a_dot
        assert not prior_proper(PriorSpec(6.0, 0.0, G1, 1.0, a), 2)
        assert prior_proper(PriorSpec(5.0, 0.0, G1, 1.0, a), 2)
        # negative a0 is never proper
        assert not prior_proper(PriorSpec(2.0, 1.0, G1, -3.0, a), 2)

    def test_posterior_proper_shifts_by_r(self):
        a = np.ones(7)
        prior = PriorSpec(6.0, 1.0, G1, -7.0, a)
        assert not prior_proper(prior, 3)
        assert posterior_proper(prior, 3, 8.0)  # r + a0 = 1 > 0
        assert not posterior_proper(prior, 3, 6.0)  # r + a0 < 0

    def test_posterior_boundary_needs_small_t(self):
        a = np.full(3, 0.5)
        prior = PriorSpec(4.0, 1.0, G1, -1.0, a)
        assert posterior_proper(prior, 3, 1.0)  # r + a0 = 0 and alpha > N
        weak = PriorSpec(2.0, 1.0, G1, -1.0, a)
        assert not posterior_proper(weak, 3, 1.0)


def _regime(label, alpha, beta, g, xi0, rows):
    return pytest.param(alpha, beta, g, xi0, np.asarray(rows, dtype=float), id=label)


def _tables_regime(case: str, reps: int = 10):
    """The HB kernels of one `repro tables` case at seed 42."""
    from nmshrink.risklab import CASES, _sample_stack

    bench = CASES[case]
    truth = bench.truths[f"{case}-1"]
    r, m = truth.r, truth.m
    z = _sample_stack(truth, 42, range(reps)).sum(axis=1)
    rows = z[z.sum(axis=1) > 0] + float(m)
    return _regime(f"tables case {case}", bench.alpha, bench.beta, bench.g, r - m, rows)


# Kernels across the count regimes the estimators meet, each row checked
# against the adaptive integrator.
ORACLE_REGIMES = [
    _tables_regime("i"),
    _tables_regime("ii"),
    _tables_regime("iii"),
    _regime("integer counts to 1e4", 14.0, 1.0, G1, 1.0,
            [[17, 24, 31], [707, 1007, 1307], [4000, 4096, 4100], [7007, 10007, 13007]]),
    _regime("slow balanced growth", 0.9, 1.0, G1, 1.0, [[101, 101], [10001, 10001]]),
    _regime("non-integer xi", 5.0, 1.0, G1, 1.0, [[6.5, 4.5, 8.5], [3.25, 0.5, 11.75]]),
    _regime("xi0 = 0", 7.5, 1.0, G1, 0.0,
            [[8, 9, 10, 11, 12, 13, 14], [3, 2, 0, 5.5, 1, 1, 2]]),
    _regime("beta = 0", 2.0, 0.0, G1, 1.0, [[3, 4], [2.5, 0.5]]),
    _regime("beta = 0, slow tail", 6.5, 0.0, G1, 1.0, [[8], [9], [30]]),
    _regime("komaki g", 3.0, 0.5, GChoice.komaki(1.0, 2.0), 2.0, [[1], [7]]),
    _regime("komaki g, xi0 = 0", 14.0, 1.0, GChoice.komaki(0.5, 1.0), 0.0,
            [[10, 12, 9], [2, 0, 40]]),
]
# Stated agreement with the adaptive integrator: relative, on K(alpha+1)/K(alpha).
ORACLE_RTOL = 1e-10


class TestOnePassEvaluator:
    @pytest.mark.parametrize("alpha, beta, g, xi0, rows", ORACLE_REGIMES)
    def test_batched_ratios_match_adaptive_oracle(self, alpha, beta, g, xi0, rows):
        logk = log_kernel([alpha, alpha + 1.0], beta, g, xi0, rows)
        assert logk.shape == (rows.shape[0], 2)
        for row, (den, num) in zip(rows, logk):
            want_den = adaptive_log_kernel(alpha, beta, g, xi0, row)
            assert den == pytest.approx(want_den, rel=ORACLE_RTOL, abs=ORACLE_RTOL)
            want = adaptive_ratio(alpha, beta, g, xi0, row)
            assert math.exp(num - den) == pytest.approx(want, rel=ORACLE_RTOL)

    @pytest.mark.parametrize("alpha, beta, g, xi0, rows", ORACLE_REGIMES)
    def test_batched_ratios_match_panel_oracle(self, alpha, beta, g, xi0, rows):
        logk = log_kernel([alpha, alpha + 1.0], beta, g, xi0, rows)
        want = panel_log_kernel([alpha, alpha + 1.0], beta, g, xi0, rows)
        np.testing.assert_allclose(logk[:, 0], want[:, 0], rtol=ORACLE_RTOL, atol=ORACLE_RTOL)
        finite = np.isfinite(want[:, 1])
        assert np.array_equal(np.isfinite(logk[:, 1]), finite)
        np.testing.assert_allclose(np.exp(logk[finite, 1] - logk[finite, 0]),
                                   np.exp(want[finite, 1] - want[finite, 0]),
                                   rtol=ORACLE_RTOL)

    def test_row_is_bit_identical_alone_and_in_any_batch(self):
        # beta = 0 mixes rows that stop at depth 6 with rows whose tails
        # grow far deeper, and a row whose alpha + 1 kernel diverges.
        rows = np.array([[40.0, 3.0], [2.5, 4.0], [1.0, 2.6], [9.0, 0.0], [3.0, 3.5]])
        alphas = [3.0, 4.0]
        alone = np.array([log_kernel(alphas, 0.0, G1, 1.0, row) for row in rows])
        assert np.isinf(alone[2, 1]) and np.all(np.isfinite(alone[:, 0]))
        for order in ([0, 1, 2, 3, 4], [4, 2, 0, 3, 1], [1, 1, 3]):
            batch = log_kernel(alphas, 0.0, G1, 1.0, rows[order])
            assert np.array_equal(batch, alone[order])
        single = np.array([log_kernel(3.0, 0.0, G1, 1.0, row) for row in rows])
        assert np.array_equal(single, alone[:, 0])
        stack = log_kernel(alphas, 0.0, G1, 1.0, np.stack([rows, rows[::-1]]))
        assert stack.shape == (2, 5, 2)
        assert np.array_equal(stack[1], alone[::-1])

    def test_alpha_plus_one_divergence_leaves_alpha_exact(self):
        # beta = 0 and alpha < sum(xi) <= alpha + 1: K(alpha) is finite while
        # K(alpha + 1) diverges; its tail must not leak into log K(alpha).
        for alpha, xi in [(6.5, [7.0]), (2.2, [1.0, 2.0]), (6.0, [7.0])]:
            den, num = log_kernel([alpha, alpha + 1.0], 0.0, G1, 1.0, np.array(xi))
            assert num == math.inf
            want = adaptive_log_kernel(alpha, 0.0, G1, 1.0, np.array(xi))
            assert den == pytest.approx(want, rel=ORACLE_RTOL, abs=ORACLE_RTOL)
            assert den == log_kernel(alpha, 0.0, G1, 1.0, np.array(xi))

    @pytest.mark.parametrize("alpha", [0.3, 0.4, 0.5, 0.6, 0.7])
    def test_end_remainders_match_closed_forms(self, alpha):
        # Gamma(t+1)/Gamma(t+2) = 1/(1+t): with beta = 0 the lower end has
        # power alpha and the upper end 1 - alpha, and K(alpha) =
        # int t^(alpha-1)/(1+t) dt = pi/sin(pi alpha).  Gamma(t)/Gamma(t+1)
        # = 1/t at xi0 = 0, beta = 1: the lower end has power alpha, and
        # K(alpha + 1) = int t^alpha e^-t / t dt = Gamma(alpha).
        want = math.log(math.pi / math.sin(math.pi * alpha))
        got = log_kernel(alpha, 0.0, G1, 1.0, np.array([1.0]))
        assert got == pytest.approx(want, rel=ORACLE_RTOL, abs=ORACLE_RTOL)
        got = log_kernel(alpha + 1.0, 1.0, G1, 0.0, np.array([1.0]))
        assert got == pytest.approx(math.lgamma(alpha), rel=ORACLE_RTOL, abs=ORACLE_RTOL)

    def test_near_divergence_raises_in_a_batch(self):
        rows = np.array([[3.0], [5.0]])
        with pytest.raises(QuadratureError):
            log_kernel(2.9999999, 0.0, G1, 1.0, rows)
        with pytest.raises(QuadratureError):
            log_kernel([1.9999999, 2.9999999], 0.0, G1, 1.0, np.array([3.0]))

    def test_sharp_peak_raises_instead_of_a_wrong_value(self):
        # Far beyond what the node budget resolves: the error estimate fires.
        with pytest.raises(QuadratureError, match="estimated relative error"):
            log_kernel(20000.0, 1.0, G1, 1.0, np.array([10.0, 12.0, 9.0]))
        # A peak a few halvings of h resolve passes, and is right.
        want = adaptive_log_kernel(400.0, 1.0, G1, 1.0, np.array([10.0, 12.0, 9.0]))
        got = log_kernel(400.0, 1.0, G1, 1.0, np.array([10.0, 12.0, 9.0]))
        assert got == pytest.approx(want, rel=1e-13)

    def test_budget_message_never_reads_as_the_tolerance(self, monkeypatch):
        # Every finer step reports an estimate one ulp above the tolerance,
        # so the pair runs out of nodes with that estimate.
        just_above = np.nextafter(kernel.ERROR_TOL, 1.0)
        node_sums = kernel._node_sums

        def above(lf, p_low, p_high, beta, level):
            value, estimate = node_sums(lf, p_low, p_high, beta, level)
            return value, np.full_like(estimate, just_above)

        monkeypatch.setattr(kernel, "_node_sums", above)
        with pytest.raises(QuadratureError) as refused:
            log_kernel(6.0, 1.0, G1, 1.0, np.array([3.0, 2.0, 4.0]))
        quoted = re.search(r"estimated relative error (\S+) exceeds", str(refused.value))
        assert float(quoted[1]) == just_above > kernel.ERROR_TOL

    def test_delta_shapes_and_bits_follow_the_rows(self):
        z = np.array([[3, 1, 5], [0, 2, 2], [7, 7, 1]])
        stacked = delta_hb(6.0, 1.0, G1, 4.0, 3, z)
        assert stacked.shape == (3,)
        assert [delta_hb(6.0, 1.0, G1, 4.0, 3, row) for row in z] == stacked.tolist()
        per_column = delta_nu(5.0, 1.0, G1, 4.0, 0.5, 2.5, z[:, None, :], np.arange(3))
        assert per_column.shape == (3, 3)
        for i, row in enumerate(z):
            for nu in range(3):
                assert per_column[i, nu] == delta_nu(5.0, 1.0, G1, 4.0, 0.5, 2.5, row, nu)
        with pytest.raises(ValueError):
            delta_nu(5.0, 1.0, G1, 4.0, 0.5, 2.5, z, np.array([0, 1, 3]))


def _mixed_rows(seed: int, n_rows: int, n_cols: int) -> np.ndarray:
    """Counts 0..5 with many repeats, some shifted by 1/2 or 0.37."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 6, size=(n_rows, n_cols)).astype(float)
    return rows + rng.choice([0.0, 0.0, 0.5, 0.37], size=rows.shape)


# The one-pass regimes plus a row alone, stacks whose rows share most of
# their values, rows with zero entries, large arguments (xi >= 1e5 or
# t + xi0 > 1e6), rows whose K(alpha + 1) diverges next to rows that halve
# h, and divergent pairs on every row, on a whole row, at xi0 = 0 and in
# several row blocks.
TABLE_REGIMES = ORACLE_REGIMES + [
    _regime("one row", 14.0, 1.0, G1, 1.0, [[17, 2.5, 31, 0, 4.37]]),
    _tables_regime("ii", reps=300),
    _regime("repeated mixed values, several row blocks", 9.0, 1.0, G1, 2.0,
            _mixed_rows(1, 400, 7)),
    _regime("zero entries", 4.0, 0.3, G1, 0.0,
            [[0, 3, 0], [0, 0, 7], [2.5, 0, 0], [0, 3, 7]]),
    _regime("large xi, beta = 0", 6.5, 0.0, G1, 1.0,
            [[1e5, 0.0], [7.0, 1e5], [8.0, 0.0], [1e5, 1e5 + 0.5]]),
    _regime("large xi0 = 2e6", 2.0, 1.0, G1, 2e6,
            [[1e5, 3.0], [0.0, 2.5], [1e5, 1e5 + 0.5], [3.0, 1e5]]),
    _regime("beta = 0, K(alpha + 1) diverges on some rows", 6.5, 0.0, G1, 1.0,
            [[7.0, 0.0], [30.0, 0.0], [3.0, 4.0], [9.0, 0.0], [1.0, 7.0]]),
    _regime("sharp peaks halve h", 400.0, 1.0, G1, 1.0,
            [[10.0, 12.0, 9.0], [3.0, 2.0, 1.0], [10.0, 12.0, 9.0]]),
    _regime("beta = 0, K(alpha + 1) diverges on every row", 6.5, 0.0, G1, 1.0,
            [[7.0, 0.0], [3.0, 4.0], [2.0, 5.0]]),
    _regime("xi0 = 0, a dead row next to live rows", 1.5, 1.0, G1, 0.0,
            [[1, 1, 1], [0, 0, 3], [0, 2, 2], [0, 0, 0.5]]),
    _regime("xi0 = 0, komaki weight", 1.2, 1.0, GChoice.komaki(0.5, 1.0), 0.0,
            [[1, 1, 1], [0, 0, 3], [0, 2, 2]]),
    _regime("beta = xi0 = 0, divergent pairs in three row blocks", 5.5, 0.0, G1, 0.0,
            np.random.default_rng(5).integers(0, 9, size=(300, 2))),
]


class TestValueTable:
    """One log-gamma table per kernel call, with each row's columns added in
    ascending order of xi: a row's bits depend neither on the rows it shares
    the table with nor on the order of its columns, and its value is the
    panel oracle's."""

    @pytest.mark.parametrize("alpha, beta, g, xi0, rows", TABLE_REGIMES)
    def test_each_row_has_its_bits_alone(self, alpha, beta, g, xi0, rows):
        got = log_kernel([alpha, alpha + 1.0], beta, g, xi0, rows)
        alone = np.array([log_kernel([alpha, alpha + 1.0], beta, g, xi0, row)
                          for row in rows])
        assert np.array_equal(got, alone)
        flipped = log_kernel([alpha, alpha + 1.0], beta, g, xi0, rows[:, ::-1])
        assert np.array_equal(flipped, got)

    @pytest.mark.parametrize("alpha, beta, g, xi0, rows", TABLE_REGIMES)
    def test_matches_panel_oracle(self, alpha, beta, g, xi0, rows):
        got = log_kernel([alpha, alpha + 1.0], beta, g, xi0, rows)
        want = panel_log_kernel([alpha, alpha + 1.0], beta, g, xi0, rows)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=ORACLE_RTOL,
                                   atol=ORACLE_RTOL)

    def test_slow_tail_ratio_matches_panel_oracle(self):
        got = delta_hb(6.5, 0.0, G1, 8.0, 7, np.array([1]))
        den, num = panel_log_kernel([6.5, 7.5], 0.0, G1, 1.0, np.array([8.0]))
        assert got == pytest.approx(math.exp(num - den), rel=ORACLE_RTOL)

    def test_row_bits_do_not_depend_on_its_table_mates(self):
        # beta = 0: K(7.5) of [1, 6.8] is close enough to divergence that it
        # halves h five times where the other rows do not, and the others
        # share none, some or all of its values.
        row = np.array([1.0, 6.8])
        mates = [
            [[1.0, 6.8]],
            [[6.8, 1.0], [1.0, 1.0]],
            [[30.0, 2.5], [40.0, 0.37]],
            [[6.8, 30.0], [1.0, 40.0], [1e5, 0.0]],
        ]
        alone = log_kernel([6.5, 7.5], 0.0, G1, 1.0, row)
        for others in mates:
            batch = np.vstack([others, row, others])
            got = log_kernel([6.5, 7.5], 0.0, G1, 1.0, batch)
            assert np.array_equal(got[len(others)], alone)


class TestLogGammaRatio:
    """The NumPy log-gamma differences against mpmath at 50 digits."""

    def test_within_16_ulp_of_the_larger_log_gamma(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        x = np.concatenate([np.logspace(-31, 31, 63), 1.37 * np.logspace(-31, 31, 63),
                            [0.5, 1.0, 2.5, 7.0, 7.999, 8.0, 8.001, 15.5, 100.0]])
        x = np.unique(x)
        xi = np.unique(np.concatenate([[0.0], np.logspace(-6, 7, 27), [0.5, 1.0, 7.0, 4096.5]]))
        got = _log_gamma_ratio(x, xi)
        assert np.all(got[xi == 0] == 0.0)
        log_gamma_x = [mpmath.loggamma(mpmath.mpf(v)) for v in x]
        worst = 0.0
        for j, b in enumerate(xi):
            for i, v in enumerate(x):
                shifted = mpmath.loggamma(mpmath.mpf(v) + mpmath.mpf(b))
                err = abs(mpmath.mpf(got[j, i]) - (log_gamma_x[i] - shifted))
                scale = max(1.0, abs(float(log_gamma_x[i])), abs(float(shifted)))
                worst = max(worst, float(err) / np.spacing(scale))
        assert worst <= 16


class TestEndTerm:
    """The end term of the error estimate: the leading Euler-Maclaurin term
    at an end where the integrand is a power with a small exponent p."""

    @pytest.mark.parametrize("p", [0.1, 0.2, 0.25, 0.3, 0.5])
    def test_closed_forms_near_divergence(self, p):
        # Gamma(t)/Gamma(t+1) = 1/t at xi0 = 0, beta = 1: K(p + 1) =
        # Gamma(p), with exponent p at the lower end.  Gamma(t+1)/Gamma(t+2)
        # = 1/(1+t) at beta = 0: K(1 - p) = pi/sin(pi (1 - p)), with exponent
        # p at the upper end.
        cases = [
            ((p + 1.0, 1.0, G1, 0.0, np.array([1.0])), math.lgamma(p)),
            ((1.0 - p, 0.0, G1, 1.0, np.array([1.0])),
             math.log(math.pi / math.sin(math.pi * (1.0 - p)))),
        ]
        for args, want in cases:
            try:
                got = log_kernel(*args)
            except QuadratureError:
                assert p < 0.2
                continue
            assert isinstance(got, float) and abs(got - want) <= 1e-10

    def test_divergent_exponents_raise_no_warning(self):
        # Divergent pairs are +inf and are never summed, so neither an
        # exponent whose t^alpha would overflow nor a row whose every pair
        # diverges and whose Gamma ratios would overflow raises a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tail = log_kernel([0.5, 1.5], 0.0, G1, 1.0, np.array([1.0]))
            small_t = log_kernel([1.5, 2.5], 1.0, G1, 0.0, np.array([[1.0, 1.0], [2.0, 0.0]]))
            huge_alpha = log_kernel([0.5, 1e307], 0.0, G1, 1.0, np.array([1.0]))
            dead_row = log_kernel(1.5, 0.0, G1, 0.0, np.array([[1e39, 1e39], [0.0, 3.0]]))
        assert math.isfinite(tail[0]) and tail[1] == math.inf
        assert small_t[0, 0] == math.inf and np.all(np.isfinite(small_t.ravel()[1:]))
        assert huge_alpha[0] == tail[0] and huge_alpha[1] == math.inf
        assert dead_row[0] == math.inf
        assert dead_row[1] == log_kernel(1.5, 0.0, G1, 0.0, np.array([0.0, 3.0]))


class TestFirstStepMemo:
    """The first step's node terms, kept per (xi0, beta, g) for the process."""

    KEYS = [(1.0, 1.0, G1), (5.0, 1.0, G1), (0.0, 0.0, G1),
            (2.0, 0.5, GChoice.komaki(1.0, 2.0)), (1.0, 0.0, G1)]
    ROWS = np.array([[17.0, 24.0, 31.0], [3.0, 0.0, 2.5], [40.0, 4.0, 1.0], [1e5, 0.5, 7.0]])

    def kernels(self, key):
        xi0, beta, g = key
        return log_kernel([6.0, 7.0], beta, g, xi0, self.ROWS)

    def test_kept_terms_give_the_bits_of_a_cleared_memo(self):
        fresh = []
        for key in self.KEYS:
            kernel._first_step.cache_clear()
            fresh.append(self.kernels(key))
        for _ in range(3):
            for key, want in zip(self.KEYS[::-1], fresh[::-1]):
                assert np.array_equal(self.kernels(key), want)
            for key, want in zip(self.KEYS, fresh):
                assert np.array_equal(self.kernels(key), want)

    def test_bounded(self):
        size = kernel._FIRST_STEP_KEYS
        assert kernel._first_step.cache_info().maxsize == size
        for k in range(size + 5):
            log_kernel(6.0, 1.0, G1, 0.5 * k, np.array([3.0, 2.0]))
        assert kernel._first_step.cache_info().currsize == size

    def test_arrays_are_read_only(self):
        base, gamma, x = kernel._first_step(1.0, 1.0, G1)
        for a in (base, *gamma, x):
            assert a.size and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0


NONE_FINITE = "xi0 and xi must be finite"
R_INF = "r must be positive and finite, got inf"
NOT_PROPER = ("delta_nu requires a proper posterior: r + a0 > 0 (or = 0 with "
              "alpha + (g exponent at 0) > N) and a finite tail integral")
NOT_VALID = ("the hierarchical Bayes shrinkage ratio requires r > m with a finite "
             "tail integral, or r = m with additionally alpha + (g exponent at 0) > N")
NOT_SCALAR = "alpha must be a scalar or a nonempty 1-d sequence"
NOT_INTEGERS = "counts must be integers"
NOT_BELOW_2_53 = "the counts of a vector must total below 2^53"
X3 = CountMatrix(np.array([[3, 0, 1], [2, 1, 0], [0, 4, 2]]))
PRIOR3 = PriorSpec(6.0, 1.0, G1, -2.0, np.ones(3))
# Each public ratio and HB estimator on bad input, with the exception and
# message it gave before the kernel's argument checks were made cheaper; an
# infinite r is refused by `model.require_r`, and a z that is not counts by
# `model.require_counts`, before the kernel is reached.
REFUSALS = {
    "delta_nu a_dot inf": (lambda: delta_nu(6, 1, G1, 8, -3, math.inf, [1, 2, 3], 0),
                           ValueError, NONE_FINITE),
    "delta_nu r inf": (lambda: delta_nu(6, 1, G1, math.inf, -3, 3.0, [1, 2, 3], 0),
                       ValueError, R_INF),
    "delta_nu z nan": (lambda: delta_nu(6, 1, G1, 8, -3, 3.0, np.array([1, math.nan, 3]), 0),
                       ValueError, NOT_INTEGERS),
    "delta_nu z inf": (lambda: delta_nu(6, 1, G1, 8, -3, 3.0, np.array([1, math.inf, 3]), 0),
                       ValueError, NOT_BELOW_2_53),
    "delta_nu shapes": (lambda: delta_nu(6, 1, G1, 8, -3, 3.0, np.ones((3, 3), int), [0, 1]),
                        ValueError, "shape mismatch"),
    "delta_nu alpha (1,)": (lambda: delta_nu(np.array([6.0]), 1, G1, 8, -3, 3.0, [1, 2, 3], 0),
                            ValueError, NOT_SCALAR),
    "delta_nu improper": (lambda: delta_nu(6, 1, G1, 1, -3, 3.0, [1, 2, 3], 0),
                          ConditionError, NOT_PROPER),
    "delta_nu nu": (lambda: delta_nu(6, 1, G1, 8, -3, 3.0, [1, 2, 3], 3),
                    ValueError, "nu out of range"),
    "delta_nu a_dot 0": (lambda: delta_nu(6, 1, G1, 8, -3, 0.0, [1, 2, 3], 0),
                         ValueError, "a_dot must be positive"),
    "delta_nu z negative": (lambda: delta_nu(6, 1, G1, 8, -3, 3.0, [1, -2, 3], 0),
                            ValueError, "counts must be nonnegative"),
    "delta_hb r inf": (lambda: delta_hb(6, 1, G1, math.inf, 3, [1, 2]),
                       ValueError, R_INF),
    "delta_hb m negative": (lambda: delta_hb(6, 1, G1, 8, -2, [1, 2]),
                            ValueError, "xi entries must be nonnegative"),
    "delta_hb m -inf": (lambda: delta_hb(6, 1, G1, 8, -math.inf, [1, 2]),
                        ValueError, "xi entries must be nonnegative"),
    "delta_hb z nan": (lambda: delta_hb(6, 1, G1, 8, 3, np.array([1, math.nan])),
                       ValueError, NOT_INTEGERS),
    "delta_hb z inf": (lambda: delta_hb(6, 1, G1, 8, 3, np.array([1, math.inf])),
                       ValueError, NOT_BELOW_2_53),
    "delta_hb alpha (1,)": (lambda: delta_hb(np.array([6.0]), 1, G1, 8, 3, [1, 2]),
                            ValueError, NOT_SCALAR),
    "delta_hb r < m": (lambda: delta_hb(6, 1, G1, 2, 3, [1, 2]), ConditionError, NOT_VALID),
    "hb r inf": (lambda: hb(X3, math.inf, 6, 1, G1), ValueError, R_INF),
    "hb r < m": (lambda: hb(X3, 2, 6, 1, G1), ConditionError, NOT_VALID),
    "hb zero counts, r < m": (lambda: hb(CountMatrix(np.zeros((3, 3), int)), 2, 6, 1, G1),
                              ConditionError, NOT_VALID),
    "hb_posterior_mean r inf": (lambda: hb_posterior_mean(X3, math.inf, PRIOR3),
                                ValueError, R_INF),
    "hb_posterior_mean a_dot inf": (
        lambda: hb_posterior_mean(X3, 8, PriorSpec(6.0, 1.0, G1, -2.0, np.full(3, 1e308))),
        ValueError, NONE_FINITE),
    "hb_posterior_mean improper": (lambda: hb_posterior_mean(X3, 1, PRIOR3),
                                   ConditionError, NOT_PROPER),
    "hb_posterior_mean m": (
        lambda: hb_posterior_mean(X3, 8, PriorSpec(6.0, 1.0, G1, -2.0, np.ones(2))),
        ValueError, "prior dimension does not match the count matrix"),
    "log_kernel xi empty": (lambda: log_kernel(6, 1, G1, 1.0, []), ValueError,
                            "xi must be a nonempty vector"),
}


class TestRefusals:
    """Each refusal of the ratios and HB estimators stays as it was."""

    @pytest.mark.parametrize("name", REFUSALS)
    def test_same_exception_and_message(self, name):
        call, error, message = REFUSALS[name]
        with np.errstate(over="ignore"), pytest.raises(ValueError) as refused:
            call()
        assert type(refused.value) is error
        if message == "shape mismatch":  # NumPy's own text
            assert str(refused.value).startswith(message)
        else:
            assert str(refused.value) == message


# K(7)/K(6) at alpha = 6, beta = 1, g = 1, xi0 = 1 and xi = [s, 3], from
# mpmath at 50 digits, the same to 18 digits under its tanh-sinh and
# Gauss-Legendre rules:
#   f = exp((alpha-1) log t - t + 2 loggamma(t+1) - (loggamma(t+1+s) -
#           loggamma(1+s)) - loggamma(t+4))
#   mp.quad(f, [0, 0.01, 0.03, 0.06, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.75, 1,
#               1.5, 2, 3, 5, 10, 20, inf], maxdegree=12)
# The kernel oracle of tests/kernel_oracle.py shares the kernel's log-gamma
# differences and cannot stand in for these values.
LARGE_XI_RATIOS = {
    1e8: 0.285075137242796,
    1e10: 0.232818733898681,
    1e20: 0.122248252285679,
}


class TestLargeXi:
    """Past xi of about 1e7 the log-gamma differences grow to about
    xi ln xi (log K = -2.2e11 at 1e10), and their rounding, which varies
    from node to node and is not part of the error estimate, spoils the
    ratio: 4.6e-9 off at 1e8, 6.1e-6 at 1e10, and exactly 1.0 at 1e20.  A
    call must either come within 1e-10 or raise QuadratureError."""

    @pytest.mark.xfail(strict=True, reason="the error estimate leaves out the "
                       "rounding of log-gamma differences of size xi ln xi")
    @pytest.mark.parametrize("s", sorted(LARGE_XI_RATIOS))
    def test_ratio_accurate_or_refused(self, s):
        try:
            logk = log_kernel([6.0, 7.0], 1.0, G1, 1.0, np.array([s, 3.0]))
        except QuadratureError:
            return
        want = LARGE_XI_RATIOS[s]
        assert abs(math.exp(logk[1] - logk[0]) - want) <= 1e-10 * want
