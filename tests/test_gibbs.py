"""Gibbs sampler: conditionals, stationarity, propriety guards, agreement with
the joint-sampler oracle, diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest
from dirichlet_density import gen_dirichlet_log_pdf
from scipy.stats import gamma as gamma_dist

import gibbs_oracle
from nmshrink import gibbs
from nmshrink.gibbs import Chain, ChainConfig, ess, run_posterior
from nmshrink.kernel import (
    ConditionError,
    GChoice,
    PriorSpec,
    QuadratureError,
    delta_hb,
    log_kernel,
)
from nmshrink.model import (
    CountMatrix,
    ProbColumn,
    make_rng,
    nm_sample,
)

G1 = GChoice.constant_one()


def joint_log_density(p, t, alpha, beta, a0, a_cols):
    p0 = 1.0 - p.sum(axis=0)
    return (
        (alpha - 1) * math.log(t)
        - beta * t
        + float(((t + a0 - 1.0) * np.log(p0)).sum())
        + float(((a_cols - 1.0) * np.log(p)).sum())
    )


class TestChainConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(n_iter=10, burn_in=10)
        with pytest.raises(ValueError):
            ChainConfig(n_iter=10, burn_in=2, thin=0)


class TestConditionals:
    def test_t_conditional_is_gamma(self):
        # log joint(p, t) - log Gamma(t | alpha, rate) must not depend on t
        rng = make_rng(4)
        alpha, beta, a0 = 3.0, 1.5, 2.0
        a_cols = np.array([[1.0, 2.0], [0.5, 1.5]])
        p = np.array([[0.2, 0.1], [0.3, 0.4]])
        rate = beta + float(np.log(1.0 / (1.0 - p.sum(axis=0))).sum())
        diffs = []
        for t in rng.uniform(0.1, 5.0, size=6):
            diffs.append(
                joint_log_density(p, t, alpha, beta, a0, a_cols)
                - gamma_dist.logpdf(t, alpha, scale=1.0 / rate)
            )
        assert np.ptp(diffs) < 1e-10

    def test_p_conditional_is_dirichlet_product(self):
        rng = make_rng(5)
        alpha, beta, a0, t = 3.0, 1.5, 2.0, 0.8
        a_cols = np.array([[1.0, 2.0], [0.5, 1.5]])
        diffs = []
        for _ in range(6):
            raw = rng.dirichlet(np.ones(3), size=2).T  # (3, 2); take 2 rows
            p = raw[:2, :] * 0.9
            log_dir = sum(
                gen_dirichlet_log_pdf(ProbColumn(p[:, j]), t + a0, a_cols[:, j])
                for j in range(2)
            )
            diffs.append(joint_log_density(p, t, alpha, beta, a0, a_cols) - log_dir)
        assert np.ptp(diffs) < 1e-10


class TestStepMechanics:
    def test_seeded_determinism(self):
        x = CountMatrix(np.array([[3, 1], [2, 4]]))
        prior = PriorSpec(3.0, 1.0, G1, 0.5, np.ones(2))
        cfg = ChainConfig(n_iter=50, burn_in=10, seed=12)
        a = run_posterior(x, 2.5, prior, cfg)
        b = run_posterior(x, 2.5, prior, cfg)
        np.testing.assert_array_equal(a.t, b.t)
        np.testing.assert_array_equal(a.p, b.p)
        c = run_posterior(x, 2.5, prior, ChainConfig(n_iter=50, burn_in=10, seed=13))
        assert not np.array_equal(a.t, c.t)

    def test_chain_length_bookkeeping(self):
        x = CountMatrix(np.array([[3, 1], [2, 4]]))
        prior = PriorSpec(3.0, 1.0, G1, 0.5, np.ones(2))
        cfg = ChainConfig(n_iter=100, burn_in=40, thin=3, seed=1)
        chain = run_posterior(x, 2.5, prior, cfg)
        assert chain.t.size == len(range(40, 100, 3)) == 20
        assert chain.p.shape == (20, 2, 2)
        # All-zero counts with r + a0 = 1: the prior chain of a0 = 1, a = 1.
        zeros = CountMatrix(np.zeros((3, 2), dtype=int))
        chain = run_posterior(zeros, 0.5, PriorSpec(5.0, 2.0, G1, 0.5, np.ones(3)), cfg)
        assert chain.t.size == 20
        assert chain.p.shape == (20, 3, 2)
        np.testing.assert_array_equal(chain.col_sums, [0, 0])

    def test_negative_a0_eff_rejected(self):
        # r + a0 < 0
        x = CountMatrix(np.array([[3], [2]]))
        prior = PriorSpec(3.0, 1.0, G1, -3.0, np.ones(2))
        with pytest.raises(ConditionError):
            run_posterior(x, 2.5, prior, ChainConfig(n_iter=10))

    def test_posterior_chain_refuses_improper(self):
        x = CountMatrix(np.array([[3, 1], [2, 4]]))
        prior = PriorSpec(3.0, 1.0, G1, -4.0, np.ones(2))
        with pytest.raises(ConditionError):
            run_posterior(x, 2.5, prior, ChainConfig(n_iter=10))

    @pytest.mark.parametrize("r", [0.0, -0.5])
    def test_posterior_chain_rejects_nonpositive_r(self, r):
        x = CountMatrix(np.array([[3, 1], [2, 4]]))
        prior = PriorSpec(3.0, 1.0, G1, 5.0, np.ones(2))
        with pytest.raises(ValueError, match="r must be positive"):
            run_posterior(x, r, prior, ChainConfig(n_iter=10))

    def test_posterior_chain_refuses_a_prior_of_another_m(self):
        x = CountMatrix(np.array([[3, 1], [2, 4]]))
        prior = PriorSpec(3.0, 1.0, G1, 5.0, np.ones(3))
        with pytest.raises(ValueError, match="prior dimension does not match"):
            run_posterior(x, 2.5, prior, ChainConfig(n_iter=10))

    def test_posterior_chain_requires_constant_weight(self):
        x = CountMatrix(np.array([[3, 1], [2, 4]]))
        prior = PriorSpec(3.0, 1.0, GChoice.komaki(1.0, 1.0), 0.5, np.ones(2))
        with pytest.raises(ConditionError, match="conjugacy"):
            run_posterior(x, 2.5, prior, ChainConfig(n_iter=10))

    def test_tiny_t_stays_finite(self):
        # r + a0 = 0 and beta = 1e9 pin t near 6e-9: Gamma(t) draws underflow
        # to zero in linear space, so the leftover masses are drawn in logs.
        x = CountMatrix(np.array([[0, 3], [2, 0], [1, 1]]))
        prior = PriorSpec(6.0, 1e9, G1, -4.0, np.ones(3))
        chain = run_posterior(x, 4.0, prior, ChainConfig(n_iter=2_000, seed=1))
        assert np.all(chain.t > 0) and np.all(np.isfinite(chain.t))
        assert 1e-9 < chain.t.mean() < 1e-8
        assert np.all(np.isfinite(chain.p))

    def test_unrepresentable_chain_raises_quadrature_error(self):
        # beta near the largest float drives t + a0_eff to exactly zero
        x = CountMatrix(np.array([[0, 3], [2, 0], [1, 1]]))
        prior = PriorSpec(6.0, 1.7e308, G1, -4.0, np.ones(3))
        with pytest.raises(QuadratureError, match="floating-point range"):
            run_posterior(x, 4.0, prior, ChainConfig(n_iter=2_000, seed=1))


# Counts, r and prior whose shifted parameters r + a0 = 1 and x_nu + a are
# the joint prior with alpha = 5, beta = 2, a0 = 1 and Dirichlet weights
# [[1, 2], [0.5, 1.5]]: the posterior chain given these counts samples that
# prior.
PRIOR_AS_POSTERIOR = (
    CountMatrix(np.array([[0, 1], [0, 1]])),
    0.5,
    PriorSpec(5.0, 2.0, G1, 0.5, np.array([1.0, 0.5])),
)


class TestBlockedDraws:
    """The t-independent randomness is drawn in blocks of `_BLOCK` iterations
    and only kept t values are stored."""

    X = CountMatrix(np.array([[3, 0], [2, 1], [0, 4]]))

    @pytest.mark.parametrize(
        "beta, a0, want_t, want_p",
        [
            # t + a0_eff >= 1 throughout: the direct gamma ratio
            (1.0, 0.5,
             [1.8125066024860135, 2.8346685500237196, 0.661587663915643,
              1.7114704859374894, 2.0429923123393126],
             [[0.22291720146892766, 0.06461968434667094],
              [0.23363547892354647, 0.07567095874541206],
              [0.09058483406220721, 0.37038660367317433]]),
            # r + a0 = 0 with t near 1e-9: the log-space draws
            (1e9, -4.0,
             [1.396128281947337e-09, 6.700879022824634e-09, 1.6405751782907778e-09,
              3.6388324178370017e-09, 3.5701979425678973e-09],
             [[0.5932121160330476, 0.015804570338966914],
              [0.3589257925709405, 0.12793446533324607],
              [0.04786209139601188, 0.8562609643277871]]),
        ],
    )
    def test_short_chain_keeps_its_stream(self, beta, a0, want_t, want_p):
        # Values recorded from the sampler that drew every iteration's
        # randomness at once; a chain within one block draws the same stream.
        prior = PriorSpec(6.0, beta, G1, a0, np.ones(3))
        cfg = ChainConfig(n_iter=40, burn_in=10, seed=5, thin=6)
        chain = run_posterior(self.X, 4.0, prior, cfg)
        np.testing.assert_allclose(chain.t, want_t, rtol=1e-13, atol=0)
        np.testing.assert_allclose(chain.p[-1], want_p, rtol=1e-13, atol=0)

    def test_prior_law_chain_keeps_its_stream(self):
        # Values recorded from the sampler's former prior entry point, run
        # with alpha = 5, beta = 2, a0 = 1 and the weights of
        # PRIOR_AS_POSTERIOR: the posterior chain draws the same stream.
        cfg = ChainConfig(n_iter=40, burn_in=10, seed=6, thin=6)
        chain = run_posterior(*PRIOR_AS_POSTERIOR, cfg)
        want_t = [1.197415139525372, 1.8273690372627416, 1.683388005139251,
                  0.4460082925877694, 2.9210001800627334]
        want_p = [[0.0475415892504274, 0.1808845269101173],
                  [0.1220984700472485, 0.29669285018118285]]
        np.testing.assert_allclose(chain.t, want_t, rtol=1e-13, atol=0)
        np.testing.assert_allclose(chain.p[-1], want_p, rtol=1e-13, atol=0)

    @pytest.mark.parametrize(
        "burn_in, thin", [(0, 7), (4_100, 7), (gibbs._BLOCK, 1), (3, gibbs._BLOCK + 5)]
    )
    def test_thinning_across_blocks(self, burn_in, thin):
        # The steps draw the same stream whatever is kept, so a thinned chain
        # keeps exactly the matching draws of the unthinned one.
        prior = PriorSpec(6.0, 1.0, G1, 0.5, np.ones(3))
        n_iter = 2 * gibbs._BLOCK + 1_000
        full = run_posterior(self.X, 4.0, prior, ChainConfig(n_iter, seed=8))
        cfg = ChainConfig(n_iter, burn_in=burn_in, seed=8, thin=thin)
        thinned = run_posterior(self.X, 4.0, prior, cfg)
        assert thinned.t.size == len(range(burn_in, n_iter, thin))
        np.testing.assert_array_equal(thinned.t, full.t[burn_in::thin])

    def test_memory_does_not_grow_with_thinned_iterations(self):
        # Drawing all 50 000 iterations' randomness at once peaked at about 6 MB.
        x = CountMatrix(np.array([[1, 0, 2], [0, 1, 1], [2, 2, 0], [1, 0, 0],
                                  [0, 3, 1], [1, 1, 1], [2, 0, 1]]))
        prior = PriorSpec(14.0, 1.0, G1, 0.5, np.ones(7))
        cfg = ChainConfig(n_iter=50_000, thin=50, seed=2)
        tracemalloc.start()
        try:
            chain = run_posterior(x, 8.0, prior, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chain.t.size == 1_000
        assert peak < 1.5e6


class TestStationarity:
    def test_posterior_mean_t_matches_quadrature(self):
        # Long-run mean of t against the deterministic kernel ratio, within
        # 3 Monte Carlo standard errors (ESS-based).
        x = CountMatrix(np.array([[2, 1, 3], [1, 0, 2], [4, 2, 1]]))
        r, alpha, beta = 4.0, 6.0, 1.0
        prior = PriorSpec(alpha, beta, G1, -3.0, np.ones(3))
        chain = run_posterior(
            x, r, prior, ChainConfig(n_iter=40_000, burn_in=5_000, seed=9)
        )
        target = delta_hb(alpha, beta, G1, r, 3, x.col_sums)
        se = chain.t.std() / math.sqrt(chain.ess_t())
        assert abs(chain.t.mean() - target) < 3 * se

    def test_small_t_posterior_mean_matches_quadrature(self):
        # r + a0 = 0 with alpha = 6 puts t below one on most steps, so most
        # leftover-mass draws take the log-space path; E[t | X] is the kernel
        # ratio K(alpha + 1)/K(alpha) at xi0 = 0, xi_nu = z_nu + a_dot.
        x = CountMatrix(np.array([[0, 3], [2, 0], [1, 1]]))
        prior = PriorSpec(6.0, 1.0, G1, -4.0, np.ones(3))
        chain = run_posterior(
            x, 4.0, prior, ChainConfig(n_iter=40_000, burn_in=2_000, seed=8)
        )
        assert np.mean(chain.t < 1.0) > 0.5
        log_k, log_k1 = log_kernel([6.0, 7.0], 1.0, G1, 0.0, x.col_sums + 3.0)
        se = chain.t.std() / math.sqrt(chain.ess_t())
        assert abs(chain.t.mean() - math.exp(log_k1 - log_k)) < 4 * se

    def test_prior_marginal_matches_direct_mixture_sampling(self):
        # Draw t from its prior marginal by grid inversion, then columns from
        # the conditional Dirichlet; first/second moments of p must match the
        # Gibbs chain within 4 combined standard errors.  The chain is the
        # posterior given PRIOR_AS_POSTERIOR's counts, which is this prior.
        alpha, beta, a0 = 5.0, 2.0, 1.0
        m, n_cols = 2, 2
        a_cols = np.array([[1.0, 2.0], [0.5, 1.5]])

        grid = np.linspace(1e-6, 60.0, 400_001)
        from scipy.special import gammaln

        log_w = (
            (alpha - 1) * np.log(grid)
            - beta * grid
            + (n_cols * gammaln(grid + a0)
               - gammaln(grid[:, None] + a0 + a_cols.sum(axis=0)[None, :]).sum(axis=1))
        )
        w = np.exp(log_w - log_w.max())
        cdf = np.cumsum(w)
        cdf /= cdf[-1]

        rng = make_rng(77)
        n_draws = 40_000
        ts = np.interp(rng.uniform(size=n_draws), cdf, grid)
        y0 = rng.gamma(ts[:, None] + a0, size=(n_draws, n_cols))
        y = rng.gamma(a_cols, size=(n_draws, m, n_cols))
        direct = y / (y0 + y.sum(axis=1))[:, None, :]

        x, r, prior = PRIOR_AS_POSTERIOR
        assert r + prior.a0 == a0
        np.testing.assert_array_equal(x.x + prior.a[:, None], a_cols)
        chain = run_posterior(
            x, r, prior, ChainConfig(n_iter=50_000, burn_in=10_000, seed=6)
        )
        for moment in (lambda v: v, lambda v: v**2):
            md, mg = moment(direct), moment(chain.p)
            se = np.sqrt(
                md.std(axis=0) ** 2 / n_draws + mg.std(axis=0) ** 2 / (chain.t.size / 8)
            )
            assert np.all(np.abs(md.mean(axis=0) - mg.mean(axis=0)) < 4 * se)

    def test_huge_beta_degenerates_to_dirichlet_posterior(self):
        # With beta enormous, t is pinned near zero and the posterior mean of
        # p collapses to the plain Dirichlet posterior mean.
        from nmshrink.estimators import dirichlet_posterior_mean

        x = CountMatrix(np.array([[3, 1], [2, 4]]))
        r, a0 = 3.0, 0.0
        a = np.ones(2)
        prior = PriorSpec(1.0, 1e7, G1, a0, a)
        chain = run_posterior(
            x, r, prior, ChainConfig(n_iter=30_000, burn_in=5_000, seed=2)
        )
        plain = dirichlet_posterior_mean(x, r, a0, a)
        assert np.max(np.abs(chain.posterior_mean_p() - plain)) < 0.01


# (counts, r, prior) for the cli-sweep cases i (m=7, N=3) and ii (m=3, N=7),
# and the r + a0 = 0 regime where t is small and Gamma(t + r + a0) draws
# take the log-space path.  alpha = 8 keeps that regime shallow enough for the
# oracle, whose column draws degenerate once t is often far below one (see
# test_small_t_posterior_mean_matches_quadrature for the deeper regime).
ORACLE_SETUPS = {
    "case-i": (
        [[2, 1, 3], [1, 0, 2], [4, 2, 1], [0, 1, 1], [3, 5, 2], [2, 3, 4], [1, 2, 0]],
        8.0,
        PriorSpec(14.0, 1.0, G1, -7.0, np.ones(7)),
    ),
    "case-ii": (
        [[1, 0, 3, 2, 1, 4, 0], [2, 1, 0, 1, 3, 1, 2], [0, 2, 1, 1, 0, 2, 5]],
        4.0,
        PriorSpec(6.0, 1.0, G1, -1.0, np.array([0.7, 1.1, 1.3])),
    ),
    "small-t": (
        [[0, 3], [2, 0], [1, 1]],
        4.0,
        PriorSpec(8.0, 1.0, G1, -4.0, np.ones(3)),
    ),
}


def mc_mean_and_se(draws: np.ndarray) -> tuple[float, float]:
    """Mean of a chain's scalar series with its ESS-based standard error."""
    return float(draws.mean()), float(draws.std() / math.sqrt(ess(draws)))


def assert_means_agree(new: np.ndarray, old: np.ndarray) -> None:
    """Means of two chains' series within 4 combined ESS-based SEs."""
    (m_new, se_new), (m_old, se_old) = mc_mean_and_se(new), mc_mean_and_se(old)
    assert abs(m_new - m_old) < 4 * math.hypot(se_new, se_old)


def kl_ratio_se(chain: Chain, nu: int) -> float:
    """Standard error of E[t w]/E[w] by linearising the ratio estimator."""
    t = chain.t
    w = 1.0 / (t + chain.r + chain.a0 + float(chain.col_sums[nu]) + chain.a_dot)
    delta = chain.delta_kl(nu)
    return mc_mean_and_se((t - delta) * w / w.mean())[1]


class TestOracleAgreement:
    """The t-marginal chain against the joint (p, t) sampler it replaced:
    both target the same posterior, so every estimate must agree within
    4 combined ESS-based standard errors."""

    @pytest.fixture(scope="class", params=sorted(ORACLE_SETUPS))
    def chains(self, request):
        counts, r, prior = ORACLE_SETUPS[request.param]
        x = CountMatrix(np.array(counts))
        cfg = ChainConfig(n_iter=21_000, burn_in=1_000, seed=31)
        new = run_posterior(x, r, prior, cfg)
        old = gibbs_oracle.run_posterior(x, r, prior, cfg)
        return request.param, new, old

    def test_posterior_mean_t(self, chains):
        name, new, old = chains
        assert_means_agree(new.t, old.t)
        if name == "small-t":
            assert np.mean(new.t < 1.0) > 0.1, "the log-space draws must be exercised"

    def test_posterior_mean_p(self, chains):
        _, new, old = chains
        _, m, n_cols = new.p.shape
        for i in range(m):
            for j in range(n_cols):
                assert_means_agree(new.p[:, i, j], old.p[:, i, j])

    def test_kl_delta_estimates(self, chains):
        _, new, old = chains
        for nu in range(new.col_sums.size):
            gap = new.delta_kl(nu) - old.delta_kl(nu)
            se = math.hypot(kl_ratio_se(new, nu), kl_ratio_se(old, nu))
            assert abs(gap) < 4 * se

    def test_ess_per_draw(self, chains):
        _, new, old = chains
        assert abs(new.ess_t() / new.t.size - old.ess_t() / old.t.size) < 0.1


class TestDeltaEstimates:
    def test_constant_chain_passthrough(self):
        chain = Chain(
            t=np.full(100, 1.7),
            p=np.full((100, 1, 2), 0.3),
            r=2.0,
            a0=0.0,
            a_dot=1.0,
            col_sums=np.array([3, 4]),
        )
        assert chain.delta_ss() == pytest.approx(1.7)
        # With constant t, the weighted ratio collapses to t as well
        assert chain.delta_kl(0) == pytest.approx(1.7)

    def test_refusals(self):
        meta = dict(r=2.0, a0=0.0, a_dot=1.0, col_sums=np.array([3]))
        chain = Chain(t=np.array([1.0, 2.0]), p=np.zeros((2, 1, 1)) + 0.2, **meta)
        with pytest.raises(ValueError):
            chain.delta_kl(1)  # nu out of range
        empty = Chain(t=np.array([]), p=np.empty((0, 1, 1)), **meta)
        with pytest.raises(ValueError):
            empty.delta_ss()


class TestEss:
    def test_iid_series(self):
        x = make_rng(3).normal(size=20_000)
        assert ess(x) > 10_000

    def test_correlated_series_is_discounted(self):
        rng = make_rng(4)
        x = np.empty(20_000)
        x[0] = 0.0
        noise = rng.normal(size=20_000)
        for k in range(1, x.size):
            x[k] = 0.95 * x[k - 1] + noise[k]
        # AR(1) with rho = 0.95 has ESS about n/39
        assert ess(x) < 3_000

    def test_degenerate_series(self):
        assert ess(np.full(50, 2.0)) == 50.0

    def test_fewer_than_four_draws(self):
        assert ess(np.array([1.0, 5.0, 2.0])) == 3.0

    def test_nonpositive_first_pair(self):
        # rho_0 + rho_1 > 0 in exact arithmetic, but at this subnormal scale
        # the autocovariances round to +-1e-323, so the first pair is 0 and
        # no pair is summed.
        assert ess(np.array([1.0, -1.0, 1.0, -1.0]) * 3e-162) == 4.0
