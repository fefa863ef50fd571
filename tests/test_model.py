"""Domain types, pmf, moments, and sampler laws."""

import io
import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from nmshrink.estimators import dirichlet_posterior_mean
from nmshrink.gibbs import ChainConfig, run_prior
from nmshrink.kernel import GChoice, PriorSpec
from nmshrink.model import (
    CountMatrix,
    GeneralizedDirichlet,
    ModelParams,
    ProbColumn,
    gen_dirichlet_log_pdf,
    gen_dirichlet_sample,
    make_rng,
    nm_log_pmf,
    nm_moments,
    nm_sample,
    read_counts_csv,
    write_counts_csv,
)

# Independent high-precision evaluation of
# Gamma(5.5)/(Gamma(2.5) 1! 2!) * 0.5^2.5 * 0.2 * 0.3^2, via 40-digit arithmetic:
#   import mpmath; mp.mp.dps = 40
#   log(gamma(5.5)/(gamma(2.5)*1*2) * 0.5**2.5 * 0.2 * 0.3**2)
LOG_PMF_ORACLE = -2.7702675558999838


class TestProbColumn:
    def test_p0_derived(self):
        col = ProbColumn(np.array([0.2, 0.3]))
        assert col.p0 == pytest.approx(0.5, abs=1e-15)
        assert col.m == 2

    def test_p0_validated(self):
        ProbColumn(np.array([0.2, 0.3]), p0=0.5)
        with pytest.raises(ValueError):
            ProbColumn(np.array([0.2, 0.3]), p0=0.6)

    def test_rejects_nonpositive_and_mass_one(self):
        with pytest.raises(ValueError):
            ProbColumn(np.array([0.2, 0.0]))
        with pytest.raises(ValueError):
            ProbColumn(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            ProbColumn(np.array([0.6, 0.5]))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ProbColumn(np.array([1e-301, 0.3]))

    def test_immutable(self):
        col = ProbColumn(np.array([0.2, 0.3]))
        with pytest.raises(ValueError):
            col.p[0] = 0.9


class TestModelParams:
    def test_json_round_trip(self):
        params = ModelParams.from_matrix(8.0, np.full((7, 3), 1.0 / 8.0))
        back = ModelParams.from_json(params.to_json())
        assert back.r == params.r
        np.testing.assert_array_equal(back.matrix, params.matrix)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            ModelParams(
                2.0, (ProbColumn(np.array([0.5])), ProbColumn(np.array([0.2, 0.3])))
            )

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            ModelParams.from_matrix(0.0, np.array([[0.5]]))

    def test_bad_json(self):
        with pytest.raises(ValueError):
            ModelParams.from_json("[1, 2, 3]")


class TestCountMatrix:
    def test_sums(self):
        x = CountMatrix(np.array([[3, 0], [2, 1], [0, 4]]))
        np.testing.assert_array_equal(x.col_sums, [5, 5])
        assert x.grand_sum == 10

    def test_stack_keeps_per_matrix_sums(self):
        x = CountMatrix(np.array([[[3, 0], [2, 1], [0, 4]], [[0, 0], [0, 0], [0, 0]]]))
        assert (x.m, x.n_columns) == (3, 2)
        np.testing.assert_array_equal(x.col_sums, [[5, 5], [0, 0]])
        np.testing.assert_array_equal(x.grand_sum, [10, 0])
        assert CountMatrix(x.x[0]).grand_sum == 10

    def test_rejects_negative_and_fractional(self):
        with pytest.raises(ValueError):
            CountMatrix(np.array([[-1, 0]]))
        with pytest.raises(ValueError):
            CountMatrix(np.array([[0.5, 1.0]]))

    def test_csv_round_trip(self):
        x = CountMatrix(np.array([[3, 0], [2, 1], [0, 4]]))
        buf = io.StringIO()
        write_counts_csv(x, buf)
        back = read_counts_csv(io.StringIO(buf.getvalue()))
        np.testing.assert_array_equal(back.x, x.x)

    def test_csv_round_trip_with_header(self):
        x = CountMatrix(np.array([[3, 0], [2, 1]]))
        buf = io.StringIO()
        write_counts_csv(x, buf, header=True)
        text = buf.getvalue()
        assert text.splitlines()[0] == "c1,c2"
        back = read_counts_csv(io.StringIO(text), header=True)
        np.testing.assert_array_equal(back.x, x.x)

    def test_ragged_csv_reports_row(self):
        with pytest.raises(ValueError, match="row 3"):
            read_counts_csv(io.StringIO("1,2\n3,4\n5\n"))


class TestLogPmf:
    def test_zero_vector_leaves_p0_power(self):
        col = ProbColumn(np.array([0.1, 0.2, 0.05]))
        for r in (0.5, 1.0, 8.0):
            assert nm_log_pmf(np.zeros(3), r, col) == pytest.approx(
                r * math.log(col.p0), rel=1e-14
            )

    def test_geometric_special_case(self):
        # m=1, r=1 is geometric: P(X = 3) = 0.5 * 0.5^3
        col = ProbColumn(np.array([0.5]))
        assert nm_log_pmf(np.array([3]), 1.0, col) == pytest.approx(
            4 * math.log(0.5), rel=1e-14
        )

    def test_against_high_precision_oracle(self):
        col = ProbColumn(np.array([0.2, 0.3]))
        assert nm_log_pmf(np.array([1, 2]), 2.5, col) == pytest.approx(
            LOG_PMF_ORACLE, abs=1e-12
        )

    def test_dimension_and_r_errors(self):
        col = ProbColumn(np.array([0.2, 0.3]))
        with pytest.raises(ValueError):
            nm_log_pmf(np.array([1]), 2.0, col)
        with pytest.raises(ValueError):
            nm_log_pmf(np.array([1, 2]), 0.0, col)

    def test_stack_rows_equal_single_calls(self):
        rng = np.random.default_rng(3)
        for m in (1, 2, 7, 12):
            col = ProbColumn(rng.dirichlet(np.ones(m + 1))[1:])
            x = rng.integers(0, 500, size=(4, 5, m))
            stack = nm_log_pmf(x, 2.5, col)
            assert stack.shape == (4, 5)
            for idx in np.ndindex(4, 5):
                alone = nm_log_pmf(x[idx], 2.5, col)
                assert isinstance(alone, float) and stack[idx] == alone
            # A Fortran-ordered stack gives the same values.
            np.testing.assert_array_equal(
                nm_log_pmf(np.asfortranarray(x[0]), 2.5, col), stack[0]
            )

    def test_stack_last_axis_must_be_m(self):
        col = ProbColumn(np.array([0.2, 0.3]))
        with pytest.raises(ValueError):
            nm_log_pmf(np.zeros((4, 3)), 2.0, col)
        with pytest.raises(ValueError):
            nm_log_pmf(np.zeros((2, 4)), 2.0, col)

    def test_normalization_m1(self):
        # Truncated sum over x = 0..200 must reach 1 to 1e-9; the dropped
        # tail is bounded by a geometric series from the pmf ratio
        # pmf(x+1)/pmf(x) = p (r+x)/(x+1) <= rho < 1 past x = 200.
        col = ProbColumn(np.array([0.3]))
        r = 1.5
        logs = np.array([nm_log_pmf(np.array([k]), r, col) for k in range(201)])
        total = np.exp(logs).sum()
        rho = 0.3 * (r + 200) / 201
        tail_bound = math.exp(logs[-1]) * rho / (1 - rho)
        assert tail_bound < 1e-10
        assert total == pytest.approx(1.0, abs=1e-9)


class TestSampler:
    def test_seeded_determinism(self):
        col = ProbColumn(np.array([0.2, 0.3]))
        a = nm_sample(2.5, col, make_rng(11), size=10)
        b = nm_sample(2.5, col, make_rng(11), size=10)
        np.testing.assert_array_equal(a, b)

    def test_moments_match_sample(self):
        col = ProbColumn(np.ones(2) / 8.0)
        r = 8.0
        mean, cov = nm_moments(r, col)
        draws = nm_sample(r, col, make_rng(5), size=100_000)
        n = draws.shape[0]
        se_mean = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se_mean)
        # covariance entries within 4 rough standard errors (moment-based)
        sample_cov = np.cov(draws.T)
        se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        assert np.all(np.abs(sample_cov - cov) < 4 * se_cov)

    def test_moments_trivial_m1(self):
        mean, cov = nm_moments(2.0, ProbColumn(np.array([0.5])))
        assert mean[0] == pytest.approx(2.0)
        assert cov[0, 0] == pytest.approx(2.0 * 0.5 / 0.5 + 2.0 * 0.25 / 0.25)

    def test_moments_vanish_as_p_shrinks(self):
        mean, _ = nm_moments(2.0, ProbColumn(np.array([1e-9, 1e-9])))
        assert np.all(mean < 1e-8)

    def test_additivity_in_r(self):
        # Sum of independent draws at sizes r1 and r2 should match one draw
        # at r1 + r2; compared on grand totals with a contingency test.
        col = ProbColumn(np.array([0.15, 0.25]))
        r1, r2 = 2, 3
        n = 20_000
        rng = make_rng(17)
        s_split = (
            nm_sample(r1, col, rng, size=n) + nm_sample(r2, col, rng, size=n)
        ).sum(axis=1)
        s_joint = nm_sample(r1 + r2, col, rng, size=n).sum(axis=1)
        hi = int(np.percentile(np.concatenate([s_split, s_joint]), 99))
        bins = np.arange(hi + 2)
        c1 = np.bincount(np.minimum(s_split, hi + 1), minlength=hi + 2)
        c2 = np.bincount(np.minimum(s_joint, hi + 1), minlength=hi + 2)
        keep = (c1 + c2) >= 10
        _, pvalue, _, _ = chi2_contingency(np.vstack([c1[keep], c2[keep]]))
        assert pvalue > 1e-3

    def test_sample_frequencies_match_pmf(self):
        col = ProbColumn(np.array([0.15, 0.2]))
        r = 2.0
        draws = nm_sample(r, col, make_rng(23), size=1_000_000)
        n = draws.shape[0]
        for x in ([0, 0], [1, 0], [0, 1], [1, 1], [2, 1], [0, 3]):
            q = math.exp(nm_log_pmf(np.array(x), r, col))
            freq = np.mean(np.all(draws == np.array(x), axis=1))
            se = math.sqrt(q * (1 - q) / n)
            assert abs(freq - q) < 4 * se


NAN_WEIGHTS = np.array([1.0, np.nan, 1.0])


class TestNanWeights:
    """A NaN weight fails every positivity check on Dirichlet weights (a
    comparison with NaN is false, so `any(a <= 0)` lets it through)."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda a: PriorSpec(6.0, 1.0, GChoice.constant_one(), 0.5, a),
            lambda a: GeneralizedDirichlet(0.5, a),
            lambda a: dirichlet_posterior_mean(CountMatrix(np.ones((3, 2), int)), 4.0,
                                               0.5, a),
            lambda a: run_prior(6.0, 1.0, 0.5, np.column_stack([a, a]),
                                ChainConfig(20)),
            lambda a: gen_dirichlet_sample(0.5, a, make_rng(0)),
            lambda a: gen_dirichlet_log_pdf(ProbColumn(np.full(3, 0.2)), 0.5, a),
        ],
        ids=["PriorSpec", "GeneralizedDirichlet", "dirichlet_posterior_mean",
             "run_prior", "gen_dirichlet_sample", "gen_dirichlet_log_pdf"],
    )
    def test_refused(self, build):
        with pytest.raises(ValueError, match="positive"):
            build(NAN_WEIGHTS)


class TestGeneralizedDirichlet:
    def test_fields(self):
        gd = GeneralizedDirichlet(-1.0, np.array([0.5, 0.5, 0.5]))
        assert gd.a_dot == pytest.approx(1.5)
        assert not gd.is_proper
        assert GeneralizedDirichlet(0.5, np.array([1.0])).is_proper

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            GeneralizedDirichlet(1.0, np.array([0.0, 1.0]))

    def test_uniform_sample_mean(self):
        # a0 = a_i = 1 is uniform over the simplex: E p_i = 1/(m+1)
        m = 3
        rng = make_rng(3)
        draws = np.array(
            [gen_dirichlet_sample(1.0, np.ones(m), rng).p for _ in range(20_000)]
        )
        se = draws.std(axis=0) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - 1.0 / (m + 1)) < 4 * se)

    def test_sample_mean_matches_moment_identity(self):
        a0, a = 2.0, np.array([0.7, 1.4])
        rng = make_rng(9)
        draws = np.array(
            [gen_dirichlet_sample(a0, a, rng).p for _ in range(100_000)]
        )
        expected = a / (a0 + a.sum())
        se = draws.std(axis=0) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - expected) < 4 * se)

    def test_samples_are_valid_columns(self):
        rng = make_rng(1)
        for _ in range(200):
            col = gen_dirichlet_sample(0.5, np.array([0.5, 2.0]), rng)
            assert isinstance(col, ProbColumn)  # constructor enforces invariants

    def test_rejects_nonpositive_parameters(self):
        rng = make_rng(1)
        with pytest.raises(ValueError):
            gen_dirichlet_sample(0.0, np.array([1.0]), rng)
        with pytest.raises(ValueError):
            gen_dirichlet_sample(1.0, np.array([-1.0]), rng)

    def test_log_pdf_matches_beta_for_m1(self):
        from scipy.stats import beta as beta_dist

        a0, a1 = 1.7, 2.3
        for pv in (0.1, 0.5, 0.9):
            col = ProbColumn(np.array([pv]))
            assert gen_dirichlet_log_pdf(col, a0, np.array([a1])) == pytest.approx(
                beta_dist.logpdf(pv, a1, a0), rel=1e-12
            )
