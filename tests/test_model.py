"""Domain types, pmf, moments, and sampler laws."""

import io
import itertools
import math

import numpy as np
import pytest
from dirichlet_density import gen_dirichlet_log_pdf
from scipy.stats import chi2_contingency

from nmshrink.estimators import dirichlet_posterior_mean
from nmshrink.kernel import GChoice, PriorSpec
from nmshrink.model import (
    CountMatrix,
    GeneralizedDirichlet,
    ModelParams,
    ProbColumn,
    make_rng,
    nm_log_pmf,
    nm_moments,
    nm_sample,
    read_counts_csv,
)

# Independent high-precision evaluation of
# Gamma(5.5)/(Gamma(2.5) 1! 2!) * 0.5^2.5 * 0.2 * 0.3^2, via 40-digit arithmetic:
#   import mpmath; mp.mp.dps = 40
#   log(gamma(5.5)/(gamma(2.5)*1*2) * 0.5**2.5 * 0.2 * 0.3**2)
LOG_PMF_ORACLE = -2.7702675558999838


# Each domain type and reader on input of the wrong shape, with its message.
SHAPE_REFUSALS = {
    "ProbColumn 2-d": (lambda: ProbColumn(np.full((2, 1), 0.2)),
                       "p must be a nonempty 1-d vector"),
    "ProbColumn empty": (lambda: ProbColumn(np.array([])),
                         "p must be a nonempty 1-d vector"),
    "ModelParams no columns": (lambda: ModelParams(2.0, ()),
                               "at least one probability column is required"),
    "ModelParams.from_matrix 1-d": (lambda: ModelParams.from_matrix(2.0, [0.2, 0.3]),
                                    "probability matrix must be 2-d (m x N)"),
    "GeneralizedDirichlet 2-d": (lambda: GeneralizedDirichlet(1.0, np.ones((2, 2))),
                                 "a must be a nonempty 1-d vector"),
    "GeneralizedDirichlet empty": (lambda: GeneralizedDirichlet(1.0, np.array([])),
                                   "a must be a nonempty 1-d vector"),
    "read_counts_csv blank": (lambda: read_counts_csv(io.StringIO("\n \n")),
                              "empty counts file"),
}


@pytest.mark.parametrize("name", SHAPE_REFUSALS)
def test_wrong_shape_is_refused(name):
    call, message = SHAPE_REFUSALS[name]
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


class TestProbColumn:
    def test_p0_derived(self):
        col = ProbColumn(np.array([0.2, 0.3]))
        assert col.p0 == pytest.approx(0.5, abs=1e-15)
        assert col.m == 2

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
    def test_matrix_is_built_once_and_read_only(self):
        params = ModelParams.from_matrix(4.0, np.array([[0.2, 0.3], [0.1, 0.4]]))
        mat = params.matrix
        want = np.column_stack([c.p for c in params.columns])
        assert mat.dtype == want.dtype and np.array_equal(mat, want)
        assert params.matrix is mat
        with pytest.raises(ValueError):
            mat[0, 0] = 0.5

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            ModelParams(
                2.0, (ProbColumn(np.array([0.5])), ProbColumn(np.array([0.2, 0.3])))
            )

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            ModelParams.from_matrix(0.0, np.array([[0.5]]))


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

    def test_every_matrix_totals_below_2_to_53(self):
        # int64 sums of these wrap to -1; a float total cannot wrap.
        big = 2**63 - 1
        with pytest.raises(ValueError, match="below 2\\^53"):
            CountMatrix(np.array([[big, big], [2, 3]]))
        edge = np.array([[2**52, 2**52 - 2], [0, 1]])
        assert CountMatrix(edge).grand_sum == 2**53 - 1
        for over in ([[2**52, 2**52 - 2], [0, 2]], [[2**53, 0]], [[1e19, 1.0]], [[np.inf, 0]]):
            with pytest.raises(ValueError, match="below 2\\^53"):
                CountMatrix(np.array(over))
        # In a stack each matrix is checked, and each may hold up to the limit.
        stack = np.array([edge, edge])
        np.testing.assert_array_equal(CountMatrix(stack).grand_sum, [2**53 - 1] * 2)
        stack[1, 1, 1] += 1
        with pytest.raises(ValueError, match="below 2\\^53"):
            CountMatrix(stack)

    # The texts are as the csv module writes them, with \r\n line ends.
    def test_csv_round_trip(self):
        back = read_counts_csv(io.StringIO("3,0\r\n2,1\r\n0,4\r\n"))
        np.testing.assert_array_equal(back.x, [[3, 0], [2, 1], [0, 4]])

    def test_csv_round_trip_with_header(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_bytes(b"c1,c2\r\n3,0\r\n2,1\r\n")
        for src in (path, str(path)):
            back = read_counts_csv(src, header=True)
            np.testing.assert_array_equal(back.x, [[3, 0], [2, 1]])

    def test_header_is_the_first_record_that_is_not_blank(self):
        back = read_counts_csv(io.StringIO("\nc1,c2\n3,0\n\n2,1\n"), header=True)
        np.testing.assert_array_equal(back.x, [[3, 0], [2, 1]])

    def test_ragged_csv_reports_row(self):
        with pytest.raises(ValueError, match="row 3"):
            read_counts_csv(io.StringIO("1,2\n3,4\n5\n"))

    def test_entry_not_a_64_bit_integer_reports_row(self):
        # Row 1 of the fifth file holds int64 values only; 2^63 is beyond it.
        for text, row in (("1,2\n99999999999999999999,1\n", 2), (f"{-2**63 - 1},0\n", 1),
                          ("1,2\n3,4\n1.5,0\n", 3), ("x,1\n", 1),
                          (f"{-2**63},1\n\n{2**63},0\n", 3)):
            with pytest.raises(ValueError, match=f"row {row}: entry not a 64-bit integer"):
                read_counts_csv(io.StringIO(text))


class TestLogPmf:
    def test_zero_vector_leaves_p0_power(self):
        # ln Gamma(1) - ln Gamma(1 + 0) and ln Gamma(r) - ln Gamma(r + 0) are
        # exact zeros, so a zero count adds exactly 0.
        col = ProbColumn(np.array([0.1, 0.2, 0.05]))
        for r in (1e-3, 0.5, 1.0, 8.0, 1e3):
            assert nm_log_pmf(np.zeros(3), r, col) == r * np.log(col.p0)

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
        # Beyond int64, or past 2^53 in all, a count would wrap or round.
        for x in ([1e19, 0], [2**52, 2**52], [[0, 1], [2**62, 2**62]]):
            with pytest.raises(ValueError, match="below 2\\^53"):
                nm_log_pmf(np.array(x), 2.0, col)

    def test_stack_rows_equal_single_calls(self):
        # Counts below 10 fill a stack densely, so it reads its log-gamma
        # terms from a table, and a vector alone mostly does not.
        rng = np.random.default_rng(3)
        for m, high in itertools.product((1, 2, 7, 12), (10, 500)):
            col = ProbColumn(rng.dirichlet(np.ones(m + 1))[1:])
            x = rng.integers(0, high, size=(4, 5, m))
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

    def test_against_mpmath_over_m_r_and_counts(self):
        # Error relative to the largest log-gamma term, ln Gamma(r + x_.), ln
        # Gamma(r) or ln x_i!, within 16 units of 2^-52 (5.2 measured): each is
        # a difference of `_log_gamma_ratio`, as close to the larger log-gamma
        # it spans.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        rng = np.random.default_rng(11)
        worst = 0.0
        for m in (1, 2, 3, 5, 8, 12):
            col = ProbColumn(rng.dirichlet(np.ones(m + 1))[1:])
            for r in (1e-3, 0.37, 1.0, 7.999, 8.0, 30.0, 1e3):
                for top in (0, 1, 10, 1000, 10**6):
                    x = rng.integers(0, top + 1, size=m)
                    x[0] = top
                    terms = [mpmath.loggamma(mpmath.mpf(r) + int(x.sum())),
                             mpmath.loggamma(mpmath.mpf(r))]
                    terms += [mpmath.loggamma(int(v) + 1) for v in x]
                    want = (terms[0] - terms[1] - sum(terms[2:])
                            + mpmath.mpf(r) * mpmath.log(col.p0)
                            + sum(int(v) * mpmath.log(pv) for v, pv in zip(x, col.p)))
                    scale = max(1.0, *(abs(float(t)) for t in terms))
                    err = abs(float(mpmath.mpf(nm_log_pmf(x, r, col)) - want))
                    worst = max(worst, err / scale)
        assert worst <= 16 * np.finfo(float).eps

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
INF_WEIGHTS = np.array([1.0, np.inf, 1.0])

# Every check on Dirichlet weights, as a call on the weights a (and a0).
WEIGHT_CHECKS = pytest.mark.parametrize(
    "build",
    [
        lambda a, a0=0.5: PriorSpec(6.0, 1.0, GChoice.constant_one(), a0, a),
        lambda a, a0=0.5: GeneralizedDirichlet(a0, a),
        lambda a, a0=0.5: dirichlet_posterior_mean(CountMatrix(np.ones((3, 2), int)),
                                                   4.0, a0, a),
    ],
    ids=["PriorSpec", "GeneralizedDirichlet", "dirichlet_posterior_mean"],
)


class TestNanWeights:
    """A NaN weight fails every positivity check on Dirichlet weights (a
    comparison with NaN is false, so `any(a <= 0)` lets it through)."""

    @WEIGHT_CHECKS
    def test_refused(self, build):
        with pytest.raises(ValueError, match="positive"):
            build(NAN_WEIGHTS)


class TestInfiniteWeights:
    """An infinite weight is refused where it is given (`a > 0` holds for
    inf, and a_dot = inf would only fail later, inside the quadrature)."""

    @WEIGHT_CHECKS
    def test_refused(self, build):
        with pytest.raises(ValueError, match="finite"):
            build(INF_WEIGHTS)

    # a0 = inf made the Dirichlet posterior mean the zero matrix.
    @WEIGHT_CHECKS
    @pytest.mark.parametrize("a0", [math.inf, -math.inf, math.nan])
    def test_nonfinite_a0_refused(self, build, a0):
        with pytest.raises(ValueError, match="a0 must be finite"):
            build(np.ones(3), a0)


class TestGeneralizedDirichlet:
    def test_fields(self):
        gd = GeneralizedDirichlet(-1.0, np.array([0.5, 0.5, 0.5]))
        assert gd.a_dot == pytest.approx(1.5)

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            GeneralizedDirichlet(1.0, np.array([0.0, 1.0]))

    def test_log_pdf_matches_beta_for_m1(self):
        from scipy.stats import beta as beta_dist

        a0, a1 = 1.7, 2.3
        for pv in (0.1, 0.5, 0.9):
            col = ProbColumn(np.array([pv]))
            assert gen_dirichlet_log_pdf(col, a0, np.array([a1])) == pytest.approx(
                beta_dist.logpdf(pv, a1, a0), rel=1e-12
            )
