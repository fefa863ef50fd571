"""Losses, Monte Carlo risk machinery, identity checks, and scenarios."""

import itertools
import math
import tracemalloc

import hudson_oracle
import numpy as np
import pytest
import sampling_oracle

from nmshrink import risklab
from nmshrink.audit import jeffreys_prior
from nmshrink.kernel import ConditionError, GChoice, QuadratureError
from nmshrink.model import CountMatrix, ModelParams, ProbColumn, make_rng, nm_sample
from nmshrink.risklab import (
    _sample_stack,
    benchmark_scenarios,
    case_table,
    compare,
    hudson_check,
    loss_kl,
    loss_ss,
    make_estimator,
    prial,
    scenario_presets,
)

G1 = GChoice.constant_one()


def truth_1x1(p=0.5, r=2.0):
    return ModelParams(r, (ProbColumn(np.array([p])),))


class TestLosses:
    def test_zero_at_truth(self):
        truth = ModelParams.from_matrix(4.0, np.array([[0.2, 0.3], [0.1, 0.4]]))
        assert loss_ss(truth.matrix, truth, 2) == 0.0
        assert loss_kl(truth.matrix, truth, 2) == 0.0

    def test_ss_hand_value(self):
        truth = truth_1x1(0.5)
        assert loss_ss(np.array([[0.0]]), truth, 1) == pytest.approx(0.5)

    def test_kl_hand_value(self):
        # estimate 2p at a single entry: 2p - p - p log 2 = p(1 - log 2)
        truth = truth_1x1(0.3)
        assert loss_kl(np.array([[0.6]]), truth, 1) == pytest.approx(
            0.3 * (1 - math.log(2))
        )

    def test_direct_resummation(self):
        rng = np.random.default_rng(1)
        truth = ModelParams.from_matrix(4.0, np.full((3, 4), 0.2))
        d = rng.uniform(0.05, 0.4, size=(3, 4))
        for n in (1, 3, 4):
            manual = sum(
                (d[i, v] - 0.2) ** 2 / 0.2 for i in range(3) for v in range(n)
            )
            assert loss_ss(d, truth, n) == pytest.approx(manual, rel=1e-12)

    def test_losses_broadcast_over_a_stack(self):
        rng = np.random.default_rng(4)
        truth = ModelParams.from_matrix(4.0, np.full((3, 4), 0.2))
        d = rng.uniform(0.05, 0.4, size=(6, 3, 4))
        for loss in (loss_ss, loss_kl):
            for n in (1, 4):
                each = [loss(d[k], truth, n) for k in range(6)]
                assert loss(d, truth, n).tolist() == each

    def test_n_validation(self):
        truth = truth_1x1()
        with pytest.raises(ValueError, match="n must be in 1..1, got 0"):
            loss_ss(np.array([[0.1]]), truth, 0)
        with pytest.raises(ValueError, match="n must be in 1..1, got 2"):
            loss_ss(np.array([[0.1]]), truth, 2)

    @pytest.mark.parametrize("loss", [loss_ss, loss_kl])
    @pytest.mark.parametrize("shape", [(2, 1), (1, 2), (3, 2, 1)])
    def test_estimate_of_the_wrong_shape(self, loss, shape):
        with pytest.raises(ValueError, match="estimate and truth shapes differ"):
            loss(np.full(shape, 0.1), truth_1x1(), 1)

    def test_kl_requires_positive_entries(self):
        truth = truth_1x1()
        with pytest.raises(ValueError):
            loss_kl(np.array([[0.0]]), truth, 1)

    def test_kl_minimized_at_posterior_mean(self):
        # Posterior-expected loss over a two-point posterior on p is
        # minimized at the posterior mean (grid search oracle).
        ps = np.array([0.2, 0.6])
        weights = np.array([0.3, 0.7])
        post_mean = float(weights @ ps)
        grid = np.linspace(0.01, 0.99, 981)
        exp_loss = [
            float(weights @ (d - ps - ps * np.log(d / ps))) for d in grid
        ]
        best = grid[int(np.argmin(exp_loss))]
        assert best == pytest.approx(post_mean, abs=2e-3)


class TestPrial:
    def test_trivials(self):
        assert prial(1.0, 1.0) == 0.0
        assert prial(2.0, 1.5) == 25.0

    def test_rounded_inputs_drift(self):
        # Improvement computed from rounded risks 1.34 -> 1.00 is ~25.37,
        # a rounding artifact to keep in mind when eyeballing tables.
        assert prial(1.34, 1.00) == pytest.approx(25.373, abs=1e-3)

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(ValueError):
            prial(0.0, 1.0)


class TestRiskMc:
    def test_two_reps_bookkeeping(self):
        rep = compare({"U": make_estimator("umvu")}, truth_1x1(), reps=2, seed=1)["U"]
        assert math.isfinite(rep.risk) and math.isfinite(rep.mc_stderr)

    def test_bit_identical_reruns(self):
        fns = {"U": make_estimator("umvu"), "EB": make_estimator("eb")}
        truth = benchmark_scenarios("iii")[0].params
        a = compare(fns, truth, reps=50, seed=3, reference="U")
        b = compare(fns, truth, reps=50, seed=3, reference="U")
        assert a == b

    def test_failure_reports_replication_index(self):
        def broken(x, r):
            if x.grand_sum % 5 == 0:
                raise ValueError("boom")
            return np.zeros_like(x.x, dtype=float)

        with pytest.raises(RuntimeError, match=r"replication \d+"):
            compare({"bad": broken}, truth_1x1(), reps=60, seed=0)

    def test_failure_on_stacks_only_is_named(self):
        def scalar_only(x, r):
            if x.x.ndim > 2:
                raise ValueError("no stacks")
            return np.zeros(x.x.shape)

        with pytest.raises(RuntimeError, match="failed on a stack of replications "
                                               "but on none alone"):
            compare({"scalar": scalar_only}, truth_1x1(), reps=4, seed=0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"reps": 1}, "need at least 2 replications"),
        ({"loss": "l1"}, "unknown loss 'l1'"),
        ({"reference": "EB"}, "reference 'EB' not among the estimators"),
    ])
    def test_refuses_bad_arguments(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            compare({"U": make_estimator("umvu")}, truth_1x1(), **{"reps": 4, **kwargs})

    def test_condition_and_quadrature_errors_keep_their_class(self):
        bad_r = ModelParams.from_matrix(1.5, np.full((2, 2), 0.2))
        fns = {"U": make_estimator("umvu"), "HB": make_estimator("hb", alpha=6.0)}
        with pytest.raises(ConditionError):
            compare(fns, bad_r, reps=6, seed=0)
        # beta = 0 with alpha just below N m: K(alpha + 1) at a grand total
        # of one is too close to divergence for the node budget.
        near = {"HB": make_estimator("hb", alpha=0.9999999, beta=0.0)}
        with pytest.raises(QuadratureError):
            compare(near, truth_1x1(0.5, 2.0), reps=12, seed=0)

    @pytest.mark.parametrize("n", [0, 3, -1])
    def test_n_is_checked_before_sampling(self, monkeypatch, n):
        import nmshrink.risklab as risklab

        def no_sampling(*args):
            raise AssertionError("sampled before checking n")

        monkeypatch.setattr(risklab, "_sample_stack", no_sampling)
        truth = ModelParams.from_matrix(5.0, np.full((2, 2), 0.2))
        with pytest.raises(ValueError, match="n must be in 1..2"):
            compare({"U": make_estimator("umvu")}, truth, n=n, reps=5)

    def test_parallel_jobs_match_serial(self):
        truth = benchmark_scenarios("iii")[0].params
        fns = {"U": make_estimator("umvu"), "EB0": make_estimator("eb0")}
        serial = compare(fns, truth, reps=60, seed=5, reference="U")
        parallel = compare(fns, truth, reps=60, seed=5, reference="U", jobs=2)
        assert serial == parallel

    def test_more_jobs_than_replications_match_serial(self):
        # Two replications over three jobs: one process per replication.
        truth = benchmark_scenarios("iii")[0].params
        fns = {"U": make_estimator("umvu"), "EB0": make_estimator("eb0")}
        serial = compare(fns, truth, reps=2, seed=5, reference="U")
        assert compare(fns, truth, reps=2, seed=5, reference="U", jobs=3) == serial

    def test_kl_loss_on_posterior_means(self):
        jp = jeffreys_prior(9)
        truth = ModelParams.from_matrix(5.0, np.full((9, 3), 1.0 / 18.0))
        fns = {
            "dir-pm": make_estimator("dir-pm", a0=jp.a0, a=jp.a),
            "hb-pm": make_estimator("hb-pm", alpha=5.0, a0=jp.a0, a=jp.a),
        }
        reports = compare(fns, truth, loss="kl", reps=300, seed=11, reference="dir-pm")
        pooled = math.hypot(reports["dir-pm"].mc_stderr, reports["hb-pm"].mc_stderr)
        assert reports["hb-pm"].risk <= reports["dir-pm"].risk + 2 * pooled


class TestScenarios:
    def test_nine_presets(self):
        presets = scenario_presets()
        assert [s.name for s in presets] == [
            "i-1", "i-2", "i-3", "ii-1", "ii-2", "ii-3", "iii-1", "iii-2", "iii-3",
        ]

    def test_case_i_values(self):
        sc = {s.name: s for s in scenario_presets()}
        np.testing.assert_allclose(sc["i-1"].params.matrix, np.full((7, 3), 1 / 8))
        assert sc["i-1"].params.r == 8.0 and sc["i-1"].alpha_hb == 14.0
        b = np.array([1, 1, 1, 1, 2, 2, 2]) / 12
        c = np.array([2, 2, 2, 2, 1, 1, 1]) / 12
        np.testing.assert_allclose(sc["i-3"].params.matrix[:, 0], b)
        np.testing.assert_allclose(sc["i-3"].params.matrix[:, 2], c)

    def test_case_iii_values(self):
        sc = {s.name: s for s in scenario_presets()}
        np.testing.assert_allclose(
            sc["iii-2"].params.matrix[0],
            [1 / 3, 1 / 3, 1 / 2, 1 / 2, 1 / 2, 1 / 3, 1 / 3],
        )
        assert sc["iii-3"].params.matrix[0, -1] == pytest.approx(2 / 3)

    def test_columns_are_valid(self):
        for s in scenario_presets():
            for col in s.params.columns:
                assert isinstance(col, ProbColumn)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            benchmark_scenarios("iv")

    @pytest.mark.parametrize("case", risklab.CASES)
    def test_truths_share_the_case_r_and_alpha(self, case):
        truths = benchmark_scenarios(case)
        assert [sc.name for sc in truths] == [f"{case}-{k}" for k in (1, 2, 3)]
        assert {(sc.params.r, sc.alpha_hb) for sc in truths} == {risklab.CASES[case]}


class TestEstimatorKinds:
    @pytest.mark.parametrize("kind", risklab.ESTIMATOR_KINDS)
    def test_every_kind_builds_from_full_hyperparameters(self, kind):
        x = CountMatrix(np.array([[3, 0, 1], [2, 1, 0], [0, 4, 2]]))
        fn = make_estimator(kind, alpha=6.0, beta=1.0, g=G1, a0=1.0, a=np.ones(3))
        d = fn(x, 4.0)
        assert d.shape == (3, 3) and np.all(np.isfinite(d))
        assert np.all(d > 0) == (kind in risklab.POSITIVE_KINDS)

    @pytest.mark.parametrize("kind, message", [
        ("hb", "hb needs alpha"),
        ("dir-pm", "dir-pm needs a0 and a"),
        ("hb-pm", "hb-pm needs alpha, a0 and a"),
    ])
    def test_refuses_missing_hyperparameters(self, kind, message):
        with pytest.raises(ValueError, match=message):
            make_estimator(kind)

    def test_positive_kinds_are_kinds(self):
        assert set(risklab.POSITIVE_KINDS) < set(risklab.ESTIMATOR_KINDS)


class TestSampling:
    def test_stack_shape(self):
        x = _sample_stack(benchmark_scenarios("ii")[0].params, 0, range(2))
        assert x.shape == (2, 3, 7)

    @pytest.mark.parametrize("sc", scenario_presets(), ids=lambda sc: sc.name)
    def test_stack_matches_per_replication_draws(self, sc):
        # compare's stack draws replication k from the (seed, k) stream alone,
        # column by column, whatever else its chunk holds.
        reps = range(3, 40, 4)
        want = np.concatenate(
            [sampling_oracle.sample_stack(sc.params, 11, range(k, k + 1)) for k in reps]
        )
        got = _sample_stack(sc.params, 11, reps)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


def random_truth(m: int, r: float, seed: int) -> ModelParams:
    """A truth with m rows and 1-3 columns, each p drawn uniformly from the
    simplex interior."""
    rng = np.random.default_rng([m, seed])
    n_cols = int(rng.integers(1, 4))
    return ModelParams(
        r, tuple(ProbColumn(rng.dirichlet(np.ones(m + 1))[1:]) for _ in range(n_cols))
    )


def assert_same_draws(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == np.int64 and want.dtype == np.int64
    assert np.array_equal(got, want)


class TestSamplingOracle:
    """The scalar-Poisson draw reproduces the array-Poisson one it replaced
    (tests/sampling_oracle.py) bit for bit, so every (seed, k) stream and
    every table is unchanged."""

    @pytest.mark.parametrize("seed", [0, 42])
    @pytest.mark.parametrize("sc", scenario_presets(), ids=lambda sc: sc.name)
    def test_presets(self, sc, seed):
        # The serial stack and the two chunks a --jobs 2 run draws.
        for reps in (range(0, 40), range(0, 40, 2), range(1, 40, 2)):
            want = sampling_oracle.sample_stack(sc.params, seed, reps)
            assert_same_draws(_sample_stack(sc.params, seed, reps), want)
        for k in range(1, 40, 6):
            got = _sample_stack(sc.params, seed, range(k, k + 1))[0]
            assert_same_draws(got, want[k // 2])

    @pytest.mark.parametrize("m", range(1, 8))
    def test_random_truths(self, m):
        for seed in range(5):
            rng = np.random.default_rng([seed, m])
            r = float(np.exp(rng.uniform(np.log(0.2), np.log(50.0))))
            truth = random_truth(m, r, seed)
            reps = range(seed, 60, 3)
            assert_same_draws(
                _sample_stack(truth, seed, reps),
                sampling_oracle.sample_stack(truth, seed, reps),
            )

    @pytest.mark.parametrize("r", [0.05, 0.3, 0.9, 1.0])
    def test_small_shape(self, r):
        # Gamma shapes at or below 1 take NumPy's small-shape branches.
        truth = random_truth(5, r, 7)
        reps = range(200)
        assert_same_draws(
            _sample_stack(truth, 3, reps), sampling_oracle.sample_stack(truth, 3, reps)
        )

    def test_poisson_regimes(self):
        # NumPy draws a Poisson rate below 10 by multiplication and one at
        # or above 10 by transformed rejection; both appear here.
        p = ProbColumn(np.array([0.004, 0.9, 0.001, 0.05]))
        truth = ModelParams(4.0, (p,))
        reps = range(100)
        lam = np.concatenate([p.p / p.p0 * make_rng(5, k).gamma(4.0) for k in reps])
        assert (lam < 10).any() and (lam >= 10).any()
        assert_same_draws(
            _sample_stack(truth, 5, reps), sampling_oracle.sample_stack(truth, 5, reps)
        )

    def test_consecutive_draws(self):
        # Each draw leaves the stream where the oracle's leaves it.
        for m in range(1, 8):
            col = random_truth(m, 2.5, m).columns[0]
            ours, theirs = make_rng(9, m), make_rng(9, m)
            for _ in range(20):
                want = sampling_oracle.nm_sample(2.5, col, theirs)
                assert_same_draws(nm_sample(2.5, col, ours), want)


class TestDominanceSpotChecks:
    def test_case_i_orderings_at_scale(self):
        # 10,000 shared replications: the pooled and hierarchical rules must
        # beat the unbiased estimator on the balanced truth.
        sc = benchmark_scenarios("i")[0]
        fns = {
            "U": make_estimator("umvu"),
            "EB": make_estimator("eb"),
            "HB": make_estimator("hb", alpha=sc.alpha_hb),
        }
        reports = compare(fns, sc.params, reps=10_000, seed=21, reference="U")
        assert reports["EB"].risk < reports["U"].risk
        assert reports["HB"].risk < reports["U"].risk


class TestHudson:
    def test_indicator_m1(self):
        p = truth_1x1(0.4, 2.0)
        rep = hudson_check("indicator", p, 0, 0, tol=1e-8)
        assert rep.passed
        assert abs(rep.lhs - rep.rhs) < 1e-8

    def test_zero_function(self):
        p = truth_1x1(0.4, 2.0)
        rep = hudson_check("zero", p, 0, 0, tol=1e-12)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed

    def test_unbiasedness_follows_from_identity(self):
        # h = the unbiased-estimator entry makes the right side E[1] = 1,
        # hence E[estimate] = p .
        for r in (2.0, 2.5):
            p = truth_1x1(0.4, r)
            rep = hudson_check("linear-in-one-count", p, 0, 0, tol=1e-8)
            assert rep.passed
            assert rep.rhs == pytest.approx(1.0, abs=1e-8)

    def test_two_columns_mixed_dims(self):
        p = ModelParams(
            2.5,
            (ProbColumn(np.array([0.2, 0.3])), ProbColumn(np.array([0.25, 0.25]))),
        )
        for kind in ("indicator", "linear-in-one-count"):
            for nu in (0, 1):
                rep = hudson_check(kind, p, 1, nu, tol=1e-8)
                assert rep.passed, (kind, nu)

    def test_exact_for_three_by_three(self):
        # With r = 3, p_{0,1} = 0.2 and p0 = 0.4 the indicator side is
        # (1 - (0.4/0.6)^3) / 0.2 = 95/27.
        p = ModelParams.from_matrix(3.0, np.full((3, 3), 0.2))
        rep = hudson_check("indicator", p, 0, 1, tol=1e-8)
        assert rep.passed
        assert rep.lhs == pytest.approx(95 / 27, abs=1e-8)
        assert rep.rhs == pytest.approx(95 / 27, abs=1e-8)

    @pytest.mark.parametrize("matrix", [[[1e-17]], [[1e-17], [1e-18]], [[1e-200]]])
    def test_column_whose_p0_rounds_to_one(self, matrix):
        # 1 - p0 is exactly 0, so the tail bound is 0 and the cap stays 16;
        # the sides are r (indicator) and 1 (unbiased entry) up to O(p).
        p = ModelParams.from_matrix(2.0, matrix)
        assert p.columns[0].p0 == 1.0
        for kind, side in (("indicator", 2.0), ("linear-in-one-count", 1.0)):
            for i in range(p.m):
                rep = hudson_check(kind, p, i, 0, tol=1e-8)
                assert rep.passed, (kind, i)
                assert rep.lhs == pytest.approx(side, abs=1e-12)
                assert rep.rhs == pytest.approx(side, abs=1e-12)

    @pytest.mark.parametrize("sc", scenario_presets(), ids=lambda sc: sc.name)
    def test_closed_forms_on_benchmark_truths(self, sc):
        # Indicator: E[1{X_inu >= 1}] / p_inu with X_inu ~ NB(r, p0/(p0 + p_inu)).
        # Unbiased-estimator entry: both sides are 1.
        truth, r = sc.params, sc.params.r
        for i, nu in ((0, 0), (truth.m - 1, truth.n_columns - 1)):
            col = truth.columns[nu]
            p_inu = col.p[i]
            want = (1.0 - (col.p0 / (col.p0 + p_inu)) ** r) / p_inu
            rep = hudson_check("indicator", truth, i, nu)
            assert abs(rep.lhs - want) <= 1e-9 and abs(rep.rhs - want) <= 1e-9
            rep = hudson_check("linear-in-one-count", truth, i, nu)
            assert abs(rep.lhs - 1.0) <= 1e-9 and abs(rep.rhs - 1.0) <= 1e-9

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            hudson_check("nope", truth_1x1(), 0, 0)

    @pytest.mark.parametrize("i, nu", [(1, 0), (0, 1), (-1, 0)])
    def test_index_out_of_range(self, i, nu):
        with pytest.raises(ValueError, match="index out of range"):
            hudson_check("indicator", truth_1x1(), i, nu)

    def test_unattainable_tolerance(self):
        # No tail is below tol / 10 = 0, whatever the cap.
        with pytest.raises(RuntimeError, match="truncation bound unattainable"):
            hudson_check("indicator", truth_1x1(), 0, 0, tol=0.0)

    def test_peak_memory_is_bounded(self):
        # p0 = 0.02 puts the column-sum cap at 2048; the whole (x_i, rest)
        # triangle at once peaked at 144 MiB here.
        truth = ModelParams.from_matrix(3.0, np.array([[0.33], [0.33], [0.32]]))
        col = truth.columns[0]
        assert risklab._column_cap(3.0, col.p0, 0.33, 1e-8) == 2048
        tracemalloc.start()
        try:
            rep = hudson_check("indicator", truth, 0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = (1.0 - (col.p0 / (col.p0 + 0.33)) ** 3) / 0.33
        assert abs(rep.lhs - want) <= 1e-9 and abs(rep.rhs - want) <= 1e-9
        assert peak < 16 * 2**20


def enumerable_cases():
    """The models the joint enumeration took: criterion 6's configurations
    and a two-column model with m = 2, each with its (i, nu)."""
    cases = []
    for r in (2.0, 2.5):
        for p in (0.2, 0.4, 0.6):
            cases.append((ModelParams.from_matrix(r, np.array([[p]])), 0, 0))
        for pv in ((0.15, 0.2), (0.3, 0.3), (0.1, 0.5)):
            cases.append((ModelParams.from_matrix(r, np.array(pv)[:, None]), 1, 0))
        for pa, pb in ((0.3, 0.4), (0.2, 0.2), (0.45, 0.1)):
            cases.append((ModelParams.from_matrix(r, np.array([[pa, pb]])), 0, 1))
    two = ModelParams.from_matrix(2.5, np.array([[0.2, 0.25], [0.3, 0.25]]))
    return cases + [(two, 1, 0), (two, 1, 1)]


class TestHudsonOracle:
    """The one-column two-count sums agree with the joint enumeration they
    replaced (hudson_oracle) wherever that enumeration ran."""

    @pytest.mark.parametrize("kind", ["indicator", "linear-in-one-count", "zero"])
    def test_agrees_with_joint_enumeration(self, kind):
        for truth, i, nu in enumerable_cases():
            rep = hudson_check(kind, truth, i, nu, tol=1e-8)
            lhs, rhs = hudson_oracle.enumerate_sides(kind, truth.r, truth, i, nu, 1e-8)
            assert abs(rep.lhs - lhs) <= 1e-9, (kind, truth, i, nu)
            assert abs(rep.rhs - rhs) <= 1e-9, (kind, truth, i, nu)

    @pytest.mark.parametrize("kind", ["indicator", "linear-in-one-count", "zero"])
    def test_blocked_sums_match_one_block(self, kind, monkeypatch):
        # Caps of 16 to 64 column sums: one to three blocks.
        cases = enumerable_cases()
        blocked = [hudson_check(kind, t, i, nu, tol=1e-8) for t, i, nu in cases]
        monkeypatch.setattr(risklab, "_SUM_BLOCK", 2**30)
        for (truth, i, nu), rep in zip(cases, blocked):
            whole = hudson_check(kind, truth, i, nu, tol=1e-8)
            assert rep.lhs == pytest.approx(whole.lhs, rel=1e-12, abs=0)
            assert rep.rhs == pytest.approx(whole.rhs, rel=1e-12, abs=0)


class TestCaseTable:
    def test_structure(self):
        rows = case_table("iii", reps=30, seed=2)
        assert [r["truth"] for r in rows] == ["iii-1", "iii-2", "iii-3"]
        for row in rows:
            for key in ("U", "EB0", "EB", "HB", "EB0_prial", "EB_prial", "HB_prial"):
                assert key in row


def per_truth_rows(case: str, reps: int, seed: int) -> list[dict]:
    """The oracle: a case table built from one compare call per truth, each
    with its own estimators, as case_table built it before batching."""
    rows = []
    for sc in benchmark_scenarios(case):
        fns = {
            "U": make_estimator("umvu"),
            "EB0": make_estimator("eb0"),
            "EB": make_estimator("eb"),
            "HB": make_estimator("hb", alpha=sc.alpha_hb, beta=1.0),
        }
        reports = compare(fns, sc.params, loss="ss", reps=reps, seed=seed, reference="U")
        row = {"truth": sc.name}
        for name in ("U", "EB0", "EB", "HB"):
            rep = reports[name]
            row[name] = rep.risk
            row[f"{name}_se"] = rep.mc_stderr
            if name != "U":
                row[f"{name}_prial"] = rep.prial_vs_reference
        rows.append(row)
    return rows


class TestCaseBatch:
    """case_table runs each estimator once on the stacked replications of a
    case's three truths; every cell equals the per-truth computation."""

    @pytest.mark.parametrize("reps", [2, 10, 37])
    @pytest.mark.parametrize("seed", [0, 42])
    @pytest.mark.parametrize("case", ["i", "ii", "iii"])
    def test_rows_equal_per_truth_compare(self, case, seed, reps):
        got = case_table(case, reps=reps, seed=seed)
        want = per_truth_rows(case, reps, seed)
        assert got == want
        assert [list(row) for row in got] == [list(row) for row in want]

    @pytest.mark.parametrize("case", ["i", "ii", "iii"])
    def test_parallel_jobs_match_serial(self, case):
        assert case_table(case, reps=10, seed=42, jobs=2) == case_table(
            case, reps=10, seed=42
        )

    def test_more_jobs_than_replications_match_serial(self):
        assert case_table("i", reps=2, seed=3, jobs=3) == case_table("i", reps=2, seed=3)

    @pytest.mark.parametrize("case", ["i", "ii", "iii"])
    def test_truths_of_a_case_share_the_batch_parameters(self, case):
        shared = {
            (sc.params.r, sc.params.m, sc.params.n_columns, sc.alpha_hb)
            for sc in benchmark_scenarios(case)
        }
        assert len(shared) == 1

    def test_failure_names_truth_and_replication(self, monkeypatch):
        import nmshrink.estimators as est

        # EB fails on one count matrix: replication 3 of the second truth.
        bad = _sample_stack(benchmark_scenarios("i")[1].params, 0, range(3, 4))[0]
        real_eb = est.eb

        def broken(x, r):
            if np.all(x.x == bad, axis=(-2, -1)).any():
                raise ValueError("boom")
            return real_eb(x, r)

        monkeypatch.setattr(est, "eb", broken)
        with pytest.raises(RuntimeError, match=r"'EB' failed on replication 3 of 'i-2': boom"):
            case_table("i", reps=5, seed=0)


def test_negative_binomial_tail_bound_over_scipy_stats():
    # The geometric bound is at or above the exact tail (equal for r = 1, the
    # geometric law, up to rounding) and at most 6 times it where finite
    # (5.5 measured); rho >= 1 gives inf.
    from scipy.stats import nbinom

    from nmshrink.risklab import _nbinom_sf

    worst = 0.0
    for k in (0, 1, 5, 16, 100, 1000, 100_000):
        for r in (0.5, 1.0, 2.5, 8.0, 30.0):
            for p0 in (0.01, 0.2, 0.5, 0.9, 0.999):
                want = float(nbinom.sf(k, r, p0))
                got = _nbinom_sf(k, r, p0)
                assert got >= want * (1.0 - 1e-12), (k, r, p0)
                if math.isfinite(got) and want > 0:
                    worst = max(worst, got / want)
                elif math.isfinite(got):
                    assert got == 0.0, (k, r, p0)
    assert 1.0 <= worst <= 6.0


def test_column_cap_equals_the_exact_tail_cap():
    # 7 r x 4 p0 x 3 p_inu x 3 tol = 252 combinations, p_inu from a small
    # entry to the whole column (m = 1); the pinned 2048 among them.
    grid = itertools.product(
        (0.3, 0.5, 1.0, 2.0, 3.0, 8.0, 30.0),
        (0.02, 0.2, 0.5, 0.9),
        (0.05, 0.33, 1.0),
        (1e-6, 1e-8, 1e-12),
    )
    caps = []
    for r, p0, share, tol in grid:
        p_inu = share * (1.0 - p0)
        want = hudson_oracle.column_cap(r, p0, p_inu, tol)
        assert risklab._column_cap(r, p0, p_inu, tol) == want, (r, p0, share, tol)
        caps.append(want)
    assert len(caps) == 252 and 2048 in caps
