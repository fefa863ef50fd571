"""Command-line harness: subcommands, exit codes, reproducibility."""

import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmshrink.cli as cli
from nmshrink import audit, estimators
from nmshrink.cli import _audit_scenario, _g_from_doc, build_parser, main
from nmshrink.kernel import ConditionError, QuadratureError


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def counts_csv(tmp_path):
    return write(tmp_path / "counts.csv", "3,0\n2,1\n0,4\n")


class TestEstimate:
    def test_umvu_round_trip(self, counts_csv, tmp_path, capsys):
        out = tmp_path / "est.csv"
        code = main(
            ["estimate", "--estimator", "umvu", "--r", "8", "--in", counts_csv,
             "--out", str(out)]
        )
        assert code == 0
        got = np.loadtxt(out, delimiter=",")
        np.testing.assert_allclose(
            got, [[3 / 12, 0], [2 / 12, 1 / 12], [0, 4 / 12]]
        )

    def test_all_zero_matrix(self, tmp_path, capsys):
        src = write(tmp_path / "z.csv", "0,0\n0,0\n")
        assert main(["estimate", "--estimator", "umvu", "--r", "8", "--in", src]) == 0
        outputs = capsys.readouterr().out
        assert np.loadtxt(outputs.splitlines(), delimiter=",").sum() == 0.0

    def test_seventeen_significant_digits(self, counts_csv, capsys):
        assert main(["estimate", "--estimator", "umvu", "--r", "8", "--in", counts_csv]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.split(",")[0] == "0.16666666666666666"

    def test_ragged_csv_exit_2(self, tmp_path, capsys):
        src = write(tmp_path / "bad.csv", "1,2\n3\n")
        assert main(["estimate", "--estimator", "umvu", "--r", "8", "--in", src]) == 2
        assert "row 2" in capsys.readouterr().err

    def test_condition_violation_exit_4(self, tmp_path, capsys):
        src = write(tmp_path / "c.csv", "\n".join(["1,1"] * 7) + "\n")
        code = main(
            ["estimate", "--estimator", "hb", "--r", "2", "--alpha", "6", "--in", src]
        )
        assert code == 4

    def test_dry_run_validates_without_computing(self, counts_csv, capsys):
        code = main(
            ["estimate", "--estimator", "hb", "--r", "8", "--alpha", "6",
             "--in", counts_csv, "--dry-run"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dry_run"] and doc["config"]["estimator"] == "hb"
        assert doc["config"]["shape"] == [3, 2]

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_flag_checks_precede_dry_run(self, counts_csv, capsys, dry_run):
        code = main(
            ["estimate", "--estimator", "hb", "--r", "8", "--in", counts_csv]
            + ["--dry-run"] * dry_run
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "hb needs alpha" in captured.err

    def test_posterior_mean_estimators(self, counts_csv, capsys):
        code = main(
            ["estimate", "--estimator", "dir-pm", "--r", "4", "--a0", "0",
             "--a", "1,1,1", "--in", counts_csv]
        )
        assert code == 0
        got = np.loadtxt(capsys.readouterr().out.splitlines(), delimiter=",")
        assert np.all(got > 0)

    @pytest.mark.parametrize("estimator", ["dir-pm", "hb-pm"])
    def test_posterior_means_reject_nonpositive_r(self, counts_csv, capsys, estimator):
        # a0 = 3 keeps r + a0 > 0, so only r <= 0 itself is wrong
        code = main(
            ["estimate", "--estimator", estimator, "--r", "-0.5", "--alpha", "6",
             "--a0", "3", "--in", counts_csv]
        )
        assert code == 2
        assert "r must be positive" in capsys.readouterr().err


class TestKernelEval:
    def test_matches_library(self, tmp_path, capsys):
        from nmshrink.kernel import GChoice, log_kernel

        spec = {"alpha": 6, "beta": 1, "g": "g1", "xi0": 1, "xi": [3, 2, 4]}
        src = write(tmp_path / "k.json", json.dumps(spec))
        assert main(["kernel-eval", "--in", src]) == 0
        doc = json.loads(capsys.readouterr().out)
        want = log_kernel(6.0, 1.0, GChoice.constant_one(), 1.0, np.array([3.0, 2, 4]))
        assert doc["log_K"] == pytest.approx(want, abs=1e-12)
        assert doc["delta"] == pytest.approx(
            np.exp(doc["log_K_alpha_plus_1"] - doc["log_K"])
        )

    def test_komaki_spec(self, tmp_path, capsys):
        spec = {
            "alpha": 3, "beta": 0.5,
            "g": {"kind": "komaki", "c": 1.0, "kappa": 2.0},
            "xi0": 2, "xi": [1],
        }
        src = write(tmp_path / "k.json", json.dumps(spec))
        assert main(["kernel-eval", "--in", src]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["log_K"] == pytest.approx(-0.7919283094065629, abs=1e-9)

    def test_malformed_json_exit_2(self, tmp_path):
        src = write(tmp_path / "k.json", "{not json")
        assert main(["kernel-eval", "--in", src]) == 2

    def test_divergent_kernel_writes_strict_json(self, tmp_path, capsys):
        spec = {"alpha": 1, "beta": 0, "xi0": 1, "xi": [0.5]}
        src = write(tmp_path / "k.json", json.dumps(spec))
        assert main(["kernel-eval", "--in", src]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc == {"log_K": None, "log_K_alpha_plus_1": None, "delta": None}

    def test_too_sharp_peak_exit_3(self, tmp_path, capsys):
        spec = {"alpha": 1600, "beta": 1, "g": "g1", "xi0": 1, "xi": [10, 12, 9]}
        assert main(["kernel-eval", "--in", write(tmp_path / "k.json", json.dumps(spec))]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_one_kernel_call_for_both_exponents(self, tmp_path, capsys, monkeypatch):
        import nmshrink.cli as cli

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return log_kernel(*args, **kwargs)

        from nmshrink.kernel import log_kernel

        monkeypatch.setattr(cli, "log_kernel", counting)
        spec = {"alpha": 6, "beta": 1, "g": "g1", "xi0": 1, "xi": [3, 2, 4]}
        assert main(["kernel-eval", "--in", write(tmp_path / "k.json", json.dumps(spec))]) == 0
        assert len(calls) == 1


class TestAudit:
    def test_table1_pattern(self, capsys):
        assert main(["audit", "--table1"]) == 0
        rows = json.loads(capsys.readouterr().out)
        flags = [(r["EB0"], r["EB"], r["HB"]) for r in rows]
        assert flags == [(True, True, True), (False, False, True), (False, False, False)]

    def test_enforce_exit_4(self, tmp_path, capsys):
        scenario = {"kind": "eb", "m": 3, "r": 4}
        src = write(tmp_path / "s.json", json.dumps(scenario))
        assert main(["audit", "--in", src]) == 0
        assert main(["audit", "--in", src, "--enforce"]) == 4

    def test_verdict_renders_inequality_text(self, tmp_path, capsys):
        scenario = {"kind": "hb", "alpha": 14, "beta": 1, "r": 8, "m": 7, "n": 3}
        src = write(tmp_path / "s.json", json.dumps(scenario))
        assert main(["audit", "--in", src]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["holds"] is True
        assert "alpha+1=15" in doc["text"]

    def test_prior_kind(self, tmp_path, capsys):
        scenario = {
            "kind": "prior", "alpha": 6, "beta": 0, "a0": 1.0,
            "a": [1, 1, 1], "n_columns": 2, "r": 3,
        }
        src = write(tmp_path / "s.json", json.dumps(scenario))
        assert main(["audit", "--in", src]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["prior_proper"] is False
        assert "tail" in doc["reasons"]

    @pytest.mark.parametrize(
        "scenario, message",
        [
            ({"kind": "hb", "alpha": 14, "beta": 1, "r": 8, "m": 7.5, "n": 3},
             "m must be a positive integer"),
            ({"kind": "hb", "alpha": 14, "beta": 1, "r": 8, "m": -4, "n": 0},
             "must be a positive integer"),
            ({"kind": "hb", "alpha": "nan", "beta": 1, "r": 8, "m": 7, "n": 3},
             "alpha must be finite"),
            ({"kind": "prior", "alpha": 6, "beta": 1, "a0": 1.0, "a": [1, 1],
              "n_columns": 2, "r": -5}, "r must be positive"),
            ({"kind": "kl", "alpha": 5, "beta": 1, "a0": -4, "a": [0.5, 1e400],
              "r": 5, "n": 3, "n_columns": 3}, "a must be finite"),
            ({"kind": "eb", "m": True, "r": 4}, "m must be a positive integer"),
            # a negative beta makes every kernel diverge
            ({"kind": "hb", "alpha": 1, "beta": -0.1, "r": 8, "m": 7, "n": 3},
             "beta nonnegative"),
        ],
    )
    def test_rejects_input_the_model_cannot_take(self, tmp_path, capsys, scenario,
                                                 message):
        src = write(tmp_path / "s.json", json.dumps(scenario))
        assert main(["audit", "--in", src]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_integral_float_counts_are_accepted(self, tmp_path, capsys):
        docs = [{"kind": "eb", "m": m, "r": 4} for m in (7, 7.0)]
        outs = []
        for doc in docs:
            assert main(["audit", "--in", write(tmp_path / "s.json", json.dumps(doc))]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_non_object_document_exit_2(self, tmp_path, capsys):
        src = write(tmp_path / "s.json", "[1, 2]")
        assert main(["audit", "--in", src]) == 2
        assert main(["kernel-eval", "--in", src]) == 2


G_DOCS = st.sampled_from([
    "g1",
    {"kind": "komaki", "c": -1, "kappa": 2},
    {"kind": "komaki", "c": 0.5, "kappa": 1},
])
# Coarse grids, so the equality edges (r = m, r + a0 = 0, alpha + q0 = N, a
# bound met exactly) are drawn often.
HALVES = st.integers(1, 40).map(lambda k: k / 2)


@st.composite
def hb_scenarios(draw):
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 8))
    doc = {
        "kind": "hb", "alpha": draw(HALVES), "beta": draw(st.sampled_from([0, 0.5, 1])),
        "g": draw(G_DOCS), "r": m + draw(st.sampled_from([-1, -0.5, 0, 0.5, 2])),
        "m": m, "n": n,
    }
    if draw(st.booleans()):
        doc["n_columns"] = draw(st.integers(1, 8))
    return doc


@st.composite
def kl_scenarios(draw):
    m, r = draw(st.integers(1, 5)), draw(st.sampled_from([2.5, 4, 6]))
    return {
        "kind": "kl", "alpha": draw(HALVES), "beta": draw(st.sampled_from([0, 1])),
        "g": draw(G_DOCS), "a0": -r + draw(st.sampled_from([-0.5, 0, 0.5, 1.5])),
        "a": draw(st.lists(st.sampled_from([0.5, 1, 2]), min_size=m, max_size=m)),
        "r": r, "n": draw(st.integers(1, 8)), "n_columns": draw(st.integers(1, 4)),
    }


class TestAuditConditions:
    """The audit verdict is the conjunction of the conditions it lists, and
    both come from the library's dominance checkers."""

    @settings(max_examples=300, deadline=None)
    @given(hb_scenarios())
    # r = m with alpha <= N: only the small-t part of validity fails
    @example({"kind": "hb", "alpha": 2, "beta": 1, "r": 3, "m": 3, "n": 7})
    def test_hb_holds_is_all_conditions(self, doc):
        verdict = _audit_scenario(doc)
        expected = audit.hb_dominance_conditions(
            doc["alpha"], doc["beta"], _g_from_doc(doc.get("g")), doc["r"], doc["m"],
            doc["n"], doc.get("n_columns"),
        ).holds
        assert verdict["holds"] == all(verdict["conditions"].values()) == expected

    @settings(max_examples=300, deadline=None)
    @given(kl_scenarios())
    # beta = 0 with alpha >= N a_dot: only the tail part of propriety fails
    @example({"kind": "kl", "alpha": 3, "beta": 0, "g": "g1", "a0": -3.5,
              "a": [1, 1, 1], "r": 4, "n": 8, "n_columns": 1})
    def test_kl_holds_is_all_conditions(self, doc):
        verdict = _audit_scenario(doc)
        expected = audit.kl_dominance_conditions(
            doc["alpha"], doc["beta"], _g_from_doc(doc["g"]), doc["a0"],
            np.array(doc["a"]), doc["r"], doc["n"], doc["n_columns"],
        ).holds
        assert verdict["holds"] == all(verdict["conditions"].values()) == expected

    def test_small_t_failure_is_listed(self):
        # r = m with alpha <= N fails only the small-t part of the validity
        # assumptions; the breakdown must name that condition.
        verdict = _audit_scenario(
            {"kind": "hb", "alpha": 2, "beta": 1, "r": 3, "m": 3, "n": 7}
        )
        assert verdict["holds"] is False
        assert [k for k, ok in verdict["conditions"].items() if not ok] == [
            "delta_hb valid (r > m, or r = m with alpha + q0 > N; finite tail)"
        ]


class TestGibbsDiag:
    def test_report_fields(self, counts_csv, tmp_path, capsys):
        prior = {"alpha": 6, "beta": 1, "g": "g1", "a0": 0.5, "a": [1, 1, 1]}
        src = write(tmp_path / "prior.json", json.dumps(prior))
        code = main(
            ["gibbs-diag", "--counts", counts_csv, "--prior", src, "--r", "4",
             "--iters", "4000", "--burn-in", "1000", "--seed", "3"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {
            "posterior_mean_p", "posterior_mean_t", "ess_t", "delta_ss", "delta_kl",
        }
        assert doc["ess_t"] > 100
        assert len(doc["delta_kl"]) == 2
        assert np.asarray(doc["posterior_mean_p"]).shape == (3, 2)

    def test_improper_posterior_exit_4(self, counts_csv, tmp_path):
        prior = {"alpha": 6, "beta": 1, "g": "g1", "a0": -9.0, "a": [1, 1, 1]}
        src = write(tmp_path / "prior.json", json.dumps(prior))
        code = main(
            ["gibbs-diag", "--counts", counts_csv, "--prior", src, "--r", "4"]
        )
        assert code == 4

    def test_tiny_t_exits_cleanly(self, tmp_path, capsys):
        # r + a0 = 0 and alpha > N make the posterior proper, while beta = 1e9
        # pins t near 6e-9, where Gamma(t) draws underflow in linear space.
        counts = write(tmp_path / "counts.csv", "0,3\n2,0\n1,1\n")
        prior = {"alpha": 6, "beta": 1e9, "g": "g1", "a0": -4, "a": [1, 1, 1]}
        src = write(tmp_path / "prior.json", json.dumps(prior))
        code = main(["gibbs-diag", "--counts", counts, "--prior", src, "--r", "4"])
        assert code in (0, 3)
        if code == 0:
            doc = json.loads(capsys.readouterr().out)
            values = [doc["posterior_mean_t"], doc["ess_t"], doc["delta_ss"]]
            values += doc["delta_kl"] + sum(doc["posterior_mean_p"], [])
            assert all(isinstance(v, float) and np.isfinite(v) for v in values)

    @pytest.mark.parametrize("r", ["0", "-0.5"])
    def test_nonpositive_r_exit_2(self, counts_csv, tmp_path, capsys, r):
        prior = {"alpha": 6, "beta": 1, "g": "g1", "a0": 5.0, "a": [1, 1, 1]}
        src = write(tmp_path / "prior.json", json.dumps(prior))
        code = main(["gibbs-diag", "--counts", counts_csv, "--prior", src, "--r", r,
                     "--iters", "50", "--burn-in", "0"])
        assert code == 2
        assert "r must be positive" in capsys.readouterr().err

    def test_komaki_weight_exit_4(self, counts_csv, tmp_path):
        prior = {"alpha": 6, "beta": 1, "g": {"kind": "komaki", "c": 1, "kappa": 1},
                 "a0": 0.5, "a": [1, 1, 1]}
        src = write(tmp_path / "prior.json", json.dumps(prior))
        code = main(
            ["gibbs-diag", "--counts", counts_csv, "--prior", src, "--r", "4"]
        )
        assert code == 4


class TestRiskSim:
    def test_scenario_table(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main(
            ["risk-sim", "--scenario", "iii", "--reps", "30", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header[0] == "truth" and "HB_prial" in header

    def test_jobs_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["risk-sim", "--scenario", "iii", "--reps", "24", "--seed", "7"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--jobs", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_custom_truth_kl(self, tmp_path):
        from nmshrink.model import ModelParams

        truth = ModelParams.from_matrix(5.0, np.full((9, 3), 1.0 / 18.0))
        src = write(tmp_path / "truth.json", truth.to_json())
        out = tmp_path / "kl.csv"
        code = main(
            ["risk-sim", "--truth", src, "--loss", "kl", "--reps", "20",
             "--seed", "2", "--estimators", "dir-pm,hb-pm", "--alpha", "5",
             "--a0", "-4", "--a", ",".join(["0.5"] * 9), "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("estimator,risk,se,prial_vs_dir-pm")
        assert len(lines) == 3

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_kl_loss_rejects_estimators_with_zeros(self, tmp_path, capsys, jobs):
        from nmshrink.model import ModelParams

        truth = ModelParams.from_matrix(5.0, np.full((2, 2), 0.2))
        src = write(tmp_path / "truth.json", truth.to_json())
        code = main(
            ["risk-sim", "--truth", src, "--loss", "kl", "--estimators", "umvu,eb",
             "--reps", "20", "--jobs", jobs]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "umvu, eb" in captured.err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_condition_violation_exit_4(self, tmp_path, capsys, jobs):
        from nmshrink.model import ModelParams

        truth = ModelParams.from_matrix(1.5, np.full((2, 3), 0.2))
        src = write(tmp_path / "truth.json", truth.to_json())
        code = main(
            ["risk-sim", "--truth", src, "--reps", "6", "--estimators", "umvu,hb",
             "--alpha", "6", "--jobs", jobs]
        )
        assert code == 4
        assert "condition violation" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_numerical_failure_exit_3(self, tmp_path, capsys, jobs):
        from nmshrink.model import ModelParams

        truth = ModelParams.from_matrix(2.0, np.array([[0.5]]))
        src = write(tmp_path / "truth.json", truth.to_json())
        code = main(
            ["risk-sim", "--truth", src, "--reps", "12", "--estimators", "umvu,hb",
             "--alpha", "0.9999999", "--beta", "0", "--jobs", jobs]
        )
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_scenario_and_truth_are_exclusive(self, capsys):
        assert main(["risk-sim", "--scenario", "i", "--truth", "x.json"]) == 2

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--loss", "kl", "--estimators", "umvu,foo"], "--loss, --estimators"),
            (["--n", "2"], "--n"),
            (["--alpha", "5", "--g", "komaki", "--g-kappa", "2"],
             "--alpha, --g, --g-kappa"),
        ],
    )
    def test_scenario_refuses_flags_it_would_ignore(self, capsys, dry_run, flags,
                                                    named):
        argv = ["risk-sim", "--scenario", "i", "--reps", "4"] + flags
        assert main(argv + ["--dry-run"] * dry_run) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"does not take {named}" in captured.err

    def test_scenario_accepts_flags_at_their_defaults(self, capsys):
        argv = ["risk-sim", "--scenario", "i", "--loss", "ss", "--estimators",
                "umvu,eb0,eb", "--beta", "1", "--dry-run"]
        assert main(argv) == 0

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("n", ["0", "3", "-1"])
    def test_n_out_of_range_exit_2(self, tmp_path, capsys, jobs, n):
        from nmshrink.model import ModelParams

        truth = ModelParams.from_matrix(5.0, np.full((2, 2), 0.2))
        src = write(tmp_path / "truth.json", truth.to_json())
        code = main(
            ["risk-sim", "--truth", src, "--reps", "5", "--estimators", "umvu,eb",
             "--n", n, "--jobs", jobs]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"n must be in 1..2, got {n}" in captured.err

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize(
        "text, flags, message",
        [
            (None, [], "No such file"),
            ('{"r": 5.0, "columns": [[0.2, 0.2]', [], "Expecting"),
            ('{"r": 5.0, "columns": [[0.2, 0.2], [0.2, 0.2]]}', ["--n", "3"],
             "n must be in 1..2, got 3"),
        ],
        ids=["missing file", "bad JSON", "n out of range"],
    )
    def test_truth_is_checked_before_dry_run(self, tmp_path, capsys, dry_run, text,
                                             flags, message):
        src = str(tmp_path / "truth.json")
        if text is not None:
            write(tmp_path / "truth.json", text)
        argv = ["risk-sim", "--truth", src, "--reps", "5", "--estimators", "umvu,eb"]
        assert main(argv + flags + ["--dry-run"] * dry_run) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_dry_run_reports_the_truth_shape(self, tmp_path, capsys):
        from nmshrink.model import ModelParams

        truth = ModelParams.from_matrix(5.0, np.full((3, 2), 0.1))
        src = write(tmp_path / "truth.json", truth.to_json())
        assert main(["risk-sim", "--truth", src, "--n", "2", "--dry-run"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["shape"] == [3, 2]


# Input a run cannot take, refused with exit 2 whether or not it is a dry
# run: the estimators a run would build, --a against m, finite flag values.
BAD_INPUT = [
    (["risk-sim", "--truth", "{truth}", "--estimators", "umvu,foo"],
     "unknown estimator kind 'foo'"),
    (["risk-sim", "--truth", "{truth}", "--estimators", ","], "no estimator named"),
    (["risk-sim", "--truth", "{truth}", "--estimators", "dir-pm", "--a0", "1",
      "--a", "1,2,3", "--reps", "2"], "--a needs m = 2 entries, got 3"),
    (["estimate", "--estimator", "hb-pm", "--r", "4", "--alpha", "6", "--a0", "-1",
      "--a", "1,2", "--in", "{counts}"], "--a needs m = 3 entries, got 2"),
    (["estimate", "--estimator", "umvu", "--r", "inf", "--in", "{counts}"],
     "argument --r: must be a finite number"),
    (["estimate", "--estimator", "dir-pm", "--r", "3", "--a0", "1", "--a", "1,nan,1",
      "--in", "{counts}"], "entries must be finite"),
    (["estimate", "--estimator", "hb", "--r", "8", "--alpha", "6", "--beta", "inf",
      "--in", "{counts}"], "argument --beta: must be a finite number"),
    (["estimate", "--estimator", "hb", "--r", "8", "--alpha", "inf",
      "--in", "{counts}"], "argument --alpha: must be a finite number"),
]


class TestBadInput:
    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("template, message", BAD_INPUT,
                             ids=[" ".join(argv) for argv, _ in BAD_INPUT])
    def test_exit_2_with_or_without_dry_run(self, counts_csv, tmp_path, capsys,
                                            dry_run, template, message):
        from nmshrink.model import ModelParams

        truth = write(tmp_path / "truth.json",
                      ModelParams.from_matrix(5.0, np.full((2, 2), 0.2)).to_json())
        argv = [a.format(counts=counts_csv, truth=truth) for a in template]
        try:
            code = main(argv + ["--dry-run"] * dry_run)
        except SystemExit as exc:  # argparse refuses a flag's value
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


class TestRepro:
    def test_tables_and_manifest(self, tmp_path):
        out = tmp_path / "repro"
        code = main(
            ["repro", "tables", "--reps", "12", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        names = sorted(os.listdir(out))
        assert names == [
            "manifest.json", "table1.csv", "table2.csv", "table3.csv", "table4.csv",
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5 and manifest["reps"] == 12
        assert (out / "table1.csv").read_text().splitlines()[1] == "i,+,+,+"

    def test_idempotent_tables(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(
                ["repro", "tables", "--reps", "8", "--seed", "3", "--out", str(out)]
            ) == 0
        for name in ("table1.csv", "table2.csv", "table3.csv", "table4.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_outdir_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NMSHRINK_OUTDIR", str(tmp_path / "envout"))
        assert main(["repro", "tables", "--reps", "-1", "--dry-run"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["outdir"].endswith("envout")


class TestPersistedConfig:
    def test_replayed_run_is_bit_identical(self, counts_csv, tmp_path):
        direct = tmp_path / "direct.csv"
        replayed = tmp_path / "replayed.csv"
        argv = ["estimate", "--estimator", "eb", "--r", "8", "--in", counts_csv]
        assert main(argv + ["--out", str(direct)]) == 0
        cfg = write(
            tmp_path / "run.json",
            json.dumps({"argv": argv + ["--out", str(replayed)]}),
        )
        assert main(["--config", cfg]) == 0
        assert direct.read_bytes() == replayed.read_bytes()

    def test_bad_config_exit_2(self, tmp_path):
        cfg = write(tmp_path / "run.json", json.dumps({"args": []}))
        assert main(["--config", cfg]) == 2
        assert main(["--config", cfg, "extra"]) == 2


# Parses covering every subcommand: defaults, --dry-run, prior flags.
PARSE_CASES = [
    ["estimate", "--estimator", "umvu", "--r", "8"],
    ["estimate", "--estimator", "hb", "--r", "8", "--alpha", "14", "--beta", "0.5",
     "--g", "komaki", "--g-c", "1", "--g-kappa", "2", "--in", "c.csv", "--header",
     "--dry-run"],
    ["estimate", "--estimator", "hb-pm", "--r", "4", "--alpha", "6", "--a0", "-3",
     "--a", "0.5,0.5", "--out", "o.csv"],
    ["risk-sim", "--scenario", "ii"],
    ["risk-sim", "--truth", "t.json", "--loss", "kl", "--estimators", "dir-pm,hb-pm",
     "--n", "2", "--jobs", "2", "--reps", "20", "--seed", "3", "--alpha", "5",
     "--a0", "-4", "--dry-run"],
    ["audit", "--table1"],
    ["audit", "--in", "s.json", "--enforce", "--out", "v.json"],
    ["gibbs-diag", "--counts", "c.csv", "--prior", "p.json", "--r", "4"],
    ["gibbs-diag", "--counts", "c.csv", "--header", "--prior", "p.json", "--r", "4",
     "--iters", "2000", "--burn-in", "100", "--thin", "3", "--seed", "9", "--dry-run"],
    ["kernel-eval"],
    ["kernel-eval", "--in", "k.json", "--dry-run"],
    ["repro", "tables"],
    ["repro", "tables", "--reps", "10", "--seed", "1", "--jobs", "2", "--out", "d"],
]


# Inputs the --dry-run cases of PARSE_CASES read.
PARSE_FILES = {
    "c.csv": "a,b\n3,0\n2,1\n",
    "p.json": json.dumps({"alpha": 6, "beta": 1, "a0": 0.5, "a": [1, 1]}),
    "k.json": json.dumps({"alpha": 6, "beta": 1, "xi0": 1, "xi": [3, 2]}),
    "t.json": json.dumps({"r": 5.0, "columns": [[0.2, 0.2], [0.2, 0.2]]}),
}


class TestDryRunConfig:
    """A dry run prints the parsed namespace: every option by its
    destination name, with the value it parsed to."""

    @pytest.mark.parametrize(
        "argv", [a for a in PARSE_CASES if "--dry-run" in a],
        ids=lambda a: " ".join(a[:3]),
    )
    def test_every_destination_is_shown(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for name, text in PARSE_FILES.items():
            write(tmp_path / name, text)
        assert main(argv) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        parsed = vars(build_parser().parse_args(argv))
        for dest, value in parsed.items():
            if dest not in ("fn", "dry_run"):
                assert config[dest] == value, dest

    def test_resolved_values_are_added(self, tmp_path, capsys):
        spec = write(tmp_path / "k.json", PARSE_FILES["k.json"])
        assert main(["kernel-eval", "--in", spec, "--dry-run"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["spec"] == json.loads(PARSE_FILES["k.json"])
        assert main(["repro", "tables", "--out", "d", "--dry-run"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["outdir"] == "d"


class TestParserReuse:
    """main parses with one parser per process; a fresh build_parser() is
    the oracle for it."""

    @pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda a: " ".join(a[:3]))
    def test_parse_matches_fresh_parser(self, argv):
        for _ in range(2):
            assert vars(cli._parse_args(argv)) == vars(build_parser().parse_args(argv))

    def test_config_replay_matches_fresh_parser(self, tmp_path):
        argv = PARSE_CASES[2]
        cfg = write(tmp_path / "run.json", json.dumps({"argv": argv}))
        assert vars(cli._parse_args(["--config", cfg])) == vars(
            build_parser().parse_args(argv)
        )

    def test_built_once_per_process(self, counts_csv, monkeypatch, capsys):
        calls = []

        def counting():
            calls.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        argv = ["estimate", "--estimator", "umvu", "--r", "8", "--in", counts_csv]
        for _ in range(3):
            assert main(argv) == 0
        assert len(calls) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_interleaved_calls_repeat_exactly(self, counts_csv, tmp_path, capsys):
        from nmshrink.model import ModelParams

        bad = write(tmp_path / "bad.csv", "1,2\n3\n")
        sharp = write(tmp_path / "k.json", json.dumps(
            {"alpha": 1600, "beta": 1, "g": "g1", "xi0": 1, "xi": [10, 12, 9]}
        ))
        truth = write(tmp_path / "truth.json",
                      ModelParams.from_matrix(1.5, np.full((2, 3), 0.2)).to_json())
        sequence = [
            (["estimate", "--estimator", "umvu", "--r", "8", "--in", bad], 2),
            (["estimate", "--estimator", "eb", "--r", "8", "--in", counts_csv], 0),
            (["kernel-eval", "--in", sharp], 3),
            (["risk-sim", "--truth", truth, "--reps", "6", "--estimators", "umvu,hb",
              "--alpha", "6"], 4),
            (["--version"], "exit 0"),
            (["estimate", "--estimator", "umvu", "--r", "8", "--in", counts_csv,
              "--no-such-option"], "exit 2"),
        ]

        def run_all():
            seen = []
            for argv, _ in sequence:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = f"exit {exc.code}"
                out = capsys.readouterr()
                seen.append((code, out.out, out.err))
            return seen

        cli._parser.cache_clear()  # the first run builds the parser
        first = run_all()
        second = run_all()
        assert [code for code, _, _ in first] == [want for _, want in sequence]
        assert first == second
        assert first[4][1].startswith("nmshrink ")
        assert "unrecognized arguments: --no-such-option" in first[5][2]


# Each subcommand's argv, the library call it makes (module, attribute) and
# whether it writes JSON to stdout.  A dry run builds its estimators, so
# `estimate` is injected into the estimator it runs.
CONTRACT_CALLS = {
    "estimate": (["estimate", "--estimator", "umvu", "--r", "8", "--in", "{counts}"],
                 (estimators, "umvu"), False),
    "risk-sim": (["risk-sim", "--truth", "{truth}", "--reps", "2",
                  "--estimators", "umvu,eb"], (cli, "compare"), False),
    "audit": (["audit", "--in", "{scenario}"],
              (audit, "eb_dominance_conditions"), True),
    "gibbs-diag": (["gibbs-diag", "--counts", "{counts}", "--prior", "{prior}",
                    "--r", "4", "--iters", "50", "--burn-in", "10"],
                   (cli, "run_posterior"), True),
    "kernel-eval": (["kernel-eval", "--in", "{kernel}"], (cli, "log_kernel"), True),
    "repro": (["repro", "tables", "--reps", "2", "--out", "{outdir}"],
              (cli, "case_table"), False),
}
# Injected exception (None: the real call) and the exit code it must give.
CONTRACT_ERRORS = [
    (None, 0),
    (ValueError("injected"), 2),
    (KeyError("injected"), 2),
    (OSError("injected"), 2),
    (json.JSONDecodeError("injected", "{", 0), 2),
    (ConditionError("injected"), 4),
    (QuadratureError("injected"), 3),
]


@pytest.fixture(scope="module")
def contract_paths(tmp_path_factory):
    from nmshrink.model import ModelParams

    d = tmp_path_factory.mktemp("contract")
    docs = {
        "counts": "3,0\n2,1\n0,4\n",
        "truth": ModelParams.from_matrix(5.0, np.full((2, 2), 0.2)).to_json(),
        "scenario": json.dumps({"kind": "eb", "m": 7, "r": 4}),
        "prior": json.dumps({"alpha": 6, "beta": 1, "a0": 0.5, "a": [1, 1, 1]}),
        "kernel": json.dumps({"alpha": 6, "beta": 1, "xi0": 1, "xi": [3, 2, 4]}),
    }
    paths = {name: write(d / name, text) for name, text in docs.items()}
    paths["outdir"] = str(d / "tables")
    return paths


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


class TestExitCodeContract:
    """Whatever a subcommand's library call raises, main maps it to the
    contract's exit code (0/2/2/2/2/4/3), writes nothing to stdout on
    failure and only strict JSON where it writes JSON; --dry-run computes
    nothing, so it always exits 0 with JSON."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(sorted(CONTRACT_CALLS)),
        st.sampled_from(CONTRACT_ERRORS),
        st.booleans(),
    )
    def test_exit_code_follows_exception(self, contract_paths, name, error, dry_run):
        import contextlib
        import io

        template, (module, attr), writes_json = CONTRACT_CALLS[name]
        argv = [a.format(**contract_paths) for a in template]
        exc, want = error
        real = getattr(module, attr)

        def injected(*args, **kwargs):
            if exc is None:
                return real(*args, **kwargs)
            raise exc

        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, attr, injected)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + ["--dry-run"] * dry_run)
        assert code == (0 if dry_run else want), err.getvalue()
        if code != 0:
            assert out.getvalue() == ""
        elif dry_run or writes_json:
            json.loads(out.getvalue(), parse_constant=reject_constant)
