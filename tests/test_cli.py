"""Command-line harness: subcommands, exit codes, reproducibility."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmshrink.cli as cli
from nmshrink import audit, estimators, risklab
from nmshrink.cli import _audit_check, _g_from_doc, build_parser, json_numbers, main
from nmshrink.kernel import ConditionError, GChoice, PriorSpec, QuadratureError
from nmshrink.model import read_counts_csv
from test_pins import CALLS as PIN_CALLS
from test_pins import FILES as PIN_FILES


def _savetxt_bytes(values) -> str:
    buf = io.StringIO()
    np.savetxt(buf, values, fmt="%.17g", delimiter=",")
    return buf.getvalue()


def write(path, text):
    path.write_text(text)
    return str(path)


def truth_json(r, matrix) -> str:
    """The truth document of size r and an m x N probability matrix, whose
    "columns" are the N columns of the matrix."""
    return json.dumps({"r": r, "columns": np.asarray(matrix).T.tolist()})


# The message of `model.require_r`, the one rule for r, at a value.
R_RULE = "r must be positive and finite, got {!r}"


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

    def test_counts_from_stdin(self, counts_csv, capsys, monkeypatch):
        # `--in -` reads the counts from stdin, as no --in (`< counts.csv`) does.
        argv = ["estimate", "--estimator", "umvu", "--r", "8"]
        monkeypatch.setattr(sys, "stdin", io.StringIO(Path(counts_csv).read_text()))
        assert main(argv) == 0
        redirected = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdin", io.StringIO(Path(counts_csv).read_text()))
        assert main(argv + ["--in", "-"]) == 0
        assert capsys.readouterr().out == redirected != ""

    def test_all_zero_matrix(self, tmp_path, capsys):
        src = write(tmp_path / "z.csv", "0,0\n0,0\n")
        assert main(["estimate", "--estimator", "umvu", "--r", "8", "--in", src]) == 0
        outputs = capsys.readouterr().out
        assert np.loadtxt(outputs.splitlines(), delimiter=",").sum() == 0.0

    def test_seventeen_significant_digits(self, counts_csv, capsys):
        assert main(["estimate", "--estimator", "umvu", "--r", "8", "--in", counts_csv]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.split(",")[0] == "0.16666666666666666"

    @pytest.mark.parametrize("shape", [(7, 3), (3, 7), (1, 1), (50, 4)])
    def test_output_bytes_are_savetxt_bytes(self, shape):
        # Exact zeros among values from 1e-300 to 1e5.
        rng = np.random.default_rng(list(shape))
        values = 10.0 ** rng.uniform(-300.0, 5.0, size=shape)
        values[rng.random(shape) < 0.3] = 0.0
        values.flat[0] = 1e-300
        assert cli._matrix_to_csv(values) == _savetxt_bytes(values)

    def test_hb_estimate_prints_savetxt_bytes(self, counts_csv, capsys):
        argv = ["estimate", "--estimator", "hb", "--r", "8", "--alpha", "14",
                "--in", counts_csv]
        assert main(argv) == 0
        want = estimators.hb(read_counts_csv(counts_csv), 8.0, 14.0, 1.0,
                             GChoice.constant_one())
        assert capsys.readouterr().out == _savetxt_bytes(want)

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

    def test_hb_at_r_equals_m_evaluates(self, tmp_path, capsys):
        # r = m and alpha > N: xi0 = 0, so the integrand is t^(alpha - N - 1)
        # = t^-0.8 near 0, a valid prior that `audit` accepts.
        counts = write(tmp_path / "c.csv", "3,0,1\n2,1,0\n0,4,2\n1,1,1\n0,0,3\n2,2,0\n1,0,1\n")
        argv = ["estimate", "--estimator", "hb", "--r", "7", "--alpha", "3.2", "--in", counts]
        assert main(argv) == 0
        want = estimators.hb(read_counts_csv(counts), 7.0, 3.2, 1.0, GChoice.constant_one())
        assert capsys.readouterr().out == _savetxt_bytes(want)


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

    def test_delta_has_the_library_ratio_bits(self, tmp_path, capsys):
        # A case where exp of the difference rounds differently in NumPy.
        from nmshrink.kernel import delta_hb

        spec = {"alpha": 14, "beta": 1, "g": "g1", "xi0": 1, "xi": [52, 57, 39]}
        assert main(["kernel-eval", "--in", write(tmp_path / "k.json", json.dumps(spec))]) == 0
        delta = json.loads(capsys.readouterr().out)["delta"]
        assert delta == delta_hb(14, 1, GChoice.constant_one(), 8, 7, np.array([45, 50, 32]))
        assert delta == 1.2872542726960294

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

    @pytest.mark.parametrize("spec, want", [
        ({"alpha": 0.2, "beta": 1, "xi0": 1, "xi": [0]}, math.lgamma(0.2)),
        ({"alpha": 0.75, "beta": 0, "xi0": 1, "xi": [1]},
         math.log(math.pi / math.sin(0.75 * math.pi))),
    ])
    def test_closed_forms_near_divergence(self, tmp_path, capsys, spec, want):
        # Gamma(0.2), and pi/sin(0.75 pi), 0.2 and 0.25 from divergence.
        assert main(["kernel-eval", "--in", write(tmp_path / "k.json", json.dumps(spec))]) == 0
        assert abs(json.loads(capsys.readouterr().out)["log_K"] - want) <= 1e-10

    def test_too_sharp_peak_exit_3(self, tmp_path, capsys):
        spec = {"alpha": 20000, "beta": 1, "g": "g1", "xi0": 1, "xi": [10, 12, 9]}
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
        assert [r["case"] for r in rows] == list(risklab.CASES)

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
            ({"kind": "hb", "alpha": float("nan"), "beta": 1, "r": 8, "m": 7, "n": 3},
             "alpha must be finite"),
            ({"kind": "prior", "alpha": 6, "beta": 1, "a0": 1.0, "a": [1, 1],
              "n_columns": 2, "r": -5}, "r must be positive"),
            ({"kind": "kl", "alpha": 5, "beta": 1, "a0": -4, "a": [0.5, 1e400],
              "r": 5, "n": 3, "n_columns": 3}, "a must be finite"),
            ({"kind": "eb", "m": True, "r": 4}, "m must be a positive integer"),
            # a negative beta makes every kernel diverge
            ({"kind": "hb", "alpha": 1, "beta": -0.1, "r": 8, "m": 7, "n": 3},
             "beta nonnegative"),
            # Every kind's r is read under the one rule for r.
            ({"kind": "eb", "m": 7, "r": -5}, R_RULE.format(-5.0)),
            ({"kind": "hb", "alpha": 14, "beta": 1, "r": -5, "m": 7, "n": 3},
             R_RULE.format(-5.0)),
            ({"kind": "kl", "alpha": 5, "beta": 1, "a0": -4, "a": [0.5, 0.5, 0.5],
              "r": -5, "n": 3, "n_columns": 3}, R_RULE.format(-5.0)),
            # n counts the first n of the N columns, so it cannot exceed N.
            ({"kind": "hb", "alpha": 5, "beta": 1, "r": 8, "m": 7, "n": 5,
              "n_columns": 3}, "n must be in 1..3, got 5"),
            ({"kind": "kl", "alpha": 5, "beta": 1, "a0": -4, "a": [0.5, 0.5, 0.5],
              "r": 5, "n": 9, "n_columns": 2}, "n must be in 1..2, got 9"),
        ],
    )
    @pytest.mark.parametrize("dry_run", [False, True])
    def test_rejects_input_the_model_cannot_take(self, tmp_path, capsys, scenario,
                                                 message, dry_run):
        src = write(tmp_path / "s.json", json.dumps(scenario))
        assert main(["audit", "--in", src] + ["--dry-run"] * dry_run) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_table1_enforce_exit_4(self, capsys):
        assert main(["audit", "--table1", "--enforce"]) == 4
        rows = json.loads(capsys.readouterr().out)
        assert rows == audit.dominance_table()

    @pytest.mark.parametrize("flags", [[], ["--enforce"], ["--dry-run"],
                                       ["--enforce", "--dry-run"]])
    def test_table1_refuses_a_document(self, tmp_path, capsys, flags):
        # --table1 never reads --in, so giving both is bad input.
        for doc in (str(tmp_path / "missing.json"),
                    write(tmp_path / "s.json", json.dumps({"kind": "eb", "m": 3, "r": 4}))):
            assert main(["audit", "--table1", "--in", doc] + flags) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--table1 audits the benchmark cases; it does not take --in" in (
                captured.err
            )

    def test_table1_dry_run_computes_nothing(self, capsys, monkeypatch):
        def no_table():
            raise AssertionError("computed the table on a dry run")

        monkeypatch.setattr(audit, "dominance_table", no_table)
        assert main(["audit", "--table1", "--enforce", "--dry-run"]) == 0
        assert json.loads(capsys.readouterr().out)["dry_run"] is True

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize(
        "scenario, message",
        [
            ({"kind": "dominance", "m": 7, "r": 8}, "unknown audit kind 'dominance'"),
            ({"kind": "foo"}, "unknown audit kind 'foo'"),
            ({"kind": "hb", "alpha": 14, "beta": 1, "r": 8, "m": 7, "n": 3,
              "g": {"kind": "g2"}}, "unrecognized g specification"),
        ],
    )
    def test_unknown_kinds_exit_2(self, tmp_path, capsys, scenario, message, dry_run):
        src = write(tmp_path / "s.json", json.dumps(scenario))
        assert main(["audit", "--in", src] + ["--dry-run"] * dry_run) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

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
        doc["n_columns"] = draw(st.integers(n, 8))
    return doc


@st.composite
def kl_scenarios(draw):
    m, r = draw(st.integers(1, 5)), draw(st.sampled_from([2.5, 4, 6]))
    n_cols = draw(st.integers(1, 4))
    return {
        "kind": "kl", "alpha": draw(HALVES), "beta": draw(st.sampled_from([0, 1])),
        "g": draw(G_DOCS), "a0": -r + draw(st.sampled_from([-0.5, 0, 0.5, 1.5])),
        "a": draw(st.lists(st.sampled_from([0.5, 1, 2]), min_size=m, max_size=m)),
        "r": r, "n": draw(st.integers(1, n_cols)), "n_columns": n_cols,
    }


class TestAuditConditions:
    """The audit verdict is the conjunction of the conditions it lists, and
    both come from the library's dominance checkers."""

    @settings(max_examples=300, deadline=None)
    @given(hb_scenarios())
    # r = m with alpha <= N: only the small-t part of validity fails
    @example({"kind": "hb", "alpha": 2, "beta": 1, "r": 3, "m": 3, "n": 7})
    def test_hb_holds_is_all_conditions(self, doc):
        if doc["r"] == 0:  # r = m - 1 at m = 1: bad input, as in the library
            with pytest.raises(ValueError, match=R_RULE.format(0.0)):
                _audit_check(doc)
            return
        verdict = _audit_check(doc)()
        expected = audit.hb_dominance_conditions(
            doc["alpha"], doc["beta"], _g_from_doc(doc.get("g")), doc["r"], doc["m"],
            doc["n"], doc.get("n_columns"),
        ).holds
        assert verdict["holds"] == all(verdict["conditions"].values()) == expected

    @settings(max_examples=300, deadline=None)
    @given(kl_scenarios())
    # beta = 0 with alpha >= N a_dot: the tail part of propriety fails, and
    # with it alpha + 1 <= n(-a0 - 2): with a0 + a_dot + 1 >= 0 and n <= N,
    # n(-a0 - 2) < 0 or n(-a0 - 2) <= N(a_dot - 1) <= alpha - N, so the tail
    # part never fails alone.
    @example({"kind": "kl", "alpha": 3, "beta": 0, "g": "g1", "a0": -3.5,
              "a": [1, 1, 1], "r": 4, "n": 1, "n_columns": 1})
    # a0 + r < 0 with a small alpha: only the small-t part of propriety fails
    @example({"kind": "kl", "alpha": 0.5, "beta": 1, "g": "g1", "a0": -3,
              "a": [2], "r": 2.5, "n": 2, "n_columns": 2})
    def test_kl_holds_is_all_conditions(self, doc):
        verdict = _audit_check(doc)()
        prior = PriorSpec(doc["alpha"], doc["beta"], _g_from_doc(doc["g"]), doc["a0"],
                          np.array(doc["a"]))
        expected = audit.kl_dominance_conditions(
            prior, doc["r"], doc["n"], doc["n_columns"]
        ).holds
        assert verdict["holds"] == all(verdict["conditions"].values()) == expected

    def test_small_t_failure_is_listed(self):
        # r = m with alpha <= N fails only the small-t part of the validity
        # assumptions; the breakdown must name that condition.
        verdict = _audit_check(
            {"kind": "hb", "alpha": 2, "beta": 1, "r": 3, "m": 3, "n": 7}
        )()
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

    def test_counts_from_stdin(self, counts_csv, tmp_path, capsys, monkeypatch):
        # `--counts -` reads the counts from stdin, the prior from its file.
        prior = {"alpha": 6, "beta": 1, "g": "g1", "a0": 0.5, "a": [1, 1, 1]}
        src = write(tmp_path / "prior.json", json.dumps(prior))
        argv = ["gibbs-diag", "--prior", src, "--r", "4", "--iters", "500",
                "--burn-in", "100", "--counts"]
        assert main(argv + [counts_csv]) == 0
        from_file = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdin", io.StringIO(Path(counts_csv).read_text()))
        assert main(argv + ["-"]) == 0
        assert capsys.readouterr().out == from_file != ""

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

    def test_constant_komaki_weight_is_g1(self, counts_csv, tmp_path, capsys):
        outs = []
        for g in ("g1", {"kind": "komaki", "c": -1, "kappa": 2}):
            prior = {"alpha": 6, "beta": 1, "g": g, "a0": 0.5, "a": [1, 1, 1]}
            src = write(tmp_path / "prior.json", json.dumps(prior))
            code = main(["gibbs-diag", "--counts", counts_csv, "--prior", src,
                         "--r", "4", "--iters", "500", "--burn-in", "50"])
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


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

    def test_more_jobs_than_replications(self, tmp_path):
        src = write(tmp_path / "truth.json", truth_json(5.0, np.full((2, 2), 0.2)))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["risk-sim", "--truth", src, "--estimators", "umvu", "--reps", "2"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--jobs", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_custom_truth_kl(self, tmp_path):
        src = write(tmp_path / "truth.json", truth_json(5.0, np.full((9, 3), 1.0 / 18.0)))
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
        src = write(tmp_path / "truth.json", truth_json(5.0, np.full((2, 2), 0.2)))
        code = main(
            ["risk-sim", "--truth", src, "--loss", "kl", "--estimators", "umvu,eb",
             "--reps", "20", "--jobs", jobs]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "umvu, eb" in captured.err

    @pytest.mark.parametrize("kind", risklab.ESTIMATOR_KINDS)
    def test_kl_loss_refuses_exactly_the_kinds_with_zeros(self, tmp_path, capsys, kind):
        src = write(tmp_path / "truth.json", truth_json(5.0, np.full((2, 2), 0.2)))
        code = main(
            ["risk-sim", "--truth", src, "--loss", "kl", "--estimators", kind,
             "--alpha", "3", "--a0", "1", "--dry-run"]
        )
        refused = kind not in risklab.POSITIVE_KINDS
        assert code == (2 if refused else 0)
        assert ("--loss kl needs dir-pm or hb-pm" in capsys.readouterr().err) == refused

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_condition_violation_exit_4(self, tmp_path, capsys, jobs):
        src = write(tmp_path / "truth.json", truth_json(1.5, np.full((2, 3), 0.2)))
        code = main(
            ["risk-sim", "--truth", src, "--reps", "6", "--estimators", "umvu,hb",
             "--alpha", "6", "--jobs", jobs]
        )
        assert code == 4
        assert "condition violation" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_numerical_failure_exit_3(self, tmp_path, capsys, jobs):
        src = write(tmp_path / "truth.json", truth_json(2.0, np.array([[0.5]])))
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
        src = write(tmp_path / "truth.json", truth_json(5.0, np.full((2, 2), 0.2)))
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

    # Truth documents whose values `_truth_from_doc` cannot read, with the key
    # their message names; a document that is not an object names none.
    @pytest.mark.parametrize("text, key", [
        ('{"r": null, "columns": [[0.2, 0.3]]}', "r"),
        ('{"r": [5], "columns": [[0.2, 0.3]]}', "r"),
        ('{"r": 5, "columns": 5}', "columns"),
        ('{"r": true, "columns": [[0.2, 0.3]]}', "r"),
        ('{"r": "5", "columns": [[0.2, 0.3]]}', "r"),
        ('{"r": 5, "columns": [["0.2", "0.3"]]}', "columns"),
        ('{"r": 5, "columns": [[0.2, 0.3], [0.2]]}', "columns"),
        ('{"r": 5, "columns": [0.2, 0.3]}', "columns"),
        ('{"r": 5, "columns": [[0.2, NaN]]}', "columns"),
        ("[1, 2, 3]", None),
    ])
    def test_values_of_the_wrong_type_exit_2(self, tmp_path, capsys, text, key):
        src = write(tmp_path / "truth.json", text)
        argv = ["risk-sim", "--truth", src, "--estimators", "umvu", "--reps", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        want = "expected a JSON object" if key is None else f"{key} must be"
        assert captured.out == "" and captured.err.startswith(f"bad input: {want}")

    def test_truth_from_stdin(self, tmp_path, capsys, monkeypatch):
        # `--truth -` reads the document from stdin, as `--prior -` does.
        text = truth_json(5.0, np.full((2, 2), 0.2))
        argv = ["risk-sim", "--estimators", "umvu,eb", "--reps", "4", "--truth"]
        assert main(argv + [write(tmp_path / "truth.json", text)]) == 0
        from_file = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main(argv + ["-"]) == 0
        assert capsys.readouterr().out == from_file != ""

    def test_truth_columns_are_the_documents_lists(self):
        doc = {"r": 5.0, "columns": [[0.1, 0.2, 0.3], [0.25, 0.25, 0.25]]}
        truth = cli._truth_from_doc(doc)
        assert (truth.r, truth.m, truth.n_columns) == (5.0, 3, 2)
        assert [c.p.tolist() for c in truth.columns] == doc["columns"]

    def test_dry_run_reports_the_truth_shape(self, tmp_path, capsys):
        src = write(tmp_path / "truth.json", truth_json(5.0, np.full((3, 2), 0.1)))
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
      "--in", "{counts}"], "all a_i must be positive and finite"),
    (["estimate", "--estimator", "hb-pm", "--r", "8", "--alpha", "14", "--a0", "-3",
      "--a", "1,inf,1", "--in", "{counts}"], "all a_i must be positive and finite"),
    (["estimate", "--estimator", "dir-pm", "--r", "3", "--a0", "1", "--a", "1,-1,1",
      "--in", "{counts}"], "all a_i must be positive"),
    (["estimate", "--estimator", "hb", "--r", "8", "--alpha", "6", "--beta", "inf",
      "--in", "{counts}"], "argument --beta: must be a finite number"),
    (["estimate", "--estimator", "hb", "--r", "8", "--alpha", "inf",
      "--in", "{counts}"], "argument --alpha: must be a finite number"),
    (["risk-sim", "--truth", "{truth}", "--estimators", "umvu,eb", "--reps", "3",
      "--jobs", "-5"], "argument --jobs: must be a positive integer, got '-5'"),
    (["risk-sim", "--truth", "{truth}", "--estimators", "umvu,eb", "--reps", "3",
      "--jobs", "0"], "argument --jobs: must be a positive integer, got '0'"),
    (["repro", "tables", "--reps", "3", "--jobs", "0"],
     "argument --jobs: must be a positive integer, got '0'"),
    (["repro", "tables", "--reps", "3", "--jobs", "abc"],
     "argument --jobs: must be a positive integer, got 'abc'"),
    (["estimate", "--estimator", "dir-pm", "--r", "3", "--a0", "1", "--a", "1,x,1",
      "--in", "{counts}"], "bad vector '1,x,1'"),
    (["risk-sim", "--truth", "{truth}", "--estimators", "umvu,eb,umvu", "--reps", "3"],
     "estimator 'umvu' named more than once"),
    (["risk-sim", "--truth", "{truth}", "--estimators", "umvu,eb", "--reps", "1",
      "--out", "{out}"], "argument --reps: need at least 2 replications, got '1'"),
    (["risk-sim", "--scenario", "i", "--reps", "0", "--out", "{out}"],
     "argument --reps: must be a positive integer, got '0'"),
    (["repro", "tables", "--reps", "1", "--out", "{out}"],
     "argument --reps: need at least 2 replications, got '1'"),
    (["repro", "tables", "--reps", "0", "--out", "{out}"],
     "argument --reps: must be a positive integer, got '0'"),
    (["repro", "tables", "--reps", "2", "--seed", "-1", "--out", "{out}"],
     "argument --seed: must be a nonnegative integer, got '-1'"),
    (["risk-sim", "--scenario", "i", "--reps", "2", "--seed", "-1", "--out", "{out}"],
     "argument --seed: must be a nonnegative integer, got '-1'"),
    (["gibbs-diag", "--counts", "{counts}", "--prior", "{prior}", "--r", "3",
      "--seed", "-1", "--out", "{out}"],
     "argument --seed: must be a nonnegative integer, got '-1'"),
    (["gibbs-diag", "--counts", "{counts}", "--prior", "{prior}", "--r", "3",
      "--thin", "0", "--out", "{out}"], "thin must be >= 1"),
    (["gibbs-diag", "--counts", "{counts}", "--prior", "{prior}", "--r", "3",
      "--iters", "10", "--burn-in", "10", "--out", "{out}"],
     "need n_iter > burn_in >= 0"),
    (["gibbs-diag", "--counts", "{counts}", "--prior", "{prior}", "--r", "3",
      "--burn-in", "-1", "--out", "{out}"], "need n_iter > burn_in >= 0"),
    # --header drops the first of the three count rows; the prior has three a_i
    (["gibbs-diag", "--counts", "{counts}", "--header", "--prior", "{prior}", "--r", "3",
      "--out", "{out}"], "prior a needs m = 2 entries, got 3"),
    (["risk-sim", "--truth", "{null_r}", "--estimators", "umvu"],
     "r must be a number, got None"),
    (["risk-sim", "--truth", "{list_r}", "--estimators", "umvu"],
     "r must be a number, got [5]"),
    (["risk-sim", "--truth", "{scalar_columns}", "--estimators", "umvu"],
     "columns must be a 2-d list of numbers, got 5"),
    # alpha > 0 and beta >= 0 is one rule, checked before any condition
    # (r = 8 > m = 3 here) on every path.
    (["estimate", "--estimator", "hb", "--r", "8", "--alpha", "-1", "--in", "{counts}"],
     "alpha must be positive and beta nonnegative"),
    (["estimate", "--estimator", "hb", "--r", "8", "--alpha", "30", "--beta", "-1",
      "--in", "{counts}"], "alpha must be positive and beta nonnegative"),
    (["risk-sim", "--truth", "{truth}", "--estimators", "umvu,hb", "--alpha", "-1"],
     "alpha must be positive and beta nonnegative"),
    (["kernel-eval", "--in", "{kernel_alpha}"],
     "alpha must be positive and beta nonnegative"),
    (["audit", "--in", "{hb_beta}"], "alpha must be positive and beta nonnegative"),
    (["audit", "--in", "{kl_a}"], "all a_i must be positive"),
    # r <= 0 is one rule, checked while reading, so before hb's r > m (exit 4)
    # and on a dry run too.
    (["estimate", "--estimator", "umvu", "--r", "-1", "--in", "{counts}"],
     R_RULE.format(-1.0)),
    (["estimate", "--estimator", "eb", "--r", "0", "--in", "{counts}"],
     R_RULE.format(0.0)),
    (["estimate", "--estimator", "eb0", "--r", "-1", "--in", "{counts}"],
     R_RULE.format(-1.0)),
    (["estimate", "--estimator", "hb", "--r", "-1", "--alpha", "14", "--in", "{counts}"],
     R_RULE.format(-1.0)),
    (["estimate", "--estimator", "dir-pm", "--r", "0", "--a0", "3", "--in", "{counts}"],
     R_RULE.format(0.0)),
    (["estimate", "--estimator", "hb-pm", "--r", "-1", "--alpha", "6", "--a0", "3",
      "--in", "{counts}"], R_RULE.format(-1.0)),
    (["gibbs-diag", "--counts", "{counts}", "--prior", "{prior}", "--r", "0",
      "--out", "{out}"], R_RULE.format(0.0)),
    (["risk-sim", "--truth", "{negative_r}", "--estimators", "umvu"],
     R_RULE.format(-1.0)),
    # Counts beyond int64, and counts whose int64 sums would wrap.
    (["estimate", "--estimator", "umvu", "--r", "3", "--in", "{beyond_int64}"],
     "row 1: entry not a 64-bit integer"),
    (["estimate", "--estimator", "umvu", "--r", "3", "--in", "{wrapping_sum}"],
     "the counts of a matrix must total below 2^53"),
    (["estimate", "--estimator", "hb", "--r", "8", "--alpha", "14",
      "--in", "{wrapping_sum}"], "the counts of a matrix must total below 2^53"),
    # A field beyond the csv module's size limit.
    (["estimate", "--estimator", "umvu", "--r", "3", "--in", "{long_field}"],
     "row 2: field larger than field limit"),
    (["gibbs-diag", "--counts", "{long_field}", "--prior", "{prior}", "--r", "3",
      "--out", "{out}"], "row 2: field larger than field limit"),
]
# Truth documents of the right keys whose values ModelParams cannot take.
MALFORMED_TRUTHS = {
    "null_r": '{"r": null, "columns": [[0.2, 0.2]]}',
    "list_r": '{"r": [5], "columns": [[0.2, 0.2]]}',
    "scalar_columns": '{"r": 5, "columns": 5}',
    "negative_r": '{"r": -1, "columns": [[0.2, 0.2]]}',
}
# Documents whose hyperparameters the library refuses.
REFUSED_HYPERPARAMETERS = {
    "kernel_alpha": '{"alpha": -1, "beta": 1, "xi0": 1, "xi": [3, 2, 4]}',
    "hb_beta": '{"kind": "hb", "alpha": 1, "beta": -0.1, "r": 8, "m": 7, "n": 3}',
    "kl_a": '{"kind": "kl", "alpha": 5, "beta": 1, "a0": 1, "a": [1, -1, 1], "r": 5, '
            '"n": 3, "n_columns": 3}',
}
# Count CSVs of integers that CountMatrix cannot take, and one whose second
# row holds a field of more characters than the csv module reads.
OVERSIZED_COUNTS = {
    "beyond_int64": "99999999999999999999,1\n",
    "wrapping_sum": "9223372036854775807,9223372036854775807\n2,3\n",
    "long_field": "3,0,1\n2," + "1" * (csv.field_size_limit() + 1) + ",0\n",
}


class TestBadInput:
    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("template, message", BAD_INPUT,
                             ids=[" ".join(argv) for argv, _ in BAD_INPUT])
    def test_exit_2_with_or_without_dry_run(self, counts_csv, tmp_path, capsys,
                                            dry_run, template, message):
        truth = write(tmp_path / "truth.json",
                      truth_json(5.0, np.full((2, 2), 0.2)))
        prior = write(tmp_path / "prior.json", json.dumps(
            {"alpha": 6, "beta": 1, "g": "g1", "a0": 0.5, "a": [1, 1, 1]}))
        out = tmp_path / "out"
        malformed = {name: write(tmp_path / f"{name}.json", text)
                     for name, text in {**MALFORMED_TRUTHS, **REFUSED_HYPERPARAMETERS}.items()}
        malformed.update({name: write(tmp_path / f"{name}.csv", text)
                          for name, text in OVERSIZED_COUNTS.items()})
        argv = [a.format(counts=counts_csv, truth=truth, prior=prior, out=out,
                         **malformed)
                for a in template]
        try:
            code = main(argv + ["--dry-run"] * dry_run)
        except SystemExit as exc:  # argparse refuses a flag's value
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert not out.exists()


# A JSON list nested deeper than the interpreter's recursion limit.
NESTED = "[" * 100_000 + "]" * 100_000
KOMAKI = {"kind": "komaki", "c": 0.5, "kappa": 1}
# A valid document of each kind the CLI reads, with an argv that reads its
# numbers ({doc} is its path); each exits 0 as it stands.
DOCUMENTS = {
    "truth": (["risk-sim", "--truth", "{doc}", "--estimators", "umvu", "--dry-run"],
              {"r": 5.0, "columns": [[0.2, 0.2], [0.2, 0.2]]}),
    "prior": (["gibbs-diag", "--counts", "{counts}", "--prior", "{doc}", "--r", "3",
               "--dry-run"],
              {"alpha": 6.0, "beta": 1.0, "a0": 1.0, "a": [1, 1, 1], "g": KOMAKI}),
    "audit prior": (["audit", "--in", "{doc}"],
                    {"kind": "prior", "alpha": 6, "beta": 1, "a0": 1.0, "a": [1, 1, 1],
                     "n_columns": 2, "r": 3, "g": KOMAKI}),
    "audit eb": (["audit", "--in", "{doc}"], {"kind": "eb", "m": 7, "r": 8}),
    "audit hb": (["audit", "--in", "{doc}"],
                 {"kind": "hb", "alpha": 14, "beta": 1, "r": 8, "m": 7, "n": 3,
                  "n_columns": 3, "g": KOMAKI}),
    "audit kl": (["audit", "--in", "{doc}"],
                 {"kind": "kl", "alpha": 5, "beta": 1, "a0": 1, "a": [1, 1, 1], "r": 5,
                  "n": 3, "n_columns": 3, "g": KOMAKI}),
    "kernel-eval": (["kernel-eval", "--in", "{doc}"],
                    {"alpha": 6, "beta": 1, "xi0": 1, "xi": [3, 2, 4], "g": KOMAKI}),
}
# Every scalar field of every document, as a key path.
SCALAR_FIELDS = [
    (kind, path)
    for kind, (_, doc) in DOCUMENTS.items()
    for path in [(k,) for k, v in doc.items() if type(v) in (int, float)]
    + ([("g", "c"), ("g", "kappa")] if "g" in doc else [])
]


class TestDocumentNumbers:
    """A number in a JSON document is a JSON number: booleans, numeric
    strings and one-element lists are refused as bad input (exit 2), with
    or without --dry-run."""

    def run(self, tmp_path, counts, kind, doc, dry_run=None):
        """main on the document (an object, or JSON text as it stands) with
        its kind's argv as listed, or with --dry-run added (dry_run True) or
        dropped (False)."""
        text = doc if isinstance(doc, str) else json.dumps(doc)
        argv = [a.format(doc=write(tmp_path / "doc.json", text), counts=counts)
                for a in DOCUMENTS[kind][0]]
        if dry_run is not None:
            argv = [a for a in argv if a != "--dry-run"] + ["--dry-run"] * dry_run
        return main(argv)

    @pytest.mark.parametrize("kind", DOCUMENTS)
    def test_documents_are_valid(self, counts_csv, tmp_path, capsys, kind):
        assert self.run(tmp_path, counts_csv, kind, DOCUMENTS[kind][1]) == 0

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("bad", ["true", "numeric string", "one-element list"])
    @pytest.mark.parametrize("kind, path", SCALAR_FIELDS,
                             ids=[f"{k}:{'.'.join(p)}" for k, p in SCALAR_FIELDS])
    def test_scalar_field_exit_2(self, counts_csv, tmp_path, capsys, kind, path, bad,
                                 dry_run):
        doc = json.loads(json.dumps(DOCUMENTS[kind][1]))
        *outer, key = path
        parent = doc[outer[0]] if outer else doc
        parent[key] = {"true": True, "numeric string": str(parent[key]),
                       "one-element list": [parent[key]]}[bad]
        assert self.run(tmp_path, counts_csv, kind, doc, dry_run) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bad input" in captured.err

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("kind, key, value", [
        ("truth", "columns", [[0.2, True], [0.2, 0.2]]),
        ("truth", "columns", [[0.2, 0.2], [0.2]]),
        ("truth", "columns", [0.2, 0.2]),
        ("prior", "a", [1, "1", 1]),
        ("audit kl", "a", [[1, 1, 1]]),
        ("kernel-eval", "xi", 3),
        ("kernel-eval", "xi", [3, None, 4]),
    ])
    def test_list_field_exit_2(self, counts_csv, tmp_path, capsys, kind, key, value,
                               dry_run):
        doc = {**DOCUMENTS[kind][1], key: value}
        assert self.run(tmp_path, counts_csv, kind, doc, dry_run) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bad input" in captured.err

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("kind", DOCUMENTS)
    def test_nested_beyond_recursion_limit_exit_2(self, counts_csv, tmp_path, capsys,
                                                  kind, dry_run):
        # The whole document, and each list field, nested too deep to parse.
        doc = DOCUMENTS[kind][1]
        texts = [NESTED] + [json.dumps({**doc, key: "@"}).replace('"@"', NESTED)
                            for key, value in doc.items() if isinstance(value, list)]
        for text in texts:
            assert self.run(tmp_path, counts_csv, kind, text, dry_run) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "nested too deeply" in captured.err


class TestJsonNumbers:
    @pytest.mark.parametrize("value, ndim, want", [
        (3, 0, 3.0),
        (7.0, 0, 7.0),
        (-0.5, 0, -0.5),
        ([1, 2.5], 1, [1.0, 2.5]),
        ([], 1, []),
        ([[0.2, 0.3], [0.1, 0.4]], 2, [[0.2, 0.3], [0.1, 0.4]]),
    ])
    def test_numbers_are_read_exactly(self, value, ndim, want):
        got = json_numbers({"k": value}, "k", ndim)
        if ndim == 0:
            assert type(got) is float and got == want
        else:
            assert got.dtype == float and got.ndim == ndim and got.tolist() == want

    @pytest.mark.parametrize("value, ndim", [
        (True, 0), ("5", 0), (None, 0), ({"v": 1}, 0), ([3], 0), (3, 1), ([[1]], 1),
        ([1, False], 1), ([1, "2"], 1), ([[1, 2], [3]], 2), ([[1, 2], 3], 2),
        ([], 2), ([1, 2], 2), (10**400, 0), ([1, 10**400], 1), (math.inf, 0),
        (math.nan, 0), ([[0.1, -math.inf]], 2),
    ])
    def test_anything_else_is_a_value_error(self, value, ndim):
        with pytest.raises(ValueError, match="^k must be"):
            json_numbers({"k": value}, "k", ndim)

    def test_missing_key_is_a_key_error(self):
        with pytest.raises(KeyError):
            json_numbers({}, "k")


def _nested(depth: int):
    value = [1.0]
    for _ in range(depth):
        value = [value]
    return value


# Bad documents whose offending value is large, with the text their message
# starts with: the echo is clipped, so the message stays short.
LARGE_VALUES = {
    "long xi": (["kernel-eval", "--in", "{doc}"],
                {"alpha": 6, "beta": 1, "xi0": 1, "xi": [[1.0] * 5000]},
                "xi must be a 1-d list of numbers, got"),
    "deep xi": (["kernel-eval", "--in", "{doc}"],
                {"alpha": 6, "beta": 1, "xi0": 1, "xi": _nested(600)},
                "xi must be a 1-d list of numbers, got"),
    "non-finite xi": (["kernel-eval", "--in", "{doc}"],
                      {"alpha": 6, "beta": 1, "xi0": 1, "xi": [1.0] * 5000 + [1e999]},
                      "xi must be finite, got"),
    "long m": (["audit", "--in", "{doc}"], {"kind": "eb", "m": [7] * 5000, "r": 8},
               "m must be a positive integer, got"),
    "long g": (["kernel-eval", "--in", "{doc}"],
               {"alpha": 6, "beta": 1, "xi0": 1, "xi": [3, 2], "g": {"kind": "x" * 5000}},
               "unrecognized g specification:"),
    "long kind": (["audit", "--in", "{doc}"], {"kind": ["x"] * 5000},
                  "unknown audit kind"),
    "long argv": (["--config", "{doc}"], {"argv": {"a": "x" * 5000}},
                  "--config needs an argv list, got"),
}


class TestClippedEcho:
    """A bad-input message echoes the offending value clipped by reprlib."""

    @pytest.mark.parametrize("name", LARGE_VALUES)
    def test_short_message_naming_the_key(self, tmp_path, capsys, name):
        argv, doc, start = LARGE_VALUES[name]
        path = write(tmp_path / "doc.json", json.dumps(doc))
        assert main([a.format(doc=path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad input: " + start)
        assert len(err.encode()) < 300


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
        assert sorted(manifest["versions"]) == ["nmshrink", "numpy", "python"]
        assert (out / "table1.csv").read_text().splitlines()[1] == "i,+,+,+"

    def test_tables_follow_the_case_table(self, tmp_path):
        out = tmp_path / "repro"
        assert main(["repro", "tables", "--reps", "2", "--out", str(out)]) == 0
        with open(out / "table1.csv", newline="") as f:
            assert [row["case"] for row in csv.DictReader(f)] == list(risklab.CASES)
        for idx, case in enumerate(risklab.CASES, start=2):
            with open(out / f"table{idx}.csv", newline="") as f:
                truths = [row["truth"] for row in csv.DictReader(f)]
            assert truths == list(risklab.CASES[case].truths)

    def test_idempotent_tables(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(
                ["repro", "tables", "--reps", "8", "--seed", "3", "--out", str(out)]
            ) == 0
        for name in ("table1.csv", "table2.csv", "table3.csv", "table4.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_more_jobs_than_replications(self, tmp_path):
        out1, out2 = tmp_path / "serial", tmp_path / "jobs3"
        base = ["repro", "tables", "--reps", "2", "--seed", "3", "--out"]
        assert main(base + [str(out1)]) == 0
        assert main(base + [str(out2), "--jobs", "3"]) == 0
        for name in ("table1.csv", "table2.csv", "table3.csv", "table4.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_outdir_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NMSHRINK_OUTDIR", str(tmp_path / "envout"))
        assert main(["repro", "tables", "--reps", "5", "--dry-run"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["outdir"].endswith("envout")


class TestVersion:
    def test_cli_and_manifest_report_the_pyproject_version(self, tmp_path, capsys):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
            version = tomllib.load(f)["project"]["version"]
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"nmshrink {version} (")
        out = tmp_path / "repro"
        assert main(["repro", "tables", "--reps", "2", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["versions"]["nmshrink"].startswith(f"nmshrink {version} (")


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

    @pytest.mark.parametrize("argv", [None, 5, "estimate", {"estimate": 1}])
    def test_argv_that_is_not_a_list_exit_2(self, tmp_path, capsys, argv):
        cfg = write(tmp_path / "run.json", json.dumps({"argv": argv}))
        assert main(["--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--config needs an argv list" in captured.err

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_nested_beyond_recursion_limit_exit_2(self, counts_csv, tmp_path, capsys,
                                                  dry_run):
        # The whole document, and an entry of an argv that is otherwise a
        # valid run (a dry run or not), nested too deep to parse.
        argv = ["estimate", "--estimator", "umvu", "--r", "3", "--in", counts_csv,
                "@"] + ["--dry-run"] * dry_run
        for text in (NESTED, json.dumps({"argv": argv}).replace('"@"', NESTED)):
            assert main(["--config", write(tmp_path / "run.json", text)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "nested too deeply" in captured.err


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


class TestChoicesFromTheRiskLab:
    @staticmethod
    def choices(command, dest):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        return list(next(a for a in sub.choices[command]._actions if a.dest == dest).choices)

    def test_estimator_choices_are_the_kinds(self):
        assert self.choices("estimate", "estimator") == list(risklab.ESTIMATOR_KINDS)

    def test_scenario_choices_are_the_cases(self):
        assert self.choices("risk-sim", "scenario") == list(risklab.CASES)


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
        bad = write(tmp_path / "bad.csv", "1,2\n3\n")
        sharp = write(tmp_path / "k.json", json.dumps(
            {"alpha": 20000, "beta": 1, "g": "g1", "xi0": 1, "xi": [10, 12, 9]}
        ))
        truth = write(tmp_path / "truth.json",
                      truth_json(1.5, np.full((2, 3), 0.2)))
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


# `_parse_args` parses a subcommand's argv with that subcommand's parser;
# argparse's own dispatch, `_parser().parse_args`, is the oracle.  The corpus:
# every valid call of tests/test_pins.py, calls argparse refuses, and the
# forms the top-level parser handles.
ROUTED_ESTIMATE = ["estimate", "--estimator", "hb", "--r", "8", "--in", "c.csv"]
ROUTED_CORPUS = {
    **{f"pinned {name}": [a.format(**{k: f"{k}.in" for k in PIN_FILES}) for a in argv]
       for name, argv in PIN_CALLS.items()},
    "unknown option": ROUTED_ESTIMATE + ["--no-such-option"],
    "unknown option with a value": ROUTED_ESTIMATE + ["--no-such-option=3", "x"],
    "stray positional": ROUTED_ESTIMATE + ["stray"],
    "-- x": ROUTED_ESTIMATE + ["--", "x"],
    "bad type": ["estimate", "--estimator", "hb", "--r", "abc"],
    "bad choice": ["estimate", "--estimator", "nope", "--r", "8"],
    "missing required flag": ["estimate", "--estimator", "hb"],
    "abbreviation --est": ["estimate", "--est", "umvu", "--r", "8"],
    "estimate -h": ["estimate", "-h"],
    "estimate --version": ["estimate", "--version"],
    "repro without a target": ["repro"],
    "--version": ["--version"],
    "--help": ["--help"],
    "empty argv": [],
    "unknown command": ["no-such-command", "--r", "8"],
    "option before the command": ["--r", "8", "estimate"],
}


def parse_outcome(parse, argv, capsys):
    """The namespace's items in order, or the exit code with what was printed."""
    try:
        outcome = list(vars(parse(argv)).items())
    except SystemExit as exc:
        outcome = exc.code
    out = capsys.readouterr()
    return outcome, out.out, out.err


class TestRoutedParse:
    @pytest.mark.parametrize("name", ROUTED_CORPUS)
    def test_same_as_argparse_dispatch(self, name, capsys):
        argv = ROUTED_CORPUS[name]
        want = parse_outcome(cli._parser().parse_args, argv, capsys)
        assert parse_outcome(cli._parse_args, argv, capsys) == want

    def test_config_replay(self, tmp_path, capsys):
        for argv in (PIN_CALLS["estimate hb-pm"], ROUTED_CORPUS["unknown option"]):
            cfg = write(tmp_path / "run.json", json.dumps({"argv": argv}))
            want = parse_outcome(cli._parser().parse_args, argv, capsys)
            assert parse_outcome(cli._parse_args, ["--config", cfg], capsys) == want

    def test_subcommand_parser_is_the_top_level_ones(self, monkeypatch):
        sub = next(a for a in cli._parser()._actions if a.dest == "command")
        seen = []
        parse = sub.choices["estimate"].parse_known_args
        monkeypatch.setattr(sub.choices["estimate"], "parse_known_args",
                            lambda *a: seen.append(a) or parse(*a))
        cli._parse_args(ROUTED_ESTIMATE)
        assert len(seen) == 1


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
    d = tmp_path_factory.mktemp("contract")
    docs = {
        "counts": "3,0\n2,1\n0,4\n",
        "truth": truth_json(5.0, np.full((2, 2), 0.2)),
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


# Makes every import of SciPy fail in the interpreter that runs it.
BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None\n"

# Runs main on each argv of argv.json in this interpreter, SciPy blocked, and
# records each call's exit code.
COLD_RUNNER = BLOCK_SCIPY + """
import json
from nmshrink.cli import main
seen = []
for argv in json.load(open("argv.json")):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    seen.append([argv, code])
sys.stderr.write(json.dumps(seen))
"""

# Every command path, in the order listed, in one fresh interpreter; the
# first imports the package and builds the parser.
COLD_PATHS = [
    ["--version"],
    ["estimate", "--estimator", "umvu", "--r", "8", "--in", "c.csv"],
    ["estimate", "--estimator", "eb", "--r", "8", "--in", "c.csv"],
    ["estimate", "--estimator", "eb0", "--r", "8", "--in", "c.csv"],
    ["estimate", "--estimator", "dir-pm", "--r", "8", "--a0", "1", "--in", "c.csv"],
    ["audit", "--table1"],
    ["audit", "--in", "eb.json"],
    ["risk-sim", "--truth", "t.json", "--estimators", "umvu,eb0,eb", "--reps", "3"],
    ["gibbs-diag", "--counts", "c2.csv", "--prior", "p.json", "--r", "4",
     "--iters", "2000", "--burn-in", "100"],
    ["estimate", "--estimator", "hb", "--r", "8", "--alpha", "14", "--in", "c.csv",
     "--dry-run"],
    ["risk-sim", "--scenario", "iii", "--dry-run"],
    ["audit", "--table1", "--dry-run"],
    ["gibbs-diag", "--counts", "c2.csv", "--prior", "p.json", "--r", "4", "--dry-run"],
    ["kernel-eval", "--in", "k.json", "--dry-run"],
    ["repro", "tables", "--dry-run"],
    ["estimate", "--estimator", "hb", "--r", "8", "--alpha", "14", "--in", "c.csv"],
    ["estimate", "--estimator", "hb-pm", "--r", "8", "--alpha", "14", "--a0", "-3",
     "--a", "0.5,0.5,0.5", "--in", "c.csv"],
    ["kernel-eval", "--in", "k.json"],
    ["risk-sim", "--scenario", "iii", "--reps", "3"],
    ["repro", "tables", "--reps", "2", "--out", "tables"],
]

# The library calls no command makes, evaluated and printed.
LIBRARY_CALLS = """
import numpy as np
from nmshrink import ModelParams, ProbColumn, hudson_check, nm_log_pmf
col = ProbColumn(np.array([0.2, 0.3]))
print(repr(nm_log_pmf(np.array([[1, 2], [40, 0]]), 2.5, col).tolist()))
truth = ModelParams.from_matrix(2.5, np.array([[0.2, 0.25], [0.3, 0.25]]))
print(repr(hudson_check("indicator", truth, 1, 0)))
"""


class TestColdImports:
    """No nmshrink code imports SciPy: each check runs in a fresh interpreter
    whose `sys.modules["scipy"]` is None, so any import of SciPy fails.  The
    suite itself imports SciPy, so the checks cannot run in it."""

    @staticmethod
    def fresh(code, cwd, *args):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run([sys.executable, "-c", BLOCK_SCIPY + code, *args],
                              cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=120)

    @pytest.fixture
    def inputs(self, tmp_path):
        for name, text in PARSE_FILES.items():
            write(tmp_path / name, text)
        write(tmp_path / "c.csv", "3,0\n2,1\n0,4\n")
        write(tmp_path / "c2.csv", "3,0\n2,1\n")
        write(tmp_path / "eb.json", json.dumps({"kind": "eb", "m": 3, "r": 4}))
        return tmp_path

    def test_blocking_makes_an_import_of_scipy_fail(self, tmp_path):
        proc = self.fresh("import scipy.special", tmp_path)
        assert proc.returncode != 0 and "ModuleNotFoundError" in proc.stderr

    def test_every_path_runs_with_scipy_blocked(self, inputs):
        write(inputs / "argv.json", json.dumps(COLD_PATHS))
        proc = self.fresh(COLD_RUNNER, inputs)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stderr.splitlines()[-1])
        assert seen == [[argv, 0] for argv in COLD_PATHS]

    def test_parallel_case_table_runs_with_scipy_blocked(self, tmp_path):
        # The workers are forked, so they inherit the blocked entry.
        proc = self.fresh(
            "from nmshrink.risklab import case_table; "
            "print(len(case_table('iii', reps=4, seed=0, jobs=2)))",
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "3"

    def test_nm_log_pmf_and_hudson_check_run_with_scipy_blocked(self, tmp_path,
                                                                capsys):
        proc = self.fresh(LIBRARY_CALLS, tmp_path)
        assert proc.returncode == 0, proc.stderr
        exec(LIBRARY_CALLS, {})
        assert proc.stdout == capsys.readouterr().out

    def test_hb_with_scipy_blocked_prints_the_same_bytes(
            self, inputs, capsys, monkeypatch):
        argv = ["estimate", "--estimator", "hb", "--r", "8", "--alpha", "14",
                "--in", "c.csv"]
        write(inputs / "argv.json", json.dumps([argv]))
        proc = self.fresh(COLD_RUNNER, inputs)
        assert json.loads(proc.stderr.splitlines()[-1]) == [[argv, 0]]
        monkeypatch.chdir(inputs)
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out
