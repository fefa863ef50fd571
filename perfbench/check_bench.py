"""Tests of the benchmark itself, at the quick size.

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps these out of the repository's default test collection.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_quick_run_is_correct_and_reports_every_end_to_end_metric():
    proc = bench("--workload", "all", "--quick", "--seconds", "0", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = {f"{w}.{m['name']}" for w in workloads.WORKLOADS for m in BENCH["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = bench("--workload", "cli-sweep", "--quick", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert list(metrics) == [m["name"] for m in BENCH["per_layer"]]
    assert metrics["cli.main.calls"]["value"] == 8
    assert metrics["kernel.delta_hb.calls"]["value"] == 3
    assert metrics["gibbs.run_posterior.calls"]["value"] == 2
    assert metrics["gibbs.ess_per_s"]["value"] > 0
    assert metrics["kernel.log_kernel.calls"]["value"] > 0
    assert metrics["setup.import_s.nmshrink.cli"]["value"] > 0


def test_perturbed_reference_counts_failures(tmp_path):
    mods = run.load_program()
    for name in ("tables", "cli-sweep"):
        ref = copy.deepcopy(run.load_reference("quick")[name])
        if name == "tables":
            ref["table2"][0]["HB"] *= 1 + 1e-8
        else:
            ref[0][0][0] += 1e-6
        res = run.run_workload(name, workloads.REFERENCE_SEED, 0.0, False, True,
                               mods, str(tmp_path), reference=ref)
        assert res["failed"] > 0, name
        assert res["failed"] / res["attempted"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
