"""nmshrink benchmark: one command for the serial workloads.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --quick

Run from anywhere; the program is imported from ``src/`` next to this
directory and nowhere else.  A run measures set-up (fresh interpreters
importing the CLI), then one warm-up pass at the reference seed checked
against the recorded reference, then timed passes at ``--seed`` for
``--seconds``.  ``--trace 1`` instead splits the time into untraced and
traced passes and reports the per-layer metrics.  Every metric is printed by
name with its unit and sample count; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when an
output check fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE_FILE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("model", "kernel", "estimators", "audit", "gibbs", "risklab", "cli")
SETUP_RUNS = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); "
    "import nmshrink.cli as c; c.build_parser()"
)
IMPORT_NAMES = ["nmshrink"] + [f"nmshrink.{m}" for m in MODULES] + ["scipy.stats"]


def load_program() -> dict:
    if not (SRC / "nmshrink" / "__init__.py").is_file():
        raise ImportError(f"no nmshrink package under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"nmshrink.{m}") for m in MODULES}
    where = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"nmshrink imported from {where}, not from {SRC}")
    return mods


def time_setup(runs: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until the CLI parser exists."""
    argv = [sys.executable, "-c", SETUP_CODE.format(src=str(SRC))]
    out = []
    for _ in range(runs):
        t0 = perf_counter()
        subprocess.run(argv, check=True, timeout=120)
        out.append(perf_counter() - t0)
    return out


def import_times() -> dict:
    """Cumulative cold import seconds per module, from ``-X importtime``."""
    argv = [sys.executable, "-X", "importtime", "-c", SETUP_CODE.format(src=str(SRC))]
    best: dict[str, float] = {}
    for _ in range(2):
        proc = subprocess.run(argv, check=True, timeout=120, capture_output=True, text=True)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) * 1e-6
        for name in IMPORT_NAMES:
            value = seen.get(name, 0.0)
            best[name] = min(best.get(name, value), value)
    return best


def probe() -> float:
    """Fixed Python and numpy work, timed to show host speed drift."""
    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    a = np.arange(100_000, dtype=float)
    for _ in range(30):
        a = np.sqrt(a * a + 1.0)
    return perf_counter() - t0


def run_metadata() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = []
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "loadavg": loadavg,
    }


def load_reference(size: str) -> dict:
    with open(REFERENCE_FILE) as f:
        return json.load(f)[size]


def passes(wl, inp, ref, seconds, tracer=None) -> list[dict]:
    """Repeat the pass until `seconds` have gone; at least one pass."""
    out = []
    deadline = perf_counter() + seconds
    while True:
        first = len(tracer.spans) if tracer else 0
        t0 = perf_counter()
        calls, result = wl.run(inp)
        wall = perf_counter() - t0
        rec = {"wall": wall, "calls": calls, "result": result,
               "checked": wl.check(inp, result, ref)}
        if tracer:
            rec["spans"] = (first, len(tracer.spans))
        out.append(rec)
        if perf_counter() >= deadline:
            return out


def metric(value: float, unit: str, n: int) -> dict:
    return {"value": float(value), "unit": unit, "n": n}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation) of a list of latencies."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(timed: list[dict], setup: list[float]) -> dict:
    """Best-of-run timings and the median of the set-up runs.

    The host alternates between a fast state and one about 1.5x slower, for
    seconds at a time, so a median over a run measures the host.  Each pass
    repeats the same calls; a call's latency is its best over the passes,
    and ``wall_s`` is the pass with every call at its best: the sum of the
    best latencies.  A call is short, so it meets a fast stretch of the
    host far more often than a whole pass does.
    """
    n_calls = len(timed[0]["calls"])
    best = [min(p["calls"][k] for p in timed) for k in range(n_calls)]
    best_ms = [b * 1e3 for b in best]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "wall_s": metric(math.fsum(best), "s", len(timed)),
        "call_ms_p50": metric(percentile(best_ms, 50), "ms", n_calls),
        "call_ms_p90": metric(percentile(best_ms, 90), "ms", n_calls),
        "peak_rss_mb": metric(rss_mb, "MB", 1),
    }


def per_layer(tracer, untraced, traced, imports, probes) -> dict:
    sums = [tracer.summarise(*p["spans"]) for p in traced]
    n = len(sums)

    def med(layer: str, field: str) -> float:
        return statistics.median(s[layer][field] for s in sums)

    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.calls"] = metric(med(layer, "calls"), "count", n)
        out[f"{layer}.busy_s"] = metric(med(layer, "busy_s"), "s", n)
        out[f"{layer}.self_s"] = metric(med(layer, "self_s"), "s", n)
    out["kernel.errors"] = metric(
        sum(s[k]["errors"] for s in sums for k in tracing.KERNEL_LAYERS), "count", n
    )
    iters = med("gibbs.run_posterior", "attr")
    busy = med("gibbs.run_posterior", "busy_s")
    ess = statistics.median(workloads.effective_samples(p["result"]) for p in traced)
    out["gibbs.iterations"] = metric(iters, "count", n)
    out["gibbs.us_per_iteration"] = metric(busy / iters * 1e6 if iters else 0.0, "us", n)
    out["gibbs.ess_per_draw"] = metric(ess / iters if iters else 0.0, "1", n)
    out["gibbs.ess_per_s"] = metric(ess / busy if busy else 0.0, "1/s", n)
    for name, seconds in imports.items():
        out[f"setup.import_s.{name}"] = metric(seconds, "s", 1)
    overhead = min(p["wall"] for p in traced) - min(p["wall"] for p in untraced)
    out["trace.overhead_s"] = metric(overhead, "s", n)
    out["host.probe_before_s"] = metric(probes[0], "s", 3)
    out["host.probe_after_s"] = metric(probes[1], "s", 3)
    return {k: out[k] for k in declared_per_layer()}


def declared_per_layer() -> list[str]:
    with open(ROOT / "BENCHMARK.json") as f:
        return [m["name"] for m in json.load(f)["per_layer"]]


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool,
                 mods: dict, workdir: str, reference: dict | None = None) -> dict:
    size = "quick" if quick else "full"
    if reference is None:
        reference = load_reference(size).get(name)
    # Modules are looked up at call time, so the tracer's wrappers apply.
    nm = SimpleNamespace(**mods)
    wl = workloads.WORKLOADS[name](nm, workloads.SIZES[size][name], workdir)

    probes = [statistics.median(probe() for _ in range(3))]
    if trace:
        imports, setup = import_times(), []
    else:
        imports, setup = {}, time_setup(1 if quick else SETUP_RUNS)

    # Warm-up: one pass at the reference seed, checked against the reference.
    ref_inp = wl.inputs(workloads.REFERENCE_SEED)
    done = passes(wl, ref_inp, reference, 0.0)
    inp = wl.inputs(seed)
    ref = reference if seed == workloads.REFERENCE_SEED else None

    tracer = None
    if trace:
        untraced = passes(wl, inp, ref, seconds / 2)
        tracer = tracing.Tracer(mods)
        tracer.install()
        try:
            timed = passes(wl, inp, ref, seconds / 2, tracer)
        finally:
            tracer.uninstall()
    else:
        untraced, timed = [], passes(wl, inp, ref, seconds)
    probes.append(statistics.median(probe() for _ in range(3)))
    done += untraced + timed
    if trace:
        metrics = per_layer(tracer, untraced, timed, imports, probes)
    else:
        metrics = end_to_end(timed, setup)

    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": sum(p["checked"][0] for p in done),
        "failed": sum(p["checked"][1] for p in done),
        "metrics": metrics,
        "pass_walls": [p["wall"] for p in timed],
        "probe_s": probes,
        "spans": tracer.dump() if tracer else None,
    }


def report(res: dict, meta: dict) -> dict:
    print(f"# workload {res['workload']} seed {res['seed']} trace {int(res['trace'])}")
    print(f"# meta {json.dumps(meta)}")
    print(f"# host probe before {res['probe_s'][0]:.4f} s, after {res['probe_s'][1]:.4f} s")
    for name, m in res["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (n={m['n']})")
    rate = res["failed"] / res["attempted"]
    print(f"error_rate = {rate:.6g} ({res['failed']}/{res['attempted']} operations)")
    record = OUT / f"{res['workload']}-seed{res['seed']}-trace{int(res['trace'])}.json"
    record.write_text(json.dumps({**res, "meta": meta}))
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in res["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    try:
        mods = load_program()
    except ImportError as exc:
        print(f"cannot load nmshrink: {exc}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    meta = run_metadata()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        results = [
            report(run_workload(n, args.seed, args.seconds, bool(args.trace),
                                args.quick, mods, str(workdir)), meta)
            for n in names
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
