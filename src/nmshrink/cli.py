"""Command-line harness: estimate, risk-sim, audit, gibbs-diag, kernel-eval, repro.

Exit codes: 0 success, 2 malformed input, 3 numerical failure,
4 propriety/dominance condition violation.  JSON output is strict: a
non-finite number (a divergent kernel, say) is written as null.  Every
subcommand accepts --dry-run, which validates inputs and prints the
resolved configuration without computing.  The environment variable
NMSHRINK_OUTDIR supplies the default output directory for `repro`.

`main` parses with one parser, built by its first call and reused by every
later call in the same process (parsing does not change a parser, and
argparse looks up sys.stdout/sys.stderr when it prints).  `build_parser`
still returns a fresh parser on each call.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import time
from importlib import metadata

import numpy as np

from . import audit as audit_mod
from .gibbs import ChainConfig, mcmc_delta_estimates, run_posterior
from .kernel import (
    ConditionError,
    GChoice,
    PriorSpec,
    QuadratureError,
    log_kernel,
    posterior_proper,
    quadrature_settings,
)
from .model import read_counts_csv
from .risklab import case_table, compare, loss_columns, make_estimator

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NUMERIC = 3
EXIT_CONDITION = 4

_FLOAT_FMT = "%.17g"


def _version_string() -> str:
    try:
        version = metadata.version("nmshrink")
    except metadata.PackageNotFoundError:
        version = "unknown"
    q = quadrature_settings()
    return (
        f"nmshrink {version} (quadrature: {q['rule']}, {q['substitution']}, "
        f"node cap {q['node_cap']}, error tolerance {q['error_tol']:g})"
    )


def _g_from_args(args) -> GChoice:
    if args.g == "g1":
        return GChoice.constant_one()
    return GChoice.komaki(args.g_c, args.g_kappa)


def _real(doc: dict, key: str):
    """doc[key] as a float, or a float array for a list, of finite numbers."""
    try:
        out = np.asarray(doc[key], dtype=float)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{key} must be numeric, got {doc[key]!r}") from exc
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{key} must be finite, got {doc[key]!r}")
    return float(out) if out.ndim == 0 else out


def _count(doc: dict, key: str, default=None) -> int:
    """doc[key] as a positive integer; 7.5, 0, -4 and true are rejected."""
    value = doc[key] if default is None or key in doc else default
    if type(value) not in (int, float) or not value >= 1 or value % 1:
        raise ValueError(f"{key} must be a positive integer, got {value!r}")
    return int(value)


def _g_from_doc(doc) -> GChoice:
    if doc is None or doc == "g1" or doc == {"kind": "constant_one"}:
        return GChoice.constant_one()
    if isinstance(doc, dict):
        if doc.get("kind") in ("constant_one", "g1"):
            return GChoice.constant_one()
        if doc.get("kind") == "komaki":
            return GChoice.komaki(_real(doc, "c"), _real(doc, "kappa"))
    raise ValueError(f"unrecognized g specification: {doc!r}")


def _prior_from_doc(doc: dict) -> PriorSpec:
    alpha, beta, a0, a = (_real(doc, key) for key in ("alpha", "beta", "a0", "a"))
    return PriorSpec(alpha, beta, _g_from_doc(doc.get("g")), a0, a)


def _finite_or_null(obj):
    """The same document with every non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _to_json(obj, **kwargs) -> str:
    """Strict JSON text: non-finite numbers are written as null."""
    return json.dumps(_finite_or_null(obj), allow_nan=False, indent=2, **kwargs)


def _read_json(path: str | None) -> dict:
    if path is None or path == "-":
        doc = json.load(sys.stdin)
    else:
        with open(path) as f:
            doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    return doc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _print_dry_run(args, **resolved) -> int:
    """Print the parsed options, keyed by destination name, and the values
    the subcommand resolved from them."""
    config = {k: v for k, v in vars(args).items() if k not in ("fn", "dry_run")}
    print(_to_json({"dry_run": True, "config": {**config, **resolved}}, default=str))
    return EXIT_OK


def _finite(text: str) -> float:
    """A float flag's value; argparse refuses inf and nan as it refuses 'abc'."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _parse_vector(text: str) -> np.ndarray:
    try:
        out = np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError as exc:
        raise ValueError(f"bad vector {text!r}: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise ValueError(f"bad vector {text!r}: entries must be finite")
    return out


def _estimators(names: list[str], args, m: int) -> dict:
    """The estimator each name runs, built from the prior flags; `--a`
    defaults to ones(m) and must have m entries."""
    if not names:
        raise ValueError("no estimator named")
    a = _parse_vector(args.a) if args.a else np.ones(m)
    if a.shape != (m,):
        raise ValueError(f"--a needs m = {m} entries, got {a.size}")
    g = _g_from_args(args)
    return {
        name: make_estimator(
            name, alpha=args.alpha, beta=args.beta, g=g, a0=args.a0, a=a
        )
        for name in names
    }


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _cmd_estimate(args) -> int:
    source = args.infile if args.infile else sys.stdin
    counts = read_counts_csv(source, header=args.header)
    fn = _estimators([args.estimator], args, counts.m)[args.estimator]
    if args.dry_run:
        return _print_dry_run(args, shape=[counts.m, counts.n_columns])

    result = fn(counts, args.r)

    buf = io.StringIO()
    np.savetxt(buf, result, fmt=_FLOAT_FMT, delimiter=",")
    _write_text(args.out, buf.getvalue())
    return EXIT_OK


# ---------------------------------------------------------------------------
# risk-sim
# ---------------------------------------------------------------------------


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(
            {
                k: (_FLOAT_FMT % v if isinstance(v, float) else v)
                for k, v in row.items()
            }
        )
    return buf.getvalue()


# The options a --scenario run honours; its estimators, loss and priors are
# the paper's.
_SCENARIO_OPTIONS = ("scenario", "reps", "seed", "jobs", "out", "dry_run")


def _cmd_risk_sim(args) -> int:
    if (args.scenario is None) == (args.truth is None):
        raise ValueError("give exactly one of --scenario or --truth")
    names = [s.strip() for s in args.estimators.split(",") if s.strip()]
    if args.scenario is not None:
        defaults = vars(_parser().parse_args(["risk-sim"]))
        ignored = [
            "--" + dest.replace("_", "-")
            for dest, value in vars(args).items()
            if dest not in _SCENARIO_OPTIONS and value != defaults[dest]
        ]
        if ignored:
            raise ValueError(
                f"--scenario runs the paper's estimators, loss and priors; "
                f"it does not take {', '.join(ignored)}"
            )
    # The KL-type loss is undefined at the exact zeros the others put at zero counts.
    zeros = [name for name in names if name not in ("dir-pm", "hb-pm")]
    if args.loss == "kl" and zeros:
        raise ValueError(f"--loss kl needs dir-pm or hb-pm, not {', '.join(zeros)}")
    if args.scenario is not None:
        if args.dry_run:
            return _print_dry_run(args)
        rows = case_table(args.scenario, reps=args.reps, seed=args.seed, jobs=args.jobs)
        _write_text(args.out, _rows_to_csv(rows))
        return EXIT_OK

    from .model import ModelParams

    with open(args.truth) as f:
        truth = ModelParams.from_json(f.read())
    loss_columns(truth, args.n)
    fns = _estimators(names, args, truth.m)
    if args.dry_run:
        return _print_dry_run(args, shape=[truth.m, truth.n_columns])
    reference = names[0]
    reports = compare(
        fns,
        truth,
        loss=args.loss,
        n=args.n,
        reps=args.reps,
        seed=args.seed,
        reference=reference,
        jobs=args.jobs,
    )
    rows = [
        {
            "estimator": name,
            "risk": rep.risk,
            "se": rep.mc_stderr,
            "prial_vs_" + reference: rep.prial_vs_reference,
        }
        for name, rep in reports.items()
    ]
    _write_text(args.out, _rows_to_csv(rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def _audit_scenario(doc: dict) -> dict:
    kind = doc.get("kind")
    if kind == "prior":
        prior, n_cols = _prior_from_doc(doc), _count(doc, "n_columns")
        verdict = audit_mod.check_prior_propriety(prior, n_cols)
        out = {"kind": kind, "prior_proper": verdict.holds, "reasons": verdict.text}
        if "r" in doc:
            r = _real(doc, "r")
            if not r > 0:
                raise ValueError(f"r must be positive, got {r:g}")
            out["posterior_proper"] = posterior_proper(prior, n_cols, r)
        return out
    if kind == "eb":
        verdict = audit_mod.eb_dominance_conditions(_count(doc, "m"), _real(doc, "r"))
    elif kind == "hb":
        n = _count(doc, "n")
        verdict = audit_mod.hb_dominance_conditions(
            _real(doc, "alpha"), _real(doc, "beta"), _g_from_doc(doc.get("g")),
            _real(doc, "r"), _count(doc, "m"), n, _count(doc, "n_columns", n),
        )
    elif kind == "kl":
        verdict = audit_mod.kl_dominance_conditions(
            _real(doc, "alpha"), _real(doc, "beta"), _g_from_doc(doc.get("g")),
            _real(doc, "a0"), _real(doc, "a"), _real(doc, "r"), _count(doc, "n"),
            _count(doc, "n_columns"),
        )
    else:
        raise ValueError(f"unknown audit kind {kind!r}; use prior|eb|hb|kl")
    return {"kind": kind, "holds": verdict.holds, **dataclasses.asdict(verdict)}


def _cmd_audit(args) -> int:
    if args.table1:
        if args.dry_run:
            return _print_dry_run(args)
        rows = audit_mod.dominance_table()
        text = _to_json(rows)
        _write_text(args.out, text + "\n")
        if args.enforce and not all(
            row["EB0"] and row["EB"] and row["HB"] for row in rows
        ):
            return EXIT_CONDITION
        return EXIT_OK

    doc = _read_json(args.infile)
    if args.dry_run:
        return _print_dry_run(args, scenario=doc)
    verdict = _audit_scenario(doc)
    _write_text(args.out, _to_json(verdict) + "\n")
    failed = verdict.get("holds") is False or verdict.get("prior_proper") is False
    if args.enforce and failed:
        return EXIT_CONDITION
    return EXIT_OK


# ---------------------------------------------------------------------------
# gibbs-diag
# ---------------------------------------------------------------------------


def _cmd_gibbs_diag(args) -> int:
    counts = read_counts_csv(args.counts, header=args.header)
    prior = _prior_from_doc(_read_json(args.prior))
    if args.dry_run:
        return _print_dry_run(args, shape=[counts.m, counts.n_columns])

    cfg = ChainConfig(
        n_iter=args.iters, burn_in=args.burn_in, seed=args.seed, thin=args.thin
    )
    chain = run_posterior(counts, args.r, prior, cfg)
    report = {
        "posterior_mean_p": chain.posterior_mean_p().tolist(),
        "posterior_mean_t": float(chain.t.mean()),
        "ess_t": chain.ess_t(),
        "delta_ss": mcmc_delta_estimates(chain, "ss"),
        "delta_kl": [
            mcmc_delta_estimates(chain, "kl", nu) for nu in range(counts.n_columns)
        ],
    }
    _write_text(args.out, _to_json(report) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# kernel-eval
# ---------------------------------------------------------------------------


def _cmd_kernel_eval(args) -> int:
    doc = _read_json(args.infile)
    if args.dry_run:
        return _print_dry_run(args, spec=doc)
    alpha, beta, xi0 = _real(doc, "alpha"), _real(doc, "beta"), _real(doc, "xi0")
    g = _g_from_doc(doc.get("g"))
    xi = np.asarray(_real(doc, "xi"))
    if xi.ndim != 1:
        raise ValueError("xi must be a list of numbers")
    log_den, log_num = log_kernel([alpha, alpha + 1.0], beta, g, xi0, xi)
    with np.errstate(over="ignore", invalid="ignore"):
        delta = np.exp(log_num - log_den)
    out = {
        "log_K": float(log_den),
        "log_K_alpha_plus_1": float(log_num),
        "delta": float(delta),
    }
    _write_text(args.out, _to_json(out) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# repro
# ---------------------------------------------------------------------------


def _cmd_repro(args) -> int:
    outdir = args.out or os.environ.get("NMSHRINK_OUTDIR") or "."
    if args.target != "tables":
        raise ValueError(f"unknown repro target {args.target!r}")
    if args.dry_run:
        return _print_dry_run(args, outdir=outdir)

    os.makedirs(outdir, exist_ok=True)
    started = time.time()

    table1 = audit_mod.dominance_table()
    with open(os.path.join(outdir, "table1.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["case", "EB0", "EB", "HB"])
        for row in table1:
            w.writerow(
                [row["case"]]
                + [("+" if row[k] else "-") for k in ("EB0", "EB", "HB")]
            )

    for idx, case in enumerate(("i", "ii", "iii"), start=2):
        rows = case_table(case, reps=args.reps, seed=args.seed, jobs=args.jobs)
        with open(os.path.join(outdir, f"table{idx}.csv"), "w") as f:
            f.write(_rows_to_csv(rows))

    manifest = {
        "target": "tables",
        "seed": args.seed,
        "reps": args.reps,
        "jobs": args.jobs,
        "runtime_seconds": round(time.time() - started, 3),
        "versions": {
            "nmshrink": _version_string(),
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "quadrature": quadrature_settings(),
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as f:
        f.write(_to_json(manifest))
    print(f"wrote table1..table4 and manifest to {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sp) -> None:
    sp.add_argument("--dry-run", action="store_true", help="validate and print config")
    sp.add_argument("--out", default=None, help="output path (default stdout)")


def _add_prior_flags(sp) -> None:
    sp.add_argument("--alpha", type=_finite, default=None)
    sp.add_argument("--beta", type=_finite, default=1.0)
    sp.add_argument("--g", choices=["g1", "komaki"], default="g1")
    sp.add_argument("--g-c", type=_finite, default=0.0, help="komaki exponent c")
    sp.add_argument("--g-kappa", type=_finite, default=1.0, help="komaki kappa")
    sp.add_argument("--a0", type=_finite, default=None)
    sp.add_argument("--a", default=None, help="comma-separated positive reals")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmshrink",
        description="Shrinkage estimation for negative multinomial count matrices.",
        epilog='`nmshrink --config FILE` replays a saved {"argv": [...]} run.',
    )
    parser.add_argument("--version", action="version", version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("estimate", help="estimate probabilities from a counts CSV")
    sp.add_argument(
        "--estimator",
        required=True,
        choices=["umvu", "eb0", "eb", "hb", "dir-pm", "hb-pm"],
    )
    sp.add_argument("--r", type=_finite, required=True)
    sp.add_argument("--in", dest="infile", default=None, help="counts CSV (default stdin)")
    sp.add_argument("--header", action="store_true", help="counts CSV has a header row")
    _add_prior_flags(sp)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_estimate)

    sp = sub.add_parser("risk-sim", help="Monte Carlo risk comparison")
    sp.add_argument("--scenario", choices=["i", "ii", "iii"], default=None)
    sp.add_argument("--truth", default=None, help="ModelParams JSON file")
    sp.add_argument("--reps", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--loss", choices=["ss", "kl"], default="ss")
    sp.add_argument(
        "--estimators",
        default="umvu,eb0,eb",
        help="comma list; first is the improvement reference",
    )
    sp.add_argument("--n", type=int, default=None, help="columns entering the loss")
    sp.add_argument("--jobs", type=int, default=1)
    _add_prior_flags(sp)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_risk_sim)

    sp = sub.add_parser("audit", help="propriety and dominance condition checks")
    sp.add_argument("--in", dest="infile", default=None, help="scenario JSON (default stdin)")
    sp.add_argument("--table1", action="store_true", help="audit the benchmark cases")
    sp.add_argument(
        "--enforce", action="store_true", help="exit 4 when a condition fails"
    )
    _add_common(sp)
    sp.set_defaults(fn=_cmd_audit)

    sp = sub.add_parser("gibbs-diag", help="posterior Gibbs diagnostics")
    sp.add_argument("--counts", required=True, help="counts CSV")
    sp.add_argument("--header", action="store_true")
    sp.add_argument("--prior", required=True, help="prior JSON {alpha,beta,g,a0,a}")
    sp.add_argument("--r", type=_finite, required=True)
    sp.add_argument("--iters", type=int, default=100_000)
    sp.add_argument("--burn-in", type=int, default=50_000)
    sp.add_argument("--thin", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_gibbs_diag)

    sp = sub.add_parser("kernel-eval", help="evaluate log K and its ratio")
    sp.add_argument("--in", dest="infile", default=None, help="JSON (default stdin)")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_kernel_eval)

    sp = sub.add_parser("repro", help="rebuild the benchmark tables")
    sp.add_argument("target", choices=["tables"])
    sp.add_argument("--reps", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--jobs", type=int, default=1)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_repro)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built on first use, then reused."""
    return build_parser()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    # A persisted run configuration {"argv": [...]} replays bit-for-bit.
    if argv and argv[0] == "--config":
        if len(argv) != 2:
            raise ValueError("--config takes exactly one JSON file")
        argv = [str(a) for a in _read_json(argv[1])["argv"]]
    return _parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv)
        return args.fn(args)
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConditionError as exc:
        print(f"condition violation: {exc}", file=sys.stderr)
        return EXIT_CONDITION
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
