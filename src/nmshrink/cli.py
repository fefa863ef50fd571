"""Command-line harness: estimate, risk-sim, audit, gibbs-diag, kernel-eval, repro.

Exit codes: 0 success, 2 malformed input, 3 numerical failure,
4 propriety/dominance condition violation.  JSON output is strict: a
non-finite number (a divergent kernel, say) is written as null.  Each `_cmd_*`
reads and checks all its inputs (alpha and beta with `kernel.require_alpha_beta`,
every r with `model.require_r`), then returns `(resolved, run)`; `main` prints
the options and `resolved` on --dry-run, or else returns `run()`: only the
library's own conditions wait for a run.  NMSHRINK_OUTDIR is `repro`'s default --out.

`main` parses with one parser, built by its first call and reused by every
later call in the same process (parsing does not change a parser, and
argparse looks up sys.stdout/sys.stderr when it prints).  `build_parser`
still returns a fresh parser on each call.  An argv whose first word is a
subcommand is parsed by that subcommand's parser, the one argparse's own
dispatch reaches after a scan of the whole argv; what it leaves over is
refused by the top-level parser, as argparse refuses it.  The top-level
parser parses only an argv that names no subcommand: --help, --version,
an empty argv or an unknown command.

Cases and estimator kinds come from `risklab`.  Every input, counts CSV or
JSON document, is read from stdin for `-` (`_input`).  Every JSON document
(the truth, prior, `audit`, `kernel-eval` and `--config` documents) is read
by `_read_json`, and every number in one by `json_numbers`; `_rows_to_csv`
writes every table, +/- verdicts too.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import reprlib
import sys
import time

import numpy as np

from . import __version__
from . import audit as audit_mod
from .gibbs import ChainConfig, run_posterior
from .kernel import (
    ConditionError,
    GChoice,
    PriorSpec,
    QuadratureError,
    _ratio,
    log_kernel,
    posterior_proper,
    quadrature_settings,
    require_alpha_beta,
)
from .model import ModelParams, read_counts_csv, require_r
from .risklab import CASES, ESTIMATOR_KINDS, POSITIVE_KINDS, case_table, compare
from .risklab import loss_columns, make_estimator

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NUMERIC = 3
EXIT_CONDITION = 4

_FLOAT_FMT = "%.17g"


def _version_string() -> str:
    q = quadrature_settings()
    return (
        f"nmshrink {__version__} (quadrature: {q['rule']}, {q['substitution']}, "
        f"node cap {q['node_cap']}, error tolerance {q['error_tol']:g})"
    )


def json_numbers(doc: dict, key: str, ndim: int = 0):
    """doc[key], a JSON number or an ndim-deep list of them, as a finite float
    (ndim 0) or a float array of exactly ndim dimensions.  Booleans, strings,
    null, wrongly nested or ragged lists and overflow raise ValueError, whose
    message echoes the value clipped by `reprlib`."""
    value = doc[key]
    leaves = np.array(value, dtype=object)
    if leaves.ndim != ndim or not all(type(v) in (int, float) for v in leaves.flat):
        what = "a number" if ndim == 0 else f"a {ndim}-d list of numbers"
        raise ValueError(f"{key} must be {what}, got {reprlib.repr(value)}")
    try:
        out = leaves.astype(float)
    except OverflowError:  # an int beyond any float
        out = np.array(np.nan)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{key} must be finite, got {reprlib.repr(value)}")
    return float(out) if ndim == 0 else out


def _count(doc: dict, key: str) -> int:
    """doc[key] as a positive integer; 7.0 is accepted, 7.5, 0, -4 and true are not."""
    try:
        value = json_numbers(doc, key)
    except ValueError:
        value = 0.0
    if not value >= 1 or value % 1:
        raise ValueError(f"{key} must be a positive integer, got {reprlib.repr(doc[key])}")
    return int(value)


def _g_from_doc(doc) -> GChoice:
    if doc is None or doc == "g1":
        return GChoice.constant_one()
    if isinstance(doc, dict):
        if doc.get("kind") in ("constant_one", "g1"):
            return GChoice.constant_one()
        if doc.get("kind") == "komaki":
            return GChoice.komaki(json_numbers(doc, "c"), json_numbers(doc, "kappa"))
    raise ValueError(f"unrecognized g specification: {reprlib.repr(doc)}")


def _prior_from_doc(doc: dict) -> PriorSpec:
    alpha, beta, a0 = (json_numbers(doc, key) for key in ("alpha", "beta", "a0"))
    a = json_numbers(doc, "a", ndim=1)
    return PriorSpec(alpha, beta, _g_from_doc(doc.get("g")), a0, a)


def _truth_from_doc(doc: dict) -> ModelParams:
    """The truth {r, columns}: r and N probability columns of m entries each."""
    r, columns = json_numbers(doc, "r"), json_numbers(doc, "columns", ndim=2)
    return ModelParams.from_matrix(r, columns.T)


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


def _input(path: str | None):
    """What an input option names: stdin for None or '-', else the path."""
    return sys.stdin if path is None or path == "-" else path


def _read_json(path: str | None) -> dict:
    source = _input(path)
    try:
        if source is sys.stdin:
            doc = json.load(source)
        else:
            with open(source) as f:
                doc = json.load(f)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    return doc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _finite(text: str) -> float:
    """A float flag's value; argparse refuses inf and nan as it refuses 'abc'."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _positive_int(text: str, least: int = 1) -> int:
    """A count flag's value; argparse refuses one below `least` as it refuses 'abc'."""
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        sign = "positive" if least else "nonnegative"
        raise argparse.ArgumentTypeError(f"must be a {sign} integer, got {text!r}")
    return value


_nonnegative_int = functools.partial(_positive_int, least=0)


def _reps(text: str) -> int:
    """A --reps value; a standard error needs at least 2 replications."""
    value = _positive_int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 replications, got {text!r}")
    return value


def _parse_vector(text: str) -> np.ndarray:
    """The floats of a comma-separated list; the estimator that takes them
    checks their values (`model.GeneralizedDirichlet` for --a)."""
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError as exc:
        raise ValueError(f"bad vector {text!r}: {exc}") from exc


def _estimators(names: list[str], args, m: int) -> dict:
    """The estimator each name runs, built from the prior flags; `--a`
    defaults to ones(m) and must have m entries."""
    if not names:
        raise ValueError("no estimator named")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"estimator {name!r} named more than once")
    a = _parse_vector(args.a) if args.a else np.ones(m)
    if a.shape != (m,):
        raise ValueError(f"--a needs m = {m} entries, got {a.size}")
    g = _g_from_doc({"kind": args.g, "c": args.g_c, "kappa": args.g_kappa})
    prior = {"alpha": args.alpha, "beta": args.beta, "g": g, "a0": args.a0, "a": a}
    return {name: make_estimator(name, **prior) for name in names}


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _matrix_to_csv(result: np.ndarray) -> str:
    """The bytes `np.savetxt(f, result, fmt=_FLOAT_FMT, delimiter=",")`
    writes for a 2-d array, from one format string for the whole array."""
    m, n = result.shape
    return ((",".join([_FLOAT_FMT] * n) + "\n") * m) % tuple(result.flat)


def _cmd_estimate(args):
    require_r(args.r)
    counts = read_counts_csv(_input(args.infile), header=args.header)
    fn = _estimators([args.estimator], args, counts.m)[args.estimator]

    def run() -> int:
        _write_text(args.out, _matrix_to_csv(fn(counts, args.r)))
        return EXIT_OK

    return {"shape": [counts.m, counts.n_columns]}, run


# ---------------------------------------------------------------------------
# risk-sim
# ---------------------------------------------------------------------------


def _cell(v) -> str:
    """A table cell: 17 significant digits for a float, + or - for a verdict."""
    if isinstance(v, float):
        return _FLOAT_FMT % v
    if isinstance(v, bool):
        return "+" if v else "-"
    return v


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _cell(v) for k, v in row.items()})
    return buf.getvalue()


# The options a --scenario run honours; its estimators, loss and priors are
# the paper's.
_SCENARIO_OPTIONS = ("scenario", "reps", "seed", "jobs", "out", "dry_run")


def _cmd_risk_sim(args):
    if (args.scenario is None) == (args.truth is None):
        raise ValueError("give exactly one of --scenario or --truth")
    if args.scenario is not None:
        defaults = vars(_parse_args(["risk-sim"]))
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

        def run() -> int:
            rows = case_table(args.scenario, reps=args.reps, seed=args.seed, jobs=args.jobs)
            _write_text(args.out, _rows_to_csv(rows))
            return EXIT_OK

        return {}, run

    names = [s.strip() for s in args.estimators.split(",") if s.strip()]
    # The KL-type loss is undefined at the exact zeros the others put at zero counts.
    zeros = [name for name in names if name not in POSITIVE_KINDS]
    if args.loss == "kl" and zeros:
        raise ValueError(
            f"--loss kl needs {' or '.join(POSITIVE_KINDS)}, not {', '.join(zeros)}"
        )
    truth = _truth_from_doc(_read_json(args.truth))
    loss_columns(truth.n_columns, args.n)
    fns = _estimators(names, args, truth.m)

    def run() -> int:
        reports = compare(
            fns,
            truth,
            loss=args.loss,
            n=args.n,
            reps=args.reps,
            seed=args.seed,
            reference=names[0],
            jobs=args.jobs,
        )
        rows = [
            {
                "estimator": name,
                "risk": rep.risk,
                "se": rep.mc_stderr,
                "prial_vs_" + names[0]: rep.prial_vs_reference,
            }
            for name, rep in reports.items()
        ]
        _write_text(args.out, _rows_to_csv(rows))
        return EXIT_OK

    return {"shape": [truth.m, truth.n_columns]}, run


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def _audit_check(doc: dict):
    """An audit document's verdict document as a function of no arguments: the
    numbers are read now, the check its kind names runs when it is called."""
    kind, num = doc.get("kind"), functools.partial(json_numbers, doc)

    def size() -> float:
        r = num("r")
        require_r(r)
        return r

    if kind == "prior":
        prior, n_cols = _prior_from_doc(doc), _count(doc, "n_columns")
        r = size() if "r" in doc else None

        def propriety() -> dict:
            verdict = audit_mod.check_prior_propriety(prior, n_cols)
            out = {"kind": kind, "prior_proper": verdict.holds, "reasons": verdict.text}
            if r is not None:
                out["posterior_proper"] = posterior_proper(prior, n_cols, r)
            return out

        return propriety
    elif kind == "eb":
        m, r = _count(doc, "m"), size()
        check = functools.partial(audit_mod.eb_dominance_conditions, m, r)
    elif kind == "hb":
        alpha, beta = num("alpha"), num("beta")
        require_alpha_beta(alpha, beta)
        g, r, m, n = _g_from_doc(doc.get("g")), size(), _count(doc, "m"), _count(doc, "n")
        n_cols = _count(doc, "n_columns") if "n_columns" in doc else None
        if n_cols is not None:
            loss_columns(n_cols, n)
        check = functools.partial(
            audit_mod.hb_dominance_conditions, alpha, beta, g, r, m, n, n_cols
        )
    elif kind == "kl":
        prior, r = _prior_from_doc(doc), size()
        n, n_cols = _count(doc, "n"), _count(doc, "n_columns")
        loss_columns(n_cols, n)
        check = functools.partial(audit_mod.kl_dominance_conditions, prior, r, n, n_cols)
    else:
        raise ValueError(f"unknown audit kind {reprlib.repr(kind)}; use prior|eb|hb|kl")

    def dominance() -> dict:
        verdict = check()
        return {"kind": kind, "holds": verdict.holds, **vars(verdict)}

    return dominance


def _cmd_audit(args):
    if args.table1 and args.infile is not None:
        raise ValueError("--table1 audits the benchmark cases; it does not take --in")
    doc = None if args.table1 else _read_json(args.infile)
    verdicts = audit_mod.dominance_table if doc is None else _audit_check(doc)

    def run() -> int:
        out = verdicts()
        _write_text(args.out, _to_json(out) + "\n")
        # Any False verdict fails: an improper posterior has an improper prior.
        rows = out if doc is None else [out]
        if args.enforce and any(v is False for row in rows for v in row.values()):
            return EXIT_CONDITION
        return EXIT_OK

    return {} if doc is None else {"scenario": doc}, run


# ---------------------------------------------------------------------------
# gibbs-diag
# ---------------------------------------------------------------------------


def _cmd_gibbs_diag(args):
    require_r(args.r)
    counts = read_counts_csv(_input(args.counts), header=args.header)
    prior = _prior_from_doc(_read_json(args.prior))
    if prior.m != counts.m:
        raise ValueError(f"prior a needs m = {counts.m} entries, got {prior.m}")
    cfg = ChainConfig(
        n_iter=args.iters, burn_in=args.burn_in, seed=args.seed, thin=args.thin
    )

    def run() -> int:
        chain = run_posterior(counts, args.r, prior, cfg)
        mean_t = chain.delta_ss()  # the column-sum ratio is the posterior mean of t
        report = {
            "posterior_mean_p": chain.posterior_mean_p().tolist(),
            "posterior_mean_t": mean_t,
            "ess_t": chain.ess_t(),
            "delta_ss": mean_t,
            "delta_kl": [chain.delta_kl(nu) for nu in range(counts.n_columns)],
        }
        _write_text(args.out, _to_json(report) + "\n")
        return EXIT_OK

    return {"shape": [counts.m, counts.n_columns]}, run


# ---------------------------------------------------------------------------
# kernel-eval
# ---------------------------------------------------------------------------


def _cmd_kernel_eval(args):
    doc = _read_json(args.infile)
    alpha, beta, xi0 = (json_numbers(doc, key) for key in ("alpha", "beta", "xi0"))
    require_alpha_beta(alpha, beta)
    g, xi = _g_from_doc(doc.get("g")), json_numbers(doc, "xi", ndim=1)

    def run() -> int:
        logk = log_kernel([alpha, alpha + 1.0], beta, g, xi0, xi)
        # inf - inf where both kernels diverge: delta is NaN, written as null.
        with np.errstate(invalid="ignore"):
            delta = _ratio(logk)
        out = {
            "log_K": float(logk[0]),
            "log_K_alpha_plus_1": float(logk[1]),
            "delta": delta,
        }
        _write_text(args.out, _to_json(out) + "\n")
        return EXIT_OK

    return {"spec": doc}, run


# ---------------------------------------------------------------------------
# repro
# ---------------------------------------------------------------------------


def _cmd_repro(args):
    outdir = args.out or os.environ.get("NMSHRINK_OUTDIR") or "."
    return {"outdir": outdir}, functools.partial(_repro_tables, args, outdir)


def _repro_tables(args, outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    started = time.time()

    sampling = {"reps": args.reps, "seed": args.seed, "jobs": args.jobs}
    tables = [audit_mod.dominance_table] + [
        functools.partial(case_table, case, **sampling) for case in CASES
    ]
    for idx, table in enumerate(tables, start=1):
        with open(os.path.join(outdir, f"table{idx}.csv"), "w", newline="") as f:
            f.write(_rows_to_csv(table()))

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
    sp.add_argument("--estimator", required=True, choices=ESTIMATOR_KINDS)
    sp.add_argument("--r", type=_finite, required=True)
    sp.add_argument("--in", dest="infile", default=None, help="counts CSV (default stdin)")
    sp.add_argument("--header", action="store_true", help="counts CSV has a header row")
    _add_prior_flags(sp)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_estimate)

    sp = sub.add_parser("risk-sim", help="Monte Carlo risk comparison")
    sp.add_argument("--scenario", choices=list(CASES), default=None)
    sp.add_argument("--truth", default=None, help="truth JSON {r, columns} (- for stdin)")
    sp.add_argument("--reps", type=_reps, default=1000)
    sp.add_argument("--seed", type=_nonnegative_int, default=0)
    sp.add_argument("--loss", choices=["ss", "kl"], default="ss")
    sp.add_argument(
        "--estimators",
        default="umvu,eb0,eb",
        help="comma list; first is the improvement reference",
    )
    sp.add_argument("--n", type=int, default=None, help="columns entering the loss")
    sp.add_argument("--jobs", type=_positive_int, default=1)
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
    sp.add_argument("--seed", type=_nonnegative_int, default=0)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_gibbs_diag)

    sp = sub.add_parser("kernel-eval", help="evaluate log K and its ratio")
    sp.add_argument("--in", dest="infile", default=None, help="JSON (default stdin)")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_kernel_eval)

    sp = sub.add_parser("repro", help="rebuild the benchmark tables")
    sp.add_argument("target", choices=["tables"])
    sp.add_argument("--reps", type=_reps, default=1000)
    sp.add_argument("--seed", type=_nonnegative_int, default=42)
    sp.add_argument("--jobs", type=_positive_int, default=1)
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
        argv = _read_json(argv[1])["argv"]
        if not isinstance(argv, list):
            raise ValueError(f"--config needs an argv list, got {reprlib.repr(argv)}")
        argv = [str(a) for a in argv]
    parser = _parser()
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    if not (argv and argv[0] in commands):
        return parser.parse_args(argv)
    # What argparse's dispatch does, without its scan of the whole argv.
    args, extras = commands[argv[0]].parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0])
    )
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        resolved, run = args.fn(args)
        if not args.dry_run:
            return run()
        config = {k: v for k, v in vars(args).items() if k not in ("fn", "dry_run")}
        print(_to_json({"dry_run": True, "config": {**config, **resolved}}, default=str))
        return EXIT_OK
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConditionError as exc:
        print(f"condition violation: {exc}", file=sys.stderr)
        return EXIT_CONDITION
    except (ValueError, KeyError, OSError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
