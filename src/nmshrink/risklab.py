"""Loss functions, Monte Carlo risk estimation, and the benchmark cases.

Risk comparisons use common random numbers: every estimator sees the same
replication stream of count matrices, keyed by (seed, replication index)
through a counter-based generator, so results are bit-identical regardless
of execution order, parallelism or batch size.  `case_table` stacks the
replications of a case's three truths, which share r, m and N, into one
(reps, m, N) CountMatrix, so each estimator runs once per case; each truth's
loss and risks come from its own slice.  `compare` is the one-truth batch.

The benchmark cases (`CASES`) and the estimator kinds (`ESTIMATOR_KINDS`,
`POSITIVE_KINDS`) are stated here once; the CLI and `audit` read them.  Each
case is one `BenchmarkCase` record: the r of its three named truths and the
HB prior of its tables, so Table 1's verdict (`audit.dominance_table`) and
its risk table (`case_table`, Tables 2-4) read the same alpha, beta and g.

The summation-by-parts identity check is exact for every shape: its test
functions depend on column nu only through (X_{i,nu}, colsum_nu), so both
sides are sums over the law of those two counts alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, ClassVar, Mapping

import numpy as np

from . import estimators as est
from .kernel import ConditionError, GChoice, PriorSpec, QuadratureError, require_alpha_beta
from .model import CountMatrix, GeneralizedDirichlet, ModelParams, ProbColumn, make_rng
from .model import nm_log_pmf, nm_sample

__all__ = [
    "BenchmarkCase",
    "RiskReport",
    "HudsonReport",
    "loss_ss",
    "loss_kl",
    "prial",
    "loss_columns",
    "compare",
    "hudson_check",
    "case_table",
    "make_estimator",
    "CASES",
    "ESTIMATOR_KINDS",
    "POSITIVE_KINDS",
]

# An estimator maps counts (an m x N CountMatrix or a (..., m, N) stack) and
# r to an estimate of the same shape.
Estimator = Callable[[CountMatrix, float], np.ndarray]


@dataclass(frozen=True)
class RiskReport:
    estimator_name: str
    risk: float
    mc_stderr: float
    prial_vs_reference: float | None = None


@dataclass(frozen=True)
class HudsonReport:
    lhs: float
    rhs: float
    passed: bool


def _per_matrix(block: np.ndarray):
    """Sum over each m x n matrix of a block: a float, or one per matrix."""
    out = block.sum(axis=(-2, -1))
    return float(out) if out.ndim == 0 else out


def _estimate_blocks(d: np.ndarray, p: ModelParams, n: int):
    d = np.asarray(d, dtype=float)
    mat = p.matrix
    if d.shape[-2:] != mat.shape:
        raise ValueError("estimate and truth shapes differ")
    loss_columns(p.n_columns, n)
    return d[..., :n], mat[:, :n]


def loss_ss(d: np.ndarray, p: ModelParams, n: int):
    """Standardized squared error over the first n columns:
    sum (d - p)^2 / p.  A (..., m, N) stack of estimates gives one loss each."""
    block_d, block_p = _estimate_blocks(d, p, n)
    return _per_matrix((block_d - block_p) ** 2 / block_p)


def loss_kl(d: np.ndarray, p: ModelParams, n: int):
    """Kullback-Leibler-type loss over the first n columns:
    sum (d - p - p log(d/p)).  Requires strictly positive estimates there.
    A (..., m, N) stack of estimates gives one loss each."""
    block_d, block_p = _estimate_blocks(d, p, n)
    if np.any(block_d <= 0):
        raise ValueError("KL-type loss needs strictly positive estimates")
    return _per_matrix(block_d - block_p - block_p * np.log(block_d / block_p))


_LOSSES = {"ss": loss_ss, "kl": loss_kl}


def prial(risk_ref: float, risk: float) -> float:
    """Percentage relative improvement in average loss over a reference."""
    if not risk_ref > 0:
        raise ValueError("reference risk must be positive")
    return 100.0 * (risk_ref - risk) / risk_ref


def _sample_stack(truth: ModelParams, seed: int, rep_indices: range) -> np.ndarray:
    """Count matrices (reps, m, N) of the given replications: row k is one
    draw from the rng `make_rng(seed, rep_indices[k])`, column by column,
    each column an `nm_sample` of its negative multinomial."""
    x = np.empty((len(rep_indices), truth.m, truth.n_columns), dtype=np.int64)
    for row, rep in enumerate(rep_indices):
        rng = make_rng(seed, rep)
        for nu, col in enumerate(truth.columns):
            x[row, :, nu] = nm_sample(truth.r, col, rng)
    return x


def _replication_losses(
    named: list[tuple[str, Estimator]],
    truths: Mapping[str, ModelParams],
    loss: str,
    n: int,
    seed: int,
    rep_indices: range,
) -> np.ndarray:
    """Losses (truths, reps, estimators) of one batch of replications; each
    estimator runs once on every truth's count matrices stacked, and the loss
    once per truth on its slice."""
    loss_fn = _LOSSES[loss]
    params = list(truths.values())
    k = len(rep_indices)
    x = CountMatrix(np.concatenate([_sample_stack(t, seed, rep_indices) for t in params]))
    out = np.empty((len(params), k, len(named)))
    for col, (name, fn) in enumerate(named):
        try:
            d = fn(x, params[0].r)
            for t, truth in enumerate(params):
                out[t, :, col] = loss_fn(d[t * k : (t + 1) * k], truth, n)
        except (ConditionError, QuadratureError):
            raise
        except Exception as exc:
            raise _failed_replication(name, fn, x, truths, loss_fn, n, rep_indices) from exc
    return out


def _failed_replication(name, fn, x, truths, loss_fn, n, rep_indices) -> RuntimeError:
    """The error naming the truth and the first replication on which an
    estimator fails alone, found by rerunning the batch one matrix at a time."""
    rows = iter(x.x)
    for label, truth in truths.items():
        for rep in rep_indices:
            try:
                loss_fn(fn(CountMatrix(next(rows)), truth.r), truth, n)
            except Exception as exc:
                return RuntimeError(
                    f"estimator {name!r} failed on replication {rep} of {label!r}: {exc}"
                )
    return RuntimeError(
        f"estimator {name!r} failed on a stack of replications but on none "
        "alone; estimators must accept a (reps, m, N) stack of counts"
    )


def loss_columns(n_columns: int, n: int | None) -> int:
    """The number of leading columns a loss, or a dominance condition on it,
    counts out of N = `n_columns`: `n`, or all N when None.  ValueError
    outside 1..N."""
    if n is None:
        return n_columns
    if not 1 <= n <= n_columns:
        raise ValueError(f"n must be in 1..{n_columns}, got {n}")
    return n


def _batch_risks(
    estimator_fns: Mapping[str, Estimator],
    truths: Mapping[str, ModelParams],
    loss: str,
    n: int | None,
    reps: int,
    seed: int,
    reference: str | None,
    jobs: int,
) -> dict[str, dict[str, RiskReport]]:
    """`compare` for named truths sharing r, m and N: reports per truth, each
    from its own replications, with every estimator called once per batch."""
    if reps < 2:
        raise ValueError("need at least 2 replications for a standard error")
    if loss not in _LOSSES:
        raise ValueError(f"unknown loss {loss!r}")
    if reference is not None and reference not in estimator_fns:
        raise ValueError(f"reference {reference!r} not among the estimators")
    n = loss_columns(next(iter(truths.values())).n_columns, n)
    named = list(estimator_fns.items())
    if jobs <= 1:
        losses = _replication_losses(named, truths, loss, n, seed, range(reps))
    else:
        # Imported here: serial runs need no multiprocessing machinery.
        from concurrent.futures import ProcessPoolExecutor

        # At most reps chunks: an empty one would have no matrix to stack.
        chunks = [range(k, reps, jobs) for k in range(min(jobs, reps))]
        losses = np.empty((len(truths), reps, len(named)))
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futs = [
                pool.submit(_replication_losses, named, truths, loss, n, seed, ch)
                for ch in chunks
            ]
            for ch, fut in zip(chunks, futs):
                losses[:, list(ch), :] = fut.result()

    names = list(estimator_fns)
    out = {}
    for label, block in zip(truths, losses):
        risks = block.mean(axis=0)
        stderrs = block.std(axis=0, ddof=1) / math.sqrt(reps)
        ref = None if reference is None else float(risks[names.index(reference)])
        prials = [None if ref is None else prial(ref, float(v)) for v in risks]
        out[label] = {
            name: RiskReport(name, float(v), float(se), p)
            for name, v, se, p in zip(names, risks, stderrs, prials)
        }
    return out


def compare(
    estimator_fns: Mapping[str, Estimator],
    truth: ModelParams,
    loss: str = "ss",
    n: int | None = None,
    reps: int = 1000,
    seed: int = 0,
    reference: str | None = None,
    jobs: int = 1,
) -> dict[str, RiskReport]:
    """Monte Carlo risks of several estimators on a shared replication stream.

    Each replication's count matrix is keyed by (seed, index), so all
    estimators see identical data and reruns are bit-identical.  Estimators
    are called with the replications stacked as one (reps, m, N)
    CountMatrix: this is the one-truth batch of `case_table`.  With `jobs`
    > 1 replications are split across at most `reps` processes; the result
    does not depend on jobs (estimator callables must then be picklable).
    An `n` outside 1..N raises ValueError before any draw.  ConditionError
    and QuadratureError propagate as they are; any other estimator failure
    raises RuntimeError naming the replication.
    """
    return _batch_risks(
        estimator_fns, {"truth": truth}, loss, n, reps, seed, reference, jobs
    )["truth"]


# The kinds `make_estimator` builds, and the posterior means among them,
# whose estimates are strictly positive; the others put exact zeros at zero
# counts, where the KL-type loss is undefined.
ESTIMATOR_KINDS = ("umvu", "eb0", "eb", "hb", "dir-pm", "hb-pm")
POSITIVE_KINDS = ("dir-pm", "hb-pm")


def make_estimator(
    kind: str,
    alpha: float | None = None,
    beta: float = 1.0,
    g: GChoice | None = None,
    a0: float | None = None,
    a: np.ndarray | None = None,
) -> Estimator:
    """Estimator callable (counts, r) -> matrix from a kind, one of
    `ESTIMATOR_KINDS`, and hyperparameters."""
    closed_form = {"umvu": est.umvu, "eb0": est.eb0, "eb": est.eb}
    if kind in closed_form:
        return closed_form[kind]
    if kind == "hb":
        if alpha is None:
            raise ValueError("hb needs alpha")
        require_alpha_beta(alpha, beta)  # refused when built, as hb-pm's prior is
        return partial(est.hb, alpha=alpha, beta=beta, g=g or GChoice.constant_one())
    if kind == "dir-pm":
        if a0 is None or a is None:
            raise ValueError("dir-pm needs a0 and a")
        weights = GeneralizedDirichlet(a0, a)  # refused when built, as hb-pm's prior is
        return partial(est.dirichlet_posterior_mean, a0=weights.a0, a=weights.a)
    if kind == "hb-pm":
        if alpha is None or a0 is None or a is None:
            raise ValueError("hb-pm needs alpha, a0 and a")
        prior = PriorSpec(alpha, beta, g or GChoice.constant_one(), a0, np.asarray(a, float))
        return partial(est.hb_posterior_mean, prior=prior)
    raise ValueError(f"unknown estimator kind {kind!r}")


# ---------------------------------------------------------------------------
# Benchmark cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkCase:
    """One benchmark case: the r of its three truths and the HB prior of its
    tables, the case's alpha with the beta and g of every case."""

    name: str
    r: float
    alpha: float
    beta: ClassVar[float] = 1.0
    g: ClassVar[GChoice] = GChoice.constant_one()

    @property
    def truths(self) -> dict[str, ModelParams]:
        """The three truths at this r by name, "i-1" to "i-3" for case "i"."""
        return dict(_truths(self.name, self.r))


# The benchmark cases by name, in the order of the tables.
CASES = {
    name: BenchmarkCase(name, r, alpha)
    for name, r, alpha in (("i", 8.0, 14.0), ("ii", 4.0, 6.0), ("iii", 2.0, 6.0))
}


@cache
def _truths(name: str, r: float) -> dict[str, ModelParams]:
    # Built once per process and case: the truths are validated on
    # construction and are immutable, so every caller shares them.
    A = np.ones(7) / 8.0
    B = np.array([1, 1, 1, 1, 2, 2, 2]) / 12.0
    C = np.array([2, 2, 2, 2, 1, 1, 1]) / 12.0
    D = np.ones(3) / 4.0
    E = np.array([1, 1, 2]) / 6.0
    F = np.array([2, 2, 1]) / 6.0
    half = np.array([0.5])
    third = np.array([1.0 / 3.0])
    two_thirds = np.array([2.0 / 3.0])

    columns = {
        "i": [(A, A, A), (B, A, B), (B, A, C)],
        "ii": [[D] * 7, (E, E, D, D, D, E, E), (E, E, D, D, D, F, F)],
        "iii": [
            [half] * 7,
            (third, third, half, half, half, third, third),
            (third, third, half, half, half, two_thirds, two_thirds),
        ],
    }
    if name not in columns:
        raise ValueError(f"unknown case {name!r}")
    return {
        f"{name}-{k}": ModelParams.from_matrix(r, np.column_stack(cols))
        for k, cols in enumerate(columns[name], start=1)
    }


def case_table(
    case: str, reps: int = 1000, seed: int = 0, jobs: int = 1
) -> list[dict]:
    """Risk-and-improvement table for one case: U, EB0, EB and HB estimators.

    One row per truth, with the unbiased estimator as reference for the
    improvement percentages.  The case's truths share r, m, N and the HB
    prior, so they form one batch: each estimator runs once on the stacked
    replications of all three, and each row comes from its truth's own.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    bench = CASES[case]
    fns = {
        "U": make_estimator("umvu"),
        "EB0": make_estimator("eb0"),
        "EB": make_estimator("eb"),
        "HB": make_estimator("hb", alpha=bench.alpha, beta=bench.beta, g=bench.g),
    }
    batch = _batch_risks(fns, bench.truths, "ss", None, reps, seed, "U", jobs)
    rows = []
    for name, reports in batch.items():
        row = {"truth": name}
        for est_name, rep in reports.items():
            row[est_name] = rep.risk
            row[f"{est_name}_se"] = rep.mc_stderr
            if est_name != "U":
                row[f"{est_name}_prial"] = rep.prial_vs_reference
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Summation-by-parts identity checker
# ---------------------------------------------------------------------------


def _h_values(h_kind: str, xi: np.ndarray, colsum: np.ndarray, r: float):
    """h(X) and h(X + e_{i,nu}) as functions of (X_{i,nu}, colsum_nu)."""
    if h_kind == "indicator":
        return (xi >= 1).astype(float), np.ones_like(xi, dtype=float)
    if h_kind == "linear-in-one-count":
        with np.errstate(invalid="ignore", divide="ignore"):
            h = np.where(xi >= 1, xi / (r + colsum - 1.0), 0.0)
        h_shift = (xi + 1.0) / (r + colsum)
        return h, h_shift
    if h_kind == "zero":
        return np.zeros_like(xi, dtype=float), np.zeros_like(xi, dtype=float)
    raise ValueError(f"unknown h_kind {h_kind!r}")


def _nbinom_sf(k: int, r: float, p0: float) -> float:
    """Upper bound on P(X > k), X negative binomial with size r and success
    probability p0: for j > k, pmf(j + 1)/pmf(j) = (1 - p0)(r + j)/(j + 1)
    moves monotonically to 1 - p0, so it is at most rho = (1 - p0) max(1,
    (r + k + 1)/(k + 2)), and the tail at most pmf(k + 1)/(1 - rho), or inf.
    A p0 that rounds to 1 leaves no mass beyond 0, as the model computes it."""
    if p0 >= 1.0:
        return 0.0
    rho = (1.0 - p0) * max(1.0, (r + k + 1.0) / (k + 2.0))
    if rho >= 1.0:
        return math.inf
    log_pmf = nm_log_pmf(np.array([k + 1]), r, ProbColumn(np.array([1.0 - p0])))
    return math.exp(log_pmf) / (1.0 - rho)


# Column sums per block of the Hudson sums: a block holds at most this many
# times (cap + 1) count pairs, whatever the cap.
_SUM_BLOCK = 32


def _column_cap(r: float, p0: float, p_inu: float, tol: float) -> int:
    """Column-sum cap whose truncation error on either side is below tol/10."""
    cap = 16
    h_bound = max(1.0, 1.0 / r)
    mean = r * (1.0 - p0) / p0
    while cap <= 2**22:
        sf = _nbinom_sf(cap, r, p0)
        tail_mean = mean * _nbinom_sf(cap - 1, r + 1.0, p0)
        # lhs tail: |h| <= h_bound and the 1/p factor; rhs tail: (r + colsum)
        # grows linearly in the column sum.
        if h_bound / p_inu * sf + h_bound * (r * sf + tail_mean) < tol / 10.0:
            return cap
        cap *= 2
    raise RuntimeError("truncation bound unattainable at this tolerance")


def hudson_check(
    h_kind: str, p: ModelParams, i: int, nu: int, tol: float = 1e-8
) -> HudsonReport:
    """Check the summation-by-parts identity
    E[h(X)/p_{i,nu}] = E[(r + colsum_nu)/(X_{i,nu} + 1) h(X + e_{i,nu})].

    `h_kind` selects a function vanishing at X_{i,nu} = 0: an indicator of
    X_{i,nu} >= 1, the unbiased-estimator entry, or zero.  The computation
    needs h to depend on X only through (X_{i,nu}, colsum_nu), as each kind
    does: the other columns then sum out and, by aggregation,
    (X_{i,nu}, colsum_nu - X_{i,nu}) is NM_2(r, (p_{i,nu}, sum of the other
    p_{j,nu})), or NM_1(r, p_{i,nu}) when m = 1, with r = p.r.  Both sides
    are exact sums over that law, truncated at a column sum whose tail is
    below tol/10 for every m and N: the column sum is negative binomial, and
    its tail is bounded by a geometric series from the mass at the cap.
    """
    r = p.r
    if not (0 <= i < p.m and 0 <= nu < p.n_columns):
        raise ValueError("index out of range")
    col = p.columns[nu]
    p_inu = float(col.p[i])
    cap = _column_cap(r, col.p0, p_inu, tol)
    if p.m > 1:
        pair = ProbColumn(np.array([p_inu, np.delete(col.p, i).sum()]))
    lhs = rhs = 0.0
    for start in range(0, cap + 1, _SUM_BLOCK):
        stop = min(start + _SUM_BLOCK, cap + 1)
        if p.m == 1:
            xi = colsum = np.arange(start, stop)
            log_pmf = nm_log_pmf(xi[:, None], r, col)
        else:
            # The pairs xi <= colsum with colsum in [start, stop).
            xi, colsum = np.triu_indices(stop, -start, stop - start)
            colsum += start
            log_pmf = nm_log_pmf(np.stack([xi, colsum - xi], axis=-1), r, pair)
        pmf = np.exp(log_pmf)
        xi, colsum = xi.astype(float), colsum.astype(float)
        h, h_shift = _h_values(h_kind, xi, colsum, r)
        lhs += float((pmf * h / p_inu).sum())
        rhs += float((pmf * (r + colsum) / (xi + 1.0) * h_shift).sum())
    return HudsonReport(lhs, rhs, abs(lhs - rhs) <= tol)
