"""Core types and sampling for negative multinomial count models.

The m-dimensional negative multinomial law NM_m(r, p) over count vectors
x in N_0^m has mass

    Gamma(r + x_.) / (Gamma(r) prod_i x_i!) * p0^r * prod_i p_i^x_i,

where p lies in the open simplex interior (all p_i > 0, sum p_i < 1) and
p0 = 1 - sum p_i.  ``r`` may be any positive real; the law is then the
Poisson mixture with a Gamma(r, 1)-distributed intensity scale.

Everything here is value-semantic: types are frozen dataclasses backed by
read-only arrays, and samplers take an explicit `numpy.random.Generator`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import gammaln

__all__ = [
    "ProbColumn",
    "ModelParams",
    "CountMatrix",
    "GeneralizedDirichlet",
    "nm_log_pmf",
    "nm_sample",
    "nm_moments",
    "gen_dirichlet_sample",
    "gen_dirichlet_log_pdf",
    "make_rng",
    "read_counts_csv",
    "write_counts_csv",
]

# Stored p0 must agree with 1 - sum(p) to this tolerance.
P0_CONSISTENCY_TOL = 1e-12
# Probabilities at or below this would break the p_i/p0 mixture rates.
P_DEGENERATE = 1e-300


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


def make_rng(seed: int, *path: int) -> np.random.Generator:
    """Counter-based random stream keyed by (seed, *path).

    Streams with distinct keys are independent, so parallel replications
    indexed by `path` are reproducible regardless of scheduling.
    """
    ss = np.random.SeedSequence([int(seed), *[int(k) for k in path]])
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class ProbColumn:
    """One probability vector p with its leftover mass p0 = 1 - sum(p).

    All p_i must be strictly positive and sum to strictly less than one,
    so p0 always lies in (0, 1).  If `p0` is passed explicitly it is
    validated against the recomputed value at tolerance 1e-12.
    """

    p: np.ndarray
    p0: float | None = None

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("p must be a nonempty 1-d vector")
        if np.any(p <= P_DEGENERATE):
            raise ValueError("probabilities must be strictly positive (> 1e-300)")
        total = float(p.sum())
        if not total < 1.0:
            raise ValueError(f"sum of probabilities must be < 1, got {total}")
        p0 = 1.0 - total
        if self.p0 is not None and abs(float(self.p0) - p0) > P0_CONSISTENCY_TOL:
            raise ValueError(
                f"stored p0={self.p0} inconsistent with 1 - sum(p)={p0}"
            )
        object.__setattr__(self, "p", _readonly(p))
        object.__setattr__(self, "p0", p0)

    @property
    def m(self) -> int:
        return self.p.size


@dataclass(frozen=True)
class ModelParams:
    """Sampling parameters: positive size r and N probability columns."""

    r: float
    columns: tuple[ProbColumn, ...]

    def __post_init__(self) -> None:
        if not self.r > 0:
            raise ValueError("r must be positive")
        cols = tuple(self.columns)
        if not cols:
            raise ValueError("at least one probability column is required")
        m = cols[0].m
        if any(c.m != m for c in cols):
            raise ValueError("all columns must share the same dimension m")
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "columns", cols)

    @property
    def m(self) -> int:
        return self.columns[0].m

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def matrix(self) -> np.ndarray:
        """The m x N probability matrix."""
        return np.column_stack([c.p for c in self.columns])

    @classmethod
    def from_matrix(cls, r: float, matrix: np.ndarray) -> "ModelParams":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("probability matrix must be 2-d (m x N)")
        return cls(r, tuple(ProbColumn(matrix[:, j]) for j in range(matrix.shape[1])))

    def to_json(self) -> str:
        return json.dumps(
            {"r": self.r, "columns": [c.p.tolist() for c in self.columns]}
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        doc = json.loads(text)
        try:
            r = doc["r"]
            columns = doc["columns"]
        except (KeyError, TypeError) as exc:
            raise ValueError("expected a JSON object {r, columns}") from exc
        return cls(float(r), tuple(ProbColumn(np.asarray(c, dtype=float)) for c in columns))


@dataclass(frozen=True)
class CountMatrix:
    """An m x N matrix of nonnegative integer counts with cached sums.

    A stack of matrices, shape (..., m, N), is held the same way: `col_sums`
    then has shape (..., N) and `grand_sum` is an array of shape (...).
    """

    x: np.ndarray
    col_sums: np.ndarray = field(init=False)
    grand_sum: int | np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        x = np.asarray(self.x)
        if x.ndim < 2 or x.size == 0:
            raise ValueError("counts must form a nonempty 2-d matrix")
        if not np.issubdtype(x.dtype, np.integer):
            rounded = np.rint(np.asarray(x, dtype=float))
            if not np.array_equal(rounded, np.asarray(x, dtype=float)):
                raise ValueError("counts must be integers")
            x = rounded.astype(np.int64)
        else:
            x = x.astype(np.int64)
        if np.any(x < 0):
            raise ValueError("counts must be nonnegative")
        col_sums = x.sum(axis=-2)
        grand_sum = col_sums.sum(axis=-1)
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "col_sums", _readonly(col_sums))
        object.__setattr__(
            self, "grand_sum", int(grand_sum) if x.ndim == 2 else _readonly(grand_sum)
        )

    @property
    def m(self) -> int:
        return self.x.shape[-2]

    @property
    def n_columns(self) -> int:
        return self.x.shape[-1]


@dataclass(frozen=True)
class GeneralizedDirichlet:
    """Dirichlet-type density p0^(a0-1) * prod p_i^(a_i-1) on the simplex interior.

    The exponent a0 on the leftover mass may be any real; the density is
    normalizable iff a0 > 0.
    """

    a0: float
    a: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("a must be a nonempty 1-d vector")
        if not np.all(a > 0):
            raise ValueError("all a_i must be positive")
        object.__setattr__(self, "a0", float(self.a0))
        object.__setattr__(self, "a", _readonly(a))

    @property
    def a_dot(self) -> float:
        return float(self.a.sum())

    @property
    def is_proper(self) -> bool:
        return self.a0 > 0


def nm_log_pmf(x: np.ndarray, r: float, p: ProbColumn):
    """Log mass of NM_m(r, p) at each count vector of x.

    x is one count vector, shape (m,), giving a float, or a (..., m) stack
    of them, giving one value per vector; each vector of a stack gets
    exactly the value it gets alone.  Computed via log-gamma so large
    counts cannot overflow.
    """
    x = np.asarray(x)
    if x.ndim == 0 or x.shape[-1] != p.m:
        raise ValueError(f"count vectors have shape {x.shape}, expected (..., {p.m})")
    if np.any(x < 0) or not np.all(np.equal(np.mod(x, 1), 0)):
        raise ValueError("counts must be nonnegative integers")
    if not r > 0:
        raise ValueError("r must be positive")
    # C order: each vector's sums then run over contiguous memory, as alone.
    x = x.astype(np.int64, order="C")
    out = (
        gammaln(r + x.sum(axis=-1))
        - gammaln(r)
        - gammaln(x + 1.0).sum(axis=-1)
        + r * np.log(p.p0)
        + (x * np.log(p.p)).sum(axis=-1)
    )
    return float(out) if out.ndim == 0 else out


def nm_sample(
    r: float, p: ProbColumn, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Draw from NM_m(r, p) via the Poisson-gamma mixture.

    Draws v ~ Gamma(shape r, scale 1), then x_i ~ Poisson((p_i/p0) v)
    independently.  Returns an (m,) vector, or (size, m) when `size` is given.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    rate = p.p / p.p0
    if size is None:
        v = rng.gamma(r)
        return rng.poisson(rate * v).astype(np.int64)
    v = rng.gamma(r, size=int(size))
    return rng.poisson(v[:, None] * rate[None, :]).astype(np.int64)


def nm_moments(r: float, p: ProbColumn) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix of NM_m(r, p).

    mean = r p / p0,  cov = r diag(p)/p0 + r p p' / p0^2.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    mean = r * p.p / p.p0
    cov = r * np.diag(p.p) / p.p0 + r * np.outer(p.p, p.p) / p.p0**2
    return mean, cov


def gen_dirichlet_sample(
    a0: float, a: np.ndarray, rng: np.random.Generator
) -> ProbColumn:
    """Draw a ProbColumn whose (p0, p) is Dirichlet(a0, a_1, ..., a_m)."""
    if not a0 > 0:
        raise ValueError("a0 must be positive for sampling")
    a = np.asarray(a, dtype=float)
    if not np.all(a > 0):
        raise ValueError("all a_i must be positive")
    alpha = np.concatenate(([a0], a))
    # Tiny shape parameters can underflow a coordinate to exact zero.
    for _ in range(100):
        draw = rng.dirichlet(alpha)
        if np.all(draw > P_DEGENERATE):
            return ProbColumn(draw[1:])
    raise RuntimeError("dirichlet sampling kept producing degenerate draws")


def gen_dirichlet_log_pdf(p: ProbColumn, a0: float, a: np.ndarray) -> float:
    """Log density of the (a0, a) Dirichlet at p (requires a0 > 0)."""
    a = np.asarray(a, dtype=float)
    if a.shape != (p.m,):
        raise ValueError("a has wrong length")
    if not a0 > 0 or not np.all(a > 0):
        raise ValueError("density is normalizable only for positive parameters")
    a_dot = float(a.sum())
    return float(
        gammaln(a0 + a_dot)
        - gammaln(a0)
        - gammaln(a).sum()
        + (a0 - 1.0) * np.log(p.p0)
        + (a - 1.0) @ np.log(p.p)
    )


def _open_maybe(path_or_file, mode: str):
    if isinstance(path_or_file, (str, Path)):
        return open(path_or_file, mode, newline=""), True
    return path_or_file, False


def read_counts_csv(path_or_file, header: bool = False) -> CountMatrix:
    """Read an m x N integer count matrix from CSV (m rows, N columns).

    Raises ValueError naming the offending row on ragged or non-integer input.
    """
    f, close = _open_maybe(path_or_file, "r")
    try:
        rows = []
        width = None
        for lineno, rec in enumerate(csv.reader(f), start=1):
            if not rec or (len(rec) == 1 and rec[0].strip() == ""):
                continue
            if header and lineno == 1:
                continue
            if width is None:
                width = len(rec)
            elif len(rec) != width:
                raise ValueError(
                    f"row {lineno}: expected {width} fields, got {len(rec)}"
                )
            try:
                rows.append([int(v) for v in rec])
            except ValueError as exc:
                raise ValueError(f"row {lineno}: non-integer entry") from exc
        if not rows:
            raise ValueError("empty counts file")
        return CountMatrix(np.array(rows, dtype=np.int64))
    finally:
        if close:
            f.close()


def write_counts_csv(counts: CountMatrix, path_or_file, header: bool = False) -> None:
    f, close = _open_maybe(path_or_file, "w")
    try:
        w = csv.writer(f)
        if header:
            w.writerow([f"c{j + 1}" for j in range(counts.n_columns)])
        for row in counts.x:
            w.writerow([int(v) for v in row])
    finally:
        if close:
            f.close()
