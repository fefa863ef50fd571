"""Core types and sampling for negative multinomial count models.

The m-dimensional negative multinomial law NM_m(r, p) over count vectors
x in N_0^m has mass

    Gamma(r + x_.) / (Gamma(r) prod_i x_i!) * p0^r * prod_i p_i^x_i,

where p lies in the open simplex interior (all p_i > 0, sum p_i < 1) and
p0 = 1 - sum p_i.  ``r`` may be any positive finite real (`require_r`, the
package's one check of r); the law is then the Poisson mixture with a
Gamma(r, 1)-distributed intensity scale.  Counts pass one rule,
`require_counts`, wherever they enter: count matrices, the mass and the
kernel ratios alike.

Everything here is value-semantic: types are frozen dataclasses backed by
read-only arrays, and samplers take an explicit `numpy.random.Generator`.
`_log_gamma_ratio` is the one log-gamma, of the mass and the kernel alike.
"""

from __future__ import annotations

import csv
import math
import reprlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "ProbColumn",
    "ModelParams",
    "CountMatrix",
    "GeneralizedDirichlet",
    "nm_log_pmf",
    "nm_sample",
    "nm_moments",
    "make_rng",
    "read_counts_csv",
    "require_r",
    "require_counts",
]

# Probabilities at or below this would break the p_i/p0 mixture rates.
P_DEGENERATE = 1e-300
# Below this argument the log-gamma ratio is shifted up by the recurrence,
# whose eight factors `_rising8` multiplies.
_SHIFT = 8
# B_2k / (2k (2k - 1)), k = 1..7: the Stirling series of ln Gamma.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


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
    so p0 always lies in (0, 1).
    """

    p: np.ndarray
    p0: float = field(init=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("p must be a nonempty 1-d vector")
        if np.any(p <= P_DEGENERATE):
            raise ValueError("probabilities must be strictly positive (> 1e-300)")
        total = float(p.sum())
        if not total < 1.0:
            raise ValueError(f"sum of probabilities must be < 1, got {total}")
        object.__setattr__(self, "p", _readonly(p))
        object.__setattr__(self, "p0", 1.0 - total)

    @property
    def m(self) -> int:
        return self.p.size

    @cached_property
    def rates(self) -> tuple[float, ...]:
        """The Poisson mixture rates p_i / p0, as Python floats."""
        return tuple((self.p / self.p0).tolist())


@dataclass(frozen=True)
class ModelParams:
    """Sampling parameters: positive size r and N probability columns."""

    r: float
    columns: tuple[ProbColumn, ...]

    def __post_init__(self) -> None:
        require_r(self.r)
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

    @cached_property
    def matrix(self) -> np.ndarray:
        """The m x N probability matrix, read-only and built once."""
        return _readonly(np.column_stack([c.p for c in self.columns]))

    @classmethod
    def from_matrix(cls, r: float, matrix: np.ndarray) -> "ModelParams":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("probability matrix must be 2-d (m x N)")
        return cls(r, tuple(ProbColumn(matrix[:, j]) for j in range(matrix.shape[1])))


def require_r(r: float) -> None:
    """Raise ValueError unless 0 < r < inf, the size every law and rule here takes."""
    if not 0 < r < math.inf:
        raise ValueError(f"r must be positive and finite, got {reprlib.repr(r)}")


def require_counts(x, ndim: int) -> np.ndarray:
    """x as a C-ordered int64 array of counts, the package's one check of them.

    Raises ValueError unless x has at least `ndim` dimensions and is
    nonempty, every entry is a whole number (an integer or bool dtype, or
    floats equal to their rint; strings and objects are not) and
    nonnegative, and each trailing `ndim`-dimensional block (each vector
    for ndim 1, each matrix for ndim 2) totals below 2^53, so that every
    sum of a block is exact as a float too.
    """
    x = np.asarray(x)
    what = "vector" if ndim == 1 else "matrix"
    if x.ndim < ndim or x.size == 0:
        raise ValueError(f"counts must form a nonempty {ndim}-d {what}")
    if x.dtype.kind not in "biu" and (
        x.dtype.kind != "f" or not np.array_equal(np.rint(x), x)
    ):
        raise ValueError("counts must be integers")
    if x.min() < 0:
        raise ValueError("counts must be nonnegative")
    # Float sums cannot wrap: below 2^53 every partial sum is an integer
    # they hold exactly, and a total of 2^53 or more sums to at least 2^53.
    if x.sum(axis=tuple(range(-ndim, 0)), dtype=float).max() >= 2.0**53:
        raise ValueError(f"the counts of a {what} must total below 2^53")
    return np.ascontiguousarray(x, dtype=np.int64)


@dataclass(frozen=True)
class CountMatrix:
    """An m x N matrix of nonnegative integer counts with cached sums.

    A stack of matrices, shape (..., m, N), is held the same way: `col_sums`
    then has shape (..., N) and `grand_sum` is an array of shape (...).
    The counts pass `require_counts`: each matrix totals below 2^53, so
    every sum is exact as a float too.
    """

    x: np.ndarray
    col_sums: np.ndarray = field(init=False)
    grand_sum: int | np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        x = _readonly(require_counts(self.x, 2))  # a copy of the caller's
        # The sums over the middle axis as einsum takes them: the same
        # integers, and up to 6x faster than x.sum(axis=-2) on a stack.
        col_sums = np.einsum("...ij->...j", x)
        col_sums.flags.writeable = False  # a new array, not a view of x
        grand_sum = col_sums.sum(axis=-1)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "col_sums", col_sums)
        grand_sum = int(grand_sum) if x.ndim == 2 else _readonly(grand_sum)
        object.__setattr__(self, "grand_sum", grand_sum)

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
        if not (a.min() > 0 and a.max() < math.inf):
            raise ValueError("all a_i must be positive and finite")
        if not np.isfinite(self.a0):
            raise ValueError(f"a0 must be finite, got {self.a0!r}")
        object.__setattr__(self, "a0", float(self.a0))
        object.__setattr__(self, "a", _readonly(a))

    @property
    def a_dot(self) -> float:
        return float(self.a.sum())


def _stirling_tail(z: np.ndarray) -> np.ndarray:
    """ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2 for z >= 8, to 7 terms."""
    w = 1.0 / z
    w2 = w * w
    out = _STIRLING[-1] * w2
    for coef in _STIRLING[-2:0:-1]:
        out += coef
        out *= w2
    out += _STIRLING[0]
    out *= w
    return out


def _rising8(w: np.ndarray) -> np.ndarray:
    """w (w + 1) ... (w + 7), as four pairs (w + k)(w + 7 - k) = u + k (7 - k)."""
    u = w * (w + 7.0)
    return u * (u + 6.0) * (u + 10.0) * (u + 12.0)


def _gamma_nodes(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The terms of `_log_gamma_ratio` that depend on the ascending x alone:
    y (x shifted up by 8 below 8), y - 1/2, ln y, the Stirling tail c(y),
    and the x below 8 with their rising factorials x (x + 1) ... (x + 7)."""
    n_small = np.searchsorted(x, _SHIFT)
    y = x.copy()
    y[:n_small] += _SHIFT
    small = x[:n_small]
    return y, y - 0.5, np.log(y), _stirling_tail(y), small, _rising8(small)


def _log_gamma_ratio_from(nodes: tuple[np.ndarray, ...], xi: np.ndarray) -> np.ndarray:
    """`_log_gamma_ratio` at the x of `_gamma_nodes(x)`: the terms that
    involve xi, on top of the terms of x alone."""
    y, y_half, log_y, c_y, small, rising = nodes
    b = xi[:, None]
    out = c_y - _stirling_tail(y + b)
    out += b
    out -= b * log_y
    out -= (y_half + b) * np.log1p(b / y)
    if small.size:
        out[:, : small.size] += np.log(_rising8(small + b) / rising)
    return out


def _log_gamma_ratio(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Table (U, n) of ln Gamma(x) - ln Gamma(x + xi) for ascending x (n,) > 0
    and xi (U,) >= 0.

    From x >= 8 the Stirling series gives the difference without forming
    either log-gamma: xi - xi ln x - (x + xi - 1/2) log1p(xi/x) + c(x) -
    c(x + xi).  Below 8 it is taken at x + 8 and the recurrence adds
    log prod_{k<8} (1 + xi/(x + k)), a ratio of two rising factorials.
    Each entry is its own sequence of operations, so it does not depend on
    the other entries of the table, and xi = 0 gives exactly 0.  The terms
    of x alone (`_gamma_nodes`) can be computed once for many xi.
    """
    return _log_gamma_ratio_from(_gamma_nodes(x), xi)


def _log_gamma_ratio_at(x0: float, k: np.ndarray) -> np.ndarray:
    """ln Gamma(x0) - ln Gamma(x0 + k) at each count of the int64 array k,
    from a table of 0..max(k) when that is shorter than k (as in sums over a
    support); an entry's bits do not depend on the table it is in."""
    top = int(k.max(initial=0))
    if top < k.size:
        return _log_gamma_ratio(np.array([x0]), np.arange(top + 1.0))[k, 0]
    return _log_gamma_ratio(np.array([x0]), k.ravel().astype(float)).reshape(k.shape)


def nm_log_pmf(x: np.ndarray, r: float, p: ProbColumn):
    """Log mass of NM_m(r, p) at each count vector of x.

    x is one count vector, shape (m,), giving a float, or a (..., m) stack
    of them, giving one value per vector; each vector of a stack gets
    exactly the value it gets alone.  The log-gamma terms are differences
    from `_log_gamma_ratio`, ln Gamma(r + x_.) - ln Gamma(r) = -ratio(r, x_.)
    and -ln x_i! = ratio(1, x_i), so large counts cannot overflow and a zero
    count adds exactly 0.
    """
    # C order: each vector's sums then run over contiguous memory, as alone.
    x = require_counts(x, 1)
    if x.shape[-1] != p.m:
        raise ValueError(f"count vectors have shape {x.shape}, expected (..., {p.m})")
    require_r(r)
    out = (
        _log_gamma_ratio_at(1.0, x).sum(axis=-1)
        - _log_gamma_ratio_at(float(r), x.sum(axis=-1))
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

    One vector is drawn as m scalar Poisson calls in entry order.  NumPy's
    array path makes the same per-entry draws from the same products
    (p_i/p0) * v, so the stream is unchanged, but it validates its argument
    with array reductions that cost more than the draws at these sizes.
    """
    require_r(r)
    if size is None:
        v = rng.gamma(r)
        poisson = rng.poisson
        return np.array([poisson(q * v) for q in p.rates], dtype=np.int64)
    rate = p.p / p.p0
    v = rng.gamma(r, size=int(size))
    return rng.poisson(v[:, None] * rate[None, :]).astype(np.int64)


def nm_moments(r: float, p: ProbColumn) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix of NM_m(r, p).

    mean = r p / p0,  cov = r diag(p)/p0 + r p p' / p0^2.
    """
    require_r(r)
    mean = r * p.p / p.p0
    cov = r * np.diag(p.p) / p.p0 + r * np.outer(p.p, p.p) / p.p0**2
    return mean, cov


def read_counts_csv(path_or_file, header: bool = False) -> CountMatrix:
    """Read an m x N integer count matrix from CSV (m rows, N columns).

    Blank lines are skipped; with `header`, so is the first record that is
    not blank.  Raises ValueError naming the offending row on ragged input,
    an entry that is not a 64-bit integer, or a record the csv module
    refuses (a field over its size limit, say).
    """
    named = isinstance(path_or_file, (str, Path))
    with open(path_or_file, newline="") if named else nullcontext(path_or_file) as f:
        rows = {}
        width = None
        reader = csv.reader(f)
        try:
            for lineno, rec in enumerate(reader, start=1):
                if not rec or (len(rec) == 1 and rec[0].strip() == ""):
                    continue
                if header:
                    header = False
                    continue
                if width is None:
                    width = len(rec)
                elif len(rec) != width:
                    raise ValueError(
                        f"row {lineno}: expected {width} fields, got {len(rec)}"
                    )
                try:
                    rows[lineno] = list(map(int, rec))
                except ValueError as exc:
                    raise ValueError(f"row {lineno}: entry not a 64-bit integer") from exc
        except csv.Error as exc:
            raise ValueError(f"row {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError("empty counts file")
    try:
        x = np.array(list(rows.values()), dtype=np.int64)
    except OverflowError:
        lineno = next(n for n, row in rows.items() if np.array(row).dtype != np.int64)
        raise ValueError(f"row {lineno}: entry not a 64-bit integer") from None
    return CountMatrix(x)
