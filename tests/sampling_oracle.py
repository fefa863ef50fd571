"""The one-vector path of `model.nm_sample` and the replication stack of
`risklab._sample_stack` as nmshrink wrote them before a count vector became
m scalar Poisson calls; kept as a test oracle.

`nm_sample` is copied unchanged from the `size=None` branch: one Gamma(r)
draw, then one array `poisson` call on the rates (p_i/p0) * v.
`sample_stack` fills replication k of a (reps, m, N) stack from the
(seed, k) stream, column by column, with that draw.
"""

from __future__ import annotations

import numpy as np

from nmshrink.model import ModelParams, ProbColumn, make_rng


def nm_sample(r: float, p: ProbColumn, rng: np.random.Generator) -> np.ndarray:
    if not r > 0:
        raise ValueError("r must be positive")
    rate = p.p / p.p0
    v = rng.gamma(r)
    return rng.poisson(rate * v).astype(np.int64)


def sample_stack(truth: ModelParams, seed: int, rep_indices: range) -> np.ndarray:
    x = np.empty((len(rep_indices), truth.m, truth.n_columns), dtype=np.int64)
    for row, rep in enumerate(rep_indices):
        rng = make_rng(seed, rep)
        for nu, col in enumerate(truth.columns):
            x[row, :, nu] = nm_sample(truth.r, col, rng)
    return x
