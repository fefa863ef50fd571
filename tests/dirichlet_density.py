"""The (a0, a) Dirichlet log density, with SciPy's log-gamma, for the tests
that check other densities against it.

nmshrink defined it as `model.gen_dirichlet_log_pdf` while no library code
called it; the tests keep it here with their own log-gamma.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from nmshrink.model import ProbColumn


def gen_dirichlet_log_pdf(p: ProbColumn, a0: float, a: np.ndarray) -> float:
    """Log density of the Dirichlet(a0, a_1, ..., a_m) at (p0, p); a0 > 0."""
    a = np.asarray(a, dtype=float)
    return float(
        gammaln(a0 + a.sum())
        - gammaln(a0)
        - gammaln(a).sum()
        + (a0 - 1.0) * np.log(p.p0)
        + (a - 1.0) @ np.log(p.p)
    )
