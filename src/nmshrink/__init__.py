"""Shrinkage estimation for negative multinomial count matrices.

Subpackages by responsibility:

* ``model``      -- domain types, pmf/moments, samplers, CSV counts, the count rule
* ``kernel``     -- the gamma-mixing kernel integral and its shrinkage ratios
* ``estimators`` -- unbiased, empirical Bayes, and hierarchical Bayes rules
* ``audit``      -- analytic propriety and dominance condition checkers
* ``gibbs``      -- the fully conjugate Gibbs sampler and chain diagnostics
* ``risklab``    -- losses, Monte Carlo risk comparisons, benchmark scenarios
* ``cli``        -- the ``nmshrink`` command-line harness
"""

# The release in pyproject.toml; `nmshrink --version` and every `repro`
# manifest report it, also when the package runs from its source tree.
__version__ = "0.1.0"

from .estimators import (
    dirichlet_posterior_mean,
    eb,
    eb0,
    eb_delta_rule,
    hb,
    hb_posterior_mean,
    shrink_general,
    umvu,
)
from .kernel import (
    ConditionError,
    GChoice,
    PriorSpec,
    QuadratureError,
    delta_hb,
    delta_nu,
    log_kernel,
)
from .model import (
    CountMatrix,
    GeneralizedDirichlet,
    ModelParams,
    ProbColumn,
    make_rng,
    nm_log_pmf,
    nm_moments,
    nm_sample,
)
from .risklab import (
    RiskReport,
    Scenario,
    compare,
    hudson_check,
    loss_kl,
    loss_ss,
    prial,
    scenario_presets,
)

__all__ = [
    "CountMatrix",
    "ConditionError",
    "GChoice",
    "GeneralizedDirichlet",
    "ModelParams",
    "PriorSpec",
    "ProbColumn",
    "QuadratureError",
    "RiskReport",
    "Scenario",
    "compare",
    "delta_hb",
    "delta_nu",
    "dirichlet_posterior_mean",
    "eb",
    "eb0",
    "eb_delta_rule",
    "hb",
    "hb_posterior_mean",
    "hudson_check",
    "log_kernel",
    "loss_kl",
    "loss_ss",
    "make_rng",
    "nm_log_pmf",
    "nm_moments",
    "nm_sample",
    "prial",
    "scenario_presets",
    "shrink_general",
    "umvu",
]
