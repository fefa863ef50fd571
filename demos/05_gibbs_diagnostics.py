"""Posterior simulation with the conjugate Gibbs sampler.

The chain runs on the latent scale t alone: each step draws the leftover
masses p0 | t from their Beta laws and then t | p0 from its gamma law.  The
probability columns are drawn exactly from their Dirichlet laws given t at
the kept iterations.  The t-averages cross-check the deterministic kernel
ratios.

Run:  python demos/05_gibbs_diagnostics.py
"""

import numpy as np

from nmshrink import CountMatrix, GChoice, PriorSpec, delta_hb, delta_nu
from nmshrink.gibbs import ChainConfig, run_posterior

g1 = GChoice.constant_one()
r = 8.0
x = CountMatrix(np.array([
    [12,  7,  9],
    [ 4,  2, 11],
    [ 9,  8,  6],
    [ 7, 13,  3],
    [10,  6,  8],
    [ 5,  9, 12],
    [ 8, 11,  7],
]))

# Squared-error geometry: prior exponent -m with unit Dirichlet weights.
prior = PriorSpec(14.0, 1.0, g1, -7.0, np.ones(7))
cfg = ChainConfig(n_iter=60_000, burn_in=10_000, seed=1)
chain = run_posterior(x, r, prior, cfg)

print(f"kept draws: {chain.t.size},  effective sample size of t: "
      f"{chain.ess_t():.0f}")
print(f"posterior mean of t:    {chain.t.mean():.5f}")
print(f"deterministic ratio:    {delta_hb(14.0, 1.0, g1, r, 7, x.col_sums):.5f}")

# Posterior-mean geometry: weighted t-moments match the per-column ratios.
prior2 = PriorSpec(5.0, 1.0, g1, -3.0, np.full(7, 0.5))
chain2 = run_posterior(x, r, prior2, cfg)
print("\nper-column ratios, chain vs quadrature:")
for nu in range(x.n_columns):
    mc = chain2.delta_kl(nu)
    quad = delta_nu(5.0, 1.0, g1, r, -3.0, 3.5, x.col_sums, nu)
    print(f"  column {nu}: {mc:.5f} vs {quad:.5f}")

print("\nposterior mean of p, first column:",
      np.round(chain2.posterior_mean_p()[:, 0], 4))
