"""Exact dominance and propriety condition checks.

Run:  python demos/04_dominance_audit.py
"""

import numpy as np

from nmshrink import GChoice, PriorSpec
from nmshrink.audit import (
    check_prior_propriety,
    check_shrinkage_conditions,
    dominance_table,
    eb_dominance_conditions,
    hb_dominance_conditions,
    jeffreys_prior,
    kl_dominance_conditions,
)
from nmshrink.estimators import eb_delta_rule
from nmshrink.kernel import posterior_proper

g1 = GChoice.constant_one()

# The three benchmark cases: which estimators provably beat the unbiased one.
print("case  EB0  EB  HB")
for row in dominance_table():
    marks = ["+" if row[k] else "-" for k in ("EB0", "EB", "HB")]
    print(f"({row['case']:>3})   {marks[0]}    {marks[1]}   {marks[2]}")

# The empirical Bayes condition is a bare threshold on (m, r).
print("\nempirical Bayes dominance needs m >= 7 and r >= 5/2:")
for m, r in [(7, 2.5), (7, 8.0), (3, 4.0), (6, 100.0)]:
    print(f"  m={m:2d} r={r:5.1f}: {eb_dominance_conditions(m, r).holds}")

# The general shrinkage-rule conditions can be swept mechanically.
rule = eb_delta_rule(7, 3, 2.5)
rep = check_shrinkage_conditions(rule, r=2.5, m=7, n=3, z_max=10_000)
print(f"\npooled-EB rule passes the shrinkage conditions to z=10^4: "
      f"{rep.holds_up_to_z_max}")
rep = check_shrinkage_conditions(lambda z: 50.0, r=2.5, m=7, n=1, z_max=10_000)
print(f"an oversized constant rule fails first at z = {rep.first_violation}")

# Hierarchical dominance couples alpha to the loss dimension.
print("\nhierarchical dominance, alpha + 1 <= min(n(m-2), nm/2 + beta r):")
for alpha in (10.0, 14.0, 15.0):
    holds = hb_dominance_conditions(alpha, 1.0, g1, 8.0, 7, 3).holds
    print(f"  alpha={alpha}: {holds}")
# Each condition set comes with the text `nmshrink audit` prints.
verdict = hb_dominance_conditions(15.0, 1.0, g1, 8.0, 7, 3)
print(f"  {verdict.text}; failing: "
      f"{[name for name, ok in verdict.conditions.items() if not ok]}")

# Propriety: an improper prior can still give a proper posterior.
prior = PriorSpec(6.0, 1.0, g1, -7.0, np.ones(7))
verdict = check_prior_propriety(prior, 3)
print(f"\na0=-7 prior proper? {verdict.holds}; "
      f"posterior proper at r=8? {posterior_proper(prior, 3, 8.0)}")
print("reasons:", verdict.text)

# Positive-loss dominance with the information-based default weights.
jp = jeffreys_prior(9)
print("\nposterior-mean dominance at m=9, n=N=3, r=5, alpha=5:",
      kl_dominance_conditions(5.0, 1.0, g1, jp.a0, jp.a, 5.0, 3, 3).holds)
