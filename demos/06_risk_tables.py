"""Monte Carlo risk comparison on the benchmark scenarios.

Every estimator sees the same replication stream (common random numbers),
so improvement percentages are comparable and reruns are bit-identical.

Run:  python demos/06_risk_tables.py
"""

import numpy as np

from nmshrink.audit import jeffreys_prior
from nmshrink.model import ModelParams
from nmshrink.risklab import (
    case_table,
    compare,
    hudson_check,
    make_estimator,
    scenario_presets,
)

REPS, SEED = 400, 42

for case in ("i", "ii", "iii"):
    print(f"\ncase ({case}), {REPS} replications, squared-error loss:")
    print(f"  {'truth':>6} {'U':>7} {'EB0':>7} {'EB':>7} {'HB':>7}   (improvement % vs U)")
    for row in case_table(case, reps=REPS, seed=SEED):
        print(
            f"  {row['truth']:>6} {row['U']:7.3f} {row['EB0']:7.3f}"
            f" {row['EB']:7.3f} {row['HB']:7.3f}   "
            f"({row['EB0_prial']:5.2f}, {row['EB_prial']:5.2f}, "
            f"{row['HB_prial']:5.2f})"
        )

# Positive-estimate loss: the hierarchical posterior mean against the plain
# Dirichlet posterior mean under the information-based default weights.
jp = jeffreys_prior(9)
truth = ModelParams.from_matrix(5.0, np.full((9, 3), 1.0 / 18.0))
reports = compare(
    {
        "dir-pm": make_estimator("dir-pm", a0=jp.a0, a=jp.a),
        "hb-pm": make_estimator("hb-pm", alpha=5.0, a0=jp.a0, a=jp.a),
    },
    truth,
    loss="kl",
    reps=1000,
    seed=SEED,
    reference="dir-pm",
)
print("\npositive-estimate loss, m=9, N=3:")
for name, rep in reports.items():
    extra = (
        ""
        if rep.prial_vs_reference is None
        else f"  improvement {rep.prial_vs_reference:.2f}%"
    )
    print(f"  {name}: risk {rep.risk:.4f} +/- {rep.mc_stderr:.4f}{extra}")

# The summation-by-parts identity behind the risk analysis, checked exactly,
# also on a full benchmark truth (case i-1: m = 7, N = 3).
p = ModelParams.from_matrix(2.0, np.array([[0.4]]))
rep = hudson_check("indicator", p, 0, 0, tol=1e-8)
print(f"\nsummation-by-parts identity: lhs={rep.lhs:.10f} rhs={rep.rhs:.10f}")
case_i1 = scenario_presets()[0].params
for kind in ("indicator", "linear-in-one-count"):
    rep = hudson_check(kind, case_i1, 6, 2, tol=1e-8)
    print(f"  i-1, {kind}: lhs={rep.lhs:.10f} rhs={rep.rhs:.10f} passed={rep.passed}")
