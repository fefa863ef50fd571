"""Acceptance criteria, one test per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Tolerances and runtime budgets are fixed here, not tuned.
"""

import itertools
import math
import time

import numpy as np
from scipy.special import gammaln

from nmshrink.audit import (
    check_prior_propriety,
    dominance_table,
    jeffreys_prior,
)
from nmshrink.gibbs import ChainConfig, run_posterior
from nmshrink.kernel import GChoice, PriorSpec, delta_hb, delta_nu
from nmshrink.model import CountMatrix, ModelParams, ProbColumn, nm_log_pmf
from nmshrink.risklab import (
    CASES,
    _sample_stack,
    case_table,
    compare,
    hudson_check,
    make_estimator,
)

G1 = GChoice.constant_one()
SEED = 42


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_dominance_table():
    start = time.perf_counter()
    rows = dominance_table()
    elapsed = time.perf_counter() - start
    pattern = [(r["EB0"], r["EB"], r["HB"]) for r in rows]
    expected = [(True, True, True), (False, False, True), (False, False, False)]
    ok = pattern == expected and elapsed < 1.0
    marks = ["".join("+" if flag else "-" for flag in row) for row in pattern]
    assert report(1, ok, f"pattern={marks} runtime={elapsed:.3f}s")


def test_criterion_2_case_i_risks():
    start = time.perf_counter()
    rows = case_table("i", reps=1000, seed=SEED)
    elapsed = time.perf_counter() - start
    by_truth = {r["truth"]: r for r in rows}
    u_ok = abs(by_truth["i-1"]["U"] - 0.32) <= 0.04
    eb_ok = abs(by_truth["i-1"]["EB"] - 0.29) <= 0.04
    order_ok = all(
        r["EB"] <= r["EB0"] <= r["U"] and r["HB"] <= r["U"] for r in rows
    )
    ok = u_ok and eb_ok and order_ok and elapsed < 120.0
    assert report(
        2,
        ok,
        f"U(i-1)={by_truth['i-1']['U']:.3f} EB(i-1)={by_truth['i-1']['EB']:.3f} "
        f"orderings={'ok' if order_ok else 'violated'} runtime={elapsed:.1f}s",
    )


def test_criterion_3_case_ii_risks():
    start = time.perf_counter()
    rows = case_table("ii", reps=1000, seed=SEED)
    elapsed = time.perf_counter() - start
    by_truth = {r["truth"]: r for r in rows}
    u_ok = abs(by_truth["ii-2"]["U"] - 1.44) <= 0.10
    prial_ok = all(r["EB_prial"] > 0 for r in rows)
    ok = u_ok and prial_ok and elapsed < 120.0
    assert report(
        3,
        ok,
        f"U(ii-2)={by_truth['ii-2']['U']:.3f} "
        f"EB prials={[round(r['EB_prial'], 2) for r in rows]} runtime={elapsed:.1f}s",
    )


def test_criterion_4_case_iii_risks():
    # The hierarchical-Bayes improvement thresholds (>= 20 for iii-1/iii-3)
    # are inherited from simulations whose zero-count entries were finite
    # chain averages of an infinite posterior moment rather than the exact
    # rule's zeros; the exact estimator's improvement is lower.  The
    # criterion is asserted as stated.
    start = time.perf_counter()
    rows = case_table("iii", reps=1000, seed=SEED)
    elapsed = time.perf_counter() - start
    by_truth = {r["truth"]: r for r in rows}
    hb_ok = (
        by_truth["iii-1"]["HB_prial"] >= 20.0
        and by_truth["iii-3"]["HB_prial"] >= 20.0
    )
    eb0_ok = by_truth["iii-1"]["EB0_prial"] < 0.0
    ok = hb_ok and eb0_ok and elapsed < 300.0
    assert report(
        4,
        ok,
        f"HB prial iii-1={by_truth['iii-1']['HB_prial']:.2f} "
        f"iii-3={by_truth['iii-3']['HB_prial']:.2f} (need >= 20) "
        f"EB0 prial iii-1={by_truth['iii-1']['EB0_prial']:.2f} (need < 0) "
        f"runtime={elapsed:.1f}s",
    )


def test_criterion_5_kernel_vs_gibbs():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_rel = 0.0
    min_ess = math.inf
    for k in range(10):
        case = CASES["i" if k % 2 == 0 else "ii"]
        truths = list(case.truths.values())
        truth, alpha = truths[int(rng.integers(len(truths)))], case.alpha
        r, m, n_cols = truth.r, truth.m, truth.n_columns
        x = CountMatrix(_sample_stack(truth, SEED, range(100 + k, 101 + k))[0])

        # column-sum ratio against the posterior mean of t
        prior_ss = PriorSpec(alpha, 1.0, G1, -float(m), np.ones(m))
        chain = run_posterior(
            x, r, prior_ss, ChainConfig(n_iter=45_000, burn_in=5_000, seed=200 + k)
        )
        ess_t = chain.ess_t()
        d_mc = chain.delta_ss()
        d_quad = delta_hb(alpha, 1.0, G1, r, m, x.col_sums)
        rel = abs(d_mc / d_quad - 1.0)

        # per-column ratio against the weighted posterior moment
        a0 = float(rng.choice([0.0, 0.5, (1.0 - m) / 2.0]))
        a = rng.uniform(0.5, 1.5, size=m)
        prior_kl = PriorSpec(alpha, 1.0, G1, a0, a)
        chain2 = run_posterior(
            x, r, prior_kl, ChainConfig(n_iter=45_000, burn_in=5_000, seed=300 + k)
        )
        nu = int(rng.integers(n_cols))
        d_mc2 = chain2.delta_kl(nu)
        d_quad2 = delta_nu(alpha, 1.0, G1, r, a0, float(a.sum()), x.col_sums, nu)
        rel2 = abs(d_mc2 / d_quad2 - 1.0)

        worst_rel = max(worst_rel, rel, rel2)
        min_ess = min(min_ess, ess_t, chain2.ess_t())
    elapsed = time.perf_counter() - start
    ok = worst_rel < 0.02 and min_ess >= 5_000 and elapsed < 180.0
    assert report(
        5,
        ok,
        f"worst relative gap={worst_rel:.4f} (limit 0.02) min ESS={min_ess:.0f} "
        f"runtime={elapsed:.1f}s",
    )


def test_criterion_6_hudson_identity():
    start = time.perf_counter()
    configs = []
    for r in (2.0, 2.5):
        for p in (0.2, 0.4, 0.6):
            configs.append((ModelParams(r, (ProbColumn(np.array([p])),)), 0, 0))
        for pv in ((0.15, 0.2), (0.3, 0.3), (0.1, 0.5)):
            configs.append(
                (ModelParams(r, (ProbColumn(np.array(pv)),)), 1, 0)
            )
        for pa, pb in (((0.3,), (0.4,)), ((0.2,), (0.2,)), ((0.45,), (0.1,))):
            configs.append(
                (
                    ModelParams(
                        r, (ProbColumn(np.array(pa)), ProbColumn(np.array(pb)))
                    ),
                    0,
                    1,
                )
            )
    failures = []
    for truth, i, nu in configs:
        for kind in ("indicator", "linear-in-one-count"):
            rep = hudson_check(kind, truth, i, nu, tol=1e-8)
            if not rep.passed:
                failures.append((kind, truth.r, i, nu, rep))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    assert report(
        6,
        ok,
        f"{2 * len(configs)} enumeration checks at 1e-8, failures={len(failures)} "
        f"runtime={elapsed:.1f}s",
    )


def _monotone_on_grid(values: dict, width: int, n_cols: int) -> bool:
    for z in itertools.product(range(width), repeat=n_cols):
        for nu in range(n_cols):
            z_up = list(z)
            z_up[nu] += 1
            if values[z] < values[tuple(z_up)] - 1e-10:
                return False
    return True


def test_criterion_7_property_suites():
    start = time.perf_counter()
    details = []

    # -- shrinkage-amount monotonicity on full grids, N <= 3
    mono_ok = True
    r, m, alpha = 4.0, 3, 6.0
    for n_cols in (1, 2, 3):
        grid = {
            z: delta_hb(alpha, 1.0, G1, r, m, np.array(z))
            for z in itertools.product(range(8), repeat=n_cols)
        }
        mono_ok &= _monotone_on_grid(grid, 7, n_cols)
    a0, a_dot = -1.0, 1.5
    for n_cols in (1, 2, 3):
        for nu in range(n_cols):
            grid = {
                z: delta_nu(alpha, 1.0, G1, r, a0, a_dot, np.array(z), nu)
                for z in itertools.product(range(8), repeat=n_cols)
            }
            mono_ok &= _monotone_on_grid(grid, 7, n_cols)
    details.append(f"monotone grids={'ok' if mono_ok else 'violated'}")

    # -- vanishing trends as one column grows
    trend_ok = True
    vals = [
        delta_hb(6.0, 1.0, G1, 2.0, 1, np.array([k, 2, 2, 2, 2, 2, 2]))
        for k in (10, 100, 1000)
    ]
    trend_ok &= vals[0] > vals[1] > vals[2]
    vals = [
        delta_nu(6.0, 1.0, G1, 4.0, -1.0, 1.5, np.array([3 + k, 1, 2]), 1)
        for k in (10, 100, 1000)
    ]
    trend_ok &= vals[0] > vals[1] > vals[2]
    details.append(f"vanishing trend={'ok' if trend_ok else 'violated'}")

    # -- unbiasedness of the basic estimator by truncated enumeration
    r1, p1 = 2.0, 0.5
    ks = np.arange(401)
    log_pmf = (
        gammaln(r1 + ks) - gammaln(r1) - gammaln(ks + 1.0)
        + r1 * math.log(1 - p1) + ks * math.log(p1)
    )
    expectation = float(
        (np.exp(log_pmf) * np.where(ks >= 1, ks / (r1 + ks - 1.0), 0.0)).sum()
    )
    unbiased_ok = abs(expectation - p1) < 1e-8
    details.append(f"unbiasedness gap={abs(expectation - p1):.2e}")

    # -- pmf normalization
    col = ProbColumn(np.array([0.3]))
    total = sum(
        math.exp(nm_log_pmf(np.array([k]), 1.5, col)) for k in range(201)
    )
    norm_ok = abs(total - 1.0) < 1e-9
    details.append(f"pmf normalization gap={abs(total - 1.0):.2e}")

    # -- propriety verdicts vs observed truncated-integral growth
    def probe_log_integral(prior, n_cols, lo, hi):
        y = np.linspace(math.log(lo), math.log(hi), 40_001)
        t = np.exp(y)
        lf = (
            prior.alpha * y
            - prior.beta * t
            + prior.g.log_g(t)
            + n_cols * (gammaln(t + prior.a0) - gammaln(t + prior.a0 + prior.a_dot))
        )
        peak = lf.max()
        return peak + math.log(np.trapezoid(np.exp(lf - peak), y))

    rng = np.random.default_rng(7)
    verdict_ok = True
    checked = 0
    while checked < 20:
        n_cols = int(rng.integers(1, 4))
        a = rng.uniform(0.4, 2.0, size=int(rng.integers(1, 4)))
        a0 = float(rng.choice([0.0, 0.5, 1.5]))
        beta = float(rng.choice([0.0, 1.0]))
        g = G1 if rng.random() < 0.7 else GChoice.komaki(1.0, 1.0)
        alpha = float(rng.uniform(0.5, 12.0))
        # keep a 0.75 margin from the convergence boundaries so the probe
        # can discriminate growth from a plateau
        if beta == 0 and abs(alpha - n_cols * a.sum()) < 0.75:
            continue
        if a0 == 0 and abs(alpha + g.small_t_exponent - n_cols) < 0.75:
            continue
        prior = PriorSpec(alpha, beta, g, a0, a)
        predicted = check_prior_propriety(prior, n_cols).holds
        i_mid = probe_log_integral(prior, n_cols, 1e-4, 1e4)
        i_wide = probe_log_integral(prior, n_cols, 1e-6, 1e6)
        observed_convergent = (i_wide - i_mid) < 0.1
        if predicted != observed_convergent:
            verdict_ok = False
        checked += 1
    details.append(f"propriety-vs-probe={'ok' if verdict_ok else 'mismatch'}")

    elapsed = time.perf_counter() - start
    ok = mono_ok and trend_ok and unbiased_ok and norm_ok and verdict_ok
    assert report(7, ok, "; ".join(details) + f"; runtime={elapsed:.1f}s")


def test_criterion_8_kl_dominance_property():
    start = time.perf_counter()
    m, n_cols, n, r, alpha = 9, 3, 3, 5.0, 5.0
    jp = jeffreys_prior(m)
    truth = ModelParams.from_matrix(r, np.full((m, n_cols), 1.0 / 18.0))
    fns = {
        "dir-pm": make_estimator("dir-pm", a0=jp.a0, a=jp.a),
        "hb-pm": make_estimator("hb-pm", alpha=alpha, beta=1.0, a0=jp.a0, a=jp.a),
    }
    reports = compare(
        fns, truth, loss="kl", n=n, reps=5000, seed=SEED, reference="dir-pm"
    )
    pooled = math.hypot(reports["dir-pm"].mc_stderr, reports["hb-pm"].mc_stderr)
    elapsed = time.perf_counter() - start
    ok = reports["hb-pm"].risk <= reports["dir-pm"].risk + 2 * pooled
    assert report(
        8,
        ok,
        f"risk(hb-pm)={reports['hb-pm'].risk:.4f} vs "
        f"risk(dir-pm)={reports['dir-pm'].risk:.4f} + 2*{pooled:.4f} "
        f"runtime={elapsed:.1f}s",
    )
