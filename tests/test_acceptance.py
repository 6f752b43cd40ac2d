"""Acceptance suite: go/no-go checks C1-C10 (and C8b) at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Heavy Monte Carlo runs are shared between criteria via
module-scoped fixtures; everything is seeded, so the printed numbers
are bit-reproducible.
"""

import math
import time
import warnings

import numpy as np
import pytest

from crtnd import (
    NullSpec,
    ParallelScheme,
    PeriodPotentialTable,
    PotentialTable,
    SteppedWedgeScheme,
    covariate_adjusted_estimate,
    default_parallel_scenario,
    default_sw_scenario,
    derive_rng,
    dose_response_estimate,
    enumerate_assignments,
    evaluate,
    log_contrast_estimate,
    permutation_test,
    realize,
    sw_oracle_covariance,
    tpf_expected,
    tpf_solve,
)
from crtnd.estimators import odds_ratio_log
from crtnd.stepped_wedge import _period_differences, optimal_weights

from conftest import make_records


def _report(cid: str, message: str) -> None:
    print(f"\n[{cid}] PASS  {message}")


def _oracle_m6(lam: float, couple_c: bool = False) -> PotentialTable:
    rng = np.random.default_rng(42)
    y0 = rng.uniform(20, 120, size=6)
    z0 = rng.uniform(60, 300, size=6)
    if couple_c:
        ratio = y0 / z0
        c = 0.25 + 1.5 * (ratio - ratio.min()) / (ratio.max() - ratio.min())
    else:
        c = rng.uniform(0.3, 1.6, size=6)
    x = rng.uniform(0.8, 2.5, size=(6, 1))
    return PotentialTable(lam=lam, y0=y0, z0=z0, c=c, covariates=x)


@pytest.fixture(scope="module")
def parallel_null_run():
    """Shared 10,000-replicate run of the shipped scenario at lam = 1."""
    scen = default_parallel_scenario(lam=1.0, n_replicates=10_000, seed=1)
    start = time.perf_counter()
    rows = evaluate(scen, permutation_por=True, perm_draws=999)
    elapsed = time.perf_counter() - start
    return {row.estimator: row for row in rows}, elapsed


@pytest.fixture(scope="module")
def sw_null_run():
    """Shared 5,000-replicate run of the shipped SW scenario at lam = 1."""
    scen = default_sw_scenario(lam=1.0, n_replicates=5_000, seed=1)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = evaluate(scen, permutation_por=False)
    elapsed = time.perf_counter() - start
    return {row.estimator: row for row in rows}, elapsed


def test_c01_exact_unbiasedness_oracle():
    start = time.perf_counter()
    worst_mean = worst_var = 0.0
    for lam in (1.0, 0.6, 0.2):
        table = _oracle_m6(lam)
        ests, vars_ = [], []
        for a in enumerate_assignments(ParallelScheme(6, 3)):
            rep = log_contrast_estimate(realize(table, a))
            ests.append(rep.log_estimate)
            vars_.append(rep.se_log**2)
        ests = np.asarray(ests)
        assert len(ests) == 20
        mean_err = abs(ests.mean() - math.log(lam))
        var_err = abs(np.mean(vars_) - ests.var(ddof=0))
        assert mean_err < 1e-12
        assert var_err < 1e-10
        worst_mean = max(worst_mean, mean_err)
        worst_var = max(worst_var, var_err)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        "C1",
        f"enumeration mean error {worst_mean:.2e} (<1e-12), variance-estimator "
        f"error {worst_var:.2e} (<1e-10), runtime {elapsed:.2f}s (<1s)",
    )


def test_c02_odds_ratio_bias_reproduction():
    lam = 0.6
    table = _oracle_m6(lam, couple_c=True)
    logs, expr = [], []
    for a in enumerate_assignments(ParallelScheme(6, 3)):
        logs.append(odds_ratio_log(realize(table, a)))
        arms = a.astype(bool)
        num = (table.c[arms] * table.y0[arms]).sum() / table.y0[~arms].sum()
        den = (table.c[arms] * table.z0[arms]).sum() / table.z0[~arms].sum()
        expr.append(math.log(num) - math.log(den))
    bias = np.mean(logs) - math.log(lam)
    assert abs(bias - np.mean(expr)) < 1e-10
    assert abs(bias) > 0.05
    _report(
        "C2",
        f"enumeration odds-ratio bias {bias:+.4f} (decisively nonzero under "
        f"ratio-coupled ascertainment), matches the analytic bias "
        f"expression to {abs(bias - np.mean(expr)):.2e} (<1e-10)",
    )


def test_c03_tpf_round_trip():
    start = time.perf_counter()
    worst = 0.0
    for lam in np.linspace(0.05, 20, 50):
        for r in np.linspace(0.1, 50, 50):
            lam_hat = tpf_solve(tpf_expected(lam, r), r)
            worst = max(worst, abs(lam_hat - lam) / lam)
    assert worst < 1e-8
    for r in (0.1, 1.0, 3.0, 50.0):
        assert tpf_solve(0.0, r) == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        "C3",
        f"50x50 grid worst relative error {worst:.2e} (<1e-8); T=0 maps to "
        f"lam=1 exactly; runtime {elapsed:.2f}s (<1s)",
    )


def test_c04_null_calibration(parallel_null_run):
    rows, elapsed = parallel_null_run
    lc = rows["log_contrast"]
    assert lc.n_effective == 10_000
    assert 0.94 <= lc.cp <= 0.96
    assert 0.04 <= lc.por_perm <= 0.06
    assert elapsed < 300.0
    _report(
        "C4",
        f"log-contrast CP {lc.cp:.4f} in [0.94, 0.96]; randomization-test "
        f"rejection rate {lc.por_perm:.4f} in [0.04, 0.06]; "
        f"10,000 replicates in {elapsed:.0f}s (<300s)",
    )


def test_c05_covariate_adjustment_gain(parallel_null_run):
    rows, _ = parallel_null_run
    lc, ca = rows["log_contrast"], rows["covariate_adjusted"]
    reduction = 1.0 - (ca.se / lc.se) ** 2
    assert ca.se < lc.se
    assert reduction >= 0.10

    # enumeration identity on the m=6 oracle with the variance-minimizing
    # coefficient: Var(unadj) = Var(adj) + m/(m1 m0) beta*' V(X) beta*
    table = _oracle_m6(1.0)
    l0 = table.l0()
    x = table.covariates
    vx = np.cov(x.T, ddof=1).reshape(1, 1)
    cxl = np.atleast_1d(((x - x.mean(0)).T @ (l0 - l0.mean())) / (table.m - 1))
    beta_star = np.linalg.solve(vx, cxl)
    adj, una = [], []
    for a in enumerate_assignments(ParallelScheme(6, 3)):
        recs = realize(table, a)
        una.append(log_contrast_estimate(recs).log_estimate)
        rep, _ = covariate_adjusted_estimate(recs, beta=beta_star)
        adj.append(rep.log_estimate)
    adj, una = np.asarray(adj), np.asarray(una)
    penalty = (6 / 9) * float(beta_star @ vx @ beta_star)
    identity_err = abs(una.var(ddof=0) - adj.var(ddof=0) - penalty)
    assert identity_err < 1e-10
    _report(
        "C5",
        f"simulated variance reduction {reduction:.1%} (>=10%, adjusted SE "
        f"{ca.se:.4f} < unadjusted {lc.se:.4f}); enumeration decomposition "
        f"error {identity_err:.2e} (<1e-10)",
    )


# The fraction statistic's bias at lam = 1 on the shipped scenario (its
# seed-1 ascertainments) with its Monte Carlo SE, from 100,000 replicates:
# not 0, since with cluster-varying ascertainment the pooled ratio r
# depends on the assignment
TPF_NULL_BIAS, TPF_NULL_BIAS_SE = -0.0095, 0.0009


def test_c06_tpf_bias_pattern(parallel_null_run):
    rows, _ = parallel_null_run
    tpf_null = rows["tpf"]
    mc_se_null = tpf_null.se / math.sqrt(tpf_null.n_effective)
    within = 3 * math.hypot(mc_se_null, TPF_NULL_BIAS_SE)
    assert abs(tpf_null.bias - TPF_NULL_BIAS) < within

    biases = {}
    for lam in (0.6, 0.2):
        scen = default_parallel_scenario(lam=lam, n_replicates=5_000, seed=1)
        row = evaluate(scen, ("tpf",), permutation_por=False)[0]
        biases[lam] = (row.bias, row.se / math.sqrt(row.n_effective))
    assert abs(biases[0.6][0]) + 3 * biases[0.6][1] < abs(biases[0.2][0])
    _report(
        "C6",
        f"fraction-statistic bias {tpf_null.bias:+.4f} at lam=1 (within 3 "
        f"combined MC SE = {within:.4f} of the 100,000-replicate "
        f"{TPF_NULL_BIAS:+.4f}); |bias| rises {abs(biases[0.6][0]):.4f} "
        f"-> {abs(biases[0.2][0]):.4f} from lam=0.6 to lam=0.2",
    )


def test_c07_stepped_wedge_oracle(sw_null_run):
    start = time.perf_counter()
    scheme = SteppedWedgeScheme(4, (1, 2, 1))
    worst_mean = worst_var = 0.0
    for lam in (1.0, 0.6, 0.2):
        table_seeded = np.random.default_rng(11)
        table = PeriodPotentialTable(
            lam=lam,
            y0=table_seeded.uniform(10, 60, size=(4, 3)),
            z0=table_seeded.uniform(20, 90, size=(4, 3)),
            c=table_seeded.uniform(0.3, 1.7, size=(4, 3)),
        )
        oracle = sw_oracle_covariance(table.l0(), scheme)
        w_eq = np.array([0.5, 0.5])
        w_opt = np.array(optimal_weights(oracle, kind="optimal_oracle").w)
        diffs = []
        for a in enumerate_assignments(scheme):
            panel = realize(table, a)
            lmat = panel.log_contrast_matrix()
            diffs.append(
                _period_differences(
                    lmat, np.asarray(panel.start_periods), panel.analysis_periods
                )
            )
        diffs = np.asarray(diffs)
        for w in (w_eq, w_opt):
            ests = diffs @ w
            worst_mean = max(worst_mean, abs(ests.mean() - math.log(lam)))
            worst_var = max(
                worst_var, abs(ests.var(ddof=0) - float(w @ oracle.sigma @ w))
            )
        assert worst_mean < 1e-12
        assert worst_var < 1e-10
        var_opt = float(w_opt @ oracle.sigma @ w_opt)
        var_eq = float(w_eq @ oracle.sigma @ w_eq)
        assert var_opt <= var_eq + 1e-15
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0

    rows, _ = sw_null_run
    eq, opt = rows["sw_equal"], rows["sw_optimal"]
    shipped_reduction = 1.0 - (opt.se / eq.se) ** 2
    assert opt.se <= eq.se
    assert shipped_reduction >= 0.05
    _report(
        "C7",
        f"enumeration mean error {worst_mean:.2e} (<1e-12) and weighted-"
        f"variance error {worst_var:.2e} (<1e-10) for equal and optimal "
        f"weights; shipped-scenario optimal-weight variance reduction "
        f"{shipped_reduction:.1%} (>=5%); oracle runtime {elapsed:.2f}s (<10s)",
    )


def test_c08_sw_null_calibration(sw_null_run):
    rows, elapsed = sw_null_run
    eq, opt = rows["sw_equal"], rows["sw_optimal"]
    assert eq.n_effective == 5_000
    assert 0.93 <= eq.cp <= 0.96
    assert 0.93 <= opt.cp <= 0.96
    assert elapsed < 600.0
    _report(
        "C8",
        f"stepped-wedge CP {eq.cp:.4f} (equal) and {opt.cp:.4f} (optimal) in "
        f"[0.93, 0.96]; 5,000 replicates in {elapsed:.0f}s (<600s)",
    )


def test_c08b_sw_permutation_calibration():
    # C8 runs without the permutation column: check its size here, with
    # the relabelings shared by each chunk of replicates
    scen = default_sw_scenario(lam=1.0, n_replicates=2_000, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = {row.estimator: row for row in evaluate(scen, perm_draws=999)}
    rates = [rows[name].por_perm for name in ("sw_equal", "sw_optimal")]
    # about 4 binomial standard errors around 0.05 at 2,000 replicates
    assert all(0.03 <= rate <= 0.07 for rate in rates)
    _report(
        "C8b",
        f"stepped-wedge randomization-test rejection rate {rates[0]:.4f} "
        f"(equal) and {rates[1]:.4f} (optimal) in [0.03, 0.07], 2,000 replicates",
    )


def test_c09_dose_response_reduction_and_recovery():
    # reduction: doses identical to arms collapse the dose model onto the
    # log-contrast estimator
    rng = np.random.default_rng(13)
    arms = np.array([1] * 6 + [0] * 6)
    l0 = rng.normal(0.3, 0.4, 12)
    lam = 0.6
    lvals = l0 + arms * math.log(lam)
    recs = make_records(lvals, arms, doses=arms)
    dr = dose_response_estimate(recs, adjustment="none")
    lc = log_contrast_estimate(recs)
    reduction_err = abs(dr.log_estimate - lc.log_estimate)
    assert reduction_err < 1e-9

    # recovery: linear dose effect anchored at beta = -3.42
    beta_true = -3.42
    m, m1, n_rep = 24, 12, 1000
    biases, covered = [], 0
    for rep in range(n_rep):
        rrng = derive_rng(777, rep)
        a = np.zeros(m, dtype=int)
        a[rrng.choice(m, m1, replace=False)] = 1
        doses = np.where(
            a == 1, rrng.uniform(0.66, 0.75, m), rrng.uniform(0.22, 0.44, m)
        )
        lv = rrng.normal(0.5, 0.35, m) + beta_true * doses
        data = make_records(lv, a, z=1000.0, doses=doses)
        est = dose_response_estimate(data, adjustment="none")
        biases.append(est.log_estimate - beta_true)
        covered += est.ci_low <= beta_true <= est.ci_high
    biases = np.asarray(biases)
    mc_se = biases.std(ddof=1) / math.sqrt(n_rep)
    coverage = covered / n_rep
    assert abs(biases.mean()) < 3 * mc_se
    assert coverage >= 0.93
    _report(
        "C9",
        f"perfect-compliance reduction error {reduction_err:.2e} (<1e-9); "
        f"mean bias {biases.mean():+.4f} within 3 MC SE ({3 * mc_se:.4f}) of "
        f"the -3.42 anchor; test-inversion CI coverage {coverage:.3f} (>=0.93)",
    )


def test_c10_exact_test_super_uniformity():
    start = time.perf_counter()
    lam = 0.6
    table = _oracle_m6(lam)
    scheme = ParallelScheme(6, 3)
    total = scheme.total_assignments
    pvals = []
    for a in enumerate_assignments(scheme):
        recs = realize(table, a)
        res = permutation_test(recs, NullSpec("relative_risk", lam), mode="exact")
        pvals.append(res.p_two_sided)
    pvals = np.asarray(pvals)
    for k in range(1, total + 1):
        alpha = k / total
        assert np.mean(pvals <= alpha + 1e-12) <= alpha + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        "C10",
        f"double enumeration (20x20): P(p <= a) <= a at all {total} attainable "
        f"levels; runtime {elapsed:.2f}s (<1s)",
    )
