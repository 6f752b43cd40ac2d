"""Checks of each operation's output, computed apart from the program.

Every check recomputes what it compares against from the operation's
input with the benchmark's own numpy code (or tests a property the
output must have); nothing is compared with stored output.  Each check
function returns a list of error strings, empty when the output passes.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

TIE_RTOL = 1e-12  # the program's documented tie rule: |T*| >= |T_obs| (1 - 1e-12)
CI_TOL = 1e-6  # bisection tolerance of parallel-arm CI inversion (log scale)
SW_CI_TOL = 1e-4  # bisection tolerance of the stepped-wedge CI scan (log scale)
PARALLEL_METHODS = ("odds_ratio", "tpf", "log_contrast", "covariate_adjusted")
SW_SIM_METHODS = ("sw_equal", "sw_optimal")
UNBIASED = ("log_contrast", "sw_equal", "sw_optimal")


# --------------------------------------------------------------------- #
# Readers
# --------------------------------------------------------------------- #


def read_parallel(path) -> dict:
    """Arrays of a parallel-arm CSV: arm, y, z, x (m, p) and dose (or None)."""
    with Path(path).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    xcols = sorted((k for k in rows[0] if k.startswith("x")), key=lambda k: int(k[1:]))
    dose = [r.get("dose") for r in rows]
    return {
        "arm": np.array([int(r["arm"]) for r in rows], dtype=bool),
        "y": np.array([float(r["y_count"]) for r in rows]),
        "z": np.array([float(r["z_count"]) for r in rows]),
        "x": np.array([[float(r[c]) for c in xcols] for r in rows]).reshape(len(rows), -1),
        "dose": None if None in dose else np.array([float(d) for d in dose]),
    }


def read_wedge(path) -> dict:
    """Start periods (m,) and the (m, T) log-contrast matrix of a panel CSV."""
    with Path(path).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    ids = sorted({r["cluster_id"] for r in rows})
    n_periods = max(int(r["period"]) for r in rows)
    lmat = np.full((len(ids), n_periods), np.nan)
    starts = np.zeros(len(ids), dtype=int)
    for r in rows:
        i = ids.index(r["cluster_id"])
        lmat[i, int(r["period"]) - 1] = math.log(float(r["y_count"])) - math.log(
            float(r["z_count"])
        )
        starts[i] = int(r["start_period"])
    return {"starts": starts, "lmat": lmat}


def read_report(path) -> dict:
    """Results of a JSON report, keyed by method."""
    with Path(path).open() as fh:
        payload = json.load(fh)
    return {res["method"]: res for res in payload["results"]}


def read_csv_rows(path) -> list[dict]:
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


# --------------------------------------------------------------------- #
# Reference computations
# --------------------------------------------------------------------- #


def _close(a, b, rtol, atol=1e-12) -> bool:
    return a is not None and b is not None and abs(a - b) <= atol + rtol * abs(b)


def log_contrast_ref(d: dict) -> tuple[float, float]:
    """Arm-mean difference of L and its SE sqrt(s1^2/m1 + s0^2/m0)."""
    lv = np.log(d["y"]) - np.log(d["z"])
    l1, l0 = lv[d["arm"]], lv[~d["arm"]]
    var = l1.var(ddof=1) / l1.size + l0.var(ddof=1) / l0.size
    return float(l1.mean() - l0.mean()), math.sqrt(var)


def odds_ratio_ref(d: dict) -> float:
    a = d["arm"]
    return math.log(d["y"][a].sum() / d["y"][~a].sum() * d["z"][~a].sum() / d["z"][a].sum())


def adjusted_diff(values: np.ndarray, x: np.ndarray, arm: np.ndarray) -> float:
    """Arm difference of ``values`` less pooled per-arm least-squares slopes
    times the covariate mean difference (weights m_a / m)."""
    slopes = []
    for mask in (arm, ~arm):
        xc = x[mask] - x[mask].mean(axis=0)
        vc = values[mask] - values[mask].mean()
        slopes.append(np.linalg.solve(xc.T @ xc, xc.T @ vc))
    m1, m0 = int(arm.sum()), int((~arm).sum())
    beta = (m1 * slopes[0] + m0 * slopes[1]) / (m1 + m0)
    dx = x[arm].mean(axis=0) - x[~arm].mean(axis=0)
    return float(values[arm].mean() - values[~arm].mean() - beta @ dx)


def tpf_observed(d: dict) -> tuple[float, float]:
    """Arm-mean difference of y/(y+z) and the pooled ratio r = sum z / sum y."""
    frac = d["y"] / (d["y"] + d["z"])
    return float(frac[d["arm"]].mean() - frac[~d["arm"]].mean()), float(
        d["z"].sum() / d["y"].sum()
    )


def tpf_expected(lam: float, r: float) -> float:
    """The paper's expected-fraction map at relative risk lam."""
    return 2.0 * r * (lam * lam - 1.0) / (((2.0 + r) * lam + r) * (r * lam + 2.0 + r))


def exact_p(draws: np.ndarray, observed: float) -> float:
    slack = TIE_RTOL * abs(observed)
    hits = (np.abs(draws) >= abs(observed) - slack) | ~np.isfinite(draws)
    return float(hits.sum()) / draws.size


@lru_cache(maxsize=4)
def combinations(m: int, m1: int) -> np.ndarray:
    """Every 0/1 arm vector with m1 treated of m, one per row."""
    treated = np.array(list(itertools.combinations(range(m), m1)))
    rows = np.zeros((treated.shape[0], m))
    np.put_along_axis(rows, treated, 1.0, axis=1)
    return rows


def distinct_permutations(values) -> np.ndarray:
    """Every distinct ordering of a multiset, one per row."""
    out: list[tuple] = []

    def extend(prefix: list, rest: list) -> None:
        if not rest:
            out.append(tuple(prefix))
            return
        for v in sorted(set(rest)):
            rest.remove(v)
            extend(prefix + [v], rest)
            rest.append(v)

    extend([], list(values))
    return np.array(out)


class ParallelSupport:
    """Brute-force exact p-values over all arm splits of one dataset."""

    def __init__(self, d: dict):
        arm = d["arm"]
        self.m, self.m1 = arm.size, int(arm.sum())
        self.rows = combinations(self.m, self.m1)
        self.arm = arm.astype(float)
        self.lv = np.log(d["y"]) - np.log(d["z"])
        self.t_obs, self.r = tpf_observed(d)
        frac = d["y"] / (d["y"] + d["z"])
        self.frac_draws = self._diff(self.rows @ frac, frac.sum())
        ty, tz = self.rows @ d["y"], self.rows @ d["z"]
        with np.errstate(divide="ignore", invalid="ignore"):
            self.or_draws = (
                np.log(ty) - np.log(d["y"].sum() - ty)
                + np.log(d["z"].sum() - tz) - np.log(tz)
            )
        self.log_or = odds_ratio_ref(d)
        self._rows_l, self._rows_arm = self.rows @ self.lv, self.rows @ self.arm

    def _diff(self, treated_sums, total):
        return treated_sums / self.m1 - (total - treated_sums) / (self.m - self.m1)

    def p_diff_means(self, theta: float) -> float:
        """Exact p of the difference in means of L - arm * theta."""
        l0 = self.lv - self.arm * theta
        draws = self._diff(self._rows_l - theta * self._rows_arm, l0.sum())
        obs = l0[self.arm == 1].mean() - l0[self.arm == 0].mean()
        return exact_p(draws, obs)

    def p_tpf(self, theta: float) -> float:
        return exact_p(self.frac_draws, self.t_obs - tpf_expected(math.exp(theta), self.r))

    def p_odds_ratio(self) -> float:
        return exact_p(self.or_draws, self.log_or)

    def odds_ratio_se(self) -> float:
        finite = self.or_draws[np.isfinite(self.or_draws)]
        return float(finite.std(ddof=1))


class WedgeSupport:
    """Brute-force exact p-values of the equal-weight stepped-wedge statistic."""

    def __init__(self, panel: dict):
        self.starts, self.lmat = panel["starts"], panel["lmat"]
        m, n_periods = self.lmat.shape
        self.periods = [
            t for t in range(1, n_periods) if 1 <= int((self.starts <= t).sum()) <= m - 1
        ]
        self.rows = distinct_permutations(self.starts)
        self.treated = np.arange(1, n_periods + 1)[None, :] >= self.starts[:, None]

    def _stat(self, start_rows: np.ndarray, l0: np.ndarray) -> np.ndarray:
        m = l0.shape[0]
        out = np.zeros(start_rows.shape[0])
        for t in self.periods:
            mask = (start_rows <= t).astype(float)
            n1 = mask.sum(axis=1)
            sums = mask @ l0[:, t - 1]
            out += (sums / n1 - (l0[:, t - 1].sum() - sums) / (m - n1)) / len(self.periods)
        return out

    def estimate(self) -> float:
        return float(self._stat(self.starts[None, :], self.lmat)[0])

    def p(self, theta: float) -> float:
        l0 = self.lmat - theta * self.treated
        obs = float(self._stat(self.starts[None, :], l0)[0])
        return exact_p(self._stat(self.rows, l0), obs)


# --------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------- #


def _missing(results: dict, methods) -> list[str]:
    return [f"{name}: missing from the report" for name in methods if name not in results]


def check_ci_contains(results: dict) -> list[str]:
    errors = []
    for name, res in results.items():
        lo, hi, est = res.get("ci_low"), res.get("ci_high"), res.get("estimate")
        if lo is None or hi is None:
            errors.append(f"{name}: no confidence interval")
        elif not lo <= est <= hi:
            errors.append(f"{name}: CI [{lo}, {hi}] excludes the estimate {est}")
    return errors


def check_parallel_estimates(d: dict, results: dict) -> list[str]:
    """Point estimates (and the log-contrast SE) recomputed from the input."""
    errors = []
    if "log_contrast" in results:
        est, se = log_contrast_ref(d)
        res = results["log_contrast"]
        if not _close(res["log_estimate"], est, 1e-9):
            errors.append(f"log_contrast: estimate {res['log_estimate']} != {est}")
        if not _close(res["se_log"], se, 1e-9):
            errors.append(f"log_contrast: SE {res['se_log']} != {se}")
    if "odds_ratio" in results:
        ref = odds_ratio_ref(d)
        got = results["odds_ratio"]["log_estimate"]
        if not _close(got, ref, 1e-9):
            errors.append(f"odds_ratio: log estimate {got} != {ref}")
    if "covariate_adjusted" in results:
        lv = np.log(d["y"]) - np.log(d["z"])
        ref = adjusted_diff(lv, d["x"], d["arm"])
        got = results["covariate_adjusted"]["log_estimate"]
        if not _close(got, ref, 1e-8):
            errors.append(f"covariate_adjusted: estimate {got} != {ref}")
    if "tpf" in results:
        t_obs, r = tpf_observed(d)
        back = tpf_expected(results["tpf"]["estimate"], r)
        if not abs(back - t_obs) <= 1e-9:
            errors.append(f"tpf: expected fraction at the estimate {back} != T {t_obs}")
    return errors


def check_mc_pvalues(results: dict, n_draws: int) -> list[str]:
    """Monte Carlo p-values lie in [1/(n+1), 1]; Normal p-values in [0, 1]."""
    errors = []
    low = 1.0 / (n_draws + 1)
    for name, res in results.items():
        mc = [res["diagnostics"].get("permutation_p_null1")]
        if res["diagnostics"].get("p_source") == "permutation":
            mc.append(res["p_value"])
        elif not (res["p_value"] is not None and 0.0 <= res["p_value"] <= 1.0):
            errors.append(f"{name}: p-value {res['p_value']} outside [0, 1]")
        for p in mc:
            if p is None or not low - 1e-15 <= p <= 1.0:
                errors.append(f"{name}: Monte Carlo p-value {p} outside [{low}, 1]")
    return errors


def check_dose(d: dict, dose_results: dict) -> list[str]:
    """The dose coefficient equals A / B, the covariate-adjusted arm
    differences of L and of dose."""
    if "dose_response" not in dose_results:
        return ["dose_response: missing from the report"]
    res = dose_results["dose_response"]
    lv = np.log(d["y"]) - np.log(d["z"])
    ref = adjusted_diff(lv, d["x"], d["arm"]) / adjusted_diff(d["dose"], d["x"], d["arm"])
    errors = check_ci_contains({"dose_response": res})
    if not _close(res["estimate"], ref, 1e-8, atol=0.0):
        errors.append(f"dose_response: estimate {res['estimate']} != A/B = {ref}")
    return errors


def check_trial(files: dict, n_draws: int = 2000) -> list[str]:
    d = read_parallel(files["input"])
    results = read_report(files["analyze"])
    errors = _missing(results, PARALLEL_METHODS)
    errors += check_parallel_estimates(d, results)
    errors += check_ci_contains(results)
    errors += check_mc_pvalues(results, n_draws)
    errors += check_dose(d, read_report(files["dose"]))
    return errors


def _check_endpoints(name, pfun, lo, hi, alpha, tol) -> list[str]:
    """p just inside each endpoint exceeds alpha; one tolerance outside it
    does not.  Endpoints are on the lam scale, pfun on the log scale."""
    errors = []
    for label, theta, outward in (("low", math.log(lo), -tol), ("high", math.log(hi), tol)):
        p_in, p_out = pfun(theta), pfun(theta + outward)
        if not (p_in > alpha and p_out <= alpha):
            errors.append(
                f"{name}: CI {label} endpoint {math.exp(theta)} not at the alpha "
                f"crossing (p inside {p_in}, p outside {p_out})"
            )
    return errors


def check_exact(files: dict, alpha: float = 0.05) -> list[str]:
    d = read_parallel(files["input"])
    results = read_report(files["analyze"])
    errors = _missing(results, ("odds_ratio", "tpf", "log_contrast"))
    if errors:
        return errors
    errors += check_parallel_estimates(d, results)
    errors += check_ci_contains(results)
    sup = ParallelSupport(d)
    total = sup.rows.shape[0]
    pairs = (
        ("log_contrast", results["log_contrast"]["diagnostics"].get("permutation_p_null1"),
         sup.p_diff_means(0.0)),
        ("tpf", results["tpf"]["p_value"], sup.p_tpf(0.0)),
        ("odds_ratio", results["odds_ratio"]["p_value"], sup.p_odds_ratio()),
    )
    for name, got, ref in pairs:
        if got is None or abs(got - ref) * total > 0.5:
            errors.append(f"{name}: exact p at lam0=1 is {got}, brute force gives {ref}")
    se = sup.odds_ratio_se()
    if not _close(results["odds_ratio"]["se_log"], se, 1e-9):
        errors.append(f"odds_ratio: SE {results['odds_ratio']['se_log']} != exact {se}")
    for name, pfun in (("log_contrast", sup.p_diff_means), ("tpf", sup.p_tpf)):
        res = results[name]
        if res["ci_low"] is not None and res["ci_high"] is not None:
            errors += _check_endpoints(name, pfun, res["ci_low"], res["ci_high"],
                                       alpha, CI_TOL)

    sw = read_report(files["analyze_sw"])
    if "sw_log_contrast" not in sw:
        return errors + ["sw_log_contrast: missing from the report"]
    res = sw["sw_log_contrast"]
    wedge = WedgeSupport(read_wedge(files["wedge"]))
    errors += check_ci_contains(sw)
    est = wedge.estimate()
    if not _close(res["log_estimate"], est, 1e-9):
        errors.append(f"sw_log_contrast: estimate {res['log_estimate']} != {est}")
    got, ref = res["diagnostics"].get("permutation_p_null1"), wedge.p(0.0)
    if got is None or abs(got - ref) * wedge.rows.shape[0] > 0.5:
        errors.append(f"sw_log_contrast: exact p at lam0=1 is {got}, brute force gives {ref}")
    if res["ci_low"] is not None and res["ci_high"] is not None:
        errors += _check_endpoints("sw_log_contrast", wedge.p, res["ci_low"],
                                   res["ci_high"], alpha, SW_CI_TOL)
    return errors


def check_simulation(metrics: list[dict], raw: list[dict], methods, *,
                     lam: float, n_replicates: int) -> list[str]:
    """Rates in [0, 1], n_effective = finite raw estimates, and the exactly
    unbiased estimators within 5 standard errors of log(lam)."""
    errors = []
    by_name = {row["estimator"]: row for row in metrics}
    errors += _missing(by_name, methods)
    for name, row in by_name.items():
        values = np.array([float(r["log_estimate"]) for r in raw if r["estimator"] == name])
        finite = values[np.isfinite(values)]
        if int(row["n_replicates"]) != n_replicates:
            errors.append(f"{name}: n_replicates {row['n_replicates']} != {n_replicates}")
        if int(row["n_effective"]) != finite.size:
            errors.append(
                f"{name}: n_effective {row['n_effective']} != {finite.size} finite raw estimates"
            )
        for key in ("por_normal", "por_perm", "cp"):
            if row[key] != "" and not 0.0 <= float(row[key]) <= 1.0:
                errors.append(f"{name}: {key} = {row[key]} outside [0, 1]")
        if name in UNBIASED:
            if finite.size < 2:
                errors.append(f"{name}: fewer than 2 finite estimates")
                continue
            se = finite.std(ddof=1) / math.sqrt(finite.size)
            if not abs(finite.mean() - math.log(lam)) <= 5.0 * se:
                errors.append(
                    f"{name}: mean estimate {finite.mean()} is more than 5 SE "
                    f"({se}) from log(lam) = {math.log(lam)}"
                )
    return errors


def check_sim(files: dict, *, lam: float, n_replicates: int, n_sw_replicates: int) -> list[str]:
    errors = check_simulation(read_csv_rows(files["metrics"]), read_csv_rows(files["raw"]),
                              PARALLEL_METHODS, lam=lam, n_replicates=n_replicates)
    errors += check_simulation(read_csv_rows(files["sw_metrics"]),
                               read_csv_rows(files["sw_raw"]), SW_SIM_METHODS,
                               lam=lam, n_replicates=n_sw_replicates)
    return errors
