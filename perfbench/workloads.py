"""Workload definitions: seeded inputs and the commands of one operation.

Inputs are drawn with the benchmark's own numpy code.  The bundled
baselines in ``crtnd.scenarios`` are read only as constants, so a change
to how the program draws replicates cannot change the inputs of
``trial-analysis`` or ``exact-inference``.  ``sim-study`` takes the
bundled scenario itself plus one seed per operation.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("trial-analysis", "sim-study", "exact-inference")

N_FILES = 4  # distinct generated inputs per run; operations cycle through them
LAM = 0.6  # relative risk of the generated trials and of the simulated scenario
DOSE_BETA = math.log(LAM)  # log-contrast shift per unit dose
SIM_REPLICATES = 200  # parallel replicates per sim-study operation
SIM_SW_REPLICATES = 50  # stepped-wedge replicates per sim-study operation
SW_STARTS = (2, 2, 3, 3, 4, 4, 5, 5)  # two clusters start in each period 2..5
SW_PERIOD_COLUMNS = (3, 4, 5, 6, 7)  # bundled wedge periods 4..8 (no sparse cells)
_STREAM = {"trial-analysis": 1, "exact-inference": 2}


def op_seed(seed: int, j: int) -> int:
    """Program seed of operation ``j`` (``j = 0`` is the warm-up); never 0."""
    return seed * 100_000 + j + 1


def _rng(seed: int, workload: str, k: int, part: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[workload], k, part])


def _counts(rng: np.random.Generator, baseline: np.ndarray) -> np.ndarray:
    """Multinomial split of the baseline total, floored at one count."""
    draw = rng.multinomial(int(round(baseline.sum())), baseline / baseline.sum())
    return np.maximum(draw, 1).astype(float)


def _ascertainment(rng: np.random.Generator, size) -> np.ndarray:
    """Relative ascertainment c ~ Beta(0.5, 0.5), floored at 0.01."""
    return np.clip(rng.beta(0.5, 0.5, size=size), 0.01, None)


def _num(value: float) -> str:
    return repr(float(value))


def trial_rows(rng: np.random.Generator, baseline_y, baseline_z, population):
    """24 clusters, 12 treated, covariate ``x1`` and a ``dose`` column.

    Control counts are multinomial over the bundled baselines and are
    coupled to the covariate (test-positives times ``2 x1``,
    test-negatives divided by it).  Treated clusters take a dose in
    [0.7, 1.0] and their counts are scaled by a relative ascertainment;
    controls take a dose in [0, 0.1].  Every cluster's log-contrast
    shifts by ``log(0.6)`` per unit dose.
    """
    by = np.asarray(baseline_y, dtype=float)
    bz = np.asarray(baseline_z, dtype=float)
    m = by.size
    x1 = np.asarray(population, dtype=float) * np.exp(rng.normal(0.0, 0.1, m))
    y0 = _counts(rng, by) * (2.0 * x1)
    z0 = _counts(rng, bz) / (2.0 * x1)
    c = _ascertainment(rng, m)
    arm = np.zeros(m, dtype=int)
    arm[rng.choice(m, m // 2, replace=False)] = 1
    dose = np.where(arm == 1, rng.uniform(0.7, 1.0, m), rng.uniform(0.0, 0.1, m))
    scale = np.where(arm == 1, c, 1.0)
    y = y0 * np.exp(DOSE_BETA * dose) * scale
    z = z0 * scale
    header = ["cluster_id", "arm", "y_count", "z_count", "x1", "dose"]
    rows = [
        [f"k{i + 1:02d}", int(arm[i]), _num(y[i]), _num(z[i]), _num(x1[i]), _num(dose[i])]
        for i in range(m)
    ]
    return header, rows


def exact_rows(rng: np.random.Generator, baseline_y, baseline_z):
    """16 of the 24 bundled clusters, 8 treated, constant relative risk 0.6."""
    pick = np.sort(rng.choice(len(baseline_y), 16, replace=False))
    by = np.asarray(baseline_y, dtype=float)[pick]
    bz = np.asarray(baseline_z, dtype=float)[pick]
    m = by.size
    y0, z0 = _counts(rng, by), _counts(rng, bz)
    c = _ascertainment(rng, m)
    arm = np.zeros(m, dtype=int)
    arm[rng.choice(m, m // 2, replace=False)] = 1
    y = np.where(arm == 1, LAM * c * y0, y0)
    z = np.where(arm == 1, c * z0, z0)
    header = ["cluster_id", "arm", "y_count", "z_count"]
    rows = [[f"k{i + 1:02d}", int(arm[i]), _num(y[i]), _num(z[i])] for i in range(m)]
    return header, rows


def wedge_rows(rng: np.random.Generator, sw_baseline_y, baseline_y, baseline_z):
    """8 clusters over 5 periods; starts are a shuffle of ``SW_STARTS``.

    Test-positive counts are Poisson around 8 random rows of the bundled
    wedge baselines (periods 4..8 of the bundled wedge), test-negatives
    Poisson around the same cells times the cluster's bundled
    negative:positive ratio.  Every cell from the cluster's start period
    on is scaled by relative risk 0.6 and a per-cell relative
    ascertainment.
    """
    pick = np.sort(rng.choice(len(sw_baseline_y), len(SW_STARTS), replace=False))
    base = np.asarray(sw_baseline_y, dtype=float)[np.ix_(pick, SW_PERIOD_COLUMNS)]
    ratio = (np.asarray(baseline_z, dtype=float) / np.asarray(baseline_y, dtype=float))[pick]
    y0 = np.maximum(rng.poisson(base), 1).astype(float)
    z0 = np.maximum(rng.poisson(base * ratio[:, None]), 1).astype(float)
    c = _ascertainment(rng, base.shape)
    starts = rng.permutation(np.asarray(SW_STARTS))
    periods = np.arange(1, base.shape[1] + 1)
    treated = periods[None, :] >= starts[:, None]
    y = np.where(treated, LAM * c * y0, y0)
    z = np.where(treated, c * z0, z0)
    header = ["cluster_id", "period", "start_period", "y_count", "z_count"]
    rows = [
        [f"w{i + 1}", t, int(starts[i]), _num(y[i, t - 1]), _num(z[i, t - 1])]
        for i in range(base.shape[0])
        for t in periods
    ]
    return header, rows


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def generate(workload: str, seed: int, workdir: Path) -> None:
    """Write the run's input files into ``workdir`` (none for sim-study)."""
    if workload == "sim-study":
        return
    from crtnd import scenarios

    for k in range(N_FILES):
        if workload == "trial-analysis":
            header, rows = trial_rows(
                _rng(seed, workload, k), scenarios.BASELINE_Y,
                scenarios.BASELINE_Z, scenarios.POPULATION,
            )
            _write_csv(workdir / f"trial_{k}.csv", header, rows)
        else:
            header, rows = exact_rows(
                _rng(seed, workload, k, 0), scenarios.BASELINE_Y, scenarios.BASELINE_Z
            )
            _write_csv(workdir / f"exact_{k}.csv", header, rows)
            header, rows = wedge_rows(
                _rng(seed, workload, k, 1), scenarios.SW_BASELINE_Y,
                scenarios.BASELINE_Y, scenarios.BASELINE_Z,
            )
            _write_csv(workdir / f"wedge_{k}.csv", header, rows)


def operation(workload: str, seed: int, workdir: Path, j: int):
    """(commands, files) of operation ``j``: the argv lists run back to back
    and the paths of the inputs and outputs the checks read."""
    w = Path(workdir)
    k = j % N_FILES
    if workload == "trial-analysis":
        files = {"input": w / f"trial_{k}.csv", "analyze": w / "analyze.json",
                 "dose": w / "dose.json"}
        commands = [
            ["analyze", "--input", str(files["input"]), "--ci-method",
             "invert-permutation", "--seed", str(op_seed(seed, j)),
             "--out", str(files["analyze"])],
            ["dose-response", "--input", str(files["input"]), "--adjustment",
             "covariates", "--out", str(files["dose"])],
        ]
    elif workload == "sim-study":
        s = str(op_seed(seed, j))
        files = {"metrics": w / "sim.csv", "raw": w / "sim_raw.csv",
                 "sw_metrics": w / "sw.csv", "sw_raw": w / "sw_raw.csv"}
        commands = [
            ["simulate", "--lam", str(LAM), "--n-replicates", str(SIM_REPLICATES),
             "--seed", s, "--out", str(files["metrics"]),
             "--raw-estimates", str(files["raw"])],
            ["simulate-sw", "--lam", str(LAM), "--n-replicates",
             str(SIM_SW_REPLICATES), "--seed", s, "--out", str(files["sw_metrics"]),
             "--raw-estimates", str(files["sw_raw"])],
        ]
    elif workload == "exact-inference":
        files = {"input": w / f"exact_{k}.csv", "analyze": w / "analyze.json",
                 "wedge": w / f"wedge_{k}.csv", "analyze_sw": w / "analyze_sw.json"}
        commands = [
            ["analyze", "--input", str(files["input"]), "--mode", "exact",
             "--ci-method", "invert-permutation", "--estimators",
             "odds_ratio,tpf,log_contrast", "--out", str(files["analyze"])],
            ["analyze-sw", "--input", str(files["wedge"]), "--mode", "exact",
             "--ci-method", "invert-permutation", "--out", str(files["analyze_sw"])],
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return commands, files


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="write a run's input files")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("outdir", type=Path)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    args.outdir.mkdir(parents=True, exist_ok=True)
    generate(args.workload, args.seed, args.outdir)
