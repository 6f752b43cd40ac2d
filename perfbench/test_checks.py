"""Each output check accepts the program's real output and rejects a
perturbed copy of it.

Run from the root of the repository::

    python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import crtnd.cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 7


def _run(workload: str, workdir: Path) -> dict:
    workloads.generate(workload, SEED, workdir)
    commands, files = workloads.operation(workload, SEED, workdir, 1)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in commands:
            assert crtnd.cli.main(argv) == 0
    return files


@pytest.fixture(scope="module")
def trial(tmp_path_factory):
    return _run("trial-analysis", tmp_path_factory.mktemp("trial"))


@pytest.fixture(scope="module")
def exact(tmp_path_factory):
    return _run("exact-inference", tmp_path_factory.mktemp("exact"))


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    return _run("sim-study", tmp_path_factory.mktemp("sim"))


def _perturbed_report(files: dict, key: str, edit, tmp_path: Path) -> dict:
    """A copy of ``files`` whose ``key`` report went through ``edit``."""
    payload = json.loads(Path(files[key]).read_text())
    results = {res["method"]: res for res in payload["results"]}
    edit(results)
    payload["results"] = list(results.values())
    out = tmp_path / f"perturbed_{key}.json"
    out.write_text(json.dumps(payload))
    return {**files, key: out}


def _set(method, field, fn):
    def edit(results):
        res = results[method]
        res[field] = fn(res[field])
        if field == "log_estimate":
            res["estimate"] = math.exp(res["log_estimate"])
    return edit


def _diag(method, field, fn):
    def edit(results):
        diag = results[method]["diagnostics"]
        diag[field] = fn(diag[field])
    return edit


def _drop(method):
    return lambda results: results.pop(method)


def _sim_check(files):
    return checks.check_sim(files, lam=workloads.LAM, n_replicates=workloads.SIM_REPLICATES,
                            n_sw_replicates=workloads.SIM_SW_REPLICATES)


def test_real_outputs_pass(trial, exact, sim):
    assert checks.check_trial(trial) == []
    assert checks.check_exact(exact) == []
    assert _sim_check(sim) == []


TRIAL_PERTURBATIONS = {
    "log-contrast estimate": ("analyze", _set("log_contrast", "log_estimate", lambda v: v + 1e-6)),
    "log-contrast SE": ("analyze", _set("log_contrast", "se_log", lambda v: v * 1.001)),
    "odds ratio": ("analyze", _set("odds_ratio", "log_estimate", lambda v: v + 1e-6)),
    "covariate-adjusted": ("analyze", _set("covariate_adjusted", "log_estimate",
                                           lambda v: v + 1e-6)),
    "tpf round trip": ("analyze", _set("tpf", "log_estimate", lambda v: v + 1e-4)),
    "CI excludes estimate": ("analyze", _set("log_contrast", "ci_low", lambda v: 1e3)),
    "missing CI": ("analyze", _set("odds_ratio", "ci_high", lambda v: None)),
    "MC p below 1/(n+1)": ("analyze", _set("tpf", "p_value", lambda v: 0.0)),
    "MC p above 1": ("analyze", _diag("log_contrast", "permutation_p_null1", lambda v: 1.5)),
    "Normal p outside [0, 1]": ("analyze", _set("covariate_adjusted", "p_value", lambda v: -0.1)),
    "estimator missing": ("analyze", _drop("covariate_adjusted")),
    "dose estimate": ("dose", _set("dose_response", "log_estimate", lambda v: v * (1 + 1e-6))),
    "dose CI": ("dose", _set("dose_response", "ci_high", lambda v: -1e3)),
}


@pytest.mark.parametrize("name", list(TRIAL_PERTURBATIONS))
def test_trial_check_rejects(name, trial, tmp_path):
    key, edit = TRIAL_PERTURBATIONS[name]
    assert checks.check_trial(_perturbed_report(trial, key, edit, tmp_path))


EXACT_PERTURBATIONS = {
    "difference-in-means p": ("analyze", _diag("log_contrast", "permutation_p_null1",
                                               lambda v: v + 1 / 12870)),
    "tpf p": ("analyze", _set("tpf", "p_value", lambda v: v - 1 / 12870)),
    "odds-ratio p": ("analyze", _set("odds_ratio", "p_value", lambda v: v + 2 / 12870)),
    "odds-ratio exact SE": ("analyze", _set("odds_ratio", "se_log", lambda v: v * 1.0001)),
    "log-contrast CI low outward": ("analyze", _set("log_contrast", "ci_low",
                                                    lambda v: v * 0.999)),
    "log-contrast CI high inward": ("analyze", _set("log_contrast", "ci_high",
                                                    lambda v: v * 0.999)),
    "tpf CI high outward": ("analyze", _set("tpf", "ci_high", lambda v: v * 1.001)),
    "tpf CI low inward": ("analyze", _set("tpf", "ci_low", lambda v: v * 1.001)),
    "estimator missing": ("analyze", _drop("tpf")),
    "wedge p": ("analyze_sw", _diag("sw_log_contrast", "permutation_p_null1",
                                    lambda v: v + 1 / 2520)),
    "wedge estimate": ("analyze_sw", _set("sw_log_contrast", "log_estimate",
                                          lambda v: v + 1e-6)),
    "wedge CI low outward": ("analyze_sw", _set("sw_log_contrast", "ci_low",
                                                lambda v: v * 0.99)),
    "wedge CI high inward": ("analyze_sw", _set("sw_log_contrast", "ci_high",
                                                lambda v: v * 0.99)),
}


@pytest.mark.parametrize("name", list(EXACT_PERTURBATIONS))
def test_exact_check_rejects(name, exact, tmp_path):
    key, edit = EXACT_PERTURBATIONS[name]
    assert checks.check_exact(_perturbed_report(exact, key, edit, tmp_path))


def _perturbed_csv(files: dict, key: str, edit, tmp_path: Path) -> dict:
    rows = checks.read_csv_rows(files[key])
    rows = edit(rows)
    out = tmp_path / f"perturbed_{key}.csv"
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return {**files, key: out}


def _edit_rows(estimator, field, fn):
    def edit(rows):
        rows = copy.deepcopy(rows)
        for row in rows:
            if row["estimator"] == estimator:
                row[field] = fn(row[field])
        return rows
    return edit


SIM_PERTURBATIONS = {
    "log-contrast bias": ("raw", _edit_rows("log_contrast", "log_estimate",
                                            lambda v: repr(float(v) + 0.5))),
    "sw_equal bias": ("sw_raw", _edit_rows("sw_equal", "log_estimate",
                                           lambda v: repr(float(v) - 0.5))),
    "sw_optimal bias": ("sw_raw", _edit_rows("sw_optimal", "log_estimate",
                                             lambda v: repr(float(v) + 0.5))),
    "n_effective": ("metrics", _edit_rows("tpf", "n_effective", lambda v: str(int(v) - 1))),
    "raw estimate dropped": ("raw", lambda rows: [r for r in rows if r is not rows[-1]]),
    "rate above 1": ("metrics", _edit_rows("odds_ratio", "por_perm", lambda v: "1.5")),
    "rate below 0": ("sw_metrics", _edit_rows("sw_optimal", "cp", lambda v: "-0.1")),
    "estimator missing": ("sw_metrics", lambda rows: rows[:1]),
    "replicate count": ("metrics", _edit_rows("log_contrast", "n_replicates",
                                              lambda v: str(int(v) + 1))),
}


@pytest.mark.parametrize("name", list(SIM_PERTURBATIONS))
def test_sim_check_rejects(name, sim, tmp_path):
    key, edit = SIM_PERTURBATIONS[name]
    assert _sim_check(_perturbed_csv(sim, key, edit, tmp_path))


def test_brute_force_enumerations_are_complete():
    assert checks.combinations(6, 3).shape == (20, 6)
    rows = checks.distinct_permutations((2, 2, 3, 3, 4, 4, 5, 5))
    assert rows.shape == (2520, 8) and len({tuple(r) for r in rows}) == 2520


def test_tracer_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("core", "realize", "call", lambda: time.sleep(0.02))

    def outer():
        time.sleep(0.01)
        inner()

    tracer.wrap("cli", "main", "call", outer)()
    figures = tracer.per_operation(1)
    assert figures["cli.main.calls"] == 1 and figures["core.realize.calls"] == 1
    assert 0.009 < figures["cli.main.self_s"] < 0.018
    assert figures["core.realize.self_s"] >= 0.019


def test_tracer_times_generator_iteration():
    tracer = Tracer()

    def slow_items():
        for i in range(3):
            time.sleep(0.01)
            yield i

    traced = tracer.wrap("core", "enumerate_assignments", "iter", slow_items)
    items = traced()
    assert tracer.per_operation(1)["core.enumerate_assignments.self_s"] < 0.005
    assert list(items) == [0, 1, 2]
    figures = tracer.per_operation(1)
    assert figures["core.enumerate_assignments.items"] == 3
    assert figures["core.enumerate_assignments.self_s"] >= 0.029
