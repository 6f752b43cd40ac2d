"""Command-line interface.

Six subcommands: ``analyze`` (parallel-arm dataset), ``analyze-sw``
(stepped-wedge panel), ``dose-response`` (instrumental-variable dose
model), ``simulate`` / ``simulate-sw`` (metric tables for a scenario),
and ``sweep`` (repeat the parallel study over fresh ascertainment
configurations).  Every command prints a human-readable table to stdout
and, with ``--out``, writes a JSON report (analysis commands) or a CSV
table plus JSON sidecar (simulation commands) embedding the exact
configuration and seed needed to reproduce it.

Exit codes: 0 success, 2 validation error (bad files or options), 3
computational error.  Errors are also written to stderr as one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from . import __version__
from .dataio import (
    load_scenario,
    parse_dataset,
    scenario_to_dict,
    write_json_report,
    write_metrics_csv,
)
from .errors import CrtndError, DataError
from .estimators import odds_ratio_estimate, tpf_estimate
from .inference import (
    NullSpec,
    _two_sided_p,
    dose_response_estimate,
    invert_ci,
    normal_test,
    permutation_test,
)
from .scenarios import default_parallel_scenario, default_sw_scenario
from .simulation import (
    PARALLEL_ESTIMATORS,
    SW_ESTIMATORS,
    evaluate,
    generation_plan,
    relabeling_plan,
    replicate_ascertainment_sweep,
)
from .stepped_wedge import sw_invert_ci, sw_log_contrast, sw_permutation_test

_DOSE_DRAW_DEFAULTS = {"mode": "auto", "n_draws": 2000, "seed": 0}  # --test permutation
_PERM_DRAWS_DEFAULT = 999  # simulations, when some estimator relabels


def _add_common(p: argparse.ArgumentParser, scenario: bool = False) -> None:
    # simulation commands take alpha and seed from the scenario unless given
    own = "the scenario's"
    p.add_argument("--alpha", type=float, default=None if scenario else 0.05,
                   help=f"two-sided level (default {own if scenario else 0.05})")
    p.add_argument("--seed", type=int, default=None if scenario else 0,
                   help="seed for any Monte Carlo randomness "
                   f"(default {own if scenario else 0})")
    if not scenario:
        # the analysis of one dataset only; simulations fix their own
        p.add_argument("--mode", choices=["auto", "exact", "monte-carlo"],
                       default="auto", help="permutation mode (default auto)")
        p.add_argument("--n-draws", type=int, default=2000,
                       help="Monte Carlo permutation draws (default 2000)")
        p.add_argument("--continuity-correction", action="store_true",
                       help="add 0.5 to every count on loading, before any "
                       "estimator runs (TPF and the odds ratio included)")
    p.add_argument("--out", type=Path, default=None,
                   help="output path (JSON report or metrics CSV)")


@cache  # one per process: main() may run many times in one interpreter
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crtnd",
        description=(
            "Randomization-based estimation and testing for cluster-"
            "randomized test-negative designs"
        ),
    )
    parser.add_argument("--version", action="version", version=f"crtnd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="estimate the relative risk from a dataset")
    p.add_argument("--input", type=Path, required=True, help="parallel-arm CSV")
    p.add_argument("--ci-method", choices=["normal", "invert-permutation"],
                   default="normal", help="CI of log_contrast and covariate_adjusted: "
                   "Normal, or the inverted permutation test (default normal)")
    p.add_argument(
        "--estimators",
        default=None,
        help="comma-separated subset of " + ",".join(PARALLEL_ESTIMATORS)
        + " (default: all; covariate_adjusted only if the file has covariates)",
    )
    _add_common(p)

    p = sub.add_parser("analyze-sw", help="estimate from a stepped-wedge panel")
    p.add_argument("--input", type=Path, required=True, help="stepped-wedge CSV")
    p.add_argument("--weights", default="equal",
                   help='"equal", "optimal" (variance-minimizing, from the plug-in '
                   'Sigma), or a path to a JSON weight vector')
    p.add_argument("--ci-method", choices=["normal", "invert-permutation"],
                   default="normal", help="Normal CI from the plug-in covariance, or "
                   "the inverted permutation test (default normal)")
    _add_common(p)

    p = sub.add_parser("dose-response", help="dose-response coefficient under "
                       "partial compliance")
    p.add_argument("--input", type=Path, required=True,
                   help="parallel-arm CSV with a dose column")
    p.add_argument("--adjustment", choices=["auto", "none", "covariates"],
                   default="auto")
    p.add_argument("--test", choices=["normal", "permutation"], default="normal")
    _add_common(p)
    p.set_defaults(**{option: None for option in _DOSE_DRAW_DEFAULTS})  # None: not given

    for name, default_label in (("simulate", "default"), ("simulate-sw", "default-sw")):
        p = sub.add_parser(name, help="run a simulation scenario and write metrics")
        p.add_argument("--scenario", default=default_label,
                       help=f'scenario JSON path or "{default_label}"')
        p.add_argument("--lam", type=float, default=None,
                       help="override the scenario relative risk")
        p.add_argument("--n-replicates", type=int, default=None)
        p.add_argument("--estimators", default=None,
                       help="comma-separated estimator subset")
        p.add_argument("--no-permutation-por", action="store_true",
                       help="skip the permutation-test rejection column")
        p.add_argument("--perm-draws", type=int, default=None,
                       help=f"permutation relabelings per block (default {_PERM_DRAWS_DEFAULT})")
        p.add_argument("--raw-estimates", type=Path, default=None,
                       help="also write per-replicate log estimates to this CSV")
        _add_common(p, scenario=True)

    p = sub.add_parser("sweep", help="repeat the study over ascertainment draws")
    p.add_argument("--scenario", default="default")
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--n-replicates", type=int, default=None)
    p.add_argument("--n-configs", type=int, default=100)
    p.add_argument("--estimators", default=None)
    _add_common(p, scenario=True)

    return parser


def _fmt(value, digits=4) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def _print_reports(reports) -> None:
    header = f"{'estimator':<20}{'estimate':>10}{'se(log)':>10}{'CI low':>10}{'CI high':>10}{'p-value':>10}"
    print(header)
    print("-" * len(header))
    for rep in reports:
        print(
            f"{rep.method:<20}"
            f"{_fmt(rep.estimate):>10}"
            f"{_fmt(rep.se_log):>10}"
            f"{_fmt(rep.ci_low):>10}"
            f"{_fmt(rep.ci_high):>10}"
            f"{_fmt(rep.p_value):>10}"
        )


def _print_metrics(rows) -> None:
    header = (
        f"{'estimator':<20}{'lam':>6}{'n_eff':>7}{'bias':>9}{'se':>8}"
        f"{'ase':>8}{'por_n':>8}{'por_p':>8}{'cp':>8}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row.estimator:<20}{row.lam:>6.2f}{row.n_effective:>7}"
            f"{row.bias:>9.4f}{row.se:>8.4f}"
            f"{_fmt(row.ase):>8}{_fmt(row.por_normal, 3):>8}"
            f"{_fmt(row.por_perm, 3):>8}{_fmt(row.cp, 3):>8}"
        )


_PERM_STATISTIC = {
    "odds_ratio": "odds_ratio",
    "tpf": "tpf",
    "log_contrast": "difference_in_means",
    "covariate_adjusted": "covariate_adjusted",
}


def _permutation_entry(perm, scheme=None) -> dict:
    """How the report's permutation p-value was obtained, and the null it is
    exact for; a parallel ``scheme`` adds its arm sizes, noted if unequal."""
    keys = ("mode", "mode_reason", "support_size", "null_draws", "mc_se")
    entry = {key: getattr(perm, key) for key in keys} | {"null": "sharp"}
    if scheme is not None:
        entry["arm_sizes"] = [scheme.m1, scheme.m - scheme.m1]
        if 2 * scheme.m1 != scheme.m:
            entry["note"] = "unequal arms: exact for the sharp null, not an average effect"
    return entry


def _write_report(args, reports) -> int:
    """Print an analysis command's table and, with --out, its JSON report."""
    _print_reports(reports)
    if args.out:
        write_json_report(args.out, {
            "command": args.command, "version": __version__, "input": str(args.input),
            "config": _config_echo(args), "results": [rep.to_dict() for rep in reports],
        })
    return 0


def _load(args, kind: str, wrong_kind: str):
    """The ``kind`` dataset of ``--input`` (DataError ``wrong_kind`` if it
    is the other kind); under ``--continuity-correction`` every count is
    0.5 larger, so every estimator analyses the same counts."""
    found, data = parse_dataset(args.input)
    if found != kind:
        raise DataError(wrong_kind)
    if args.continuity_correction:
        data = replace(data, y=data.y + 0.5, z=data.z + 0.5)
    return data


def _cmd_analyze(args) -> int:
    trial = _load(args, "parallel", "analyze expects a parallel-arm dataset; use analyze-sw")
    requested = args.estimators is not None
    names = _estimator_names(args, PARALLEL_ESTIMATORS)
    args.estimators = args.estimators or ",".join(names)  # echo what runs
    if "covariate_adjusted" in names and trial.x.shape[1] == 0:
        if requested:
            raise DataError(
                "covariate_adjusted needs covariate columns x1..xp in the input"
            )
        names.remove("covariate_adjusted")
    mode = args.mode.replace("-", "_")
    reports = []
    for name in names:
        if name == "odds_ratio":
            rep = odds_ratio_estimate(
                trial, alpha=args.alpha, se_draws=args.n_draws, seed=args.seed
            )
        elif name == "tpf":
            rep = tpf_estimate(trial, alpha=args.alpha)
            lo, hi, diag = invert_ci(
                trial, "tpf", alpha=args.alpha, test="permutation",
                mode=mode, n_draws=args.n_draws, seed=args.seed,
            )
            rep.ci_low, rep.ci_high, rep.ci_method = lo, hi, "test_inversion"
            rep.diagnostics["ci_inversion"] = diag
        else:
            rep = normal_test(trial, NullSpec("relative_risk", 1.0), name, alpha=args.alpha)
        perm = permutation_test(
            trial, NullSpec("relative_risk", 1.0), _PERM_STATISTIC[name],
            mode=mode, n_draws=args.n_draws, seed=args.seed,
        )
        rep.diagnostics["permutation_p_null1"] = perm.p_two_sided
        rep.diagnostics["permutation"] = _permutation_entry(perm, trial.scheme)
        if rep.p_value is None:
            rep.p_value = perm.p_two_sided
            rep.diagnostics["p_source"] = "permutation"
        inverts = name in ("log_contrast", "covariate_adjusted")
        if inverts and args.ci_method == "invert-permutation":
            lo, hi, diag = invert_ci(
                trial, name, alpha=args.alpha, test="permutation", mode=mode,
                n_draws=args.n_draws, seed=args.seed,
            )
            rep.ci_low, rep.ci_high, rep.ci_method = lo, hi, "test_inversion"
            rep.diagnostics["ci_inversion"] = diag
        reports.append(rep)
    return _write_report(args, reports)


def _cmd_analyze_sw(args) -> int:
    panel = _load(args, "sw", "analyze-sw expects a stepped-wedge dataset")
    weights = args.weights
    if weights not in ("equal", "optimal"):
        with open(weights) as fh:
            weights = json.load(fh)
        if not isinstance(weights, list) or any(
            isinstance(w, bool) or not isinstance(w, (int, float)) for w in weights
        ):
            raise DataError(f"{args.weights}: a weight file must hold a JSON list of numbers")
    rep = sw_log_contrast(panel, weights, alpha=args.alpha)
    mode = args.mode.replace("-", "_")
    perm = sw_permutation_test(
        panel, 1.0, weights, mode=mode, n_draws=args.n_draws, seed=args.seed
    )
    rep.diagnostics["permutation_p_null1"] = perm.p_two_sided
    rep.diagnostics["permutation"] = _permutation_entry(perm)
    if rep.p_value is None and rep.se_log is not None:
        rep.p_value, _ = _two_sided_p(rep.log_estimate, rep.se_log,
                                      abs(rep.log_estimate))
    if args.ci_method == "invert-permutation":
        lo, hi, diag = sw_invert_ci(
            panel, weights, alpha=args.alpha, mode=mode, n_draws=args.n_draws,
            seed=args.seed,
        )
        rep.ci_low, rep.ci_high, rep.ci_method = lo, hi, "test_inversion"
        rep.diagnostics["ci_inversion"] = diag
    return _write_report(args, [rep])


def _cmd_dose_response(args) -> int:
    trial = _load(args, "parallel", "dose-response expects a parallel-arm dataset")
    given = [option for option in _DOSE_DRAW_DEFAULTS if getattr(args, option) is not None]
    if args.test == "normal" and given:  # the Normal test draws nothing
        raise DataError(f"--{given[0].replace('_', '-')} applies to --test permutation only")
    draws = {}
    if args.test == "permutation":
        draws = {option: default if getattr(args, option) is None else getattr(args, option)
                 for option, default in _DOSE_DRAW_DEFAULTS.items()}
        vars(args).update(draws)  # echo what runs
        draws["mode"] = draws["mode"].replace("-", "_")
    rep = dose_response_estimate(
        trial, adjustment=args.adjustment, alpha=args.alpha, test=args.test, **draws,
    )
    return _write_report(args, [rep])


def _load_scenario_arg(args, default_factory):
    if args.scenario in ("default", "default-sw"):
        scenario = default_factory()
    else:
        scenario = load_scenario(args.scenario)
    overrides = {}
    if args.lam is not None:
        overrides["lam"] = args.lam
        overrides["scenario_id"] = f"{scenario.scenario_id}-lam{args.lam:g}"
    if args.n_replicates is not None:
        overrides["n_replicates"] = args.n_replicates
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    scenario = replace(scenario, **overrides) if overrides else scenario
    args.seed, args.alpha = scenario.seed, scenario.alpha  # echo what runs
    return scenario


def _estimator_names(args, known) -> list[str]:
    """The names of ``--estimators``, all of ``known`` if it is not given;
    DataError if it names none, one twice or one not in ``known``."""
    if args.estimators is None:
        return list(known)
    names = [s.strip() for s in args.estimators.split(",") if s.strip()]
    if not names or len(set(names)) < len(names):
        raise DataError(f"--estimators must name distinct estimators, got {args.estimators!r}")
    if unknown := set(names) - set(known):
        raise DataError(f"unknown estimators: {sorted(unknown)}")
    return names


def _cmd_simulate(args, sw: bool) -> int:
    scenario = _load_scenario_arg(
        args, default_sw_scenario if sw else default_parallel_scenario
    )
    if sw != scenario.is_stepped_wedge:
        raise DataError(
            "scenario design does not match the command (simulate vs simulate-sw)"
        )
    estimators = _estimator_names(args, SW_ESTIMATORS if sw else PARALLEL_ESTIMATORS)
    # the permutation column relabels for every estimator but
    # covariate_adjusted, and the odds ratio's SE relabels without it
    permuted = not args.no_permutation_por and bool(set(estimators) - {"covariate_adjusted"})
    relabels = permuted or "odds_ratio" in estimators
    if args.perm_draws is None:
        args.perm_draws = _PERM_DRAWS_DEFAULT  # echo what runs
    elif not relabels:
        raise DataError("--perm-draws is given, but this run draws no relabelings")
    timings: dict[str, float] = {}
    out = evaluate(
        scenario,
        estimators,
        permutation_por=not args.no_permutation_por,
        perm_draws=args.perm_draws,
        keep_estimates=args.raw_estimates is not None,
        timings=timings,
    )
    if args.raw_estimates is not None:
        rows, raw = out
        _write_raw_estimates(args.raw_estimates, scenario, raw)
    else:
        rows = out
    _print_metrics(rows)
    if args.out:
        write_metrics_csv(rows, args.out)
        report = {
            "command": "simulate-sw" if sw else "simulate",
            "version": __version__,
            "scenario": scenario_to_dict(scenario),
            "config": _config_echo(args),
            "results": [row.to_dict() for row in rows],
            "dropped_replicates": {row.estimator: row.dropped for row in rows},
            "timings_s": timings,
            "generation": generation_plan(),
            "permutation_column": relabeling_plan(scenario, args.perm_draws)
            if permuted else None,
        }
        if sw:
            report["weight_fallbacks"] = {row.estimator: row.weight_fallbacks for row in rows}
        write_json_report(Path(args.out).with_suffix(".json"), report)
    return 0


def _write_raw_estimates(path, scenario, raw) -> None:
    import csv
    import io

    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerow(["scenario_id", "estimator", "replicate", "log_estimate"])
        reps = raw.pop("replicate")
        for name, values in raw.items():
            # a csv.writer's rows in one string: the quoted prefix, then each
            # replicate and the repr of its estimate (a Python float)
            buf = io.StringIO()
            csv.writer(buf, lineterminator="").writerow([scenario.scenario_id, name, ""])
            prefix = buf.getvalue()
            fh.write("".join(f"{prefix}{rep},{value!r}\r\n" for rep, value in zip(reps, values)))


def _cmd_sweep(args) -> int:
    scenario = _load_scenario_arg(args, default_parallel_scenario)
    estimators = _estimator_names(args, PARALLEL_ESTIMATORS)
    rows = replicate_ascertainment_sweep(scenario, args.n_configs, estimators)
    per_config = len(rows) // args.n_configs if rows else 0
    shown = rows[: 3 * per_config]  # the first three configurations
    _print_metrics(shown)
    if len(rows) > len(shown):
        print(f"... ({len(rows)} rows total)")
    if args.out:
        write_metrics_csv(rows, args.out)
        write_json_report(
            Path(args.out).with_suffix(".json"),
            {
                "command": "sweep",
                "version": __version__,
                "scenario": scenario_to_dict(scenario),
                "config": _config_echo(args),
                "n_configs": args.n_configs,
                "dropped_replicates": _dropped_by_config(rows),
            },
        )
    return 0


def _dropped_by_config(rows) -> dict:
    """Each configuration's drop counts, by estimator and then reason."""
    dropped: dict[str, dict] = {}
    for row in rows:
        dropped.setdefault(row.scenario_id, {})[row.estimator] = row.dropped
    return dropped


def _config_echo(args) -> dict:
    echo = {k: v for k, v in vars(args).items() if k != "func"}
    for key, value in echo.items():
        if isinstance(value, Path):
            echo[key] = str(value)
    return echo


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.alpha is not None and not 0 < args.alpha < 0.5:
        _emit_error(DataError(f"alpha must lie in (0, 0.5), got {args.alpha}"))
        return 2
    for option in ("n_draws", "perm_draws", "n_configs"):
        value = getattr(args, option, None)
        if value is not None and value < 1:
            flag = "--" + option.replace("_", "-")
            _emit_error(DataError(f"{flag} must be at least 1, got {value}"))
            return 2
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "analyze-sw":
            return _cmd_analyze_sw(args)
        if args.command == "dose-response":
            return _cmd_dose_response(args)
        if args.command == "simulate":
            return _cmd_simulate(args, sw=False)
        if args.command == "simulate-sw":
            return _cmd_simulate(args, sw=True)
        if args.command == "sweep":
            return _cmd_sweep(args)
        raise ValueError(f"unknown command {args.command!r}")
    except (DataError, ValueError, OSError) as exc:
        _emit_error(exc)
        return 2
    except CrtndError as exc:
        _emit_error(exc)
        return 3


def _emit_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
