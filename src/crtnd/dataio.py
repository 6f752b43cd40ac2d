"""Dataset and scenario file formats, and report emission.

Datasets are CSV with a header.  The parallel schema is
``cluster_id, arm, y_count, z_count`` plus optional consecutively
numbered covariate columns ``x1..xp`` and an optional ``dose`` column;
the stepped-wedge schema is
``cluster_id, period, start_period, y_count, z_count``.  Parsing is
strict: unknown columns, duplicate keys, negative counts, and malformed
or non-finite cells are rejected with the offending line number.  This
module is the I/O boundary of the array types: a parallel file becomes
one :class:`~crtnd.core.Trial` (a missing dose cell is NaN, a file
without a dose column has dose ``None``), a stepped-wedge file one
:class:`~crtnd.core.Panel`, whose cells must fill every (cluster,
period) of the window (:class:`~crtnd.errors.IncompletePanel`
otherwise).  Both are in canonical (sorted cluster_id) order, check
themselves on construction, and compare by value.

Scenario files are JSON mirrors of :class:`SimScenario`; reports are
JSON with a ``schema_version`` so downstream tools can join on
``(scenario_id, estimator)``.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path
from typing import Sequence

from .core import Panel, ParallelScheme, SteppedWedgeScheme, Trial
from .errors import IncompletePanel, ParseError, SchemaError
from .simulation import MetricsRow, SimScenario

SCHEMA_VERSION = 1

_PARALLEL_REQUIRED = ["cluster_id", "arm", "y_count", "z_count"]
_SW_REQUIRED = ["cluster_id", "period", "start_period", "y_count", "z_count"]


def _float_cell(raw: str, line: int, column: str, *, minimum=None, maximum=None):
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(line, column, f"not a number: {raw!r}") from None
    if value != value:  # NaN
        raise ParseError(line, column, "NaN is not allowed")
    if not math.isfinite(value):
        raise ParseError(line, column, f"not a finite number: {raw!r}")
    if minimum is not None and value < minimum:
        raise ParseError(line, column, f"must be >= {minimum}, got {raw!r}")
    if maximum is not None and value > maximum:
        raise ParseError(line, column, f"must be <= {maximum}, got {raw!r}")
    return value


def _int_cell(raw: str, line: int, column: str, *, minimum=None):
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(line, column, f"not an integer: {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ParseError(line, column, f"must be >= {minimum}, got {raw!r}")
    return value


def parse_dataset(path: str | Path):
    """Read a dataset file; returns ("parallel", trial) or ("sw", panel)."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        rows = [([c.strip() for c in row], i + 2) for i, row in enumerate(reader)]
    rows = [(row, line) for row, line in rows if any(row)]

    if set(_SW_REQUIRED) <= set(header):
        extra = [h for h in header if h not in _SW_REQUIRED]
        if extra:
            raise SchemaError(f"unknown columns for a stepped-wedge file: {extra}")
        return "sw", _parse_sw(header, rows)
    if set(_PARALLEL_REQUIRED) <= set(header):
        return "parallel", _parse_parallel(header, rows)
    missing_p = sorted(set(_PARALLEL_REQUIRED) - set(header))
    missing_sw = sorted(set(_SW_REQUIRED) - set(header))
    raise SchemaError(
        f"header matches neither schema (parallel missing {missing_p}, "
        f"stepped-wedge missing {missing_sw})"
    )


def _covariate_columns(header: list[str]) -> list[str]:
    extras = [h for h in header if h not in _PARALLEL_REQUIRED and h != "dose"]
    expected = [f"x{i + 1}" for i in range(len(extras))]
    if extras != expected:
        unknown = [h for h in extras if not re.fullmatch(r"x\d+", h)]
        if unknown:
            raise SchemaError(f"unknown columns: {unknown}")
        raise SchemaError(
            f"covariate columns must be consecutively numbered x1..xp, got {extras}"
        )
    return extras


def _parse_parallel(header, rows) -> Trial:
    xcols = _covariate_columns(header)
    col = {name: header.index(name) for name in header}
    has_dose = "dose" in header
    records = []  # (cluster_id, arm, y, z, covariates, dose) per row
    seen: dict[str, int] = {}
    for row, line in rows:
        if len(row) != len(header):
            raise ParseError(line, "-", f"expected {len(header)} cells, got {len(row)}")
        cid = row[col["cluster_id"]]
        if not cid:
            raise ParseError(line, "cluster_id", "empty cluster_id")
        if cid in seen:
            raise ParseError(
                line, "cluster_id", f"duplicate cluster_id {cid!r} (first at line "
                f"{seen[cid]})"
            )
        seen[cid] = line
        arm = _int_cell(row[col["arm"]], line, "arm")
        if arm not in (0, 1):
            raise ParseError(line, "arm", f"arm must be 0 or 1, got {arm}")
        y = _float_cell(row[col["y_count"]], line, "y_count", minimum=0.0)
        z = _float_cell(row[col["z_count"]], line, "z_count", minimum=0.0)
        covs = []
        for name in xcols:
            raw = row[col[name]]
            if raw == "":
                raise ParseError(line, name, "missing covariate value")
            covs.append(_float_cell(raw, line, name))
        dose = math.nan
        if has_dose:
            raw = row[col["dose"]]
            if raw != "":
                dose = _float_cell(raw, line, "dose", minimum=0.0, maximum=1.0)
        records.append((cid, arm, y, z, covs, dose))
    if not records:
        raise SchemaError("no data rows")
    records.sort(key=lambda r: r[0])
    ids, arm, y, z, x, dose = zip(*records)
    return Trial(ids, arm, y, z, x, dose if has_dose else None)


def _parse_sw(header, rows) -> Panel:
    """The panel of a stepped-wedge file, clusters in sorted id order.
    :class:`IncompletePanel` names the first defect in the cells: a
    missing period, a start period that changes within a cluster (in
    file order), or a missing cell."""
    col = {name: header.index(name) for name in header}
    cells: dict[tuple[str, int], tuple[int, int, float, float]] = {}
    for row, line in rows:
        if len(row) != len(header):
            raise ParseError(line, "-", f"expected {len(header)} cells, got {len(row)}")
        cid = row[col["cluster_id"]]
        if not cid:
            raise ParseError(line, "cluster_id", "empty cluster_id")
        period = _int_cell(row[col["period"]], line, "period", minimum=1)
        start = _int_cell(row[col["start_period"]], line, "start_period", minimum=1)
        key = (cid, period)
        if key in cells:
            raise ParseError(
                line,
                "period",
                f"duplicate (cluster_id, period) = {key!r} (first at line {cells[key][0]})",
            )
        y = _float_cell(row[col["y_count"]], line, "y_count", minimum=0.0)
        z = _float_cell(row[col["z_count"]], line, "z_count", minimum=0.0)
        cells[key] = (line, start, y, z)
    if not cells:
        raise SchemaError("no data rows")
    ids = sorted({cid for cid, _ in cells})
    periods = range(1, max(t for _, t in cells) + 1)
    missing = sorted(set(periods) - {t for _, t in cells})
    if missing:
        raise IncompletePanel(f"missing periods {missing}")
    starts: dict[str, int] = {}
    for (cid, _), (_, start, _, _) in cells.items():
        prior = starts.setdefault(cid, start)
        if prior != start:
            raise IncompletePanel(
                f"cluster {cid!r} has inconsistent start_period ({prior} vs {start})"
            )
    for cid in ids:
        for t in periods:
            if (cid, t) not in cells:
                raise IncompletePanel(f"missing cell (cluster {cid!r}, period {t})")
    y = [[cells[cid, t][2] for t in periods] for cid in ids]
    z = [[cells[cid, t][3] for t in periods] for cid in ids]
    return Panel(tuple(ids), tuple(starts[c] for c in ids), y, z)


# --------------------------------------------------------------------- #
# Scenario files
# --------------------------------------------------------------------- #


def scenario_to_dict(scenario: SimScenario) -> dict:
    if scenario.is_stepped_wedge:
        design = {"kind": "stepped_wedge", "m": scenario.design.m,
                  "q": list(scenario.design.q)}
        baseline_y = [list(row) for row in scenario.baseline_y]
    else:
        design = {"kind": "parallel", "m": scenario.design.m,
                  "m1": scenario.design.m1}
        baseline_y = list(scenario.baseline_y)
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario_id": scenario.scenario_id,
        "design": design,
        "baseline_y": baseline_y,
        "baseline_z": list(scenario.baseline_z),
        "lam": scenario.lam,
        "covariates": list(scenario.covariates) if scenario.covariates else None,
        "covariate_coupling": scenario.covariate_coupling,
        "ascertainment": {
            "beta_shape_a": scenario.ascertainment_a,
            "beta_shape_b": scenario.ascertainment_b,
            "draw_policy": scenario.draw_policy,
            "values": (
                list(scenario.ascertainment_values)
                if scenario.ascertainment_values is not None
                else None
            ),
        },
        "n_replicates": scenario.n_replicates,
        "seed": scenario.seed,
        "alpha": scenario.alpha,
    }


def scenario_from_dict(payload: dict) -> SimScenario:
    try:
        design_spec = payload["design"]
        kind = design_spec["kind"]
        if kind == "parallel":
            design = ParallelScheme(m=design_spec["m"], m1=design_spec["m1"])
            baseline_y = tuple(payload["baseline_y"])
        elif kind == "stepped_wedge":
            design = SteppedWedgeScheme(
                m=design_spec["m"], q=tuple(design_spec["q"])
            )
            baseline_y = tuple(tuple(row) for row in payload["baseline_y"])
        else:
            raise SchemaError(f"unknown design kind {kind!r}")
        asc = payload.get("ascertainment", {})
        values = asc.get("values")
        if values is not None and kind == "stepped_wedge":
            values = tuple(tuple(row) for row in values)
        elif values is not None:
            values = tuple(values)
        covariates = payload.get("covariates")
        return SimScenario(
            scenario_id=payload["scenario_id"],
            design=design,
            baseline_y=baseline_y,
            baseline_z=tuple(payload["baseline_z"]),
            lam=payload.get("lam", 1.0),
            covariates=tuple(covariates) if covariates else None,
            covariate_coupling=payload.get("covariate_coupling", False),
            ascertainment_a=asc.get("beta_shape_a", 0.5),
            ascertainment_b=asc.get("beta_shape_b", 0.5),
            draw_policy=asc.get("draw_policy", "once_per_study"),
            ascertainment_values=values,
            n_replicates=payload.get("n_replicates", 1000),
            seed=payload.get("seed", 1),
            alpha=payload.get("alpha", 0.05),
        )
    except KeyError as exc:
        raise SchemaError(f"scenario file is missing key {exc}") from None


def load_scenario(path: str | Path) -> SimScenario:
    with Path(path).open() as fh:
        return scenario_from_dict(json.load(fh))


# --------------------------------------------------------------------- #
# Reports
# --------------------------------------------------------------------- #


def write_json_report(path: str | Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    with Path(path).open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


METRICS_COLUMNS = [
    "scenario_id",
    "estimator",
    "lam",
    "n_replicates",
    "n_effective",
    "bias",
    "se",
    "ase",
    "por_normal",
    "por_perm",
    "cp",
]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_metrics_csv(rows: Sequence[MetricsRow], path: str | Path) -> None:
    """Tidy per-(scenario, estimator) metrics, stable field order."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for row in rows:
            record = row.to_dict()
            writer.writerow([_csv_cell(record[c]) for c in METRICS_COLUMNS])
