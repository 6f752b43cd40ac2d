import csv
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from crtnd import Panel, PotentialTable, Trial
from crtnd.dataio import scenario_to_dict

# child interpreters (``python -m crtnd.cli``) import the package under
# test, as pytest's own ``pythonpath = ["src"]`` setting does in process
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)


# counts that stress the CSV round trip: subnormal, non-terminating,
# above 2**53, and zero
AWKWARD_COUNTS = st.one_of(
    st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 5e-324, 0.1, 1 / 3, 2.0**53 + 2, 1e15, 1e16 + 2]),
)


def make_records(lvals, arms, *, z=100.0, covariates=None, doses=None):
    """A trial whose log-contrasts equal ``lvals`` exactly (z fixed)."""
    m = len(lvals)
    return Trial(
        cluster_ids=tuple(f"c{i:02d}" for i in range(m)),
        arm=[int(a) for a in arms],
        y=[z * math.exp(l) for l in lvals],
        z=[z] * m,
        x=covariates,
        dose=doses,
    )


def _format_number(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def emit_dataset(data: Trial | Panel, path) -> None:
    """Write a dataset as CSV in canonical order: the parser's round-trip
    oracle, ``parse_dataset(path)[1] == data``."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        if isinstance(data, Panel):
            writer.writerow(["cluster_id", "period", "start_period", "y_count", "z_count"])
            for i, cid in enumerate(data.cluster_ids):
                for t in range(data.n_periods):
                    y, z = _format_number(data.y[i, t]), _format_number(data.z[i, t])
                    writer.writerow([cid, t + 1, data.start_periods[i], y, z])
            return
        has_dose = data.dose is not None
        header = ["cluster_id", "arm", "y_count", "z_count"]
        header += [f"x{i + 1}" for i in range(data.x.shape[1])]
        if has_dose:
            header.append("dose")
        writer.writerow(header)
        for i in sorted(range(data.m), key=data.cluster_ids.__getitem__):
            row = [
                data.cluster_ids[i],
                int(data.arm[i]),
                _format_number(data.y[i]),
                _format_number(data.z[i]),
            ]
            row.extend(_format_number(v) for v in data.x[i])
            if has_dose:
                dose = data.dose[i]
                row.append("" if math.isnan(dose) else _format_number(dose))
            writer.writerow(row)


def benchmark_inputs(workload: str, seed: int, workdir) -> None:
    """Write the input files of ``perfbench/workloads.py`` for one seed."""
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.generate(workload, seed, Path(workdir))


def save_scenario(scenario, path) -> None:
    """Write ``scenario`` as a scenario file that ``load_scenario`` reads."""
    with Path(path).open("w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


@pytest.fixture
def oracle_table_m6():
    """m=6 table with heterogeneous ascertainment and a covariate."""
    rng = np.random.default_rng(42)
    y0 = rng.uniform(20, 120, size=6)
    z0 = rng.uniform(60, 300, size=6)
    c = rng.uniform(0.3, 1.6, size=6)
    x = rng.uniform(0.8, 2.5, size=(6, 1))

    def build(lam):
        return PotentialTable(lam=lam, y0=y0, z0=z0, c=c, covariates=x)

    return build
