import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from crtnd import ClusterRecord, PotentialTable, Trial

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
    records = []
    for i, (l, a) in enumerate(zip(lvals, arms)):
        records.append(
            ClusterRecord(
                cluster_id=f"c{i:02d}",
                arm=int(a),
                y_count=z * math.exp(l),
                z_count=z,
                covariates=tuple(covariates[i]) if covariates is not None else (),
                dose=None if doses is None else float(doses[i]),
            )
        )
    return Trial.from_records(records)


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
