"""The benchmark's per-layer tracer names functions of ``crtnd`` by
string; a renamed or deleted function breaks every traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{name}"
        for module, name, _ in tracing.TRACED
        if not callable(getattr(importlib.import_module(f"crtnd.{module}"), name, None))
    ]
    assert tracing.TRACED and missing == []
