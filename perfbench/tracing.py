"""Per-layer tracing from outside the program.

The public functions of each ``crtnd`` module are wrapped, and every
``crtnd`` module that holds a reference to one of them gets the wrapper
in its place, so calls between modules are counted.  Spans nest: a
function's self time is its span's duration less the time covered by
the spans it opened.  A function that returns a generator is timed over
each ``next()`` of its iteration, not over the call.  Totals are kept in
memory and read out once at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function, kind): kind "iter" marks a function whose result
# is an iterator, timed over each next() instead of over the call.
TRACED = (
    ("cli", "main", "call"),
    ("dataio", "parse_dataset", "call"),
    ("dataio", "write_json_report", "call"),
    ("dataio", "write_metrics_csv", "call"),
    ("core", "enumerate_assignments", "iter"),
    ("core", "sample_assignments", "call"),
    ("core", "sample_assignment", "call"),
    ("core", "realize", "call"),
    ("core", "derive_rng", "call"),
    ("core", "log_contrasts", "call"),
    ("estimators", "log_contrast_estimate", "call"),
    ("estimators", "covariate_adjusted_estimate", "call"),
    ("estimators", "tpf_estimate", "call"),
    ("estimators", "odds_ratio_estimate", "call"),
    ("inference", "invert_ci", "call"),
    ("inference", "permutation_test", "call"),
    ("inference", "normal_test", "call"),
    ("inference", "dose_response_estimate", "call"),
    ("stepped_wedge", "sw_permutation_test", "call"),
    ("stepped_wedge", "sw_log_contrast", "call"),
    ("stepped_wedge", "sw_covariance_estimate", "call"),
    ("stepped_wedge", "sw_null_covariance", "call"),
    ("stepped_wedge", "optimal_weights", "call"),
    ("simulation", "evaluate", "call"),
    ("simulation", "simulate_parallel", "iter"),
    ("simulation", "simulate_stepped_wedge", "iter"),
)

ITEMS = {"core.enumerate_assignments": "core.enumerate_assignments.items"}


def _dropped_replicates(out) -> int:
    rows = out[0] if isinstance(out, tuple) else out
    return sum(row.n_replicates - row.n_effective for row in rows)


# counters read off a traced function's result
COUNTERS = {
    "core.sample_assignments": ("core.sample_assignments.rows", lambda out: out.shape[0]),
    "simulation.evaluate": ("simulation.dropped_replicates", _dropped_replicates),
}


def metric_names() -> list[str]:
    """Names of the per-layer timers and counters, in report order."""
    names = []
    for module, name, _ in TRACED:
        names += [f"{module}.{name}.self_s", f"{module}.{name}.calls"]
    return names + list(ITEMS.values()) + [counter for counter, _ in COUNTERS.values()]


class Tracer:
    """Span totals per traced function; install once per process."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []  # child time accumulated per open span

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    def _span(self, key: str, fn, args, kwargs):
        stack, clock = self._stack, time.perf_counter
        stack.append(0.0)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            self.self_s[key] += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed

    def _iterate(self, key: str, items_key: str | None, iterator):
        stack, clock, self_s, counts = self._stack, time.perf_counter, self.self_s, self.counts
        while True:
            stack.append(0.0)
            start = clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                elapsed = clock() - start
                self_s[key] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if items_key is not None:
                counts[items_key] += 1
            yield item

    def wrap(self, module: str, name: str, kind: str, fn):
        key = f"{module}.{name}.self_s"
        calls_key = f"{module}.{name}.calls"
        items_key = ITEMS.get(f"{module}.{name}")
        counter = COUNTERS.get(f"{module}.{name}")
        span, counts = self._span, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[calls_key] += 1
            out = span(key, fn, args, kwargs)
            if kind == "iter":
                return self._iterate(key, items_key, out)
            if counter is not None:
                counts[counter[0]] += counter[1](out)
            return out

        return traced

    def install(self) -> None:
        """Swap every crtnd module's reference to a traced function."""
        import crtnd.cli  # noqa: F401  (loads every module that is traced)

        modules = [m for n, m in sys.modules.items() if n == "crtnd" or n.startswith("crtnd.")]
        for module, name, kind in TRACED:
            original = getattr(sys.modules[f"crtnd.{module}"], name)
            wrapper = self.wrap(module, name, kind, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def per_operation(self, n_ops: int) -> dict[str, float]:
        """Every per-layer figure divided by the number of operations."""
        totals = {**self.counts, **self.self_s}
        return {name: totals.get(name, 0.0) / n_ops for name in metric_names()}
