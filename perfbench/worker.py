"""One benchmark process: import ``crtnd.cli``, run one warm-up operation,
then (role ``main``) run operations back to back as a closed loop with one
client.

Prints ``ready`` as soon as the warm-up operation returns; the parent
times the interval from process start to that line as one set-up sample.
The main role then prints one JSON line with per-operation wall and CPU
times, failures, peak resident set and (when traced) per-layer figures.
Run by ``run.py``; needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import checks
import workloads

REF_LOOP_N = 200_000


def reference_loop() -> tuple[float, float]:
    """(wall s, CPU s) of a fixed pure-Python loop that calls no crtnd code.

    Run before the first command and after every command of the timed
    phase, it measures the machine's speed at that moment; command times
    are also reported in multiples of it (see README.md, *Host-relative
    times*)."""
    wall, cpu = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(REF_LOOP_N):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - wall, time.process_time() - cpu


def run_command(cli, argv) -> tuple[str | None, float, float]:
    """(failure or None, wall s, CPU s) of one command; its output captured."""
    sink = io.StringIO()
    failure = None
    wall, cpu = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            failure = f"{argv[0]} raised {type(exc).__name__}: {exc}"
        else:
            if code != 0:
                failure = f"{argv[0]} exited {code}: {sink.getvalue()[-300:]!r}"
    return failure, time.perf_counter() - wall, time.process_time() - cpu


def run_operation(cli, commands, refs: list) -> tuple[str | None, list[float]]:
    """Run an operation's commands with a reference loop after each.

    ``refs`` holds the reference loops run so far; its last entry is the
    one just before this operation.  Returns the failure (or None) and the
    operation's [wall s, CPU s, wall ref, CPU ref], where a ref figure sums
    each command's time over the mean of the two loops that bracket it.
    """
    times = [0.0, 0.0, 0.0, 0.0]
    for argv in commands:
        failure, wall, cpu = run_command(cli, argv)
        refs.append(reference_loop())
        (before_wall, before_cpu), (after_wall, after_cpu) = refs[-2], refs[-1]
        times[0] += wall
        times[1] += cpu
        times[2] += wall / (0.5 * (before_wall + after_wall))
        times[3] += cpu / (0.5 * (before_cpu + after_cpu))
        if failure:
            return failure, times
    return None, times


def check_operation(workload: str, files: dict) -> list[str]:
    if workload == "trial-analysis":
        return checks.check_trial(files)
    if workload == "exact-inference":
        return checks.check_exact(files)
    return checks.check_sim(
        files, lam=workloads.LAM, n_replicates=workloads.SIM_REPLICATES,
        n_sw_replicates=workloads.SIM_SW_REPLICATES,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--role", choices=["probe", "main"], required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import crtnd.cli  # noqa: F401  (the import is part of set-up)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cli = sys.modules["crtnd.cli"]  # looked up per call, so a traced main is used

    commands, files = workloads.operation(args.workload, args.seed, args.workdir, 0)
    for argv in commands:
        failure = run_command(cli, argv)[0]
        if failure:
            break
    print("ready", flush=True)
    if args.role == "probe":
        return 0
    errors = [failure] if failure else check_operation(args.workload, files)
    if errors:
        print(json.dumps({"error": f"warm-up operation failed: {errors[:3]}"}), flush=True)
        return 1
    if tracer is not None:
        tracer.reset()

    ops, failed, rejected, messages = [], 0, 0, []
    refs = [reference_loop()]
    j = 0
    while sum(op[0] for op in ops) < args.seconds:
        j += 1
        commands, files = workloads.operation(args.workload, args.seed, args.workdir, j)
        failure, times = run_operation(cli, commands, refs)
        ops.append(times)
        errors = [failure] if failure else check_operation(args.workload, files)
        if errors:
            failed += 1
            rejected += failure is None
            messages.append(f"operation {j}: {errors[:3]}")
    result = {
        "op_wall_s": [op[0] for op in ops],
        "op_cpu_s": [op[1] for op in ops],
        "op_wall_ref": [op[2] for op in ops],
        "op_cpu_ref": [op[3] for op in ops],
        "ref_wall_s": [r[0] for r in refs],
        "attempted": len(ops),
        "failed": failed,
        "rejected": rejected,
        "messages": messages[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.per_operation(len(ops)) if tracer is not None else None,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
