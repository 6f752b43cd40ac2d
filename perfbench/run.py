"""Benchmark of the crtnd command line, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload trial-analysis --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from ``--seed``, then starts fresh
interpreters one after another that each import ``crtnd.cli`` and run one
warm-up operation: two set-up samples, one interpreter that goes on to run
operations back to back through ``crtnd.cli.main`` for ``--seconds``
seconds of operation time, checking each operation's output after its
timed region, and two more set-up samples.
With ``--trace 1`` a single traced process reports per-layer figures
instead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import reference_loop  # noqa: E402

# Set-up samples: fresh interpreters started before and after the one that
# runs the operations, so the samples span the whole run rather than one
# stretch of the machine's varying speed.
PROBES_BEFORE, PROBES_AFTER = 2, 2
# setup_s is given at the machine speed at which the reference loop takes
# this long (about its fastest here); see README.md, *Host-relative times*
REF_NOMINAL_S = 0.02
IMPORT_SAMPLES = 3  # `python -X importtime` runs per traced run
PROCESS_TIMEOUT_S = 120.0
RUN_TIMEOUT_S = 170  # the whole run, children included


class BenchError(Exception):
    pass


def _env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_worker(root: Path, args, workdir: Path, role: str, trace: int):
    """(seconds from start to the warm-up's end, final JSON line or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", str(workdir), "--role", role, "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"{role} process did not finish its warm-up: {line.strip()!r}")
        rest, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = rest.strip().splitlines()
    payload = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or (role == "main" and (payload is None or "error" in payload)):
        detail = payload.get("error") if payload else f"exit code {proc.returncode}"
        raise BenchError(f"{role} process failed: {detail}")
    return ready, payload


def _import_times(root: Path) -> dict[str, float]:
    """numpy, scipy and crtnd's own share of one `import crtnd.cli`, in s."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import crtnd.cli"],
                          cwd=root, env=_env(root), capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S, check=True)
    entries = []  # (depth, name, cumulative us), children before parents
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, raw = line.split(":", 1)[1].split("|")
        entries.append((len(raw) - len(raw.lstrip()), raw.strip(), int(cumulative)))
    # A module counts for numpy or scipy unless one of the two imported it
    # (numpy submodules that scipy loads are scipy's share); crtnd's total
    # is its outermost entry, which holds both.
    totals = {"numpy": 0, "scipy": 0, "crtnd": 0}
    open_parents: list[str] = []  # top-level package of each enclosing import
    depths: list[int] = []
    for depth, name, cumulative in reversed(entries):  # parents before children
        while depths and depths[-1] >= depth:
            depths.pop()
            open_parents.pop()
        top = name.split(".")[0]
        outer = ("numpy", "scipy") if top != "crtnd" else ("crtnd",)
        if top in totals and not any(p in outer for p in open_parents):
            totals[top] += cumulative
        depths.append(depth)
        open_parents.append(top)
    return {
        "import.numpy_s": totals["numpy"] / 1e6,
        "import.scipy_s": totals["scipy"] / 1e6,
        "import.crtnd_s": (totals["crtnd"] - totals["numpy"] - totals["scipy"]) / 1e6,
    }


def _setup_samples(root: Path, args, workdir: Path, n: int) -> list[tuple[float, float]]:
    """(measured s, host-relative s) of ``n`` probes, each between two
    reference loops."""
    samples = []
    before = reference_loop()[0]
    for _ in range(n):
        ready = _run_worker(root, args, workdir, "probe", 0)[0]
        after = reference_loop()[0]
        samples.append((ready, ready * REF_NOMINAL_S / (0.5 * (before + after))))
        before = after
    return samples


def _timed(root: Path, args, workdir: Path) -> tuple[dict, dict]:
    setup = _setup_samples(root, args, workdir, PROBES_BEFORE)
    _, out = _run_worker(root, args, workdir, "main", 0)
    setup += _setup_samples(root, args, workdir, PROBES_AFTER)
    completed = out["attempted"] - out["failed"]
    print(f"measured: setup_s {statistics.median(s[0] for s in setup):.4f}, "
          f"ops_per_s {completed / sum(out['op_wall_s']):.4f}, "
          f"op_p50_s {statistics.median(out['op_wall_s']):.4f}, "
          f"op_cpu_s {statistics.median(out['op_cpu_s']):.4f}, "
          f"reference loop {statistics.median(out['ref_wall_s']):.4f} s")
    metrics = {
        "setup_s": (statistics.median(s[1] for s in setup), "s"),
        "ops_per_kref": (1000.0 * completed / sum(out["op_wall_ref"]), "1/kref"),
        "op_p50_ref": (statistics.median(out["op_wall_ref"]), "ref"),
        "op_cpu_ref": (statistics.median(out["op_cpu_ref"]), "ref"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }
    return out, metrics


def _traced(root: Path, args, workdir: Path) -> tuple[dict, dict]:
    _, out = _run_worker(root, args, workdir, "main", 1)
    samples = [_import_times(root) for _ in range(IMPORT_SAMPLES)]
    layers = dict(out["layers"])
    for name in samples[0]:
        layers[name] = statistics.median(s[name] for s in samples)
    layers["host.ref_loop_s"] = statistics.median(out["ref_wall_s"])
    print(f"traced: ops_per_kref {1000.0 * out['attempted'] / sum(out['op_wall_ref']):.4f}, "
          f"ops_per_s {out['attempted'] / sum(out['op_wall_s']):.4f} "
          f"(against the untraced run: the tracing overhead)")
    metrics = {
        name: (value, "s" if name.endswith("_s") else "count")
        for name, value in layers.items()
    }
    return out, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="crtnd benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # a terminated or overlong run still stops its worker (_run_worker's finally)
    for signum in (signal.SIGTERM, signal.SIGALRM):
        signal.signal(signum, lambda *_: sys.exit(1))
    signal.alarm(RUN_TIMEOUT_S)

    root = Path.cwd()
    if not (root / "src" / "crtnd" / "cli.py").is_file():
        print("run.py: no src/crtnd/cli.py here; run from the root of a crtnd checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # as an installed package would be: byte-compiled before its first import
    compileall.compile_dir(root / "src" / "crtnd", quiet=1)

    work = root / ".perfbench-work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        workloads.generate(args.workload, args.seed, workdir)
        out, metrics = (_traced if args.trace else _timed)(root, args, workdir)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in out["messages"]:
        print(f"FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<16} {name:<48} {value:12.6g} {unit}")
    result = {
        "correct": out["rejected"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
