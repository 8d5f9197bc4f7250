"""Benchmark for bgframes: run one workload and print its metrics.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src``, never from an install. Workloads are
``classify_sweep``, ``dual_pipeline`` and ``cli_session`` (see README.md in
this directory). The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-unit layer metrics of a traced run with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("classify_sweep", "dual_pipeline", "cli_session")
# Set-ups measured per run (the measured run's own plus probes); setup_s is
# their median.
SETUP_RUNS = 5
# Every process of a run ends within this many seconds of its start.
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    """Environment of every workload process: BLAS on one thread, before
    numpy loads, and the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    paths = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def git_commit():
    """HEAD of the checkout's own repository, or None outside one."""
    git_dir = ROOT / ".git"
    if not git_dir.is_dir():
        return None
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git_dir / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bgframes").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_worker(args, mode: str, workdir: Path, deadline: float, trace_out=None) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--workdir", str(workdir),
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    timeout = max(1.0, deadline - time.monotonic())
    cmd += ["--t0", repr(time.monotonic())]
    # A session of its own, so that a stuck worker is stopped together with
    # the bgf process it may be waiting on.
    proc = subprocess.Popen(
        cmd, cwd=workdir, env=child_env(), stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{mode} process for {args.workload} exceeded {timeout:.0f} s")
        raise
    if proc.returncode != 0:
        raise BenchError(f"{mode} process for {args.workload} exited {proc.returncode}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process for {args.workload} printed no result")
    result = json.loads(lines[-1])
    where = result.get("bgframes")
    if where is not None and not Path(where).resolve().is_relative_to(SRC):
        raise BenchError(f"bgframes was imported from {where}, not from {SRC}")
    return result


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args, workdir: Path, deadline: float) -> tuple:
    """End-to-end metrics, with tracing off.

    Set-up-only processes run on both sides of the measured one, so the
    median set-up time samples the machine across the whole run.
    """
    probes = SETUP_RUNS - 1
    setups = [run_worker(args, "setup", workdir, deadline)["setup_s"] for _ in range(probes // 2)]
    run = run_worker(args, "run", workdir, deadline)
    setups.append(run["setup_s"])
    setups += [
        run_worker(args, "setup", workdir, deadline)["setup_s"] for _ in range(probes - probes // 2)
    ]
    metrics = {
        "throughput_per_s": metric(run["throughput_per_s"], "units/s"),
        "latency_p50_ms": metric(run["latency_p50_ms"], "ms"),
        "latency_tail_ms": metric(run["latency_tail_ms"], "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
    }
    notes = [
        f"verified units {run['units']} in {run['elapsed_s']:.3f} s, closed loop, one caller",
        f"latency_tail_ms is p{run['tail_percentile']:.4g} of {run['units']} samples",
        f"setup_s is the median of {len(setups)} set-ups: "
        + ", ".join(f"{s:.4f}" for s in setups),
        f"error_rate {run['failed'] / run['attempted']:.6g} "
        f"({run['failed']} of {run['attempted']} units failed)",
    ]
    return run, metrics, notes


def trace(args, workdir: Path, deadline: float) -> tuple:
    """Per-unit layer metrics from one traced run."""
    trace_out = WORK / f"trace-{args.workload}.npz"
    run = run_worker(args, "trace", workdir, deadline, trace_out=trace_out)
    notes = [
        f"{run['traced_units']} traced units, {run['spans']} spans written to "
        f"{trace_out.relative_to(ROOT)}",
        f"error_rate {run['failed'] / run['attempted']:.6g} "
        f"({run['failed']} of {run['attempted']} units failed)",
    ]
    return run, run["metrics"], notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "bgframes" / "__init__.py").is_file():
        print(f"error: no bgframes package under {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run, metrics, notes = (trace if args.trace else measure)(args, workdir, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = dict(run["env"], git_commit=git_commit(), source_sha256=source_digest())
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(note)
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0 and run["attempted"] >= 1,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
