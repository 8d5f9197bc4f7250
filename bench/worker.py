"""One workload process of the bgframes benchmark.

``run.py`` starts this script with BLAS pinned to one thread in its
environment (before numpy loads) and the checkout's ``src`` on PYTHONPATH.
It prints one JSON object as the last line of stdout.

Modes:
  setup  build the workload's inputs, report ``setup_s`` and exit;
  run    build the inputs, then run closed-loop units for ``--seconds``;
  trace  build the inputs traced, then run ``--seconds / 2`` untraced and
         ``--seconds / 2`` traced, and report per-unit layer metrics.

Units always run in whole passes over the workload's pool, so per-unit
counts from a traced run are exact ratios that repeat across runs and seeds.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent

# bgframes' default verdict and residual tolerance (DEFAULT_TOL).
TOL = 1e-9
# Relative agreement required between reported bounds and the target's
# extreme eigenvalues.
BOUNDS_RTOL = 1e-8
# The tail latency is the highest percentile with this many samples above it.
TAIL_BEYOND = 10

PRESCRIBED = "prescribed_operator"
RANK_DEFICIENT = "rank_deficient"
NON_HERMITIAN = "non_hermitian_pair"

# classify_sweep pool per pass: (dim, block dims, pairs). Kinds run 2:1:1 at
# each shape. Two (4,4,1) pairs per (16,8,4) pair keeps the median inside
# the (4,4,1) prescribed units instead of on the boundary between two
# classes of unit, where it would jump between them from run to run.
SWEEP_SHAPES = ((4, (1,) * 4, 16), (16, (4,) * 8, 8))
# dual_pipeline and cli_session shape.
DUAL_SHAPE = (64, (4,) * 32)
DUAL_PAIRS = 4
DUAL_VECTORS = 2


@dataclass
class Item:
    name: str
    data: object = None
    edges: tuple = None  # (lowest, highest) eigenvalue of the target operator
    vectors: tuple = ()
    expect: int = 0


@dataclass
class Measured:
    latencies: array
    attempted: int
    failed: int
    elapsed: float

    def summary(self) -> dict:
        x = sorted(self.latencies)
        units = len(x)
        percentile, tail = tail_latency(x)
        return {
            "units": units,
            "attempted": self.attempted,
            "failed": self.failed,
            "elapsed_s": self.elapsed,
            "throughput_per_s": units / self.elapsed,
            "latency_p50_ms": statistics.median(x) * 1e3 if x else 0.0,
            "latency_tail_ms": tail * 1e3,
            "tail_percentile": percentile,
        }


def tail_latency(x) -> tuple:
    """(percentile, value) of the sample in sorted ``x`` with exactly
    TAIL_BEYOND samples above it; the maximum, as percentile 100, when there
    are too few samples."""
    n = len(x)
    if n <= TAIL_BEYOND:
        return 100.0, (x[-1] if x else 0.0)
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, x[rank - 1]


def measure(pool, unit, check, seconds: float, rec=None) -> Measured:
    """Closed loop, one caller: whole passes over ``pool`` until ``seconds``.

    A unit counts toward the latencies only when it passes ``check``; an
    exception or a failed check counts as failed. With ``rec``, each unit is
    recorded as a root span named ``unit``.
    """
    latencies = array("d")
    attempted = failed = 0
    reported = False
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for item in pool:
            attempted += 1
            root = rec.open("unit") if rec is not None else None
            try:
                t = time.perf_counter()
                out = unit(item)
                dt = time.perf_counter() - t
                ok = check(item, out)
            except Exception:
                ok = False
                if not reported:
                    traceback.print_exc()
                    reported = True
            finally:
                if rec is not None:
                    rec.close(root)
            if ok:
                latencies.append(dt)
            else:
                failed += 1
                if not reported:
                    print(f"check failed: {item.name}", file=sys.stderr)
                    reported = True
        if time.perf_counter() >= deadline:
            break
    return Measured(latencies, attempted, failed, time.perf_counter() - start)


def target_operator(rng, n: int) -> tuple:
    """Hermitian PD matrix with its spectrum drawn uniformly in [0.5, 2]."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    eigs = rng.uniform(0.5, 2.0, n)
    p = (q * eigs) @ q.conj().T
    return 0.5 * (p + p.conj().T), (float(eigs.min()), float(eigs.max()))


def bounds_match(lower: float, upper: float, edges) -> bool:
    lo, hi = edges
    return abs(lower - lo) <= BOUNDS_RTOL * hi and abs(upper - hi) <= BOUNDS_RTOL * hi


def spec_seed(rng) -> int:
    return int(rng.integers(0, 2**63))


# ---------------------------------------------------------------------------
# Library workloads


class ClassifySweep:
    """Classify small pairs three ways; verdicts checked against the kind."""

    def __init__(self, bg, seed: int):
        self.bg = bg
        rng = np.random.default_rng([seed, 0])
        pool = []
        for n, block_dims, count in SWEEP_SHAPES:
            kinds = [PRESCRIBED] * (count // 2) + [RANK_DEFICIENT, NON_HERMITIAN] * (count // 4)
            for kind in kinds:
                spec = bg.GenSpec(n, block_dims, spec_seed(rng), kind)
                if kind == PRESCRIBED:
                    target, edges = target_operator(rng, n)
                    pool.append(Item(kind, bg.gen_bi_g_frame(spec, target), edges))
                else:
                    pool.append(Item(kind, bg.gen_negative(spec)))
        self.pool = [pool[i] for i in rng.permutation(len(pool))]

    def unit(self, item):
        bg, pair = self.bg, item.data
        return (
            bg.classify_bi_g_frame(pair),
            bg.classify_g_frame(pair.lam),
            bg.classify_biframe(*bg.lift_to_biframe(pair)),
        )

    def check(self, item, out) -> bool:
        pair_report, lam_report, lift_report = out
        if item.name == PRESCRIBED:
            return (
                pair_report.is_frame
                and lam_report.is_frame
                and lift_report.is_frame
                and bounds_match(pair_report.bounds.lower, pair_report.bounds.upper, item.edges)
                and bounds_match(lift_report.bounds.lower, lift_report.bounds.upper, item.edges)
            )
        if item.name == RANK_DEFICIENT:
            return (
                pair_report.is_bessel
                and not pair_report.is_frame
                and not lam_report.is_frame
                and lift_report.is_bessel
                and not lift_report.is_frame
            )
        return (
            not pair_report.is_bessel
            and not pair_report.is_frame
            and lam_report.is_frame
            and not lift_report.is_bessel
        )


class DualPipeline:
    """Classify, dualize, reconstruct and balance identities at (64,32,4)."""

    def __init__(self, bg, seed: int):
        self.bg = bg
        rng = np.random.default_rng([seed, 1])
        n, block_dims = DUAL_SHAPE
        self.pool = []
        for k in range(DUAL_PAIRS):
            target, edges = target_operator(rng, n)
            spec = bg.GenSpec(n, block_dims, spec_seed(rng), PRESCRIBED)
            vectors = tuple(
                rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(DUAL_VECTORS)
            )
            self.pool.append(Item(f"pair-{k}", bg.gen_bi_g_frame(spec, target), edges, vectors))

    def unit(self, item):
        bg, pair = self.bg, item.data
        report = bg.classify_bi_g_frame(pair)
        dual = bg.canonical_pair(pair)
        rebuilt = [
            (bg.reconstruct(pair, f, 1), bg.reconstruct(pair, f, 2)) for f in item.vectors
        ]
        identities = []
        for f in item.vectors:
            for side in ("gamma", "lambda"):
                particular, _ = bg.solve_synthesis_coefficients(pair, f, side)
                identities.append(bg.coefficient_identity_terms(pair, f, particular, side))
        return report, dual, rebuilt, identities

    def check(self, item, out) -> bool:
        report, dual, rebuilt, identities = out
        if not (
            report.is_frame
            and bounds_match(report.bounds.lower, report.bounds.upper, item.edges)
            and len(dual.lam) == len(dual.gam) == len(item.data)
        ):
            return False
        for f, pair in zip(item.vectors, rebuilt):
            scale = np.linalg.norm(f)
            if any(np.linalg.norm(r - f) > TOL * scale for r in pair):
                return False
        return all(abs(lhs - rhs) <= TOL * (1.0 + abs(lhs)) for lhs, rhs in identities)


LIBRARY = {"classify_sweep": ClassifySweep, "dual_pipeline": DualPipeline}


# ---------------------------------------------------------------------------
# CLI workload

_WALL = re.compile(r"wall_time_ms=([0-9.]+)")

# (name, bgf arguments, expected exit code). Run in this order, since
# reconstruct reads the file that dual writes.
SCRIPT = (
    ("check", ["check", "inst.json", "--pair", "L,G"], 0),
    ("bounds", ["bounds", "inst.json", "--pair", "L,G"], 0),
    ("gcheck", ["gcheck", "inst.json", "--system", "L"], 0),
    ("dual", ["dual", "inst.json", "--pair", "L,G", "--out", "dual.json"], 0),
    ("reconstruct-1", ["reconstruct", "dual.json", "--pair", "L,G", "--vector", "e1", "--variant", "1"], 0),
    ("reconstruct-2", ["reconstruct", "dual.json", "--pair", "L,G", "--vector", "e1", "--variant", "2"], 0),
    ("lift", ["lift", "inst.json", "--pair", "L,G", "--out", "lift.json"], 0),
    ("identity", ["identity", "inst.json", "--pair", "L,G", "--vector", "e1", "--perturb", "1"], 0),
    ("check-negative", ["check", "neg.json", "--pair", "L,G"], 1),
)


def _bounds_ok(doc, edges) -> bool:
    return bounds_match(doc["bounds"]["lower"], doc["bounds"]["upper"], edges)


VERDICTS = {
    "check": lambda d, e: d["verdicts"]["is_frame"] and _bounds_ok(d, e),
    "bounds": lambda d, e: d["is_frame"] and _bounds_ok(d, e),
    "gcheck": lambda d, e: d["verdicts"]["is_frame"],
    "dual": lambda d, e: d["written"] == ["L~", "G~"] and _bounds_ok(d, e),
    "reconstruct-1": lambda d, e: d["ok"] and d["max_residual"] <= TOL,
    "reconstruct-2": lambda d, e: d["ok"] and d["max_residual"] <= TOL,
    "lift": lambda d, e: d["verdicts_agree"] and d["lift_verdicts"]["is_frame"],
    "identity": lambda d, e: d["ok"],
    "check-negative": lambda d, e: not d["verdicts"]["is_bessel"] and not d["verdicts"]["is_frame"],
}


class CliSession:
    """One ``bgf`` process at a time through a fixed script.

    Plain units run ``python -m bgframes.cli``; traced units run
    ``traced_cli.py``, which writes each process's spans to ``workdir``.
    """

    def __init__(self, workdir: Path, seed: int, traced_setup: bool = False):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env.pop("BGF_TOL", None)
        self.traced = traced_setup
        self.span_files: list = []
        self._processes = itertools.count()
        self.main_ms: list = []
        self.wall_ms: list = []
        self.reference: dict = {}

        rng = np.random.default_rng([seed, 2])
        n, block_dims = DUAL_SHAPE
        target, self.edges = target_operator(rng, n)
        with open(workdir / "P.json", "w", encoding="utf-8") as handle:
            json.dump(
                {"rows": n, "entries_re": target.real.ravel().tolist(),
                 "entries_im": target.imag.ravel().tolist()},
                handle,
            )
        dims = ",".join(str(m) for m in block_dims)
        common = ["gen", "--dim", str(n), "--dims", dims, "--seed"]
        for argv in (
            [*common, str(spec_seed(rng)), "--target-op", "P.json", "--out", "inst.json"],
            [*common, str(spec_seed(rng)), "--kind", NON_HERMITIAN, "--out", "neg.json"],
        ):
            code, stdout, stderr = self._bgf(argv)
            if code != 0 or json.loads(stdout)["command"] != "gen":
                raise RuntimeError(f"bgf {' '.join(argv)} failed ({code}): {stderr}")
        self.setup_spans = list(self.span_files)
        self.span_files.clear()
        self.pool = [Item(name, argv, self.edges, expect=code) for name, argv, code in SCRIPT]

    def _bgf(self, argv) -> tuple:
        if self.traced:
            out = self.workdir / f"spans-{next(self._processes)}.npz"
            self.span_files.append(out)
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(out), *argv]
        else:
            cmd = [sys.executable, "-m", "bgframes.cli", *argv]
        proc = subprocess.run(
            cmd, cwd=self.workdir, env=self.env, capture_output=True, timeout=120
        )
        return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")

    def unit(self, item):
        t = time.perf_counter()
        code, stdout, stderr = self._bgf(item.data)
        self.wall_ms.append((time.perf_counter() - t) * 1e3)
        walls = _WALL.findall(stderr)
        self.main_ms.append(float(walls[-1]) if walls else math.nan)
        return code, stdout

    def check(self, item, out) -> bool:
        code, stdout = out
        reference = self.reference.setdefault(item.name, stdout)
        return (
            code == item.expect
            and stdout == reference
            and bool(VERDICTS[item.name](json.loads(stdout), item.edges))
        )


# ---------------------------------------------------------------------------
# Per-layer metrics

_BIGFRAMES_TIMED = (
    "classify_bi_g_frame",
    "canonical_pair",
    "reconstruct",
    "solve_synthesis_coefficients",
    "coefficient_identity_terms",
)

# (metric, unit, statistic, span name). Statistics: per-unit "calls", "ms"
# (inclusive), "self_ms" and "bytes" from the traced units; "setup_calls" and
# "setup_ms" per set-up, over spans whose name starts with the span name;
# "extra" for values measured outside the spans.
PER_LAYER = (
    ("kernel.cholesky.calls", "count", "calls", "kernel.cholesky"),
    ("kernel.eigvalsh.calls", "count", "calls", "kernel.eigvalsh"),
    ("kernel.svd.calls", "count", "calls", "kernel.svd"),
    ("kernel.solve_pd.calls", "count", "calls", "kernel.solve_pd"),
    ("kernel.solve_pd.self_ms", "ms", "self_ms", "kernel.solve_pd"),
    ("kernel.hermitian_deviation.calls", "count", "calls", "kernel.hermitian_deviation"),
    ("bigframes.bi_g_frame_operator.calls", "count", "calls", "bigframes.bi_g_frame_operator"),
    *(
        (f"bigframes.{fn}.{stat}", "count" if stat == "calls" else "ms", stat, f"bigframes.{fn}")
        for fn in _BIGFRAMES_TIMED
        for stat in ("calls", "ms")
    ),
    ("gframes.GFrameSystem.builds", "count", "calls", "gframes.GFrameSystem"),
    ("gframes.classify_g_frame.ms", "ms", "ms", "gframes.classify_g_frame"),
    ("gframes.induced_vectors.ms", "ms", "ms", "gframes.induced_vectors"),
    ("frames.classify_biframe.ms", "ms", "ms", "frames.classify_biframe"),
    ("frames.is_riesz_basis.calls", "count", "calls", "frames.is_riesz_basis"),
    ("generators.gen.calls", "count", "setup_calls", "generators."),
    ("generators.gen.ms", "ms", "setup_ms", "generators."),
    ("fileio.load_frame_file.ms", "ms", "ms", "fileio.load_frame_file"),
    ("fileio.load_frame_file.bytes", "B", "bytes", "fileio.load_frame_file"),
    ("fileio.save_frame_file.ms", "ms", "ms", "fileio.save_frame_file"),
    ("fileio.save_frame_file.bytes", "B", "bytes", "fileio.save_frame_file"),
    ("fileio.sha256_of_file.ms", "ms", "ms", "fileio.sha256_of_file"),
    ("cli.import_ms", "ms", "ms", "cli.import"),
    ("cli.main_ms", "ms", "extra", None),
    ("cli.startup_ms", "ms", "extra", None),
    ("trace.throughput_ratio", "ratio", "extra", None),
)


def per_layer(unit_agg: dict, units: int, setup_agg: dict, extra: dict) -> dict:
    functions, byte_totals = unit_agg["functions"], unit_agg["bytes"]
    setup = setup_agg["functions"]
    metrics = {}
    for metric, unit, stat, span in PER_LAYER:
        if stat == "extra":
            value = extra.get(metric, 0.0)
        elif stat == "bytes":
            value = byte_totals.get(span, 0) / units
        elif stat.startswith("setup_"):
            key = stat[len("setup_"):]
            value = sum(e[key] for name, e in setup.items() if name.startswith(span))
        else:
            value = functions.get(span, {}).get(stat, 0) / units
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


# ---------------------------------------------------------------------------
# Entry


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_config": blas.get("openblas configuration"),
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "seed": seed,
    }


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def library(args) -> dict:
    import bgframes as bg

    setup_rec = tracing.Tracer()
    if args.mode == "trace":
        setup_rec.install()
    workload = LIBRARY[args.workload](bg, args.seed)
    setup_rec.uninstall()
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "bgframes": bg.__file__}
    if args.mode == "setup":
        return result
    if args.mode == "run":
        run = measure(workload.pool, workload.unit, workload.check, args.seconds)
        result.update(run.summary(), peak_rss_mb=peak_rss_mb(resource.RUSAGE_SELF))
        return result

    half = args.seconds / 2.0
    plain = measure(workload.pool, workload.unit, workload.check, half)
    unit_rec = tracing.Tracer()
    unit_rec.install()
    traced = measure(workload.pool, workload.unit, workload.check, half, rec=unit_rec)
    unit_rec.uninstall()
    sets = [setup_rec.spans(), unit_rec.spans()]
    tracing.save(args.trace_out, sets)
    extra = {"trace.throughput_ratio": traced.summary()["throughput_per_s"]
             / plain.summary()["throughput_per_s"]}
    result.update(
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        traced_units=traced.attempted,
        spans=len(unit_rec.start),
        metrics=per_layer(
            tracing.aggregate([sets[1]]), traced.attempted, tracing.aggregate([sets[0]]), extra
        ),
    )
    return result


def cli(args) -> dict:
    workdir = Path(args.workdir)
    session = CliSession(workdir, args.seed, traced_setup=args.mode == "trace")
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        return result
    if args.mode == "run":
        run = measure(session.pool, session.unit, session.check, args.seconds)
        result.update(run.summary(), peak_rss_mb=peak_rss_mb(resource.RUSAGE_CHILDREN))
        return result

    half = args.seconds / 2.0
    session.traced = False
    plain = measure(session.pool, session.unit, session.check, half)
    main_ms, wall_ms = list(session.main_ms), list(session.wall_ms)
    session.traced = True
    traced = measure(session.pool, session.unit, session.check, half)
    setup_sets = [s for f in session.setup_spans for s in tracing.load(f)]
    unit_sets = [s for f in session.span_files for s in tracing.load(f)]
    tracing.save(args.trace_out, setup_sets + unit_sets)
    extra = {
        "cli.main_ms": statistics.fmean(main_ms),
        "cli.startup_ms": statistics.fmean(w - m for w, m in zip(wall_ms, main_ms)),
        "trace.throughput_ratio": traced.summary()["throughput_per_s"]
        / plain.summary()["throughput_per_s"],
    }
    result.update(
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        traced_units=traced.attempted,
        spans=sum(len(s["name"]) for s in unit_sets),
        metrics=per_layer(
            tracing.aggregate(unit_sets), traced.attempted, tracing.aggregate(setup_sets), extra
        ),
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*LIBRARY, "cli_session"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, required=True, help="monotonic start time")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    if args.workload == "cli_session":
        result = cli(args)
    else:
        result = library(args)
    result["env"] = environment(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
