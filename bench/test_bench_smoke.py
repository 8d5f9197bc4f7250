"""Smoke test of the benchmark: python3 -m pytest -q bench/test_bench_smoke.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, workload: str, trace: int, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["classify_sweep", "dual_pipeline", "cli_session"])
def test_end_to_end_metrics(workload):
    res = result(bench(ROOT, workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_counts_repeat():
    runs = [result(bench(ROOT, "dual_pipeline", 1)) for _ in range(2)]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in runs:
        assert res["correct"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
        assert res["metrics"]["kernel.cholesky.calls"]["value"] == 656
    counts = [
        {k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"} for res in runs
    ]
    assert counts[0] == counts[1]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "classify_sweep", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
