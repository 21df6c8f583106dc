"""Smoke test of the benchmark at tiny budgets.

    python3 -m pytest bench/tests -q

Every declared metric is emitted with its declared unit, no operation
fails, and traced and untraced runs of one seed give the same
deterministic records.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def parse(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    records = {}
    for line in lines:
        if line.startswith("record "):
            _, index, body = line.split(" ", 2)
            records[int(index)] = json.loads(body)
    return json.loads(lines[-1]), records


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_checks_and_records(workload):
    plain, plain_records = parse(bench(workload, 0))
    traced, traced_records = parse(bench(workload, 1))
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in DECLARED[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())
    common = sorted(set(plain_records) & set(traced_records))
    assert common
    for i in common:
        assert plain_records[i] == traced_records[i]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
