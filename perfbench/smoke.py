"""Smoke test of the benchmark harness on tiny inputs.

Run from the repository root:

    python3 -m pytest -q perfbench/smoke.py

Each workload runs once untraced and once traced at 2% of its input size,
and must report every metric of BENCHMARK.json with no failed command.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--scale", "0.02"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, proc.stderr
    kind = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[kind]}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.command_s"]["value"] > 0


def test_layer_map_covers_every_per_layer_metric():
    assert list(LAYERS["map"]) == [m["name"] for m in SPEC["per_layer"]]
    assert sorted(LAYERS["target_layers"]) == sorted(WORKLOADS)
    moved = {m["name"] for m in SPEC["end_to_end"]} | {n for n in LAYERS["map"] if n.startswith("cmd.")}
    for entry in LAYERS["map"].values():
        assert set(entry["moves"]) <= moved
        assert set(entry["workloads"]) <= set(WORKLOADS)


def test_refuses_to_run_without_the_sources():
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, WORKLOADS[0], 0)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
