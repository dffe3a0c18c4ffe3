"""Smoke test: every workload at a tiny size prints every metric with its unit.

    python3 -m pytest -q perfbench/test_smoke.py

Runs from the repository root; each case starts ``perfbench/run.py`` as its
own process, the way the benchmark is driven.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

# Every runnable workload, including those BENCHMARK.json does not declare.
WORKLOADS = sorted(workloads.WORKLOADS)


def run_bench(cwd: Path, workload: str, trace: int, instances: int = 4):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.01", "--trace", str(trace),
         "--instances", str(instances)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 4  # one full pass over four instances
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    report = lines[:-1]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.split()[1:2] == [metric["name"]]
                   and metric["unit"] in line.split()[3:4] for line in report), \
            metric["name"]
    if not trace:
        assert any(line.split()[1:2] == ["fail_frac"] for line in report)
        env = json.loads(next(line for line in report
                              if line.startswith("# env "))[len("# env "):])
        for key in ("rational_backend", "python", "nproc", "seed", "m_range"):
            assert key in env


def test_missing_trace_target_is_an_error():
    """A renamed layer boundary stops the traced run instead of reading 0."""
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer

    tracer = Tracer()
    with pytest.raises(LookupError):
        tracer._patch_function("packing", "no_such_function", "packing.none")
    with pytest.raises(LookupError):
        tracer._patch_method("matroids", "SparsityMatroid", "no_such_method", None)


def test_refuses_without_sources():
    """In a directory holding only the benchmark, it fails without a result."""
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, WORKLOADS[0], 0)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
