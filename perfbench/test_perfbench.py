"""The benchmark's own test, at a tiny size: ``python -m pytest perfbench``.

Every workload runs in both modes, every metric named in
``BENCHMARK.json`` is emitted with its unit, the correctness and digest
checks pass, and the per-layer counts that are exact repeat exactly
across two traced runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.bench import END_TO_END, PER_LAYER, run_benchmark
from perfbench.workloads import TINY, WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: Counts that must repeat exactly from run to run.
REPEATING = (
    "sim.trace.add_per_request",
    "serve.engine.events",
    "serve.engine.settle_calls_per_event",
    "ssd.device.block_read.calls",
    "core.fgrc.lookup.calls",
)


def _run(workload: str, trace: bool) -> dict:
    result = run_benchmark(workload, 42, 0.0, trace, sizes=TINY)
    assert result["violations"] == []
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    return result


def test_spec_lists_the_emitted_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics(workload):
    result = _run(workload, trace=False)
    metrics = result["metrics"]
    assert {name: entry["unit"] for name, entry in metrics.items()} == END_TO_END
    for name, entry in metrics.items():
        assert entry["value"] > 0, name
    assert metrics["ops_ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_counts_repeat(workload):
    first = _run(workload, trace=True)
    second = _run(workload, trace=True)
    assert {name: entry["unit"] for name, entry in first["metrics"].items()} == PER_LAYER
    assert first["digest"] == second["digest"]
    for name in REPEATING:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    # Each workload reaches the layers its choice was made for.
    counts = {name: entry["value"] for name, entry in first["metrics"].items()}
    assert counts["system.read.calls"] > 0
    if workload == "paper-zipf-mix":
        assert counts["serve.engine.events"] == 0
        assert counts["ssd.device.block_read.calls"] > 0
    else:
        assert counts["serve.engine.events"] > 0
        assert counts["system.write.calls"] > 0
    if workload == "cluster-hedged-stall":
        assert counts["cluster.hedges_issued"] > 0
        assert counts["serve.engine.settlers"] == 49


def test_exits_without_the_program(tmp_path):
    """Next to nothing but the benchmark, it fails and prints no result."""
    here = Path(__file__).resolve().parent
    (tmp_path / "perfbench").mkdir()
    for source in here.glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-graph-rw", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
