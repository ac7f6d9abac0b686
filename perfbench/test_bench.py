"""Self-checks of the benchmark.

    python3 -m pytest perfbench/test_bench.py

They start the benchmark as it is meant to be run (a fresh interpreter, from
the root of the checkout) with a zero time budget, so an untraced run is one
timed pass in each worker and a traced run one timed and one traced pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def metrics(workload, seed, trace):
    proc = run(workload, seed, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


def counts(values):
    return {k: v for k, v in values.items()
            if k.endswith(".calls") or k in tracer.COUNT_NAMES}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    """A later claim may rest on a count only if the count repeats."""
    first = counts(metrics(workload, 3, 1))
    second = counts(metrics(workload, 3, 1))
    assert first == second
    assert sum(first.values()) > 0


def test_each_workload_loads_its_layer():
    nilpotent = metrics("cohom_nilpotent", 3, 1)
    batch = metrics("structure_batch", 3, 1)
    assert nilpotent["trace.matrices_cohomology_frac"] >= 0.9
    assert batch["trace.matrices_cohomology_frac"] < 0.5


def test_untraced_run_reports_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = metrics("cli_cold", 3, 0)
    assert set(values) == {m["name"] for m in spec["end_to_end"]}
    assert all(v > 0 for v in values.values())
    traced = metrics("cli_cold", 3, 1)
    assert set(traced) == {m["name"] for m in spec["per_layer"]}


def test_same_seed_same_inputs(tmp_path):
    import workloads

    a = workloads.build("structure_batch", 9, tmp_path).files
    b = workloads.build("structure_batch", 9, tmp_path).files
    c = workloads.build("structure_batch", 10, tmp_path).files
    assert a == b and a != c


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("cli_cold", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
