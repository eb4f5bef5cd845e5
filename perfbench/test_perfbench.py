"""Smoke test for the benchmark itself: every workload at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs in well under a minute. Besides the output checks of a normal run it
asserts that every wrapped engine function is hit on the workload meant to
exercise it, so a rename in ``src/`` breaks this test instead of leaving a
per-layer metric silently at zero.
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
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import measure  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_tiny_run_is_correct_and_hits_its_layers(workload, tmp_path):
    manifest = gen.prepare(workload, 7, "tiny", tmp_path)
    plan = {k: v for k, v in manifest.items() if k not in ("catalog_entries", "local_skills")}
    output = measure(workload, plan, tmp_path, seconds=0.0, trace=True)

    assert [r["traced"] for r in output["rounds"]] == [False, True]
    assert sum(r["failed"] for r in output["rounds"]) == 0
    checker = run.Checker(manifest)
    if workload == "browse-grown":
        checker.browse(output["rounds"])
    else:
        for result in output["rounds"]:
            checker.mining_round(result)
    assert checker.problems == []

    expected = [f"{module}.{attr}" for _n, module, attr, w in spans.TARGETS if w == workload]
    missed = [target for target in expected if not output["hits"].get(target)]
    assert missed == [], f"wrapped functions never called on {workload}: {missed}"

    layer_names = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(run.per_layer(output)) == layer_names


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_cli_run_reports_its_end_to_end_metrics(workload):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", "0", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_same_inputs(tmp_path):
    for name in ("a", "b"):
        gen.generate_fresh(5, "tiny", tmp_path / name)
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_refuses_to_run_without_engine_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mine-fresh", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
