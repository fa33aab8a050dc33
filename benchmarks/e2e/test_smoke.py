"""Smoke test of the end-to-end benchmark (collected by the tier-1 run).

Runs every workload in ``--quick`` mode and checks the *shape* of what
comes out — names, counts, finiteness, the output contract — never a
timing, so the test cannot flake on a busy host.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402  (needs HERE on sys.path)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNGS = ("raw", "store", "offloader", "scheduler")


def quick_run(out_dir: Path, workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out-dir", str(out_dir)]
        + ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    results = json.loads((out_dir / f"results-{workload}-seed3-trace{trace}.json").read_text())
    return last, results


def assert_contract(last, defined) -> None:
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {spec["name"] for spec in defined}
    units = {spec["name"]: spec["unit"] for spec in defined}
    for name, metric in last["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == units[name]
        assert math.isfinite(metric["value"]), name


def test_benchmark_json_is_the_catalog_within_the_contract():
    assert BENCHMARK == catalog.benchmark_json(
        BENCHMARK["command"], BENCHMARK["paths"], BENCHMARK["run_seconds"]
    )
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    tables = [BENCHMARK[key] for key in ("workloads", "end_to_end", "per_layer")]
    names = [row["name"] for table in tables for row in table]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert all(set(layer.workloads) <= workloads for layer in catalog.PER_LAYER)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_quick_traced_run_emits_every_metric(tmp_path, workload):
    last, results = quick_run(tmp_path, workload, trace=1)
    assert_contract(last, BENCHMARK["per_layer"])
    # Every layer the catalog says this workload enters was measured.
    measured_here = [m.name for m in catalog.PER_LAYER if workload in m.workloads]
    assert any(last["metrics"][name]["value"] != 0 for name in measured_here)
    # The traced run's untraced phase measured the end-to-end metrics too.
    untraced = results["end_to_end_of_untraced_phase"]
    assert set(untraced) == {spec["name"] for spec in BENCHMARK["end_to_end"]}
    assert all(math.isfinite(m["value"]) and m["value"] != 0 for m in untraced.values())
    assert results["environment"]["store_fs"] and results["seed"] == 3
    assert (tmp_path / f"trace-{workload}-seed3.json").stat().st_size > 0
    assert not list((tmp_path / "store").iterdir()), "a store directory was left behind"
    if workload == "engine_replay":
        # The printed ladder: every rung's self time, summed, is the top rung.
        rows = [line.split() for line in results["report"]]
        rungs = {row[0]: [float(x) for x in row[1:]] for row in rows if row and row[0] in RUNGS}
        selfs = [[float(x) for x in row[1:]] for row in rows if row and row[0] == "self"]
        assert list(rungs) == list(RUNGS) and len(selfs) == len(RUNGS)
        for column, top in enumerate(rungs["scheduler"]):
            assert sum(row[column] for row in selfs) == pytest.approx(top, abs=0.05)


def test_quick_untraced_run_reports_the_end_to_end_metrics(tmp_path):
    last, _ = quick_run(tmp_path, "engine_replay", trace=0)
    assert_contract(last, BENCHMARK["end_to_end"])
    assert all(metric["value"] != 0 for metric in last["metrics"].values())


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    """The driver also runs the command where only ``BENCHMARK.json`` and
    the benchmark's own files exist."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable] + BENCHMARK["command"][1:] + ["--workload", "kv_serve", "--seed", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
