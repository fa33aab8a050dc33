"""Tests for the CI bench-regression guard (scripts/check_bench_regression.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parent.parent / "scripts" / "check_bench_regression.py"
spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
guard = importlib.util.module_from_spec(spec)
spec.loader.exec_module(guard)

_MACHINE = {
    "machine": "x86_64",
    "processor": "x86_64",
    "python_version": "3.11.7",
    "system": "Linux",
}


def _payload(stats, machine=_MACHINE):
    return {
        "machine_info": machine,
        "benchmarks": [
            {"fullname": name, "stats": {"min": value, "median": value * 1.1}}
            for name, value in stats.items()
        ],
    }


def _write(tmp_path, name, stats, machine=_MACHINE):
    path = tmp_path / name
    path.write_text(json.dumps(_payload(stats, machine)))
    return str(path)


def test_identical_runs_pass(tmp_path):
    base = _write(tmp_path, "base.json", {"bench_x::test_offload_sweep": 0.01})
    assert guard.main(["--baseline", base, "--current", base]) == 0


def test_hot_path_regression_fails(tmp_path):
    base = _write(tmp_path, "base.json", {"bench_x::test_scheduler_hot": 0.010})
    cur = _write(tmp_path, "cur.json", {"bench_x::test_scheduler_hot": 0.013})
    assert guard.main(["--baseline", base, "--current", cur]) == 1


def test_slowdown_within_threshold_passes(tmp_path):
    base = _write(tmp_path, "base.json", {"bench_x::test_scheduler_hot": 0.010})
    cur = _write(tmp_path, "cur.json", {"bench_x::test_scheduler_hot": 0.0115})
    assert guard.main(["--baseline", base, "--current", cur]) == 0


def test_unguarded_benchmark_may_regress(tmp_path):
    base = _write(tmp_path, "base.json", {"bench_x::test_tokenizer_misc": 0.010})
    cur = _write(tmp_path, "cur.json", {"bench_x::test_tokenizer_misc": 0.100})
    assert guard.main(["--baseline", base, "--current", cur]) == 0


def test_custom_pattern_overrides_default(tmp_path):
    base = _write(tmp_path, "base.json", {"bench_x::test_tokenizer_misc": 0.010})
    cur = _write(tmp_path, "cur.json", {"bench_x::test_tokenizer_misc": 0.100})
    assert (
        guard.main(
            ["--baseline", base, "--current", cur, "--pattern", "tokenizer"]
        )
        == 1
    )


def test_new_and_retired_benchmarks_never_fail(tmp_path):
    base = _write(tmp_path, "base.json", {"bench_x::test_offload_old": 0.010})
    cur = _write(tmp_path, "cur.json", {"bench_x::test_offload_new": 0.010})
    assert guard.main(["--baseline", base, "--current", cur]) == 0


def test_speedup_passes(tmp_path):
    base = _write(tmp_path, "base.json", {"bench_x::test_scheduler_hot": 0.010})
    cur = _write(tmp_path, "cur.json", {"bench_x::test_scheduler_hot": 0.001})
    assert guard.main(["--baseline", base, "--current", cur]) == 0


def test_stat_selection(tmp_path):
    """--stat median compares medians (here 10% above min, so a min-level
    regression hides while a median-level one is caught)."""
    base = _write(tmp_path, "base.json", {"bench_x::test_scheduler_hot": 0.010})
    cur = _write(tmp_path, "cur.json", {"bench_x::test_scheduler_hot": 0.013})
    assert (
        guard.main(
            ["--baseline", base, "--current", cur, "--stat", "median"]
        )
        == 1
    )


def test_python_patch_version_does_not_break_comparability(tmp_path):
    """3.11.7 vs 3.11.9 are the same interpreter line: still enforced."""
    patched = dict(_MACHINE, python_version="3.11.9")
    base = _write(
        tmp_path, "base.json", {"bench_x::test_scheduler_hot": 0.010}, patched
    )
    cur = _write(tmp_path, "cur.json", {"bench_x::test_scheduler_hot": 0.100})
    assert guard.main(["--baseline", base, "--current", cur]) == 1


def test_cross_machine_regression_downgrades_to_warning(tmp_path):
    """A baseline recorded on other hardware must not hard-fail CI."""
    other = dict(_MACHINE, processor="arm64", machine="arm64")
    base = _write(tmp_path, "base.json", {"bench_x::test_scheduler_hot": 0.010}, other)
    cur = _write(tmp_path, "cur.json", {"bench_x::test_scheduler_hot": 0.100})
    assert guard.main(["--baseline", base, "--current", cur]) == 0
    # --strict enforces regardless of hardware drift.
    assert guard.main(["--baseline", base, "--current", cur, "--strict"]) == 1


def test_bad_inputs(tmp_path):
    base = _write(tmp_path, "base.json", {"bench_x::test_scheduler_hot": 0.01})
    with pytest.raises(SystemExit):
        guard.main(["--baseline", str(tmp_path / "missing.json"), "--current", base])
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"benchmarks": []}))
    with pytest.raises(SystemExit):
        guard.main(["--baseline", str(empty), "--current", base])
    assert (
        guard.main(["--baseline", base, "--current", base, "--threshold", "-1"]) == 2
    )


def test_committed_baseline_is_loadable():
    """The repo's own baseline must stay parseable and cover hot paths."""
    baseline = Path(__file__).parent.parent / "BENCH_PR2.json"
    payload = guard.load_payload(str(baseline))
    stats = guard.extract_stats(payload, str(baseline), "min")
    assert any("scheduler" in name for name in stats)
    assert all(value > 0 for value in stats.values())
    assert payload.get("machine_info")  # needed for the comparability check


def test_autotune_controller_hot_path_is_guarded(tmp_path):
    """The adaptive controller's per-step cycle is a guarded hot path."""
    base = _write(
        tmp_path, "base.json",
        {"bench_autotune.py::test_autotune_controller_hot_path": 0.010},
    )
    cur = _write(
        tmp_path, "cur.json",
        {"bench_autotune.py::test_autotune_controller_hot_path": 0.013},
    )
    assert guard.main(["--baseline", base, "--current", cur]) == 1


def test_buffers_arena_hot_path_is_guarded_by_default(tmp_path):
    """The arena lease/release cycle (CPU-bound, stable) sits in the
    default wall-clock gate (the PR 5 pattern extension)."""
    name = "bench_dataplane.py::test_dataplane_buffers_arena_lease_hot_path"
    base = _write(tmp_path, "base.json", {name: 0.010})
    cur = _write(tmp_path, "cur.json", {name: 0.013})
    assert guard.main(["--baseline", base, "--current", cur]) == 1


def test_dataplane_guarded_only_by_the_explicit_wide_invocation(tmp_path):
    """The disk-bound dataplane store benches stay OUT of the tight
    default gate (their min wall-clock swings ~2x between identical
    runs) but fail CI's explicit dataplane invocation — the bench-smoke
    job's BENCH_PR5 guard with a wide threshold."""
    name = "bench_dataplane.py::test_dataplane_filestore_store"
    base = _write(tmp_path, "base.json", {name: 0.010})
    cur = _write(tmp_path, "cur.json", {name: 0.030})  # 3x: catastrophic
    assert guard.main(["--baseline", base, "--current", cur]) == 0  # default gate
    assert (
        guard.main(
            ["--baseline", base, "--current", cur,
             "--threshold", "1.50", "--pattern", "dataplane|buffers"]
        )
        == 1
    )


def test_committed_pr5_baseline_is_loadable():
    """The data-plane baseline must stay parseable and cover its paths."""
    baseline = Path(__file__).parent.parent / "BENCH_PR5.json"
    payload = guard.load_payload(str(baseline))
    stats = guard.extract_stats(payload, str(baseline), "min")
    assert any("dataplane" in name for name in stats)
    assert any("buffers" in name for name in stats)
    assert all(value > 0 for value in stats.values())
    assert payload.get("machine_info")


def test_tenant_benches_are_guarded_by_default(tmp_path):
    """The multi-tenant QoS benches (DRR dequeue, admission hot path)
    sit in the default wall-clock gate (the PR 6 pattern extension)."""
    name = "bench_tenants.py::test_tenant_admission_quota_hot_path"
    base = _write(tmp_path, "base.json", {name: 0.010})
    cur = _write(tmp_path, "cur.json", {name: 0.013})
    assert guard.main(["--baseline", base, "--current", cur]) == 1


def test_kv_serve_benches_are_guarded_by_default(tmp_path):
    """The KV paging front-end's CPU-bound pool benches sit in the
    default wall-clock gate (the PR 7 pattern extension)."""
    for name in (
        "bench_kv.py::test_kv_pool_append_fetch_hot_path",
        "bench_kv.py::test_kv_prefetch_planning_hot_path",
    ):
        base = _write(tmp_path, "base.json", {name: 0.010})
        cur = _write(tmp_path, "cur.json", {name: 0.013})
        assert guard.main(["--baseline", base, "--current", cur]) == 1


def test_uring_backend_benches_are_guarded_by_default(tmp_path):
    """The SQ/CQ backend benches sit in the default wall-clock gate
    (the PR 8 pattern extension)."""
    for name in (
        "bench_uring.py::test_uring_backend_store_round",
        "bench_uring.py::test_thread_backend_store_round",
    ):
        base = _write(tmp_path, "base.json", {name: 0.010})
        cur = _write(tmp_path, "cur.json", {name: 0.013})
        assert guard.main(["--baseline", base, "--current", cur]) == 1


def test_service_manifest_benches_are_guarded_by_default(tmp_path):
    """The service-mode durability benches (manifest replay, compaction
    throughput) sit in the default wall-clock gate (the PR 9 pattern
    extension)."""
    for name in (
        "bench_service.py::test_manifest_replay_small_store",
        "bench_service.py::test_service_compaction_throughput",
    ):
        base = _write(tmp_path, "base.json", {name: 0.010})
        cur = _write(tmp_path, "cur.json", {name: 0.013})
        assert guard.main(["--baseline", base, "--current", cur]) == 1


def test_recovery_benches_are_guarded_by_default(tmp_path):
    """The self-healing benches (breaker cycle, hedge delay derivation,
    failover store path) sit in the default wall-clock gate (the PR 10
    pattern extension)."""
    for name in (
        "bench_recovery.py::test_breaker_trip_probe_close_cycle",
        "bench_recovery.py::test_hedge_delay_derivation_hot_path",
        "bench_recovery.py::test_failover_store_latency_dead_ssd",
    ):
        base = _write(tmp_path, "base.json", {name: 0.010})
        cur = _write(tmp_path, "cur.json", {name: 0.013})
        assert guard.main(["--baseline", base, "--current", cur]) == 1
