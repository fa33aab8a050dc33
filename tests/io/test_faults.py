"""Unit tests for the failure model: the error taxonomy and retry rule,
checksum framing in both stores, the fault injector's determinism, job
retry-with-backoff, the scheduler's FAILED accounting + worker
survival, and the per-lane health tracker."""

import threading

import numpy as np
import pytest

from repro.io import (
    ChunkedTensorStore,
    IORequest,
    IOScheduler,
    LaneHealthTracker,
    Priority,
    TensorFileStore,
)
from repro.io.aio import IOJob, JobState
from repro.io.errors import (
    IntegrityError,
    PermanentIOError,
    TransientIOError,
    is_retryable,
    retry_call,
)
from repro.io.faults import FaultInjector, FaultPlan, inject_faults
from repro.io.filestore import FRAME_HEADER_BYTES, frame_payload, unframe_payload
from repro.io.trace import IOTracer


def _req(fn, kind="store", priority=Priority.STORE, nbytes=0, tid="t", lane="ssd", **kw):
    return IORequest(
        fn, kind=kind, priority=priority, tensor_id=tid, nbytes=nbytes, lane=lane, **kw
    )


# ------------------------------------------------------------------- taxonomy
def test_retry_classification():
    assert is_retryable(TransientIOError("blip"))
    assert is_retryable(IntegrityError("crc"))
    assert is_retryable(TimeoutError())
    assert is_retryable(OSError("EIO"))  # generic device errno: retryable
    assert not is_retryable(PermanentIOError("dead"))
    assert not is_retryable(FileNotFoundError("gone"))
    assert not is_retryable(PermissionError("denied"))
    assert not is_retryable(ValueError("a bug, not a device"))


def test_retry_call_heals_transient_and_fails_fast_on_permanent():
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise TransientIOError("blip")
        return "ok"

    assert retry_call(flaky, max_retries=2, backoff_s=0) == "ok"
    assert len(calls) == 3

    dead_calls = []

    def dead():
        dead_calls.append(1)
        raise PermanentIOError("bricked")

    with pytest.raises(PermanentIOError):
        retry_call(dead, max_retries=5, backoff_s=0)
    assert len(dead_calls) == 1  # no pointless retries on a dead device


def test_retry_call_exhausts_budget():
    calls = []

    def always():
        calls.append(1)
        raise TransientIOError("blip")

    with pytest.raises(TransientIOError):
        retry_call(always, max_retries=2, backoff_s=0)
    assert len(calls) == 3  # first try + 2 retries


# ------------------------------------------------------------ checksum frames
def test_frame_roundtrip_and_corruption():
    payload = b"hello tensor bytes"
    framed = frame_payload(payload)
    assert len(framed) == FRAME_HEADER_BYTES + len(payload)
    assert unframe_payload(framed, "t") == payload
    with pytest.raises(IntegrityError):  # torn: shorter than the header
        unframe_payload(framed[:8], "t")
    with pytest.raises(IntegrityError):  # torn: payload truncated
        unframe_payload(framed[:-4], "t")
    flipped = bytearray(framed)
    flipped[-1] ^= 0xFF
    with pytest.raises(IntegrityError):  # bit-rot: crc mismatch
        unframe_payload(bytes(flipped), "t")
    bad_magic = b"XXXX" + framed[4:]
    with pytest.raises(IntegrityError):
        unframe_payload(bad_magic, "t")


def test_filestore_detects_bit_rot_and_torn_writes(tmp_path):
    store = TensorFileStore(tmp_path)
    data = np.arange(64, dtype=np.float32)
    store.write("a", data)
    out = store.read("a", (64,), np.dtype(np.float32))
    assert np.array_equal(out, data)
    # Bit-rot at rest: flip one payload byte on disk.
    path = store.path_for("a")
    raw = bytearray(path.read_bytes())
    raw[FRAME_HEADER_BYTES + 5] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError):
        store.read("a", (64,), np.dtype(np.float32))
    # Torn write: a prefix of the file.
    store.write("b", data)
    pb = store.path_for("b")
    pb.write_bytes(pb.read_bytes()[: FRAME_HEADER_BYTES + 10])
    with pytest.raises(IntegrityError):
        store.read("b", (64,), np.dtype(np.float32))


def test_chunkstore_detects_bit_rot_after_flush(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=1 << 20)
    data = np.arange(32, dtype=np.float32)
    store.write("a", data)
    store.write("b", data + 1)
    # Open-chunk reads verify too (and pass on clean bytes).
    assert np.array_equal(store.read("a", (32,), np.dtype(np.float32)), data)
    store.flush()
    path = store.path_for("b")
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # inside b's payload
    path.write_bytes(bytes(raw))
    assert np.array_equal(store.read("a", (32,), np.dtype(np.float32)), data)
    with pytest.raises(IntegrityError):
        store.read("b", (32,), np.dtype(np.float32))
    # Torn chunk: truncation starves the ranged read.
    path.write_bytes(bytes(raw[:16]))
    with pytest.raises(IntegrityError):
        store.read("b", (32,), np.dtype(np.float32))


# ------------------------------------------------------------- fault injector
def test_fault_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(transient_write_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(transient_repeats=0)
    with pytest.raises(ValueError):
        FaultPlan(dead_after_ops=-1)
    with pytest.raises(ValueError):
        FaultPlan(latency_spike_s=-0.1)


def test_injector_transient_faults_heal_on_retry(tmp_path):
    store = TensorFileStore(tmp_path)
    injector = FaultInjector(store, FaultPlan.transient(rate=1.0, seed=3))
    data = np.ones(16, dtype=np.float32)
    with pytest.raises(TransientIOError):
        injector.write("a", data)
    injector.write("a", data)  # the retry of the same op goes through
    with pytest.raises(TransientIOError):
        injector.read("a", (16,), np.dtype(np.float32))
    out = injector.read("a", (16,), np.dtype(np.float32))
    assert np.array_equal(out, data)
    assert injector.fault_stats.injected_transient == 2
    # Pass-through of the wrapped store's surface.
    assert injector.write_count == 1
    assert injector.path_for("a") == store.path_for("a")


def test_injector_transient_repeats_bound_consecutive_faults(tmp_path):
    injector = FaultInjector(
        TensorFileStore(tmp_path),
        FaultPlan(transient_write_rate=1.0, transient_repeats=2, seed=0),
    )
    data = np.ones(4, dtype=np.float32)
    for _ in range(2):
        with pytest.raises(TransientIOError):
            injector.write("a", data)
    injector.write("a", data)  # third attempt heals


def test_injector_permanent_death(tmp_path):
    injector = FaultInjector(TensorFileStore(tmp_path), FaultPlan.dead(after_ops=1))
    data = np.ones(4, dtype=np.float32)
    injector.write("a", data)  # op 1 is still alive
    with pytest.raises(PermanentIOError):
        injector.write("b", data)
    with pytest.raises(PermanentIOError):  # death is sticky
        injector.read("a", (4,), np.dtype(np.float32))
    assert injector.fault_stats.permanent_failures == 2
    # Programmatic kill as well.
    fresh = FaultInjector(TensorFileStore(tmp_path / "f"), FaultPlan())
    fresh.write("a", data)
    fresh.kill()
    assert fresh.dead
    with pytest.raises(PermanentIOError):
        fresh.write("b", data)


def test_injector_bit_rot_surfaces_as_integrity_error(tmp_path):
    injector = FaultInjector(TensorFileStore(tmp_path), FaultPlan(bit_rot_rate=1.0))
    data = np.arange(32, dtype=np.float32)
    injector.write("a", data)  # write lands, then rots at rest
    assert injector.fault_stats.injected_bit_rot == 1
    with pytest.raises(IntegrityError):
        injector.read("a", (32,), np.dtype(np.float32))


def test_injector_torn_write_surfaces_as_integrity_error(tmp_path):
    injector = FaultInjector(TensorFileStore(tmp_path), FaultPlan(torn_write_rate=1.0))
    data = np.arange(32, dtype=np.float32)
    injector.write("a", data)
    assert injector.fault_stats.injected_torn_writes == 1
    with pytest.raises(IntegrityError):
        injector.read("a", (32,), np.dtype(np.float32))


def test_injector_skips_corrupting_open_chunk(tmp_path):
    """A chunk store's open chunk has no backing file yet; at-rest
    corruption is recorded as skipped, not crashed."""
    injector = FaultInjector(
        ChunkedTensorStore(tmp_path, chunk_bytes=1 << 20), FaultPlan(bit_rot_rate=1.0)
    )
    injector.write("a", np.ones(8, dtype=np.float32))
    assert injector.fault_stats.skipped_corruptions == 1


def test_injector_determinism_same_seed_same_faults(tmp_path):
    def run(seed):
        injector = FaultInjector(
            TensorFileStore(tmp_path / f"s{seed}"),
            FaultPlan.transient(rate=0.5, seed=seed),
        )
        outcomes = []
        for i in range(32):
            try:
                injector.write(f"t{i}", np.ones(4, dtype=np.float32))
                outcomes.append("ok")
            except TransientIOError:
                outcomes.append("fault")
        return outcomes

    assert run(7) == run(7)
    assert run(7) != run(8)  # different seed, different schedule


def test_inject_faults_wraps_offloaders(tmp_path):
    from repro.core import SSDOffloader
    from tests.conftest import build_tier

    ssd = SSDOffloader(tmp_path / "a")
    injector = inject_faults(ssd, FaultPlan())
    assert ssd.file_store is injector
    tiered = build_tier(tmp_path / "b", cpu_pool_bytes=1 << 20)
    injector = inject_faults(tiered, FaultPlan())
    assert tiered.ssd.file_store is injector
    tiered.shutdown()
    with pytest.raises(TypeError):
        inject_faults(object(), FaultPlan())


# ------------------------------------------------------------------ job retry
def test_iojob_retries_transient_then_succeeds():
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise TransientIOError("blip")
        return 42

    job = IOJob(flaky, max_retries=2, retry_backoff_s=0)
    job.run()
    assert job.state is JobState.DONE
    assert job.result == 42
    assert job.attempts == 2


def test_iojob_fails_fast_on_permanent_error():
    calls = []

    def dead():
        calls.append(1)
        raise PermanentIOError("bricked")

    job = IOJob(dead, max_retries=5, retry_backoff_s=0)
    job.run()
    assert job.state is JobState.FAILED
    assert job.attempts == 0
    assert len(calls) == 1


def test_iojob_default_budget_is_zero():
    calls = []

    def flaky():
        calls.append(1)
        raise TransientIOError("blip")

    job = IOJob(flaky)
    job.run()
    assert job.state is JobState.FAILED
    assert len(calls) == 1


# --------------------------------------------------------- scheduler failures
def test_scheduler_retries_transient_requests(tmp_path):
    sched = IOScheduler(workers=2)
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) < 2:
            raise TransientIOError("blip")
        return "ok"

    req = sched.submit(_req(flaky, nbytes=64))
    assert req.wait(5)
    assert req.state is JobState.DONE
    assert sched.stats.retries == 1
    assert sched.stats.failed == 0
    assert sched.stats.executed == 1
    sched.shutdown()


def test_scheduler_failed_accounting_reconciles():
    sched = IOScheduler(workers=2, retry_backoff_s=0)

    def boom():
        raise PermanentIOError("bricked")

    ok = sched.submit(_req(lambda: None, tid="ok"))
    bad = sched.submit(_req(boom, nbytes=128, tid="bad"))
    assert sched.drain(5)
    assert ok.state is JobState.DONE
    assert bad.state is JobState.FAILED
    assert isinstance(bad.error, PermanentIOError)
    stats = sched.stats
    assert stats.failed == 1
    assert stats.failed_bytes == 128
    assert stats.submitted == stats.executed + stats.failed + stats.cancelled
    sched.shutdown()


def test_failed_requests_do_not_inflate_bandwidth_windows():
    sched = IOScheduler(workers=2, retry_backoff_s=0)
    tracer = IOTracer()
    tracer.listen(sched)

    def boom():
        raise PermanentIOError("bricked")

    sched.submit(_req(boom, nbytes=1 << 20, tid="bad"))
    sched.submit(_req(lambda: None, nbytes=512, tid="ok"))
    assert sched.drain(5)
    sched.shutdown()  # workers joined: both done events are delivered
    window = tracer.channels()["ssd", "write"]
    assert window.nbytes == 512  # the failed MiB moved no usable bytes
    assert window.count == 1
    # ...but the time it held the channel was real.
    bad = next(e for e in tracer.events if e.tensor_id == "bad")
    assert bad.failed and window.busy_s >= bad.end_s - bad.start_s


def test_worker_survives_raising_done_callback_and_drain_returns():
    """Regression for the original bug class: an exception escaping the
    job (here, from a done callback) must not kill the worker thread —
    the work queued behind it still runs and drain() returns."""
    sched = IOScheduler(workers=2, lanes=("ssd",))
    ran = []

    poisoned = _req(lambda: None, tid="poison")
    poisoned.add_done_callback(lambda j: (_ for _ in ()).throw(RuntimeError("cb boom")))
    sched.submit(poisoned)
    for i in range(4):
        sched.submit(_req(lambda i=i: ran.append(i), tid=f"t{i}"))
    assert sched.drain(5), "drain must not hang after a poisoned request"
    assert sorted(ran) == list(range(4))
    for worker in sched._workers:
        assert worker.is_alive()
    sched.shutdown()


def test_worker_survives_raising_listener():
    sched = IOScheduler(workers=2, lanes=("ssd",))
    sched.add_listener(lambda event, req: (_ for _ in ()).throw(ValueError("listener")))
    done = threading.Event()
    sched.submit(_req(done.set, tid="a"))
    assert done.wait(5)
    assert sched.drain(5)
    for worker in sched._workers:
        assert worker.is_alive()
    sched.shutdown()


def test_scheduler_validation_of_retry_knobs():
    with pytest.raises(ValueError):
        IOScheduler(max_retries=-1)
    with pytest.raises(ValueError):
        IOScheduler(retry_backoff_s=-0.1)


def test_explicit_zero_retries_opt_out():
    sched = IOScheduler(workers=2, max_retries=3,
                        retry_backoff_s=0)
    calls = []

    def flaky():
        calls.append(1)
        raise TransientIOError("blip")

    req = sched.submit(_req(flaky, tid="noretry", max_retries=0))
    assert req.wait(5)
    assert req.state is JobState.FAILED
    assert len(calls) == 1
    sched.shutdown()


# ------------------------------------------------------------------ lane health
def test_lane_health_tracker_death_rules():
    health = LaneHealthTracker(death_threshold=3)
    assert not health.is_dead("ssd")
    health.record_failure("ssd")
    health.record_failure("ssd")
    health.record_success("ssd")  # success resets the consecutive count
    health.record_failure("ssd")
    health.record_failure("ssd")
    assert not health.is_dead("ssd")
    health.record_failure("ssd")  # third consecutive
    assert health.is_dead("ssd")
    assert health.dead_lanes() == ("ssd",)
    health.revive("ssd")
    assert not health.is_dead("ssd")
    # One permanent error kills instantly.
    health.record_failure("cpu", permanent=True)
    assert health.is_dead("cpu")
    snap = health.snapshot()
    assert snap["ssd"].failures == 5 and snap["cpu"].dead
    with pytest.raises(ValueError):
        LaneHealthTracker(death_threshold=0)


def _failures(health):
    """Cumulative device failures per lane (lanes without any omitted);
    "failures since" is a difference of two of these."""
    return {lane: s.failures for lane, s in health.snapshot().items() if s.failures}


def test_lane_health_failure_books_are_cumulative():
    """The books are cumulative and reading them consumes nothing: a
    per-step window is the reader's own subtraction."""
    health = LaneHealthTracker()
    health.record_failure("ssd")
    health.record_failure("ssd")
    health.record_failure("cpu")
    before = _failures(health)
    assert before == {"ssd": 2, "cpu": 1} == _failures(health)
    health.record_failure("cpu")
    after = _failures(health)
    assert {lane: after[lane] - before[lane] for lane in after} == {"ssd": 0, "cpu": 1}


def test_scheduler_feeds_lane_health():
    sched = IOScheduler(workers=2, retry_backoff_s=0)

    def boom():
        raise PermanentIOError("bricked")

    sched.submit(_req(boom, tid="bad"))
    sched.submit(_req(lambda: None, tid="ok", lane="cpu"))
    assert sched.drain(5)
    assert sched.health.is_dead("ssd")  # permanent error = instant death
    assert not sched.health.is_dead("cpu")
    assert _failures(sched.health) == {"ssd": 1}
    snap = sched.health.snapshot()
    assert snap["cpu"].successes == 1
    sched.shutdown()


def test_capacity_and_bug_failures_do_not_poison_lane_health():
    """Review regression: a MemoryError (pool capacity spike) or a plain
    bug in a job body is not a device signal — three of them in a row
    must not brick the lane and floor the autotune budget forever."""
    sched = IOScheduler(workers=2, retry_backoff_s=0)

    def oom():
        raise MemoryError("pinned pool exhausted")

    def bug():
        raise ValueError("a bug, not a device")

    def gone():
        raise FileNotFoundError("released by a concurrent path")

    for _ in range(3):
        sched.submit(_req(oom, tid="oom", max_retries=0))
        sched.submit(_req(gone, tid="gone", max_retries=0))
    sched.submit(_req(bug, tid="bug", max_retries=0))
    assert sched.drain(5)
    assert sched.stats.failed == 7  # the books still see the failures
    assert not sched.health.is_dead("ssd")
    assert _failures(sched.health) == {}  # no device signal
    # Real device errors still count.
    sched.submit(_req(lambda: (_ for _ in ()).throw(TransientIOError("x")),
                      tid="dev", max_retries=0))
    assert sched.drain(5)
    assert _failures(sched.health) == {"ssd": 1}
    sched.shutdown()


def test_done_request_with_health_error_reports_lane_failure():
    """A body that recovered from an I/O failure internally (demotion
    failover) completes DONE but must not launder the lane's record into
    a success."""
    sched = IOScheduler(workers=2)

    def recovered_body(req_holder):
        req_holder[0].health_error = TransientIOError("write failed, failed over")
        return None

    holder = []
    req = _req(lambda: recovered_body(holder), kind="demote",
               priority=Priority.DEMOTION, tid="d")
    holder.append(req)
    sched.submit(req)
    assert req.wait(5)
    assert req.state is JobState.DONE
    assert sched.drain(5)
    assert _failures(sched.health) == {"ssd": 1}
    assert sched.health.snapshot()["ssd"].successes == 0
    sched.shutdown()
