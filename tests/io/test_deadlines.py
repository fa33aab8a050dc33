"""Tests for per-class deadlines, the scheduler's one degraded-mode timer.

The watchdog's scan is public with an injectable ``now``
(:meth:`IOScheduler._watchdog_scan`), so abandon decisions are driven
deterministically here: no test waits out a real deadline.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import EngineConfig, build_engine
from repro.core.ids import TensorID
from repro.io import IORequest, IOScheduler, Priority
from repro.io.aio import JobState
from repro.io.errors import DeadlineExceededError, is_device_error, is_retryable
from repro.io.faults import FaultPlan, inject_faults


def make_scheduler(**kwargs):
    kwargs.setdefault("workers", 2)
    return IOScheduler(**kwargs)


def _load(fn, **kwargs):
    kwargs.setdefault("priority", Priority.BLOCKING_LOAD)
    return IORequest(fn, kind="load", **kwargs)


# --------------------------------------------------------------- knobs


def test_deadline_validation():
    with pytest.raises(ValueError):
        IOScheduler(deadlines={"NOT_A_CLASS": 1.0})
    with pytest.raises(ValueError):
        IOScheduler(deadlines={"STORE": 0.0})


def test_watchdog_thread_only_when_needed():
    plain = make_scheduler()
    try:
        assert plain._watchdog is None
    finally:
        plain.shutdown()
    armed = make_scheduler(deadlines={"STORE": 1.0})
    try:
        assert armed._watchdog is not None
        assert armed._watchdog.is_alive()
    finally:
        armed.shutdown()


def test_deadline_exceeded_is_permanent_device_error():
    err = DeadlineExceededError("stuck")
    assert not is_retryable(err)
    assert is_device_error(err)


# ----------------------------------------------------------- abandons


def test_watchdog_abandons_past_deadline():
    sched = make_scheduler(deadlines={"BLOCKING_LOAD": 0.05})
    gate = threading.Event()
    try:
        req = _load(lambda: gate.wait(5))
        sched.submit(req)
        deadline = time.monotonic() + 5
        while not req.started_at and time.monotonic() < deadline:
            time.sleep(0.001)
        assert req.started_at
        # Deterministic: drive the scan with an explicit late 'now'.
        sched._watchdog_scan(now=req.started_at + 1.0)
        assert req.wait(2)
        assert req.state is JobState.FAILED
        assert isinstance(req.error, DeadlineExceededError)
        assert sched.stats.deadline_abandons == 1
    finally:
        gate.set()
        sched.shutdown()


def test_watchdog_spares_requests_within_deadline():
    sched = make_scheduler(deadlines={"BLOCKING_LOAD": 10.0})
    gate = threading.Event()
    try:
        req = _load(lambda: gate.wait(5) and "ok")
        sched.submit(req)
        deadline = time.monotonic() + 5
        while not req.started_at and time.monotonic() < deadline:
            time.sleep(0.001)
        sched._watchdog_scan(now=req.started_at + 0.5)
        assert not req.done_event.is_set()
        gate.set()
        assert req.wait(2)
        assert req.state is JobState.DONE
        assert sched.stats.deadline_abandons == 0
    finally:
        gate.set()
        sched.shutdown()


def test_late_body_outcome_discarded_after_abandon():
    """The wedged body finally returning must not flip a FAILED request."""
    sched = make_scheduler(deadlines={"BLOCKING_LOAD": 0.01})
    gate = threading.Event()
    try:
        req = _load(lambda: gate.wait(5) and "late value")
        sched.submit(req)
        deadline = time.monotonic() + 5
        while not req.started_at and time.monotonic() < deadline:
            time.sleep(0.001)
        sched._watchdog_scan(now=req.started_at + 1.0)
        assert req.wait(2)
        gate.set()  # body returns after the abandon
        sched.drain(timeout=5)
        assert req.state is JobState.FAILED
        assert req.result is None
    finally:
        gate.set()
        sched.shutdown()


def test_a_hung_store_read_is_abandoned_at_its_deadline(tmp_path):
    """The watchdog's fault: a real store read that hangs (``hang_ops``)
    on an engine with a ``BLOCKING_LOAD`` deadline.  The waiter gets the
    deadline error while the read still sleeps; when the hang ends the
    late result is discarded and the books still balance."""
    deadline_s = 10.0
    engine = build_engine(
        EngineConfig(
            target="ssd", store_dir=tmp_path, io_deadlines={"BLOCKING_LOAD": deadline_s}
        )
    )
    try:
        off, sched = engine.offloader, engine.scheduler
        # Op 1 is the store, op 2 the blocking load.
        injector = inject_faults(off, FaultPlan(hang_ops=(2,), hang_s=0.3))
        data = np.arange(256, dtype=np.float32)
        tid = TensorID(stamp=1, shape=data.shape)
        store = sched.submit(
            IORequest(
                lambda: off.store(tid, data),
                kind="store",
                priority=Priority.STORE,
                tensor_id=str(tid),
                nbytes=data.nbytes,
                lane=off.store_lane(tid, data.nbytes),
            )
        )
        assert store.wait(5) and store.error is None
        load = sched.submit(
            _load(
                lambda: off.load(tid, data.shape, data.dtype),
                tensor_id=str(tid),
                nbytes=data.nbytes,
                lane=off.load_lane(tid),
            )
        )
        give_up = time.monotonic() + 5
        while not load.started_at and time.monotonic() < give_up:
            time.sleep(0.001)
        assert load.started_at
        sched._watchdog_scan(now=load.started_at + deadline_s + 1)
        assert load.wait(2)
        assert isinstance(load.error, DeadlineExceededError)
        assert sched.stats.deadline_abandons == 1
        assert sched.drain(5)  # the hung read returns; its outcome is dropped
        assert injector.fault_stats.ops == 2
        stats = sched.stats
        assert stats.submitted == stats.executed + stats.failed + stats.cancelled
        assert load.state is JobState.FAILED and load.result is None
    finally:
        engine.shutdown()
