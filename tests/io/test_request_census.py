"""Request-path census: what one request costs in calls, not in time.

A 16 KiB store+load round trip is interpreter work spread thin — lock
releases, context-manager entries, path joins — so the regression that
matters is a *count* creeping back, which no timing test on a shared
machine can see.  A ``sys.setprofile`` + ``threading.setprofile`` hook
(the shape ``scripts/traffic_census.py`` uses) counts, per request, the
entries into ``pathlib`` / ``contextlib`` made from ``src/repro/io`` and
the lock releases on every thread; the ceilings below are committed, and
a PR that needs one more lock on the path raises the number here, where
a reviewer sees it.

The second half pins the invariants a cheaper path could break: the
listener order, tenant attribution of done callbacks on both backends,
books that close whatever a callback does, and the cancel-vs-claim
identity.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import EngineConfig, build_engine
from repro.core.ids import TensorID
from repro.io.aio import _Completion
from repro.io.errors import TransientIOError
from repro.io.scheduler import IORequest, IOScheduler, Priority
from repro.io.tenancy import TenantRegistry, current_tenant, tenant_scope
from repro.io.uring import UringBackend

ROUND_TRIPS = 64
#: Lock releases per request (submit + lane worker + wait), all threads,
#: not counting those a thread makes only when it really blocks or wakes
#: another (:func:`_only_when_blocking`): how often that happens is the
#: machine's business (2.7-3.0 more before the request path was trimmed,
#: 2.6-2.9 after, on one CPU), the rest is the code's and the same every
#: run: 20.6 before, 17.1 after, 16.5 once a chunk read finds its file and
#: borrows the descriptor under one acquisition of the store's lock (the
#: table's), 11.5 with one pass per request (a completion event only for
#: a waiter, submit and close books under one acquisition of the books
#: lock each, no lock for a success on a healthy lane).
LOCK_RELEASE_CEILING = 11.6
#: ``threading.py`` frames that release a lock per blocked/woken thread:
#: ``Condition.wait`` giving the lock up, ``Condition.notify`` freeing a waiter.
_HAND_OFF = ("_release_save", "notify")
#: A job's completion event is built, waited on and set only for a thread
#: that finds its job still running, so every release reached through
#: these two frames is a blocked waiter's.  An Event a request built or
#: set on any other path would still count.
_WAITER_ONLY = (_Completion.wait.__code__, _Completion.set.__code__)


def _only_when_blocking(frame) -> bool:
    """Whether the lock release ``frame`` is about to make happens only
    because a thread blocks or wakes another."""
    code = frame.f_code
    if code.co_name in _HAND_OFF and code.co_filename.endswith("/threading.py"):
        return True
    # _Completion.wait -> Event.wait -> Condition.wait -> _release_save
    for _ in range(4):
        if frame is None:
            return False
        if frame.f_code in _WAITER_ONLY:
            return True
        frame = frame.f_back
    return False


#: Python frames entered under ``src/repro`` per request (same window).
#: 82.6 before the request path was trimmed (plus 9.25 into
#: pathlib/contextlib), 64.7 after, 62.2 once a chunk read stopped
#: building a context-manager object, 56.7 with one pass per request.
SRC_CALL_CEILING = 57.0
#: The same two counts for the engine built with a tenant registry, where
#: every queued dequeue used to take the registry lock for a bandwidth
#: bucket nobody configured: 17.64 and 64.8 with it, 17.1 and 64.3 without,
#: 16.5 and 62.3 with the chunk store's one-acquisition read, 11.5 and
#: 56.8 with one pass.
PER_TENANT_LOCK_RELEASE_CEILING = 11.6
PER_TENANT_SRC_CALL_CEILING = 57.0
#: The per-tensor file store (``train_ssd``'s store): 17.5 and 74.0 while
#: every store opened a new file and every release unlinked it, 17.0 and
#: 68.04 since released files are recycled (the free-file pick rides the
#: lock acquisition that borrows the descriptor), 12.0 and 62.5 with one
#: pass, 12.0 and 62.04 once a write called ``pwritev_over`` itself (no
#: per-write direct-or-buffered dispatch frame), 12.0 and 62.54 once its
#: loads read into a destination the submitting thread allocated, as the
#: tensor cache's do (one ``check_destination`` frame per load).
FILE_LOCK_RELEASE_CEILING = 12.0
FILE_SRC_CALL_CEILING = 62.6
#: ``kv_serve``'s demand fetch: one ``BLOCKING_LOAD`` built and run by
#: :meth:`~repro.io.scheduler.IOScheduler.run_inline` on the ``cpu`` lane
#: of a tiered engine with a tenant registry, the tiered load included.
#: 12.0 lock releases and 40.0 frames before one pass per request, 8.0
#: and 33.0 after.
INLINE_LOCK_RELEASE_CEILING = 8.0
INLINE_SRC_CALL_CEILING = 33.0


class _Census:
    """The profile hook: counts only while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.lock_releases = 0
        self.hand_off_releases = 0  # reported, not asserted
        self.src_calls = 0
        self.foreign_entries = []  # (module, function, caller) from src/repro/io

    def __call__(self, frame, event, arg) -> None:
        if not self.active:
            return
        if event == "c_call":
            if getattr(arg, "__qualname__", "") in ("lock.__exit__", "lock.release"):
                if _only_when_blocking(frame):
                    self.hand_off_releases += 1
                else:
                    self.lock_releases += 1
        elif event == "call":
            filename = frame.f_code.co_filename
            if "/src/repro/" in filename:
                self.src_calls += 1
            elif filename.endswith(("/pathlib.py", "/contextlib.py")):
                caller = frame.f_back.f_code if frame.f_back is not None else None
                if caller is not None and "/src/repro/io/" in caller.co_filename:
                    self.foreign_entries.append(
                        (filename.rsplit("/", 1)[1], frame.f_code.co_name, caller.co_name)
                    )


@pytest.fixture
def census():
    """Installed before anything starts a thread: lane workers inherit
    the hook from ``threading.setprofile`` when they are created."""
    hook = _Census()
    previous = sys.getprofile(), threading.getprofile()  # e.g. traffic_census.py's
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield hook
    finally:
        hook.active = False
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])


def _round_trips(engine, arrays, first_stamp: int, tenants=None, into=False) -> None:
    """Store every array, then load each back and release it — the
    ``engine_replay`` round, one request at a time on the load side.
    With ``tenants``, the first half of the arrays is stored and loaded
    under ``tenant_scope(tenants[0])`` and the second half under
    ``tenants[1]``.  With ``into``, each load fills a destination this
    thread allocated before submitting it, as the tensor cache's loads do."""
    if tenants is not None:
        half = len(arrays) // 2
        with tenant_scope(tenants[0]):
            _round_trips(engine, arrays[:half], first_stamp)
        with tenant_scope(tenants[1]):
            _round_trips(engine, arrays[half:], first_stamp + half)
        return
    sched, off = engine.scheduler, engine.offloader
    tids = [TensorID(stamp=first_stamp + i, shape=a.shape) for i, a in enumerate(arrays)]
    stores = [
        sched.submit(
            IORequest(
                lambda tid=tid, a=a: off.store(tid, a),
                kind="store",
                priority=Priority.STORE,
                tensor_id=str(tid),
                nbytes=a.nbytes,
                lane=off.store_lane(tid, a.nbytes),
            )
        )
        for tid, a in zip(tids, arrays)
    ]
    for request in stores:
        request.wait()
        assert request.error is None
    for tid, a in zip(tids, arrays):
        out = np.empty(a.shape, a.dtype) if into else None
        request = sched.submit(
            IORequest(
                lambda tid=tid, a=a, out=out: off.load(tid, a.shape, a.dtype, out=out),
                kind="load",
                priority=Priority.PREFETCH_LOAD,
                tensor_id=str(tid),
                nbytes=a.nbytes,
                lane=off.load_lane(tid),
            )
        )
        request.wait()
        assert np.array_equal(request.result, a)
        off.release(tid)


@pytest.mark.parametrize(
    "chunk_bytes, tenants, lock_ceiling, call_ceiling",
    [
        (256 << 10, None, LOCK_RELEASE_CEILING, SRC_CALL_CEILING),
        (256 << 10, ("a", "b"), PER_TENANT_LOCK_RELEASE_CEILING, PER_TENANT_SRC_CALL_CEILING),
        (None, None, FILE_LOCK_RELEASE_CEILING, FILE_SRC_CALL_CEILING),
    ],
    ids=["default", "per_tenant", "file"],
)
def test_request_path_stays_under_the_committed_ceilings(
    tmp_path, census, chunk_bytes, tenants, lock_ceiling, call_ceiling
):
    """``default`` is the chunked engine; ``per_tenant`` is the same
    engine with a tenant registry, so every request files under its own
    tenant's subqueue (``kv_serve``'s path: one tenant per user);
    ``file`` is the per-tensor store, the paper's (and ``train_ssd``'s)
    path, where the warm-up round leaves every file free for the counted
    round to recycle and loads fill a destination allocated before the
    submit, as the tensor cache's do."""
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal(4096).astype(np.float32) for _ in range(ROUND_TRIPS)]
    # 256 KiB chunks: 16 tensors each, so flushes and ranged reads are on the path.
    config = EngineConfig(
        target="ssd",
        store_dir=str(tmp_path),
        chunk_bytes=chunk_bytes,
        tenants=TenantRegistry() if tenants else None,
    )
    with build_engine(config) as engine:
        assert engine.scheduler.backend.name == "thread"
        # Warm-up: descriptors, first chunk.
        into = chunk_bytes is None
        _round_trips(engine, arrays, first_stamp=1, tenants=tenants, into=into)
        census.active = True
        _round_trips(engine, arrays, first_stamp=1000, tenants=tenants, into=into)
        census.active = False
        stats = engine.stats()
    requests = 2 * ROUND_TRIPS
    assert stats.scheduler.submitted == stats.scheduler.executed == 2 * requests
    if tenants:
        executed = {name: books.executed for name, books in stats.tenants.items()}
        assert executed == {name: requests for name in tenants}
    assert census.foreign_entries == [], (
        f"pathlib/contextlib entered from src/repro/io on the request path: "
        f"{sorted(set(census.foreign_entries))}"
    )
    per_request = census.lock_releases / requests
    assert 0 < per_request <= lock_ceiling, (
        f"{per_request:.1f} lock releases per request (+ "
        f"{census.hand_off_releases / requests:.1f} blocking hand-offs), over the committed "
        f"ceiling {lock_ceiling}: take the lock out, or raise the ceiling in this test"
    )
    calls = census.src_calls / requests
    assert 0 < calls <= call_ceiling, (
        f"{calls:.1f} src/repro frames per request, over the committed ceiling {call_ceiling}"
    )


def test_an_inline_fetch_stays_under_the_committed_ceilings(tmp_path, census):
    """The forwarding rule's read: the bytes are in the pinned pool, so
    the request takes no queue slot and settles on the caller; what is
    left is the request's own fixed cost around a ~5 us copy."""
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal(2048).astype(np.float32) for _ in range(ROUND_TRIPS)]
    config = EngineConfig(
        target="tiered",
        store_dir=str(tmp_path),
        cpu_pool_bytes=1 << 20,
        tenants=TenantRegistry(),
        promote_on_load=False,
    )
    with build_engine(config) as engine:
        sched, off = engine.scheduler, engine.offloader
        tids = [TensorID(stamp=i, shape=a.shape) for i, a in enumerate(arrays)]
        for tid, a in zip(tids, arrays):
            off.store(tid, a)

        def fetch(tid, a, tenant):
            request = IORequest(
                lambda: off.load(tid, a.shape, a.dtype),
                kind="load",
                priority=Priority.BLOCKING_LOAD,
                tensor_id=str(tid),
                nbytes=a.nbytes,
                lane=off.load_lane(tid),
                label=f"kv-fetch:{tid.stamp}",
                tenant=tenant,
            )
            sched.run_inline(request)
            return request

        for tid, a in zip(tids, arrays):  # warm-up: tenants registered
            assert np.array_equal(fetch(tid, a, f"user{tid.stamp % 4}").result, a)
        census.active = True
        fetched = [fetch(tid, a, f"user{tid.stamp % 4}") for tid, a in zip(tids, arrays)]
        census.active = False
        stats = engine.stats()
    assert all(request.lane == "cpu" and request.error is None for request in fetched)
    assert stats.scheduler.submitted == stats.scheduler.executed == 2 * ROUND_TRIPS
    per_request = census.lock_releases / ROUND_TRIPS
    calls = census.src_calls / ROUND_TRIPS
    assert census.hand_off_releases == 0  # nothing blocked, nothing woken
    assert 0 < per_request <= INLINE_LOCK_RELEASE_CEILING, (
        f"{per_request:.1f} lock releases per inline fetch, over the committed "
        f"ceiling {INLINE_LOCK_RELEASE_CEILING}"
    )
    assert 0 < calls <= INLINE_SRC_CALL_CEILING, (
        f"{calls:.1f} src/repro frames per inline fetch, over the committed "
        f"ceiling {INLINE_SRC_CALL_CEILING}"
    )


# ----------------------------------------------------------- the invariants
def _request(fn=lambda: None, **kwargs) -> IORequest:
    kwargs.setdefault("kind", "store")
    kwargs.setdefault("priority", Priority.STORE)
    kwargs.setdefault("nbytes", 64)
    return IORequest(fn, **kwargs)


def test_listener_order_and_done_fires_after_the_books_are_closed():
    seen = []
    with IOScheduler(workers=1, lanes=("ssd",)) as sched:

        def listener(event, request):
            snap = sched.stats_snapshot()
            seen.append((event, request.tensor_id, snap.executed, sched.pending()))

        sched.add_listener(listener)
        for i in range(5):
            sched.submit(_request(tensor_id=f"t{i}")).wait()
            sched.drain()
    for i in range(5):
        events = [row for row in seen if row[1] == f"t{i}"]
        assert [row[0] for row in events] == ["submit", "start", "done"]
        (_, _, at_submit, pending_at_submit), (_, _, at_start, _), done = events
        assert at_submit == at_start == i and pending_at_submit == 1
        # ``done``: this request is already on the books, the lane already idle.
        assert done[2] == i + 1 and done[3] == 0


@pytest.mark.parametrize("backend", ["thread", "uring"])
def test_done_callbacks_run_inside_the_requests_tenant_scope(backend):
    seen = {}
    sched = IOScheduler(
        workers=1,
        lanes=("ssd",),
        tenants=TenantRegistry(),
        backend=UringBackend() if backend == "uring" else None,
    )
    with sched:
        body = lambda: seen.setdefault("body", current_tenant())
        executed = sched.submit(_request(body, tenant="a"))
        executed.add_done_callback(lambda job: seen.setdefault("done", current_tenant()))
        sched.drain()
        failing = _request(lambda: 1 / 0, tenant="b", max_retries=0)
        failing.add_done_callback(lambda job: seen.setdefault("failed", current_tenant()))
        sched.submit(failing)
        sched.drain()
        inline = _request(tenant="c", kind="load", priority=Priority.BLOCKING_LOAD)
        inline.add_done_callback(lambda job: seen.setdefault("inline", current_tenant()))
        sched.run_inline(inline)
    assert seen == {"body": "a", "done": "a", "failed": "b", "inline": "c"}
    assert current_tenant() == "default"


def test_a_raising_done_callback_does_not_skip_the_books():
    with IOScheduler(workers=1, lanes=("ssd",), tenants=TenantRegistry()) as sched:
        ran = []
        request = _request(tenant="t")

        def boom(job):
            raise RuntimeError("callback bug")

        request.add_done_callback(boom)  # registered before submit: runs first
        request.add_done_callback(lambda job: ran.append(sched.stats_snapshot().executed))
        sched.submit(request)
        assert sched.drain(timeout=5)
        cancelled = _request(tenant="t")
        cancelled.add_done_callback(boom)
        hold = threading.Event()
        blocker = sched.submit(_request(hold.wait, tenant="t"))
        sched.submit(cancelled)
        assert cancelled.cancel()  # the job's own cancel, not the scheduler's
        hold.set()
        assert sched.drain(timeout=5) and blocker.error is None
        stats, tenant = sched.stats_snapshot(), sched.tenants.stats_of("t")
    assert ran == [1]  # the books were closed before the second callback ran
    assert (stats.submitted, stats.executed, stats.cancelled) == (3, 2, 1)
    assert (tenant.submitted, tenant.executed, tenant.cancelled) == (3, 2, 1)


def _device_error():
    raise TransientIOError("blip")


def test_a_raising_books_step_still_releases_the_lane(monkeypatch):
    """``pending`` is decremented last, but unconditionally: whatever a
    tenant or health step raises, ``drain()`` (and so ``shutdown()``) returns."""
    with IOScheduler(workers=1, lanes=("ssd",), tenants=TenantRegistry()) as sched:

        def boom(*args, **kwargs):
            raise RuntimeError("books bug")

        # The tenant's outcome, on the executed path and on the failed
        # path, where the same step refunds the quota.
        monkeypatch.setattr(sched.tenants, "finish_locked", boom)
        done = sched.submit(_request(tenant="t"))
        assert sched.drain(timeout=5) and done.error is None
        failed = sched.submit(_request(lambda: 1 / 0, tenant="t", max_retries=0))
        assert sched.drain(timeout=5) and sched.pending() == 0
        assert isinstance(failed.error, ZeroDivisionError)
        monkeypatch.undo()
        # Lane health, on a success and on a device failure.
        monkeypatch.setattr(sched.health, "record_success", boom)
        monkeypatch.setattr(sched.health, "record_failure", boom)
        sched.submit(_request(tenant="t"))
        device = sched.submit(_request(_device_error, tenant="t", max_retries=0))
        assert sched.drain(timeout=5) and sched.pending() == 0
        assert isinstance(device.error, TransientIOError)
        assert sched.stats_snapshot().failed == 2


def test_a_request_cancelled_before_submit_still_balances_the_books():
    with IOScheduler(workers=1, lanes=("ssd",)) as sched:
        request = _request()
        assert request.cancel()
        sched.submit(request)
        assert sched.drain(timeout=5) and sched.pending() == 0
        stats = sched.stats_snapshot()
    assert (stats.submitted, stats.executed, stats.cancelled) == (1, 0, 1)


def test_books_balance_after_a_cancel_vs_claim_storm():
    total, won = 600, 0
    registry = TenantRegistry()
    with IOScheduler(workers=2, lanes=("ssd",), tenants=registry) as sched:
        submitted: list = []
        stop = threading.Event()

        def canceller(direct: bool) -> int:
            wins, cursor = 0, 0
            while not stop.is_set() or cursor < len(submitted):
                if cursor < len(submitted):
                    request = submitted[cursor]
                    cursor += 1
                    wins += bool(request.cancel() if direct else sched.cancel(request))
            return wins

        results = []
        threads = [
            threading.Thread(target=lambda d=d: results.append(canceller(d))) for d in (True, False)
        ]
        for thread in threads:
            thread.start()
        for i in range(total):
            tenant = "a" if i % 2 else "b"
            body = (lambda: 1 / 0) if i % 7 == 0 else (lambda: None)
            submitted.append(sched.submit(_request(body, tenant=tenant, max_retries=0)))
        stop.set()
        for thread in threads:
            thread.join()
        won = sum(results)
        assert sched.drain(timeout=10) and sched.pending() == 0
        stats = sched.stats_snapshot()
    assert stats.submitted == total == stats.executed + stats.failed + stats.cancelled
    assert stats.cancelled == won == sum(r.state.value == "cancelled" for r in submitted)
    per_tenant = registry.stats_snapshot()
    for books in per_tenant.values():
        assert books.submitted == books.executed + books.failed + books.cancelled
    assert sum(b.submitted for b in per_tenant.values()) == total
