"""The read-into contract of the stores: ``read(..., out=)`` fills the
caller's array through the store's one read path and returns that very
array; an ``out`` that cannot take the tensor in place is refused with
a ``ValueError`` before a byte moves or a book changes; and a read the
scheduler retries refills the same ``out``."""

import threading

import numpy as np
import pytest

from repro.core import EngineConfig, build_engine
from repro.core.ids import TensorID
from repro.io.chunkstore import ChunkedTensorStore
from repro.io.faults import FaultPlan, inject_faults
from repro.io.filestore import TensorFileStore
from repro.io.scheduler import IORequest, Priority

SHAPE = (16, 64)
DATA = np.random.default_rng(0).standard_normal(SHAPE).astype(np.float32)
#: Where a tensor is when it is read back: its own file, still staged in
#: the chunk store's open chunk, or in a flushed chunk file.
PLACES = ("file", "open-chunk", "flushed-chunk")


def _written(tmp_path, place: str):
    """A store holding ``DATA`` as ``"t"`` at ``place``."""
    if place == "file":
        store = TensorFileStore(tmp_path)
    else:
        store = ChunkedTensorStore(tmp_path, chunk_bytes=1 << 20)
    store.write("t", DATA)
    if place == "flushed-chunk":
        store.flush()
    assert (store.path_for("t") is None) == (place == "open-chunk")
    return store


def _books(store):
    """Everything a read may book: the traffic and the copy counter."""
    return (
        store.read_count,
        store.bytes_read,
        store.read_syscalls,
        store.copy_stats.snapshot(),
    )


def _delta(before, after):
    (*traffic_0, copies_0), (*traffic_1, copies_1) = before, after
    return (
        *(b - a for a, b in zip(traffic_0, traffic_1)),
        copies_1.copies - copies_0.copies,
        copies_1.bytes_copied - copies_0.bytes_copied,
        copies_1.allocs_avoided - copies_0.allocs_avoided,
    )


@pytest.mark.parametrize("place", PLACES)
def test_a_read_fills_the_callers_array_and_returns_it(tmp_path, place):
    store = _written(tmp_path, place)
    try:
        books = [_books(store)]
        fresh = store.read("t", SHAPE, np.float32)
        books.append(_books(store))
        out = np.full(SHAPE, np.nan, dtype=np.float32)
        back = store.read("t", SHAPE, np.float32, out=out)
        books.append(_books(store))
        assert back is out
        assert np.array_equal(out, DATA) and np.array_equal(fresh, DATA)
        # Filling the caller's array books exactly what a fresh read books.
        fresh_read, read_into = (_delta(a, b) for a, b in zip(books, books[1:]))
        assert read_into == fresh_read
    finally:
        store.clear()


def _read_only() -> np.ndarray:
    out = np.zeros(SHAPE, dtype=np.float32)
    out.flags.writeable = False
    return out


BAD_DESTINATIONS = {
    "shape": lambda: np.zeros(SHAPE[::-1], dtype=np.float32),
    "dtype": lambda: np.zeros(SHAPE, dtype=np.float64),
    "non-contiguous": lambda: np.zeros((SHAPE[0], 2 * SHAPE[1]), dtype=np.float32)[:, ::2],
    "read-only": _read_only,
    "not-an-array": lambda: [[0.0] * SHAPE[1]] * SHAPE[0],
}


@pytest.mark.parametrize("bad", sorted(BAD_DESTINATIONS))
@pytest.mark.parametrize("place", PLACES)
def test_a_bad_destination_is_refused_before_a_byte_moves(tmp_path, place, bad):
    store = _written(tmp_path, place)
    try:
        out = BAD_DESTINATIONS[bad]()
        before, untouched = _books(store), np.array(out, copy=True)
        with pytest.raises(ValueError, match="destination"):
            store.read("t", SHAPE, np.float32, out=out)
        assert _books(store) == before
        assert np.array_equal(np.asarray(out), untouched)
        # The tensor is still there, and a good destination still works.
        assert np.array_equal(store.read("t", SHAPE, np.float32), DATA)
    finally:
        store.clear()


@pytest.mark.parametrize("chunk_bytes", [None, 1 << 20], ids=["file", "chunk"])
def test_a_retried_read_refills_the_same_destination(tmp_path, chunk_bytes):
    """The first attempt's injected transient fault is retried by the
    scheduler, and the retry fills the ``out`` the first attempt had."""
    config = EngineConfig(target="ssd", store_dir=str(tmp_path), chunk_bytes=chunk_bytes)
    with build_engine(config) as engine:
        off, sched = engine.offloader, engine.scheduler
        tid = TensorID(stamp=1, shape=SHAPE)
        off.store(tid, DATA)
        off.file_store.flush()
        injector = inject_faults(off, FaultPlan(transient_read_rate=1.0))
        attempts = []
        read = injector.read

        def recorded(*args, **kwargs):
            attempts.append(kwargs["out"])
            return read(*args, **kwargs)

        injector.read = recorded
        out = np.full(SHAPE, np.nan, dtype=np.float32)
        request = sched.submit(
            IORequest(
                lambda: off.load(tid, SHAPE, np.float32, out=out),
                kind="load",
                priority=Priority.BLOCKING_LOAD,
                tensor_id=str(tid),
                nbytes=DATA.nbytes,
                lane=off.load_lane(tid),
            )
        )
        request.wait()
        assert request.error is None
        assert request.result is out and np.array_equal(out, DATA)
        assert len(attempts) == 2 and all(a is out for a in attempts)
        assert injector.fault_stats.injected_transient == 1
        assert engine.stats().scheduler.retries == 1


def test_the_store_itself_allocates_only_without_a_destination(tmp_path, monkeypatch):
    """``np.empty`` inside a store runs only when ``out`` is None."""
    from repro.io import chunkstore, filestore

    calls = []

    class _Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, *args, **kwargs):
            calls.append(threading.current_thread())
            return np.empty(*args, **kwargs)

    for module in (filestore, chunkstore):
        monkeypatch.setattr(module, "np", _Numpy())
    for place in PLACES:
        store = _written(tmp_path / place, place)
        try:
            store.read("t", SHAPE, np.float32, out=np.empty(SHAPE, np.float32))
            assert calls == []
            store.read("t", SHAPE, np.float32)
            assert len(calls) == 1
        finally:
            store.clear()
        calls.clear()
