"""The stores' crc32 (``repro.io.checksum``): bit-identity with
``zlib.crc32``, and an exact count of the bytes the stores checksum.

The kernel changes CPU per byte and nothing else, so every value is
compared against ``zlib.crc32`` — including across stores written with
one kernel and read with the other.  The count half pins ROADMAP 3(b)'s
audit: between pack and disk every payload byte is checksummed once on
the way down and once on the way up, never twice.
"""

from __future__ import annotations

import ctypes
import zlib

import numpy as np
import pytest

from repro.core import EngineConfig, build_engine
from repro.core.ids import TensorID
from repro.io import checksum
from repro.io.chunkstore import ChunkedTensorStore
from repro.io.filestore import TensorFileStore, frame_payload
from repro.io.scheduler import IORequest, Priority

SIZES = (0, 1, 4095, 4096, 4097, 16 << 10, (1 << 20) + 3)


def _bytes(n: int, seed: int = 0) -> bytearray:
    return bytearray(np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes())


def _floats(numel: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(numel).astype(np.float32)


# ------------------------------------------------------------ bit identity
@pytest.mark.parametrize("n", SIZES)
def test_crc32_equals_zlib_at_every_size(n):
    buf = _bytes(n, seed=n)
    assert checksum.crc32(buf) == zlib.crc32(buf)
    assert checksum.crc32(memoryview(buf)) == zlib.crc32(buf)
    assert checksum.crc32(buf, 0xDEADBEEF) == zlib.crc32(buf, 0xDEADBEEF)


@pytest.mark.parametrize("offset", (1, 3, 7, 4093))
def test_odd_offsets_into_a_bytearray(offset):
    buf = _bytes(64 << 10, seed=offset)
    with memoryview(buf) as staging:
        window = staging[offset : offset + (16 << 10) + offset]
        assert checksum.crc32(window) == zlib.crc32(window)
        window.release()


def test_float32_memoryview_is_measured_in_bytes_not_elements():
    array = _floats(4096, seed=1)  # 16 KiB, 4096 elements
    view = memoryview(array)
    assert len(view) == 4096 and view.nbytes == 16 << 10
    assert checksum.crc32(view) == zlib.crc32(view) == zlib.crc32(array.tobytes())
    assert checksum.crc32(array) == zlib.crc32(array.tobytes())


def test_chained_value_equals_one_pass():
    head, tail = _bytes(20_000, seed=2), _bytes(9_000, seed=3)
    assert checksum.crc32(tail, checksum.crc32(head)) == zlib.crc32(head + tail)


def test_only_read_only_and_empty_buffers_take_zlib(monkeypatch):
    calls = []
    real = checksum._kernel

    def spy(value, ref, nbytes):
        calls.append(nbytes)
        return real(value, ref, nbytes)

    if real is not None:
        monkeypatch.setattr(checksum, "_kernel", spy)
    frozen = bytes(_bytes(64 << 10, seed=4))
    assert checksum.crc32(frozen) == zlib.crc32(frozen)
    assert checksum.crc32(bytearray()) == 0
    assert calls == []
    if real is not None:
        for n in (1, 4095, 4096):
            buf = _bytes(n, seed=5)
            assert checksum.crc32(buf) == zlib.crc32(buf)
        assert calls == [1, 4095, 4096]


def test_no_buffer_export_outlives_the_call():
    """The chunk store checksums a window of its staging ``bytearray``
    and then ``extend``s it: a leaked export would raise BufferError."""
    buf = _bytes(64 << 10, seed=6)
    assert checksum.crc32(buf) == zlib.crc32(buf)
    buf.extend(b"x" * 100)
    with memoryview(buf) as staging:
        window = staging[3 : 3 + (16 << 10)]
        checksum.crc32(window)
        window.release()
    buf.extend(_bytes(8192))  # BufferError if an anchor still held the bytes


def test_the_vectorized_kernel_is_in_use_where_the_library_is():
    try:
        ctypes.CDLL("libdeflate.so.0")
    except OSError:
        pytest.skip("libdeflate.so.0 is not installed: the stores run zlib")
    assert checksum.KERNEL == "libdeflate"
    assert checksum._kernel is not None
    # A CDLL function, not a PyDLL one: the GIL is released for the call.
    assert not checksum._kernel._flags_ & ctypes._FUNCFLAG_PYTHONAPI


# ------------------------------------------- the on-disk format is unchanged
def test_file_store_frames_equal_the_zlib_reference(tmp_path):
    store = TensorFileStore(tmp_path)
    for i, numel in enumerate((3, 1023, 1024, 4096, 262144 + 1)):
        data = _floats(numel, seed=i)
        store.write(f"t{i}", data)
        assert store.path_for(f"t{i}").read_bytes() == frame_payload(data.tobytes())
        np.testing.assert_array_equal(store.read(f"t{i}", data.shape, data.dtype), data)
    store.close()


@pytest.mark.parametrize("write_kernel_off", (True, False))
def test_chunk_store_reads_across_kernels(tmp_path, monkeypatch, write_kernel_off):
    """Written with one kernel, read back from one store with the other."""
    real = checksum._kernel
    tensors = {f"t{i}": _floats(4096 + 512 * i, seed=i) for i in range(6)}

    monkeypatch.setattr(checksum, "_kernel", None if write_kernel_off else real)
    store = ChunkedTensorStore(tmp_path, chunk_bytes=48 << 10)
    for tid, data in tensors.items():
        store.write(tid, data)
    store.flush()
    assert store.num_chunks > 0 and store.open_chunk_bytes == 0  # reads hit the files

    monkeypatch.setattr(checksum, "_kernel", real if write_kernel_off else None)
    for tid, data in tensors.items():
        np.testing.assert_array_equal(store.read(tid, data.shape, data.dtype), data)
    store.clear()


# ------------------------------------- every payload byte, checksummed once
class _Counted:
    """Replaces ``checksum.crc32``: records the bytes of every call (the
    lane workers call it too; ``list.append`` is atomic)."""

    def __init__(self, monkeypatch) -> None:
        self.calls = []
        real = checksum.crc32

        def counted(buf, value=0):
            self.calls.append(memoryview(buf).nbytes)
            return real(buf, value)

        monkeypatch.setattr(checksum, "crc32", counted)

    def take(self):
        calls, self.calls = self.calls, []
        return len(calls), sum(calls)


def test_file_store_checksums_each_payload_once_per_write_and_read(tmp_path, monkeypatch):
    counted = _Counted(monkeypatch)
    store = TensorFileStore(tmp_path)
    tensors = [_floats(n, seed=n) for n in (7, 4096, 262144)]
    payload = sum(t.nbytes for t in tensors)
    for i, data in enumerate(tensors):
        store.write(f"t{i}", data)
    assert counted.take() == (len(tensors), payload)
    for i, data in enumerate(tensors):
        store.read(f"t{i}", data.shape, data.dtype)
    assert counted.take() == (len(tensors), payload)
    store.close()


def test_chunk_store_checksums_each_payload_once_flushed_or_open(tmp_path, monkeypatch):
    counted = _Counted(monkeypatch)
    store = ChunkedTensorStore(tmp_path, chunk_bytes=64 << 10)
    tensors = {f"t{i}": _floats(4096, seed=i) for i in range(6)}  # 16 KiB each
    payload = sum(t.nbytes for t in tensors.values())
    for tid, data in tensors.items():
        store.write(tid, data)  # four fill and flush a chunk, two stay open
    assert store.open_chunk_bytes == 2 * (16 << 10)
    assert counted.take() == (6, payload)  # the flush checksums nothing
    for tid, data in tensors.items():
        np.testing.assert_array_equal(store.read(tid, data.shape, data.dtype), data)
    assert counted.take() == (6, payload)
    store.close()


def test_an_engine_round_checksums_each_payload_once_each_way(tmp_path, monkeypatch):
    """One ``engine_replay``-shaped round through the scheduler: stores
    submitted and awaited, then prefetch loads in reverse order."""
    counted = _Counted(monkeypatch)
    small = [_floats(4096, seed=i) for i in range(8)]  # 16 KiB: open-chunk reads
    population = small + [_floats(262144, seed=100 + i) for i in range(6)]  # 1 MiB
    payload = sum(a.nbytes for a in population)
    with build_engine(
        EngineConfig(target="ssd", store_dir=str(tmp_path), chunk_bytes=4 << 20)
    ) as engine:
        sched, off = engine.scheduler, engine.offloader
        tids = [TensorID(stamp=i + 1, shape=a.shape) for i, a in enumerate(population)]
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
            for tid, a in zip(tids, population)
        ]
        for request in stores:
            request.wait()
            assert request.error is None
        assert counted.take() == (len(population), payload)
        assert off.file_store.write_count >= 1  # some loads are flushed-chunk reads

        for index in range(len(population) - 1, -1, -1):
            tid, a = tids[index], population[index]
            request = sched.submit(
                IORequest(
                    lambda tid=tid, a=a: off.load(tid, a.shape, a.dtype),
                    kind="load",
                    priority=Priority.PREFETCH_LOAD,
                    tensor_id=str(tid),
                    nbytes=a.nbytes,
                    lane=off.load_lane(tid),
                )
            )
            sched.promote(request)
            request.wait()
            np.testing.assert_array_equal(request.result, a)
            off.release(tid)
        assert counted.take() == (len(population), payload)
