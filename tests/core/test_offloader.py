"""Unit tests for the offloader backends and the pinned-memory pool."""

import numpy as np
import pytest

from repro.core.ids import TensorID
from repro.core.offloader import CPUOffloader, PinnedMemoryPool, SSDOffloader
from repro.io.filestore import frame_payload

TID = TensorID(stamp=42, shape=(4, 4))
DATA = np.arange(16, dtype=np.float32).reshape(4, 4)


# ---------------------------------------------------------------- SSDOffloader
def test_ssd_offloader_roundtrip(tmp_path):
    off = SSDOffloader(tmp_path)
    off.store(TID, DATA)
    back = off.load(TID, (4, 4), np.float32)
    assert np.array_equal(back, DATA)


def test_ssd_offloader_location_is_file_path(tmp_path):
    off = SSDOffloader(tmp_path)
    off.store(TID, DATA)
    # Files are the store's, named by number: the location is the one
    # holding the tensor's frame now.
    with open(off.location(TID), "rb") as held:
        assert held.read() == frame_payload(DATA.tobytes())
    off.release(TID)
    assert off.location(TID) == f"unplaced:{TID.filename()}"


def test_ssd_offloader_shutdown_clears_files(tmp_path):
    off = SSDOffloader(tmp_path)
    off.store(TID, DATA)
    off.shutdown()
    assert list(off.file_store.root.glob("*.bin")) == []


# ---------------------------------------------------------------- CPUOffloader
def test_cpu_offloader_roundtrip():
    off = CPUOffloader()
    off.store(TID, DATA)
    assert np.array_equal(off.load(TID, (4, 4), np.float32), DATA)
    assert off.location(TID).startswith("pinned://")


def test_cpu_offloader_load_is_a_copy():
    off = CPUOffloader()
    off.store(TID, DATA)
    loaded = off.load(TID, (4, 4), np.float32)
    loaded[0, 0] = 99
    assert off.load(TID, (4, 4), np.float32)[0, 0] == 0


def test_cpu_offloader_missing_key():
    with pytest.raises(KeyError):
        CPUOffloader().load(TID, (4, 4), np.float32)


def test_cpu_offloader_overwrite_replaces_bytes():
    off = CPUOffloader()
    off.store(TID, DATA)
    off.store(TID, DATA + 1)
    assert off.load(TID, (4, 4), np.float32)[0, 0] == 1.0
    assert off.pool.used == DATA.nbytes  # old buffer freed


def test_cpu_offloader_evict():
    off = CPUOffloader()
    off.store(TID, DATA)
    off.evict(TID)
    assert off.pool.used == 0
    off.evict(TID)  # idempotent


def test_cpu_offloader_shutdown_frees_pool():
    off = CPUOffloader()
    off.store(TID, DATA)
    off.shutdown()
    assert off.pool.used == 0


# ------------------------------------------------------------ PinnedMemoryPool
def test_pool_watermark_and_fit():
    pool = PinnedMemoryPool()
    pool.alloc(100)
    pool.alloc(50)
    pool.free(100)
    assert pool.used == 50
    assert pool.high_watermark == 150
    capacity = pool.fit_to_high_watermark(slack=1.2)
    assert capacity == 180


def test_pool_capacity_enforced_after_fit():
    pool = PinnedMemoryPool()
    pool.alloc(100)
    pool.free(100)
    pool.fit_to_high_watermark(slack=1.0)
    pool.alloc(100)
    with pytest.raises(MemoryError):
        pool.alloc(1)


def test_pool_overfree_rejected():
    pool = PinnedMemoryPool()
    pool.alloc(10)
    with pytest.raises(ValueError):
        pool.free(11)


def test_cpu_offloader_throttle_paces_transfers():
    import time as _time

    from repro.core.ids import TensorID
    from repro.core.offloader import CPUOffloader

    data = np.ones((64, 1024), dtype=np.float32)  # 256 KiB
    fast = CPUOffloader()
    slow = CPUOffloader(throttle_bytes_per_s=2e6)  # ~130 ms for 256 KiB
    tid = TensorID(stamp=1, shape=data.shape)
    t0 = _time.monotonic()
    slow.store(tid, data)
    assert _time.monotonic() - t0 >= 0.1
    fast.store(tid, data)  # no pacing: sanity that the path still works
    with pytest.raises(ValueError):
        CPUOffloader(throttle_bytes_per_s=0)
