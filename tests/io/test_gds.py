"""Tests for GDS registration semantics and the simulated GDS routing.

The registry's array-identity index (weakref expiry, ``id()``-reuse
guard) and the routing rule of a :class:`TensorFileStore` that was
handed a registry — registered storages go direct (no host bounce),
everything else falls back to the bounce-buffer staging path, like real
GDS with buffers the driver never saw allocated.
"""

import gc

import numpy as np
import pytest

from repro.io import GDSRegistry, TensorFileStore
from repro.io.filestore import frame_payload
from repro.tensor.tensor import Tensor


def _storage(n=16):
    t = Tensor(np.arange(n, dtype=np.float32))
    return t, t.untyped_storage()


# ------------------------------------------------------------------ registry
def test_registry_array_index_follows_registration():
    registry = GDSRegistry()
    t, storage = _storage()
    assert not registry.is_array_registered(t.data)
    registry.register(storage)
    assert registry.owner_of(t.data) is storage
    assert registry.is_array_registered(t.data)
    registry.deregister(storage)
    assert registry.owner_of(t.data) is None
    assert not registry.is_array_registered(t.data)


def test_registry_register_is_idempotent():
    registry = GDSRegistry()
    _, storage = _storage()
    registry.register(storage)
    registry.register(storage)
    assert registry.register_count == 1
    registry.deregister(storage)
    registry.deregister(storage)
    assert registry.deregister_count == 1


def test_registry_weakref_expiry_clears_array_index():
    """Registration must not extend a buffer's lifetime, and a dead
    storage must disappear from the array index (no stale routing)."""
    registry = GDSRegistry()
    t, storage = _storage()
    payload = t.data
    registry.register(storage)
    del t, storage
    gc.collect()
    assert registry.owner_of(payload) is None
    assert not registry.is_array_registered(payload)
    assert registry.register_count == 1  # the audit trail survives


def test_registry_guards_against_id_reuse():
    """``owner_of`` re-checks ``.data is array``: a different array that
    happens to land on a recycled ``id()`` must not route as registered."""
    registry = GDSRegistry()
    t, storage = _storage()
    registry.register(storage)
    other = np.zeros(16, dtype=np.float32)
    assert registry.owner_of(other) is None
    # Even a bit-identical copy is a *different* allocation — real GDS
    # routes on the registered buffer, not its contents.
    assert not registry.is_array_registered(t.data.copy())


# ------------------------------------------------------------- GDS-sim routing
@pytest.fixture
def gds_store(tmp_path):
    store = TensorFileStore(tmp_path, gds=GDSRegistry())
    yield store
    store.close()


def test_gds_sim_registered_store_skips_the_bounce(gds_store):
    t, storage = _storage(64)
    gds_store.gds.register(storage)
    gds_store.write("reg", t.data)
    books = gds_store.copy_stats.snapshot()
    assert books.bounce_copies_skipped == 1
    assert books.bounce_copies == 0
    # Zero staging leases were taken for the direct write.
    assert gds_store.arena.stats().leases == 0


def test_gds_sim_unregistered_buffer_falls_back_to_bounce(gds_store):
    data = np.arange(64, dtype=np.float32)  # never registered
    gds_store.write("unreg", data)
    books = gds_store.copy_stats.snapshot()
    assert books.bounce_copies == 1
    assert books.bounce_copies_skipped == 0
    # The bounce staged through exactly one arena lease, then returned it.
    arena = gds_store.arena.stats()
    assert arena.leases == 1
    assert arena.outstanding_bytes == 0


def test_gds_sim_expired_registration_falls_back_to_bounce(gds_store):
    """A collected storage (the weakref-expiry case) must demote its
    payload's route to the bounce path rather than crash or misroute."""
    t, storage = _storage(64)
    payload = t.data
    gds_store.gds.register(storage)
    del t, storage
    gc.collect()
    gds_store.write("expired", payload)
    books = gds_store.copy_stats.snapshot()
    assert books.bounce_copies == 1
    assert books.bounce_copies_skipped == 0


def test_gds_sim_both_routes_write_identical_frames(gds_store):
    """Routing is a staging decision, never a data decision."""
    t, storage = _storage(64)
    gds_store.gds.register(storage)
    gds_store.write("reg", t.data)
    gds_store.write("unreg", t.data.copy())
    expected = frame_payload(t.data.tobytes())
    assert gds_store.path_for("reg").read_bytes() == expected
    assert gds_store.path_for("unreg").read_bytes() == expected
    assert np.array_equal(gds_store.read("reg", (64,), np.float32), t.data)
    assert np.array_equal(gds_store.read("unreg", (64,), np.float32), t.data)


def test_store_without_a_registry_never_routes(tmp_path):
    store = TensorFileStore(tmp_path)
    store.write("t", np.arange(64, dtype=np.float32))
    books = store.copy_stats.snapshot()
    assert (books.bounce_copies, books.bounce_copies_skipped) == (0, 0)
    assert store.arena is None  # nothing to stage for
    store.close()
