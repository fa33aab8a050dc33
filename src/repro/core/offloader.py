"""Offloaders: the transfer backends of the tensor cache (Fig. 3).

Each offloader "encapsulates the logic to transfer CUDA tensors to and
from a target":

- :class:`SSDOffloader` — the primary target.  Persists tensors through a
  :class:`~repro.io.filestore.TensorFileStore` (real file I/O standing in
  for kvikio/GDS; the GDS path itself is modelled in :mod:`repro.io.gds`).
- :class:`CPUOffloader` — host-memory target backed by a pre-allocated
  pinned pool whose size is fixed after profiling the first training step
  (Sec. III-A; the paper keeps it for future work on remote storage).
- :class:`~repro.core.tiered.TieredOffloader` — composes both into a
  capacity-aware GPU -> pinned-CPU -> SSD hierarchy (see
  :mod:`repro.core.tiered`).

All expose the same API: synchronous ``store``/``load`` primitives that
the cache wraps in typed :class:`~repro.io.scheduler.IORequest`\\ s and
runs on the :class:`~repro.io.scheduler.IOScheduler`'s per-tier lanes
(``store_lane``/``load_lane`` pick the lane), and a ``release`` that
reclaims the backing space once the cache drops the record.
:func:`repro.core.engine.build_engine` builds any of them from an
:class:`~repro.core.engine.EngineConfig` (``OFFLOAD_TARGETS`` names the
``target`` axis).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.core.ids import TensorID
from repro.core.policy import Tier
from repro.io.buffers import (
    BufferArena,
    BufferLease,
    CopyCounter,
    DataPlaneStats,
    owned_copy,
)
from repro.io.chunkstore import ChunkedTensorStore
from repro.io.filestore import TensorFileStore, pace
from repro.io.scheduler import IOScheduler
from repro.io.tenancy import current_tenant


class Offloader:
    """Abstract transfer backend.

    A backend says what it has by assigning the optional parts below;
    the layers above read them (``None`` = this backend has none) and
    call the optional operations, which do nothing on a backend they do
    not apply to.

    ``load(..., out=)`` fills and returns ``out`` when the caller
    allocated the destination, else a fresh array.  Whoever hands a load
    to another thread allocates it first, so the thread that frees the
    array owns its memory; an ``out`` that cannot take the tensor in
    place is a ``ValueError`` before any byte moves.
    """

    #: Tier reported for stored tensors; single-target backends are static,
    #: the tiered offloader overrides :meth:`tier_of` per tensor.
    default_tier: Tier = Tier.SSD

    #: The pinned host pool and the buffer arena under it (cpu / tiered).
    pool: Optional["PinnedMemoryPool"] = None
    arena: Optional[BufferArena] = None
    #: The SSD store (ssd / tiered).
    file_store: Optional[Union[TensorFileStore, ChunkedTensorStore]] = None
    #: Copies this backend makes itself (its store keeps its own counter).
    copy_stats: Optional[CopyCounter] = None
    #: The I/O scheduler the backend was built on (tiered: its demotion
    #: writes queue there); a cache driving the backend must share it.
    scheduler: Optional[IOScheduler] = None

    def tier_of(self, tid: TensorID) -> Tier:
        """Which tier holds ``tid`` after a completed store."""
        return self.default_tier

    def store_lane(self, tid: TensorID, nbytes: int) -> str:
        """Scheduler lane a store of ``nbytes`` should queue on.

        The cache builds typed :class:`~repro.io.scheduler.IORequest`\\ s
        and asks the backend which tier's lane will absorb the traffic;
        single-target backends answer with their static tier, the tiered
        offloader predicts placement from the policy.
        """
        return "cpu" if self.default_tier is Tier.CPU else "ssd"

    def load_lane(self, tid: TensorID) -> str:
        """Scheduler lane a load of ``tid`` should queue on: a lock-free
        prediction from the tier holding it (called under a record lock)."""
        return "cpu" if self.tier_of(tid) is Tier.CPU else "ssd"

    def store(self, tid: TensorID, data: np.ndarray, tier: Optional[Tier] = None) -> None:
        """Synchronously persist ``data`` under ``tid`` (runs on a pool).

        ``tier`` is the caller's placement (the KV pool's strategy);
        ``None`` leaves it to the backend.  A single-tier backend has one
        answer and stores there either way.
        """
        raise NotImplementedError

    def load(self, tid: TensorID, shape: Tuple[int, ...], dtype: np.dtype, out=None) -> np.ndarray:
        """Synchronously read the tensor back into ``out`` (runs on a pool)."""
        raise NotImplementedError

    def location(self, tid: TensorID) -> str:
        """Human-readable location (the record's "file path" column, Fig. 4)."""
        raise NotImplementedError

    def stats_snapshot(self):
        """Tier-traffic counters (:class:`~repro.core.tiered.TierStats`);
        ``None`` on a single-tier backend."""
        return None

    def evict(self, tid: TensorID) -> None:
        """Drop ``tid``'s host buffer (backends with a pool)."""

    def release(self, tid: TensorID) -> None:
        """Reclaim one tensor's backing space (idempotent, no filesystem
        I/O): recycle its file / chunk refcount, drop the host buffer."""
        if self.file_store is not None:
            self.file_store.delete(tid.filename())
        self.evict(tid)

    def shutdown(self) -> None:
        """Release backend resources (idempotent)."""

    def dataplane_stats(self) -> DataPlaneStats:
        """Copy-map telemetry aggregated across this backend's parts: its
        store's and its own ``copy_stats`` plus the arena's lease
        accounting.  Composite backends override to merge their tiers."""
        stats = DataPlaneStats()
        if self.file_store is not None:
            stats.add_counter(self.file_store.copy_stats.snapshot())
        if self.copy_stats is not None:
            stats.add_counter(self.copy_stats.snapshot())
        if self.arena is not None:
            stats.add_arena(self.arena.stats())
        return stats


class SSDOffloader(Offloader):
    """NVMe-SSD-targeting offloader via the file store.

    Args:
        store: the built store — a
            :class:`~repro.io.filestore.TensorFileStore` or a
            :class:`~repro.io.chunkstore.ChunkedTensorStore`; the engine
            constructs it, and every store option is the store's.  A
            path (e.g. ``/mnt/md1``, the RAID0 array mount) means a
            default per-tensor store in that directory.
    """

    def __init__(self, store) -> None:
        if isinstance(store, (str, os.PathLike)):
            store = TensorFileStore(store)
        self.file_store = store

    def store(self, tid: TensorID, data: np.ndarray, tier: Optional[Tier] = None) -> None:
        self.file_store.write(tid.filename(), data)

    def load(
        self,
        tid: TensorID,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return self.file_store.read(tid.filename(), shape, dtype, out=out)

    def location(self, tid: TensorID) -> str:
        # No file yet (a chunk still staging) or any more (released).
        path = self.file_store.path_for(tid.filename())
        return str(path) if path is not None else f"unplaced:{tid.filename()}"

    def shutdown(self) -> None:
        # Activations are scratch: nothing in the store outlives the engine.
        self.file_store.clear()


class PinnedMemoryPool:
    """A fixed-capacity host-pinned buffer pool.

    The paper sizes the pool by profiling the first training step; a
    caller that wants that calls :meth:`fit_to_high_watermark` itself.
    Exceeding the capacity raises, surfacing the profiling assumption.
    """

    def __init__(self, capacity_bytes: Optional[int] = None) -> None:
        self.capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        self._used = 0
        self._high_watermark = 0
        #: Live bytes per owning tenant; zeroed keys are dropped, so a
        #: fully-released pool reads ``{}`` tenant by tenant (the exact
        #: per-tenant reconciliation surface of the isolation tests).
        self._used_by: Dict[str, int] = {}

    def alloc(self, nbytes: int, tenant: Optional[str] = None, overflow: bool = False) -> None:
        """Charge ``nbytes`` to ``tenant``.  ``overflow`` is the allocating
        call's degraded-mode escape hatch: with nowhere to spill, refusing
        would fail the step to protect a capacity model whose spill target
        is gone — correctness wins, :attr:`overflow_bytes` records the debt."""
        owner = tenant if tenant is not None else current_tenant()
        with self._lock:
            new_used = self._used + nbytes
            if (
                self.capacity_bytes is not None
                and new_used > self.capacity_bytes
                and not overflow
            ):
                raise MemoryError(
                    f"pinned pool exhausted: {new_used} > {self.capacity_bytes} bytes"
                )
            self._used = new_used
            self._used_by[owner] = self._used_by.get(owner, 0) + nbytes
            self._high_watermark = max(self._high_watermark, new_used)

    @property
    def overflow_bytes(self) -> int:
        """Bytes currently allocated beyond capacity (degraded mode only)."""
        with self._lock:
            if self.capacity_bytes is None:
                return 0
            return max(0, self._used - self.capacity_bytes)

    def free(self, nbytes: int, tenant: Optional[str] = None) -> None:
        owner = tenant if tenant is not None else current_tenant()
        with self._lock:
            if nbytes > self._used:
                raise ValueError("freeing more pinned memory than allocated")
            owned = self._used_by.get(owner, 0)
            if nbytes > owned:
                raise ValueError(
                    f"tenant {owner!r} freeing {nbytes} pinned bytes but owns {owned}"
                )
            self._used -= nbytes
            remaining = owned - nbytes
            if remaining > 0:
                self._used_by[owner] = remaining
            else:
                del self._used_by[owner]

    def used_by(self, tenant: str) -> int:
        """Live pinned bytes currently charged to one tenant."""
        with self._lock:
            return self._used_by.get(tenant, 0)

    def used_by_tenant(self) -> Dict[str, int]:
        """Snapshot of live bytes per tenant (empty when fully released)."""
        with self._lock:
            return dict(self._used_by)

    @property
    def used(self) -> int:
        with self._lock:
            return self._used

    @property
    def high_watermark(self) -> int:
        with self._lock:
            return self._high_watermark

    def fit_to_high_watermark(self, slack: float = 1.1) -> int:
        """Fix capacity to the profiled peak (plus slack); returns it."""
        with self._lock:
            self.capacity_bytes = int(self._high_watermark * slack)
            return self.capacity_bytes


class _Resident(NamedTuple):
    """One host-resident tensor: its buffer, the arena lease under it and
    the tenant charged for the pool bytes."""

    buf: np.ndarray
    lease: BufferLease
    owner: str


class CPUOffloader(Offloader):
    """Host-memory offloader backed by the pinned pool.

    Stores copy into **leased arena buffers** (``np.copyto`` into a
    reused, already-faulted allocation) instead of a fresh
    ``np.array(copy=True)`` per tensor; the lease lives exactly as long
    as the resident buffer (released on evict/overwrite/shutdown).

    Args:
        pool: pinned-pool capacity accounting.
        throttle_bytes_per_s: optional pacing of transfers, modelling the
            PCIe link to host memory the way the file store's throttle
            models SSD bandwidth (a local memcpy is otherwise instant,
            which no real GPU->host copy is).
    """

    default_tier = Tier.CPU

    def __init__(
        self,
        pool: Optional[PinnedMemoryPool] = None,
        throttle_bytes_per_s: Optional[float] = None,
    ) -> None:
        if throttle_bytes_per_s is not None and throttle_bytes_per_s <= 0:
            raise ValueError(f"throttle must be positive: {throttle_bytes_per_s}")
        self.pool = pool if pool is not None else PinnedMemoryPool()
        self.throttle_bytes_per_s = throttle_bytes_per_s
        #: Free-list retention is capped by the pool's (live) capacity.
        self.arena = BufferArena(pool=self.pool)
        self.copy_stats = CopyCounter()
        self._lock = threading.Lock()
        self._residents: Dict[TensorID, _Resident] = {}

    def copy_in(
        self, data: np.ndarray, owner: str, overflow: bool = False
    ) -> Tuple[np.ndarray, BufferLease]:
        """Charge ``owner``'s pool share (past the cap when ``overflow``)
        and copy ``data`` into a leased arena buffer; whoever keeps the pair
        frees and releases it (this backend's table, or the tier's entry)."""
        src = np.asarray(data)
        # Capacity first: a refused allocation must not leak a lease.
        self.pool.alloc(src.nbytes, tenant=owner, overflow=overflow)
        lease: Optional[BufferLease] = None
        try:
            lease = self.arena.lease(src.nbytes, tenant=owner)
            copy = lease.view(src.shape, src.dtype)
            np.copyto(copy, src)
            self.copy_stats.count_copy(src.nbytes)
        except BaseException:
            self.pool.free(src.nbytes, tenant=owner)
            if lease is not None:  # a failed view/copy must not leak it
                lease.release()
            raise
        return copy, lease

    def store(self, tid: TensorID, data: np.ndarray, tier: Optional[Tier] = None) -> None:
        start = time.monotonic()
        owner = current_tenant()
        copy, lease = self.copy_in(data, owner)
        with self._lock:
            old = self._residents.get(tid)
            self._residents[tid] = _Resident(copy, lease, owner)
        if old is not None:
            self._free(old)
        pace(self.throttle_bytes_per_s, copy.nbytes, start)

    def _free(self, resident: _Resident) -> None:
        # Against the tenant the bytes were charged to, even when the free
        # happens on another tenant's thread (evict/overwrite/shutdown).
        self.pool.free(resident.buf.nbytes, tenant=resident.owner)
        resident.lease.release()

    def owner_of(self, tid: TensorID) -> Optional[str]:
        """The tenant charged for ``tid``'s pool bytes (None if absent)."""
        with self._lock:
            resident = self._residents.get(tid)
        return resident.owner if resident is not None else None

    def load(
        self,
        tid: TensorID,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        start = time.monotonic()
        with self._lock:
            resident = self._residents.get(tid)
            if resident is None:
                raise KeyError(f"tensor {tid} not in host pool")
            # The single copy at the GPU-reinstate boundary, into
            # ``out`` when the caller allocated it (``owned_copy``).
            # Copied under the lock: an arena-backed buffer whose
            # lease a concurrent evict/overwrite releases may be
            # recycled by the next store, so reading it unlocked
            # could observe torn bytes.
            data = owned_copy(resident.buf.reshape(shape), dtype, self.copy_stats, out=out)
        pace(self.throttle_bytes_per_s, data.nbytes, start)
        return data

    def evict(self, tid: TensorID) -> None:
        with self._lock:
            resident = self._residents.pop(tid, None)
        if resident is not None:
            self._free(resident)

    def location(self, tid: TensorID) -> str:
        return f"pinned://{tid.filename()}"

    def shutdown(self) -> None:
        with self._lock:
            residents = list(self._residents.values())
            self._residents.clear()
        for resident in residents:
            self._free(resident)


#: Target names accepted by ``EngineConfig.target`` (the CLI/config axis).
OFFLOAD_TARGETS = ("ssd", "cpu", "tiered")
