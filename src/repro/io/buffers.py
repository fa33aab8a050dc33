"""Pooled reusable host buffers: the zero-copy data plane's allocator.

The offload engine's job is moving activation bytes at hardware speed,
yet a naive data plane pays for every tensor twice — once in the
unavoidable transfer itself and again in per-tensor heap allocations
(fresh ``np.ndarray`` per CPU store, ``tobytes()`` temporaries per SSD
write, ``bytes`` slurps per read).  PatrickStar-style chunk-based memory
managers (arXiv:2108.05818) showed that reusing fixed arenas instead of
allocating per tensor removes both the allocator cost and the page-fault
storm of first-touch on cold pages.

:class:`BufferArena` brings that to this stack:

- **size-class bins** — buffers are pooled by power-of-two size class
  (floor :data:`MIN_SIZE_CLASS`), so a released 96 KiB buffer serves the
  next 100 KiB lease without fragmentation bookkeeping;
- **explicit lease/release** — :meth:`BufferArena.lease` hands out a
  :class:`BufferLease` whose lifetime the caller owns; ``release()`` is
  idempotent, so lifecycle code (scheduler terminal states, tier
  evictions, failure recovery) can be defensive without double-free
  hazards;
- **exact accounting** — :class:`ArenaStats` tracks leases, releases,
  hits (a pooled buffer reused: one allocation avoided), misses (a fresh
  allocation), outstanding leases and their high-water mark.  The
  invariant the property tests pin down: after a drain,
  ``leases == releases + outstanding`` and every outstanding lease is
  attributable to a live resident buffer;
- **bounded retention** — free buffers are retained up to
  ``capacity_bytes`` (or, when constructed with ``pool=``, the tied
  :class:`~repro.core.offloader.PinnedMemoryPool`'s capacity, tracked
  live so ``fit_to_high_watermark`` shrinks the arena too).  Beyond the
  cap a released buffer is dropped, not pooled — the arena trades hit
  rate for a hard memory bound.

:class:`CopyCounter` is the shared copy-count telemetry: every component
of the data plane (file store, chunk store, CPU offloader) counts the
memcpys it performs and the allocations the streaming/pooled path avoided
versus a copy per stage, so "we eliminated the copies" is a printed
number, not a claim.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.io.tenancy import current_tenant

#: Smallest size-class: leases below this share 4 KiB buffers (the page
#: size — also the alignment unit the SSD path cares about).
MIN_SIZE_CLASS = 4096

#: ``O_DIRECT`` buffer/offset/length alignment unit.  Every size class
#: is a multiple of this by construction (power-of-two, floor 4 KiB) —
#: only the buffer's *address* needs extra care, which ``aligned=True``
#: leases provide.
DIRECT_ALIGNMENT = 4096


def size_class(nbytes: int) -> int:
    """Round a request up to its power-of-two bin (floor 4 KiB)."""
    if nbytes < 0:
        raise ValueError(f"negative lease size: {nbytes}")
    if nbytes <= MIN_SIZE_CLASS:
        return MIN_SIZE_CLASS
    return 1 << (nbytes - 1).bit_length()


@dataclass
class ArenaStats:
    """Exact lease accounting (the property-test surface)."""

    leases: int = 0            #: lease() calls served
    releases: int = 0          #: leases returned (dropped or pooled)
    hits: int = 0              #: leases served from the free list
    misses: int = 0            #: leases that allocated a fresh buffer
    outstanding: int = 0       #: live leases right now
    outstanding_bytes: int = 0  #: size-class bytes currently leased
    high_water_bytes: int = 0  #: peak of outstanding_bytes
    retained_bytes: int = 0    #: free-list bytes currently pooled
    trimmed_buffers: int = 0   #: free buffers dropped to respect the cap
    aligned_leases: int = 0    #: leases served from the O_DIRECT-aligned bins
    #: Live leases per owning tenant (emptied keys are dropped, so after
    #: a clean drain this is exactly ``{}`` — the per-tenant no-leak
    #: invariant the isolation chaos tests reconcile).
    outstanding_by_tenant: Dict[str, int] = field(default_factory=dict)

    @property
    def allocs_avoided(self) -> int:
        """Allocations the pool absorbed (each hit is one ``np.empty``
        plus its first-touch page faults that never happened)."""
        return self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.leases if self.leases else 0.0

    @property
    def leaked(self) -> int:
        """Leases never returned (must be 0 after a drained shutdown)."""
        return self.leases - self.releases - self.outstanding


@dataclass
class CopySnapshot:
    """Frozen view of one :class:`CopyCounter`."""

    copies: int = 0
    bytes_copied: int = 0
    allocs_avoided: int = 0
    bounce_copies: int = 0
    bounce_copies_skipped: int = 0
    direct_fallbacks: int = 0


class CopyCounter:
    """Thread-safe memcpy/allocation telemetry for one data-plane stage.

    Also books the stage's staging *decisions*: GDS-sim bounce routing
    (:meth:`count_bounce`) and ``O_DIRECT`` refusals
    (:meth:`count_direct_fallback`).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._snap = CopySnapshot()

    def count_copy(self, nbytes: int, copies: int = 1, avoided: int = 0) -> None:
        """``copies`` memcpys of ``nbytes`` each, and the ``avoided``
        allocations of the same transfer, under one lock."""
        with self._lock:
            self._snap.copies += copies
            self._snap.bytes_copied += nbytes * copies
            self._snap.allocs_avoided += avoided

    def count_avoided(self, allocs: int = 1) -> None:
        with self._lock:
            self._snap.allocs_avoided += allocs

    def count_bounce(self, skipped: bool) -> None:
        """One GDS-sim routing decision: host bounce copy made or elided."""
        with self._lock:
            if skipped:
                self._snap.bounce_copies_skipped += 1
            else:
                self._snap.bounce_copies += 1

    def count_direct_fallback(self) -> None:
        """One file the filesystem or device refused ``O_DIRECT`` for."""
        with self._lock:
            self._snap.direct_fallbacks += 1

    def snapshot(self) -> CopySnapshot:
        with self._lock:
            return replace(self._snap)


def owned_copy(
    view: np.ndarray, dtype: np.dtype, counter: Optional[CopyCounter] = None
) -> np.ndarray:
    """The single ownership copy at a reinstate boundary.

    Exactly one copy is performed: a plain ``copy()`` when the dtype
    already matches (the old ``astype(dtype, copy=True)`` call sites
    forced the conversion machinery even for the identity conversion), a
    conversion copy otherwise — never a convert *and* a copy.
    """
    dtype = np.dtype(dtype)
    out = view.copy() if view.dtype == dtype else view.astype(dtype)
    if counter is not None:
        counter.count_copy(out.nbytes)
    return out


class BufferLease:
    """One leased buffer; the holder owns it until :meth:`release`.

    ``array`` is the raw uint8 size-class buffer; :meth:`view` carves the
    exactly-sized typed window the caller copies into.  Release is
    idempotent — terminal-state hooks and explicit lifecycle code can
    both call it without coordinating.
    """

    __slots__ = ("arena", "array", "nbytes", "tenant", "aligned", "_released")

    def __init__(
        self,
        arena: "BufferArena",
        array: np.ndarray,
        nbytes: int,
        tenant: Optional[str] = None,
        aligned: bool = False,
    ) -> None:
        self.arena = arena
        self.array = array
        self.nbytes = nbytes
        #: Whether the buffer's address is DIRECT_ALIGNMENT-aligned (the
        #: lease came from — and returns to — the aligned bins).
        self.aligned = aligned
        #: Owning tenant (stamped at lease time from the leasing
        #: thread's scope) — the key the per-tenant arena accounting
        #: credits the release back to, however many hands the lease
        #: passes through in between.
        self.tenant = tenant if tenant is not None else current_tenant()
        self._released = False

    def view(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A ``shape``/``dtype`` window over the leased bytes (no copy)."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes > self.array.nbytes:
            raise ValueError(
                f"view of {nbytes} bytes exceeds the {self.array.nbytes}-byte lease"
            )
        return self.array[:nbytes].view(dtype).reshape(shape)

    def release(self) -> None:
        """Return the buffer to the arena (idempotent and atomic: the
        released flag flips under the arena lock, so concurrent releases
        of the same lease cannot double-return the buffer)."""
        self.arena._release(self)


class BufferArena:
    """Thread-safe, size-class-binned pool of reusable host buffers.

    Args:
        capacity_bytes: cap on *retained free* bytes.  ``None`` defers to
            ``pool`` (below) or means unbounded retention.  Leasing is
            never refused — the cap bounds what the arena keeps warm, not
            what callers may hold; leased bytes are accounted by their
            owner (e.g. the pinned pool), not double-counted here.
        pool: a :class:`~repro.core.offloader.PinnedMemoryPool` whose
            *current* capacity caps retention.  Read live on every
            release, so re-sizing the pool (``fit_to_high_watermark``)
            re-sizes the arena with it.
    """

    def __init__(self, capacity_bytes: Optional[int] = None, pool=None) -> None:
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError(f"capacity_bytes must be >= 0: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.pool = pool
        self._lock = threading.Lock()
        self._free: Dict[int, List[np.ndarray]] = {}
        #: O_DIRECT-aligned buffers pool separately: a plain ``np.empty``
        #: has no address guarantee, so the two populations must never
        #: mix (an aligned lease served an unaligned buffer would EINVAL
        #: at ``pwrite`` time).
        self._free_aligned: Dict[int, List[np.ndarray]] = {}
        self._stats = ArenaStats()

    # ------------------------------------------------------------------ stats
    def stats(self) -> ArenaStats:
        """A consistent copy of the arena's accounting."""
        with self._lock:
            snap = ArenaStats(**vars(self._stats))
            # vars() shallow-copies: the per-tenant dict must be copied
            # explicitly or the snapshot would alias live state.
            snap.outstanding_by_tenant = dict(self._stats.outstanding_by_tenant)
        return snap

    def outstanding_for(self, tenant: str) -> int:
        """Live leases currently held by one tenant."""
        with self._lock:
            return self._stats.outstanding_by_tenant.get(tenant, 0)

    @property
    def retention_cap_bytes(self) -> Optional[int]:
        """The live retention bound (explicit cap, else the tied pool's)."""
        if self.capacity_bytes is not None:
            return self.capacity_bytes
        if self.pool is not None:
            return self.pool.capacity_bytes
        return None

    # ------------------------------------------------------------------ lease
    def lease(
        self, nbytes: int, tenant: Optional[str] = None, aligned: bool = False
    ) -> BufferLease:
        """Lease a buffer of at least ``nbytes`` (size-class rounded).

        The lease is attributed to ``tenant`` (default: the calling
        thread's :func:`~repro.io.tenancy.current_tenant` scope) for
        the per-tenant outstanding books.

        ``aligned=True`` guarantees the buffer's address is
        :data:`DIRECT_ALIGNMENT`-aligned (the ``O_DIRECT`` requirement;
        length and offset are already multiples by size-class
        construction).  Aligned buffers pool in their own bins; the
        over-allocation slack (one alignment unit per fresh buffer) is
        not charged to the retention books.
        """
        cls = size_class(nbytes)
        owner = tenant if tenant is not None else current_tenant()
        with self._lock:
            bin_ = (self._free_aligned if aligned else self._free).get(cls)
            if bin_:
                array = bin_.pop()
                self._stats.hits += 1
                self._stats.retained_bytes -= cls
            else:
                array = None
                self._stats.misses += 1
            if aligned:
                self._stats.aligned_leases += 1
            self._stats.leases += 1
            self._stats.outstanding += 1
            self._stats.outstanding_bytes += cls
            by_tenant = self._stats.outstanding_by_tenant
            by_tenant[owner] = by_tenant.get(owner, 0) + 1
            self._stats.high_water_bytes = max(
                self._stats.high_water_bytes, self._stats.outstanding_bytes
            )
        if array is None:
            # Allocate outside the lock: np.empty of a large class can
            # fault pages, and concurrent leases must not serialize on it.
            try:
                if aligned:
                    # Over-allocate one alignment unit and slice to the
                    # first aligned address; the slice view keeps the
                    # base allocation alive for the buffer's lifetime.
                    raw = np.empty(cls + DIRECT_ALIGNMENT, dtype=np.uint8)
                    offset = (-raw.ctypes.data) % DIRECT_ALIGNMENT
                    array = raw[offset : offset + cls]
                else:
                    array = np.empty(cls, dtype=np.uint8)
            except BaseException:
                # Roll the optimistic accounting back — a failed
                # allocation must leave the books exact (no phantom
                # outstanding lease that nothing can ever release).
                with self._lock:
                    self._stats.leases -= 1
                    self._stats.misses -= 1
                    self._stats.outstanding -= 1
                    self._stats.outstanding_bytes -= cls
                    if aligned:
                        self._stats.aligned_leases -= 1
                    self._drop_tenant_outstanding_locked(owner)
                raise
        return BufferLease(self, array, nbytes, tenant=owner, aligned=aligned)

    def _drop_tenant_outstanding_locked(self, tenant: str) -> None:
        by_tenant = self._stats.outstanding_by_tenant
        remaining = by_tenant.get(tenant, 0) - 1
        if remaining > 0:
            by_tenant[tenant] = remaining
        else:
            # Zeroed keys are removed so "fully reconciled" reads as an
            # empty dict, tenant by tenant.
            by_tenant.pop(tenant, None)

    def _release(self, lease: BufferLease) -> None:
        cls = lease.array.nbytes
        with self._lock:
            if lease._released:  # atomic check-then-act under the lock
                return
            lease._released = True
            self._stats.releases += 1
            self._stats.outstanding -= 1
            self._stats.outstanding_bytes -= cls
            self._drop_tenant_outstanding_locked(lease.tenant)
            cap = self.retention_cap_bytes
            if cap is None or self._stats.retained_bytes + cls <= cap:
                free = self._free_aligned if lease.aligned else self._free
                free.setdefault(cls, []).append(lease.array)
                self._stats.retained_bytes += cls
            else:
                self._stats.trimmed_buffers += 1

    def trim(self, target_bytes: int = 0) -> int:
        """Drop free buffers until retention <= ``target_bytes``.

        Returns the number of buffers dropped.  Leased buffers are
        untouched — only the warm free list shrinks.
        """
        if target_bytes < 0:
            raise ValueError(f"target_bytes must be >= 0: {target_bytes}")
        dropped = 0
        with self._lock:
            for free in (self._free, self._free_aligned):
                # Largest classes first: fewest drops to reach the target.
                for cls in sorted(free, reverse=True):
                    bin_ = free[cls]
                    while bin_ and self._stats.retained_bytes > target_bytes:
                        bin_.pop()
                        self._stats.retained_bytes -= cls
                        self._stats.trimmed_buffers += 1
                        dropped += 1
                    if not bin_:
                        del free[cls]
        return dropped


@dataclass
class DataPlaneStats:
    """Aggregated copy-map telemetry across a backend's components.

    ``bytes_copied``/``copies`` count the memcpys actually performed,
    ``allocs_avoided`` the allocations the pooled/streaming paths skipped
    versus a copy per stage (``tobytes()`` temporaries, header+payload
    concats, whole-file slurps, per-store fresh arrays).  The arena
    fields surface the pool's reuse quality — ``arena_hit_rate`` is the
    fraction of leases served without allocating.
    """

    copies: int = 0
    bytes_copied: int = 0
    allocs_avoided: int = 0
    arena_leases: int = 0
    arena_hits: int = 0
    arena_misses: int = 0
    arena_outstanding: int = 0
    arena_high_water_bytes: int = 0
    arena_retained_bytes: int = 0
    #: GDS-sim routing books: host bounce-staging copies actually made
    #: for unregistered storages, and the ones elided because the
    #: storage was GDS-registered (the direct lane).  Zero unless the
    #: SSD store routes on a registry (``io_backend="gds-sim"``).
    bounce_copies: int = 0
    bounce_copies_skipped: int = 0
    #: Files the filesystem or device refused ``O_DIRECT`` for
    #: (``io_direct=True``); each fell back to buffered I/O.
    direct_fallbacks: int = 0

    @property
    def arena_hit_rate(self) -> float:
        return self.arena_hits / self.arena_leases if self.arena_leases else 0.0

    def add_counter(self, snap: CopySnapshot) -> None:
        self.copies += snap.copies
        self.bytes_copied += snap.bytes_copied
        self.allocs_avoided += snap.allocs_avoided
        self.bounce_copies += snap.bounce_copies
        self.bounce_copies_skipped += snap.bounce_copies_skipped
        self.direct_fallbacks += snap.direct_fallbacks

    def add_arena(self, stats: ArenaStats) -> None:
        self.arena_leases += stats.leases
        self.arena_hits += stats.hits
        self.arena_misses += stats.misses
        self.arena_outstanding += stats.outstanding
        self.arena_high_water_bytes += stats.high_water_bytes
        self.arena_retained_bytes += stats.retained_bytes
        # Every arena hit is a fresh allocation (and its page faults)
        # that never happened.
        self.allocs_avoided += stats.hits

    def merge(self, other: "DataPlaneStats") -> "DataPlaneStats":
        self.copies += other.copies
        self.bytes_copied += other.bytes_copied
        self.allocs_avoided += other.allocs_avoided
        self.arena_leases += other.arena_leases
        self.arena_hits += other.arena_hits
        self.arena_misses += other.arena_misses
        self.arena_outstanding += other.arena_outstanding
        self.arena_high_water_bytes += other.arena_high_water_bytes
        self.arena_retained_bytes += other.arena_retained_bytes
        self.bounce_copies += other.bounce_copies
        self.bounce_copies_skipped += other.bounce_copies_skipped
        self.direct_fallbacks += other.direct_fallbacks
        return self
