"""Tiered offloading: GPU -> pinned CPU pool -> SSD (chunked or per-file).

The paper's tensor cache drives exactly one transfer target.  This module
composes the existing backends into a capacity-aware hierarchy in the
PatrickStar / ColossalAI ``StatefulTensor`` tradition:

- **GPU** — hot: KEEP-decided records never reach the offloader;
- **CPU** — warm: a bounded :class:`~repro.core.offloader.PinnedMemoryPool`
  absorbs stores at PCIe speed.  When the pool fills, the **least
  recently used** residents are *demoted* to SSD to make room (write-back,
  not write-through: a tensor lives in exactly one tier);
- **SSD** — cold: the file/chunk store; with ``chunk_bytes`` set, small
  demotions coalesce into one sequential chunk write
  (:class:`~repro.io.chunkstore.ChunkedTensorStore`).

Loads *promote*: reading an SSD-resident tensor copies it back into the
pool when there is room, so a re-read (recomputation replays, multi-scope
saves, repeated prefetch) hits host memory instead of the SSD.

Placement is a policy decision
(:meth:`~repro.core.policy.OffloadPolicy.place`): the pool takes any
tensor under ``cpu_tier_max_tensor_bytes`` that the pool *could* hold;
making room by demotion is this module's job.

The class implements the full :class:`~repro.core.offloader.Offloader`
API, so an unchanged :class:`~repro.core.tensor_cache.TensorCache` can
drive all three tiers.  Placement has one owner — this class: anyone who
wants a tensor's tier or path asks :meth:`tier_of` / :meth:`location`.
"""

from __future__ import annotations

import enum
import logging
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, Optional, Set, Tuple

import numpy as np

from repro.core.ids import TensorID
from repro.core.offloader import CPUOffloader, Offloader, PinnedMemoryPool, SSDOffloader
from repro.core.policy import OffloadPolicy, Tier
from repro.io.breaker import CircuitBreaker
from repro.io.buffers import BufferLease, DataPlaneStats, owned_copy
from repro.io.errors import PermanentIOError, is_enospc, retry_call
from repro.io.scheduler import IORequest, IOScheduler, Priority
from repro.io.tenancy import DEFAULT_TENANT, current_tenant
from repro.tensor.tensor import Tensor

logger = logging.getLogger(__name__)


@dataclass
class TierStats:
    """Cumulative tier-traffic counters (benchmark / test surface)."""

    cpu_stored_tensors: int = 0
    cpu_stored_bytes: int = 0
    ssd_stored_tensors: int = 0     # direct-to-SSD stores (policy bypass)
    ssd_stored_bytes: int = 0
    demotions: int = 0              # CPU -> SSD spills on pool pressure
    demoted_bytes: int = 0
    promotions: int = 0             # SSD -> CPU copies on load
    promoted_bytes: int = 0
    cpu_hits: int = 0               # loads served from the pinned pool
    ssd_loads: int = 0
    cancelled_demotions: int = 0    # SSD writes avoided: victim released
    cancelled_demotion_bytes: int = 0
    demotion_forward_hits: int = 0  # loads served from a parked (queued / mid-write) buffer
    #: Stores/demotions re-routed to the CPU tier because the SSD store
    #: is dead (permanent I/O failure) or its write exhausted the retry
    #: budget — the failure-recovery path, not normal placement.
    failovers: int = 0
    failover_bytes: int = 0
    #: Stores kept on the CPU tier because the SSD lane is browning out
    #: (slow verdict, not dead): tail latency trades against capacity
    #: until the lane speeds back up.
    shed_stores: int = 0
    shed_bytes: int = 0
    #: ENOSPC events absorbed (root re-route, compact-and-retry, or CPU
    #: degrade) without failing the step.
    enospc_events: int = 0
    #: Breaker probe rounds that re-closed and resurrected the SSD tier.
    resurrections: int = 0


class _State(enum.Enum):
    """Where one stored tensor's bytes are (the state column of the
    tier's table; docs/architecture.md section 3 draws the machine)."""

    CPU = "cpu"  # in the pinned pool: buffer + lease on the entry, pool bytes charged
    QUEUED = "queued"  # demoted: pool bytes freed, buffer + lease parked, spill queued
    SPILLING = "spilling"  # the spill write runs outside the lock, from the parked buffer
    STORING = "storing"  # a direct-placement write runs, from the caller's bytes (no lease)
    SSD = "ssd"  # on the device only
    GONE = "gone"  # released, replaced by a re-store, or shut down


#: The transitions :meth:`_Entry.trans_state` admits; ``None`` is an
#: entry no state was given yet.  A store lands in the pool, starts a
#: direct write, or (restart) is replayed from a durable store; a
#: demotion queues, is cancelled by a re-read or starts writing; a write
#: lands, fails back into the pool, or — transient direct-store error,
#: shutdown under the write — ends the entry.
_LEGAL_TRANSITIONS = {
    None: {_State.CPU, _State.STORING, _State.SSD},
    _State.CPU: {_State.QUEUED, _State.GONE},
    _State.QUEUED: {_State.CPU, _State.SPILLING, _State.GONE},
    _State.SPILLING: {_State.SSD, _State.CPU, _State.GONE},
    _State.STORING: {_State.SSD, _State.CPU, _State.GONE},
    _State.SSD: {_State.CPU, _State.GONE},
    _State.GONE: set(),
}

#: The public vocabulary: what :meth:`TieredOffloader.tier_of` answers.
#: A demoted tensor is the SSD tier's from the moment its pool bytes are
#: reclaimed; a direct store is in no tier until it lands.
_TIER_OF = {
    _State.CPU: Tier.CPU,
    _State.QUEUED: Tier.SSD,
    _State.SPILLING: Tier.SSD,
    _State.STORING: Tier.GPU,
    _State.SSD: Tier.SSD,
    _State.GONE: Tier.GPU,
}

_WRITING = (_State.SPILLING, _State.STORING)


class _Entry:
    """One tensor's row in the tier's table, from its store until it is
    released or replaced.

    The entry owns the host buffer and the arena lease under it for as
    long as host bytes exist — resident in the pool or parked behind a
    spill, the same two fields — so nothing is ever handed between
    owners.  All fields are guarded by the tier lock; ``state`` is also
    read without it (placement reads).
    """

    state: Optional[_State] = None

    def __init__(self, owner: str) -> None:
        #: Tenant charged for the pool bytes and billed for the spill.
        self.owner = owner
        self.nbytes = 0
        self.buf: Optional["np.ndarray"] = None
        self.lease: Optional[BufferLease] = None
        #: The queued DEMOTION request; set exactly while QUEUED.
        self.spill: Optional[IORequest] = None
        #: SSD reads of this tensor running outside the lock.
        self.readers = 0
        #: Present while a write or a read of the tensor is in flight, set
        #: when the last one ends; re-store and release wait on it,
        #: unlocked.  ``None`` while the tensor is idle (most never
        #: leave the pool, and an event costs more than their store).
        self.idle: Optional[threading.Event] = None

    def hold(self, buf: "np.ndarray", lease: Optional[BufferLease] = None) -> None:
        """Host bytes for the tensor: a pool copy with its lease, or the
        caller's array for the duration of a direct write."""
        self.buf, self.lease, self.nbytes = buf, lease, buf.nbytes

    def trans_state(self, new: _State) -> None:
        """The one writer of :attr:`state`; callers hold the tier lock.

        Refuses a transition outside the table loudly (the entry is left
        untouched) and applies what each move implies: leaving QUEUED
        forgets the spill request, arriving on the SSD or at GONE drops
        the host buffer and releases its lease, and the idle event
        follows the writes.
        """
        if new not in _LEGAL_TRANSITIONS[self.state]:
            old = self.state.name if self.state is not None else "(new)"
            raise RuntimeError(f"illegal tier transition {old} -> {new.name}")
        self.state = new
        self.spill = None
        if new in (_State.SSD, _State.GONE):
            if self.lease is not None:
                self.lease.release()
            self.buf = self.lease = None
        self.sync_idle()

    def sync_idle(self) -> None:
        """Make :attr:`idle` say whether a write or a read is in flight;
        called after every change to ``state`` or ``readers``."""
        busy = self.readers > 0 or self.state in _WRITING
        if busy and self.idle is None:
            self.idle = threading.Event()
        elif not busy and self.idle is not None:
            self.idle.set()
            self.idle = None


class TieredOffloader(Offloader):
    """Capacity-aware multi-backend offloader.

    Args:
        ssd: the SSD tier, built — every store option (chunking,
            durability, write-leveling, throttle, ``O_DIRECT``, GDS
            routing) is the store's, decided by whoever constructed it.
        cpu_pool_bytes: pinned pool capacity — the CPU tier's size.
        scheduler: the I/O scheduler the tier works on — a collaborator,
            not an option: demotion writes queue on its ssd lane at
            DEMOTION priority, and its lane health
            (:class:`~repro.io.health.LaneHealthTracker`) is the one
            owner of "the SSD is unusable (for this tenant)".  A cache
            driving this offloader must share it.
        policy: supplies the tier-placement rule; defaults to a fresh
            :class:`OffloadPolicy` (pool-first placement).
        promote_on_load: copy SSD-resident tensors back into the pool on
            load when there is free room (no demotion is triggered for a
            promotion — promotions must never thrash the warm set).
        probe_backoff_s: the SSD breaker's backoff, and the opt-in for
            store-path auto-probing (see :attr:`probe_backoff_s`).
    """

    def __init__(
        self,
        ssd: SSDOffloader,
        cpu_pool_bytes: int,
        scheduler: IOScheduler,
        policy: Optional[OffloadPolicy] = None,
        promote_on_load: bool = True,
        probe_backoff_s: Optional[float] = None,
    ) -> None:
        if cpu_pool_bytes < 0:
            raise ValueError(f"cpu_pool_bytes must be >= 0: {cpu_pool_bytes}")
        self.cpu = CPUOffloader(PinnedMemoryPool(cpu_pool_bytes))
        self.ssd = ssd
        self.policy = policy if policy is not None else OffloadPolicy()
        self.promote_on_load = promote_on_load
        self.stats = TierStats()
        # Metadata lock: the table below, pool accounting, counters,
        # scheduler submit/cancel.  Never held across ``ssd.load`` /
        # ``ssd.store`` or a wait on a transfer (docs/architecture.md
        # section 3); placement reads skip it.
        self._lock = threading.RLock()
        #: The table: one entry per stored tensor, whatever its tier.
        self._entries: Dict[TensorID, _Entry] = {}
        #: The CPU-state entries in LRU order (oldest first = first demoted).
        self._lru: "OrderedDict[TensorID, _Entry]" = OrderedDict()
        #: Demotions are DEMOTION-priority requests on the ssd lane: the
        #: pool bytes are reclaimed immediately, and releasing (or
        #: re-loading) the victim first *cancels* the write.
        self.scheduler = scheduler
        #: Degraded mode has one owner, the scheduler's lane health.
        #: While one of its ssd breakers is open every placement it
        #: covers targets the CPU tier (correctness over capacity); this
        #: class only reads the verdict, reports the failures it absorbs
        #: (``mark_dead``) and runs the canary that re-closes a breaker.
        self._health = scheduler.health
        #: Target free headroom the pool keeps between steps (bytes);
        #: installed by the adaptive controller, enforced on demand by
        #: :meth:`apply_watermark`.  0 = no proactive demotion.
        self._free_watermark_bytes = 0
        #: Doubles as the breaker backoff *and* the opt-in for
        #: store-path auto-probing; ``None`` (the default) keeps the
        #: conservative backoff and probes only when the service
        #: housekeeping loop (or a test) calls :meth:`maybe_probe_ssd`.
        self.probe_backoff_s = probe_backoff_s
        self._health.breaker("ssd", backoff_s=probe_backoff_s)  # built with this backoff
        if ssd.file_store.persistent:
            self._rehydrate_table()

    def _rehydrate_table(self) -> None:
        """Seed the table from a replayed durable store.

        The table is in-memory state; after a service restart every
        replayed SSD-resident tensor would otherwise read as "never
        stored".  Host-tier residents are genuinely gone (RAM died with
        the process), so only the SSD side is rebuilt.
        """
        for name in self.ssd.file_store.tensor_ids():
            try:
                tid = TensorID.from_filename(name)
            except ValueError:
                continue  # foreign key in a shared store directory
            entry = self._entries[tid] = _Entry(DEFAULT_TENANT)
            entry.trans_state(_State.SSD)

    # ---------------------------------------------------------------- failover
    @property
    def ssd_dead(self) -> bool:
        """True while the ssd lane's global breaker is open (traffic
        routes around the tier).  Not sticky: a passed probe budget
        clears it."""
        return self._health.is_dead("ssd")

    @property
    def breaker(self) -> CircuitBreaker:
        """The global SSD-tier circuit breaker (state/stats surface)."""
        return self._health.breaker("ssd")

    def ssd_dead_for(self, tenant: str) -> bool:
        """True when ``tenant``'s SSD placement is written off (global
        death counts for everyone; tenant-scoped death only for them)."""
        return self._health.is_dead("ssd", tenant)

    @property
    def dead_tenants(self) -> Set[str]:
        """Tenants whose own SSD breaker is currently open (copy)."""
        return set(self._health.dead_tenants("ssd"))

    # ------------------------------------------------------ probing / healing
    def maybe_probe_ssd(self, tenant: Optional[str] = None) -> Optional[bool]:
        """Canary an open SSD breaker; resurrect the tier when it closes.

        Single-flight and backoff-gated by the breaker itself, so this is
        cheap to call from hot paths and housekeeping loops alike.
        Probes the global breaker, then — when ``tenant`` names a
        non-default tenant with its own tripped breaker — that one too.

        Returns ``None`` when no probe was due, ``True`` when a canary
        succeeded, ``False`` when it failed (the breaker re-opens with a
        doubled backoff).
        """
        result = self._probe_one(None)
        if tenant in self._health.dead_tenants("ssd"):
            scoped_result = self._probe_one(tenant)
            if result is None:
                result = scoped_result
        return result

    def _probe_one(self, tenant: Optional[str]) -> Optional[bool]:
        breaker = self._health.breaker("ssd", tenant)
        if not breaker.allow_probe():
            return None
        if not self._canary_probe(breaker.name):
            breaker.record_probe_failure()
            return False
        if breaker.record_probe_success():
            # The close is the revival (placement reads the breaker);
            # the lane forgets the streak that tripped it.  A tenant's
            # own verdict survives a global resurrection, and the pool
            # drains under its cap at the next watermark application.
            self._health.revive("ssd", tenant if tenant is not None else DEFAULT_TENANT)
            with self._lock:
                self.stats.resurrections += 1
            logger.warning(
                "SSD tier resurrected%s: breaker closed after successful probes",
                f" for tenant {tenant!r}" if tenant else "",
            )
        return True

    def _canary_probe(self, breaker_name: str) -> bool:
        """One tiny write + read-back + delete against the SSD store.

        Runs through ``ssd.file_store`` so an attached fault injector —
        or a genuinely broken device — is exercised exactly like
        production traffic; a healed injector lets the canary through
        and the breaker learns the device is back.  Single-flight is per
        breaker, so a tenant's probe and the global one may overlap: each
        keeps its own sentinel.
        """
        store = self.ssd.file_store
        payload = np.arange(8, dtype=np.float32)  # 32-byte canary
        canary_id = f"__breaker_canary__{breaker_name.replace('/', '__')}"
        try:
            store.write(canary_id, payload)
            store.flush()
            back = store.read(canary_id, payload.shape, payload.dtype)
            ok = bool(np.array_equal(back, payload))
        except OSError:
            ok = False
        try:
            store.delete(canary_id)
        except OSError:
            pass
        return ok

    # -------------------------------------------------------------- plumbing
    @property
    def file_store(self):
        """The SSD tier's store (tests/trace tooling read its counters)."""
        return self.ssd.file_store

    @property
    def pool(self) -> PinnedMemoryPool:
        return self.cpu.pool

    @property
    def arena(self):
        """The CPU tier's buffer arena."""
        return self.cpu.arena

    def dataplane_stats(self) -> DataPlaneStats:
        """Merge both tiers' copy-map telemetry."""
        return self.cpu.dataplane_stats().merge(self.ssd.dataplane_stats())

    def stats_snapshot(self) -> TierStats:
        """A coherent, detached copy of the tier-traffic counters.

        :attr:`stats` is mutated under the tier lock by stores, loads
        and background demotions; a reader iterating the live object can
        see a half-updated pair (e.g. ``demotions`` without its
        ``demoted_bytes``).  ``engine.stats()`` reports this copy.
        """
        with self._lock:
            return replace(self.stats)

    @property
    def cpu_capacity_bytes(self) -> int:
        return self.pool.capacity_bytes or 0

    def cpu_free_bytes(self) -> int:
        return max(0, self.cpu_capacity_bytes - self.pool.used)

    def register_tensor(self, tensor: Tensor) -> None:
        """GDS registration for the direct-to-SSD path."""
        self.ssd.register_tensor(tensor)

    def tier_of(self, tid: TensorID) -> Tier:
        """Which tier currently holds ``tid`` (GPU if never stored).  No
        lock: callers route on it, :meth:`load` copes with what it finds."""
        entry = self._entries.get(tid)
        return _TIER_OF[entry.state] if entry is not None else Tier.GPU

    # ----------------------------------------------------- in-flight transfers
    @contextmanager
    def _locked_when_idle(self, tid: TensorID) -> Iterator[None]:
        """Hold the tier lock at a moment no SSD transfer of ``tid`` is in
        flight; the waiting happens with the lock released."""
        while True:
            with self._lock:
                entry = self._entries.get(tid)
                idle = entry.idle if entry is not None else None
                if idle is None:
                    yield
                    return
            idle.wait()

    def _place(self, owner: str, nbytes: int) -> Tuple[Tier, bool]:
        """Where a store lands, and whether that is a brownout shed
        rather than the policy's plain answer.

        With a dead SSD tier there is exactly one viable placement —
        judged per tenant: another tenant's verdict must not move this
        one's.  Otherwise the policy sees the capacity the pool *could*
        free: every resident is demotable.
        """
        if self._health.is_dead("ssd", owner):
            return Tier.CPU, False
        placement = self.policy.place_for(
            owner, nbytes=nbytes, cpu_free_bytes=self.cpu_capacity_bytes
        )
        if (
            placement is Tier.SSD
            and self._health.is_slow("ssd")
            and nbytes <= self.cpu_free_bytes()
        ):
            # Brownout shed: the lane is alive but slow, and the pool can
            # absorb this store without demoting into that very lane.
            return Tier.CPU, True
        return placement, False

    # ------------------------------------------------------------------ store
    def store(self, tid: TensorID, data: np.ndarray) -> None:
        data = np.asarray(data)
        nbytes = data.nbytes
        owner = current_tenant()
        # Opt-in self-healing on the hot path: with a tripped breaker
        # whose backoff has elapsed, spend one cheap canary before
        # deciding placement (single-flight — a store storm cannot
        # hammer a struggling device).  Outside the tier lock: the
        # canary is real I/O.
        if self.probe_backoff_s is not None and self._health.is_dead("ssd", owner):
            self.maybe_probe_ssd(owner)
        with self._locked_when_idle(tid):
            placement, shed = self._place(owner, nbytes)
            if shed:
                self.stats.shed_stores += 1
                self.stats.shed_bytes += nbytes
            # Re-store: drop the old backing copy first.  A cross-tier
            # move would otherwise leak it, and a CPU-tier overwrite must
            # free its old bytes *before* _make_room demotes for them.
            self._drop_locked(tid)
            entry = _Entry(owner)
            if placement is Tier.CPU:
                self._store_cpu_locked(tid, entry, data)
            else:
                # Written unlocked; the bytes in hand serve loads until
                # the write lands and the tensor joins a tier.
                entry.hold(data)
                entry.trans_state(_State.STORING)
                self._entries[tid] = entry
        if placement is Tier.SSD:
            self._store_direct(tid, entry)

    def _store_cpu_locked(self, tid: TensorID, entry: _Entry, data: np.ndarray) -> None:
        """Copy ``data`` into the pool for ``entry``: a fresh store, or a
        direct write failing over with the caller's bytes in hand.  The
        pool exceeds its cap exactly when no resident can spill to make
        room (degraded mode, or a failover larger than the pool)."""
        overflow = not self._make_room(data.nbytes)
        entry.hold(*self.cpu.copy_in(data, entry.owner, overflow=overflow))
        self._entries[tid] = entry
        self._resident_locked(tid, entry)
        self.stats.cpu_stored_tensors += 1
        self.stats.cpu_stored_bytes += entry.nbytes

    def _resident_locked(self, tid: TensorID, entry: _Entry, promoted: bool = False) -> None:
        """``entry``'s bytes are in the pool and charged to its owner:
        CPU state, youngest in the LRU order."""
        entry.trans_state(_State.CPU)
        self._lru[tid] = entry
        if promoted:
            self.stats.promotions += 1
            self.stats.promoted_bytes += entry.nbytes

    def _store_direct(self, tid: TensorID, entry: _Entry) -> None:
        """The policy-bypass SSD write of the caller's bytes on ``entry``:
        tier lock released, re-taken to book the landing or to fix the
        books after a failure."""
        data = entry.buf
        try:
            failure: Optional[OSError] = None
            try:
                self.ssd.store(tid, data)
            except OSError as exc:
                if not isinstance(exc, PermanentIOError) and not is_enospc(exc):
                    # Transient errors propagate: the request's bounded
                    # retry re-enters store() with the books consistent.
                    raise
                failure = exc
            with self._lock:
                if self._entries.get(tid) is not entry:
                    return  # shut down under the write
                landed = failure is None
                if isinstance(failure, PermanentIOError):
                    # Tier failover: the device is gone, the bytes are in
                    # hand — land them in the pinned pool instead of
                    # failing the step.
                    logger.warning("SSD store failed for %s (%s); failing over", tid, failure)
                    self._health.mark_dead("ssd", entry.owner, "store failure")
                elif failure is not None:
                    # Resource exhaustion is not device death: the
                    # breaker stays closed.  Compact to free dead bytes
                    # and retry once; a genuinely full device degrades
                    # this store to the CPU tier instead of failing the
                    # step.
                    self.stats.enospc_events += 1
                    landed = self._retry_store_after_compaction(tid, data)
                    if not landed:
                        logger.warning(
                            "SSD store of %s hit ENOSPC even after "
                            "compaction; degrading to the CPU tier", tid,
                        )
                if landed:
                    self.stats.ssd_stored_tensors += 1
                    self.stats.ssd_stored_bytes += entry.nbytes
                    entry.trans_state(_State.SSD)
                else:
                    self.stats.failovers += 1
                    self.stats.failover_bytes += entry.nbytes
                    self._store_cpu_locked(tid, entry, data)
        finally:
            if entry.state is _State.STORING:
                # Neither landed nor failed over (the write raised, or the
                # offloader shut down under it): the tensor is in no tier.
                with self._lock:
                    if self._entries.get(tid) is entry:
                        del self._entries[tid]
                    entry.trans_state(_State.GONE)

    def _retry_store_after_compaction(self, tid: TensorID, data) -> bool:
        """ENOSPC recovery: force a GC pass to reclaim dead bytes, then
        retry the SSD store once; True when the retry landed.  The one
        SSD write under the tier lock: rare, and compaction mutates the
        store index the books are being fixed against."""
        # The one thing the two stores do not share: a per-tensor store
        # holds no dead bytes (delete unlinks the file), so only the
        # chunk store can compact.
        compact = getattr(self.ssd.file_store, "compact", None)
        if compact is None:
            return False
        logger.warning("SSD store of %s hit ENOSPC; compacting and retrying", tid)
        try:
            compact(max_dead_ratio=0.01)
        except OSError:
            return False  # compaction itself needs space it cannot get
        try:
            self.ssd.store(tid, data)
        except OSError as exc:
            if is_enospc(exc):
                return False
            raise
        return True

    def _next_victim(self) -> Optional[Tuple[TensorID, _Entry]]:
        """The least recently used resident whose owner can still spill;
        ``None`` when nobody can.

        With the SSD tier dead there is nowhere to demote *to*.  A
        *tenant-scoped* verdict only shrinks the victim set — that
        tenant's residents are pinned (their spill target is gone) while
        everyone else's remain demotable.
        """
        if self._health.is_dead("ssd"):
            return None
        for tid, entry in self._lru.items():
            if not self._health.is_dead("ssd", entry.owner):
                return tid, entry
        return None

    def _make_room(self, nbytes: int) -> bool:
        """Demote LRU pool residents until ``nbytes`` fits; holds the
        lock.  False when it does not fit and nothing (more) can spill."""
        while self.cpu_free_bytes() < nbytes:
            victim = self._next_victim()
            if victim is None:
                return False
            self._demote_locked(*victim)
        return True

    def _demote_locked(self, tid: TensorID, entry: _Entry) -> None:
        """Reclaim ``tid``'s pool bytes now and queue its SSD write at
        DEMOTION priority — behind every load, ahead of fresh stores —
        cancellable until it runs (a failed write reinstates the tensor).

        Buffer and lease stay on the entry: the parked bytes are the
        tensor's only copy, so the arena must not recycle that memory
        until the write lands.
        """
        # max_retries=0: _run_demotion is stateful (it leaves QUEUED
        # once), so job-level re-execution would find nothing to do; the
        # SSD write retries *inside* the body instead.  The spill is
        # charged to (and its health attributed to) the *victim's* tenant
        # — pool pressure from tenant A must never bill tenant B's
        # demotion to A, nor let B's write failures poison A's
        # lane-health verdict.
        request = IORequest(
            lambda: self._run_demotion(tid, entry, request),
            kind="demote",
            priority=Priority.DEMOTION,
            tensor_id=str(tid),
            nbytes=entry.nbytes,
            lane="ssd",
            max_retries=0,
            tenant=entry.owner,
        )
        self.scheduler.submit(request)
        del self._lru[tid]
        self.pool.free(entry.nbytes, tenant=entry.owner)
        entry.trans_state(_State.QUEUED)
        entry.spill = request
        self.stats.demotions += 1
        self.stats.demoted_bytes += entry.nbytes

    def _run_demotion(self, tid: TensorID, entry: _Entry, request: IORequest) -> None:
        """The write half of a demotion, on a lane worker.

        The write runs with the tier lock released — a throttled spill
        must not stall unrelated loads — from the buffer on the entry:
        readers of this tid are served from it, mutators wait.
        """
        with self._lock:
            if entry.spill is not request:
                # Released, reloaded or re-stored before the write; a newer
                # spill of the tensor runs under its own request.
                return
            entry.trans_state(_State.SPILLING)
            buf = entry.buf
        error: Optional[Exception] = None
        try:
            retry_call(lambda: self.ssd.store(tid, buf))
        except Exception as exc:
            error = exc
        with self._lock:
            if self._entries.get(tid) is not entry:
                entry.trans_state(_State.GONE)  # shut down under the write
            elif error is None:
                entry.trans_state(_State.SSD)
            else:
                # The parked buffer is the only copy of this tensor: a
                # failed spill must never lose it.  It re-enters the pool
                # as-is (over the cap if need be — reinstatement cannot be
                # refused), and the SSD is written off on permanent death.
                logger.warning(
                    "demotion write for %s failed (%s); reinstating in the CPU tier",
                    tid,
                    error,
                )
                # The request will complete DONE (the data is safe), but
                # the SSD lane must still learn about the write it failed
                # — an SSD that flakes every demotion has to accumulate
                # toward the death verdict.
                request.health_error = error
                if isinstance(error, PermanentIOError):
                    self._health.mark_dead("ssd", entry.owner, "demotion failure")
                elif is_enospc(error):
                    self.stats.enospc_events += 1
                self.pool.alloc(entry.nbytes, tenant=entry.owner, overflow=True)
                self._resident_locked(tid, entry)
                self.stats.failovers += 1
                self.stats.failover_bytes += entry.nbytes

    def _cancel_spill_locked(self, entry: _Entry) -> None:
        """Withdraw ``entry``'s queued spill: the SSD write never happens.
        The caller moves the entry out of QUEUED under the same lock
        hold, so a worker that already claimed the request finds it is
        no longer the entry's spill and returns."""
        self.scheduler.cancel(entry.spill)
        self.stats.cancelled_demotions += 1
        self.stats.cancelled_demotion_bytes += entry.nbytes

    @property
    def free_watermark_bytes(self) -> int:
        return self._free_watermark_bytes

    def set_free_watermark(self, nbytes: int) -> None:
        """Set the free-headroom target the pool maintains between steps.

        The adaptive controller raises the watermark when the next step's
        forward burst would outrun the SSD drain rate — proactively
        demoting cold residents while the lanes are idle is cheaper than
        demoting them inside the burst, on the store critical path.  The
        value is clamped to the pool capacity; it takes effect at the
        next :meth:`apply_watermark` call.
        """
        if nbytes < 0:
            raise ValueError(f"watermark must be >= 0: {nbytes}")
        self._free_watermark_bytes = min(int(nbytes), self.cpu_capacity_bytes)

    def apply_watermark(self) -> int:
        """Demote LRU residents until free headroom meets the watermark.

        Returns the number of tensors demoted.  The SSD writes queue at
        DEMOTION priority (behind every load), so applying the watermark
        between steps costs idle-lane time only — and each spill stays
        cancellable until it runs.  Headroom is counted from the cap, so
        a pool that degraded mode left over it is drained back under.
        """
        demoted = 0
        with self._lock:
            if self._health.is_slow("ssd"):
                # Brownout shed: proactive demotions are optional traffic
                # — keep them off a lane that is already struggling so
                # blocking loads get what bandwidth remains.
                return 0
            while self.cpu_capacity_bytes - self.pool.used < self._free_watermark_bytes:
                victim = self._next_victim()
                if victim is None:
                    break
                self._demote_locked(*victim)
                demoted += 1
        return demoted

    def demote(self, tid: TensorID) -> bool:
        """Explicitly spill one CPU-resident tensor to SSD; True when its
        pool bytes were reclaimed and the write queued."""
        with self._lock:
            entry = self._lru.get(tid)
            if entry is not None:
                self._demote_locked(tid, entry)
        return entry is not None

    # ------------------------------------------------------------------- load
    def load(self, tid: TensorID, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        with self._lock:
            entry = self._entries.get(tid)
            if entry is None:
                raise KeyError(f"tensor {tid} was never stored in any tier")
            if entry.buf is not None:
                # Host bytes, resident or parked, are authoritative.  The
                # single ownership copy at the GPU-reinstate boundary is
                # made under the lock: a released lease's memory may be
                # recycled by the next store.
                data = owned_copy(entry.buf.reshape(shape), dtype, self.cpu.copy_stats)
                if entry.state is _State.CPU:
                    self._lru.move_to_end(tid)
                    self.stats.cpu_hits += 1
                    return data
                # Demotion forwarding: a queued or mid-flight write is
                # served without waiting for (or blocking) it.
                self.stats.demotion_forward_hits += 1
                if (
                    entry.state is _State.QUEUED
                    and self.promote_on_load
                    and entry.nbytes <= self.cpu_free_bytes()
                ):
                    # The pool has room again: cancel the now-pointless
                    # SSD write and reinstate the tensor, a promotion that
                    # touches neither the SSD nor the bytes.  Otherwise
                    # the spill proceeds — the parked buffer is the only
                    # backing copy.  Charged to the owning tenant, not
                    # the (possibly different) reader.
                    self._cancel_spill_locked(entry)
                    self.pool.alloc(entry.nbytes, tenant=entry.owner)
                    self._resident_locked(tid, entry, promoted=True)
                return data
            # An SSD read: registered, so nothing replaces or drops the
            # copy under it, then run unlocked — reads of different tids
            # (and a hedged duplicate of this one) overlap.
            entry.readers += 1
            entry.sync_idle()
        data = None
        try:
            data = self.ssd.load(tid, shape, dtype)
        finally:
            with self._lock:
                entry.readers -= 1
                entry.sync_idle()
                if data is not None:
                    self.stats.ssd_loads += 1
                    if (
                        self.promote_on_load
                        # The last reader out promotes: once, and never
                        # while a duplicate still reads the copy promotion
                        # releases.  Still-SSD also says "not shut down".
                        and entry.readers == 0
                        and entry.state is _State.SSD
                        and data.nbytes <= self.cpu_free_bytes()
                    ):
                        # Charged to the tenant that stored the tensor
                        # even when another tenant's thread promotes.
                        entry.hold(*self.cpu.copy_in(data, entry.owner))
                        self.ssd.release(tid)
                        self._resident_locked(tid, entry, promoted=True)
        return data

    # ---------------------------------------------------------------- reclaim
    def release(self, tid: TensorID) -> None:
        # An in-flight transfer finishes first: a spill lands before its
        # file is deleted, a reader gets the complete copy.
        with self._locked_when_idle(tid):
            self._drop_locked(tid)

    def _drop_locked(self, tid: TensorID) -> None:
        """Forget ``tid`` and free its backing copy, whichever tier; the
        caller holds the lock with the entry idle."""
        entry = self._entries.pop(tid, None)
        if entry is None:
            return
        if entry.state is _State.CPU:
            del self._lru[tid]
            self.pool.free(entry.nbytes, tenant=entry.owner)
        elif entry.state is _State.QUEUED:
            # A queued demotion of a dropped tensor is an SSD write for
            # data nobody will read again: cancel it outright.
            self._cancel_spill_locked(entry)
        else:
            self.ssd.release(tid)
        entry.trans_state(_State.GONE)

    def location(self, tid: TensorID) -> str:
        entry = self._entries.get(tid)  # lock-free, like tier_of
        state = entry.state if entry is not None else _State.GONE
        if state is _State.CPU:
            return f"tier:cpu:{self.cpu.location(tid)}"
        if _TIER_OF[state] is Tier.SSD:
            suffix = "!queued" if state is _State.QUEUED else ""
            return f"tier:ssd{suffix}:{self.ssd.location(tid)}"
        return f"tier:gpu:{tid.filename()}"

    def flush(self) -> None:
        """Flush a partially-filled SSD chunk, if the SSD tier is chunked."""
        self.ssd.flush()

    def store_lane(self, tid: TensorID, nbytes: int) -> str:
        """Predict the lane from the policy's placement rule.

        The actual landing tier is decided inside :meth:`store` (the pool
        may have filled meanwhile); the prediction only routes the queue
        slot.  Takes no tier lock.
        """
        placement, _ = self._place(current_tenant(), nbytes)
        return "cpu" if placement is Tier.CPU else "ssd"

    def shutdown(self) -> None:
        with self._lock:
            for entry in self._entries.values():
                if entry.state is _State.QUEUED:
                    # Queued spill writes are pointless now; drop them
                    # without touching the cancellation counters (nothing
                    # was saved, the whole store is going away).
                    entry.spill.cancel()
                elif entry.state is _State.CPU:
                    self.pool.free(entry.nbytes, tenant=entry.owner)
                if entry.state not in _WRITING:  # a write ends its own entry
                    entry.trans_state(_State.GONE)
            self._entries.clear()
            self._lru.clear()
        self.cpu.shutdown()
        self.ssd.shutdown()
