"""The engine facade: one typed construction path for the offload stack.

Two front-ends share the offload stack — the original
:class:`~repro.train.trainer.Trainer` and the KV-cache paging server in
:mod:`repro.serve` — and both build it, and read its telemetry, here:

- :class:`EngineConfig` is the single typed configuration record;
  invalid combinations raise :class:`EngineConfigError` (a
  :class:`ValueError` subclass, so ``except ValueError`` callers work).
- :func:`build_engine` returns an :class:`Engine` bundling the offloader,
  a lazily-started scheduler, the placement policy and the optional
  tenant registry.  ``Trainer`` runs construct a cache via
  :meth:`Engine.cache`; the KV front-end drives the offloader/scheduler
  pair directly; callers that only need the synchronous backend take
  ``engine.offloader``.
- :meth:`Engine.stats` returns one :class:`EngineStats` snapshot
  aggregating every book non-destructively — reading it never steals the
  adaptive controller's bandwidth windows or resets a counter.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.core.offloader import (
    CPUOffloader,
    OFFLOAD_TARGETS,
    Offloader,
    PinnedMemoryPool,
    SSDOffloader,
)
from repro.core.policy import OffloadPolicy
from repro.io.aio import IOLaneStats
from repro.io.buffers import ArenaStats, DataPlaneStats
from repro.io.scheduler import (
    ChannelWindow,
    IOScheduler,
    LaneHealthSnapshot,
    Priority,
    SchedulerStats,
)
from repro.io.gds import GDSRegistry
from repro.io.tenancy import TenantRegistry, TenantStats
from repro.io.uring import UringBackend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.tensor_cache import TensorCache
    from repro.core.tiered import TierStats

#: Lane execution backends an :class:`EngineConfig` may select.
IO_BACKENDS = ("thread", "uring", "gds-sim")


class EngineConfigError(ValueError):
    """An :class:`EngineConfig` describes an impossible engine.

    Subclasses :class:`ValueError` so ``except ValueError`` /
    ``pytest.raises(ValueError)`` callers catch it too.
    """


@dataclass
class EngineConfig:
    """Typed configuration for one offload engine (data + I/O plane).

    Data-plane knobs:

    Attributes:
        target: ``"ssd"``, ``"cpu"`` or ``"tiered"`` (see
            :data:`~repro.core.offloader.OFFLOAD_TARGETS`).
        store_dir: backing directory; required for ``ssd``/``tiered``.
        cpu_pool_bytes: pinned-pool capacity (``cpu``/``tiered``);
            ``None`` means unbounded for ``cpu`` and is rejected for
            ``tiered``.
        chunk_bytes: enable chunk coalescing on the SSD path.
        throttle_bytes_per_s: model a paced store device.
        array: array-module override forwarded to the SSD tier.
        policy: the :class:`~repro.core.policy.OffloadPolicy`; built
            fresh when ``None`` and shared between the offloader, the
            cache and any paging front-end so per-tenant placement hooks
            take effect everywhere.
        promote_on_load: tiered only — copy SSD residents back into the
            pinned pool on load when there is room.
        durable: journal the chunk store's index to a manifest under
            ``store_dir`` and replay it on construction — the crash
            -recovery substrate of the service mode
            (:mod:`repro.service`).  Requires ``chunk_bytes`` and an
            ssd/tiered target; flips the SSD store's shutdown from
            ``clear()`` (destroy) to ``close()`` (keep for replay).
        store_roots: extra chunk-store directories; flushed chunks are
            write-leveled across them by cumulative bytes written
            (requires ``chunk_bytes``).

    I/O-plane knobs (the scheduler every front-end shares):

    Attributes:
        num_store_workers / num_load_workers: per-channel worker counts
            (their sum is each lane's worker pool).
        fifo_io: dequeue in submission order (paper baseline).
        coalesce_bytes / max_retries / retry_backoff_s: forwarded to
            :class:`~repro.io.scheduler.IOScheduler`; ``None`` keeps the
            scheduler's defaults.
        tenants: a :class:`~repro.io.tenancy.TenantRegistry` enabling
            quota admission + weighted fair-share dequeue.
        prefetch_window: look-ahead depth handed to caches built via
            :meth:`Engine.cache`.
        io_backend: who settles a finished request (:data:`IO_BACKENDS`).
            ``"thread"`` (default): the lane worker, inline; ``"uring"``:
            a dedicated completion reaper; ``"gds-sim"``: the reaper,
            plus a :class:`~repro.io.gds.GDSRegistry` handed to the SSD
            tier's per-tensor store for simulated GPUDirect-Storage
            routing.  The syscalls issued are the same under all three.
        io_direct: the per-tensor SSD store opens write descriptors
            ``O_DIRECT`` — aligned staging via arena leases, per-file
            fallback where the filesystem refuses.  Needs an ssd/tiered
            target without ``chunk_bytes`` (chunk files are buffered).

    Degraded-mode knobs (architecture §12):

    Attributes:
        io_deadlines: per-priority-class deadlines in seconds, e.g.
            ``{"BLOCKING_LOAD": 0.5}``; a watchdog abandons requests
            stuck past theirs (the hung-I/O failure mode) instead of
            letting a wedged lane worker stall the step forever.
        hedge_reads: issue a duplicate BLOCKING_LOAD on the same lane
            after an adaptive delay; first completion wins, the loser is
            cancelled (tail-latency insurance during brownouts).
        hedge_delay_s: explicit hedge delay; ``None`` derives it from
            the recent load-latency distribution (p99-based).
        io_slow_request_s: per-op duration past which the lane health
            tracker moves toward a *slow* (brownout) verdict — distinct
            from *dead*: optional traffic sheds, blocking work continues.
        probe_backoff_s: the SSD breaker's backoff before half-open
            canary probes, and the opt-in for store-path auto-probing
            (tiered target only); ``None`` leaves probing to the service
            housekeeping loop.
    """

    target: str = "tiered"
    store_dir: Any = None
    cpu_pool_bytes: Optional[int] = None
    chunk_bytes: Optional[int] = None
    throttle_bytes_per_s: Optional[float] = None
    array: Any = None
    policy: Optional[OffloadPolicy] = None
    promote_on_load: bool = True
    durable: bool = False
    store_roots: Any = None
    num_store_workers: int = 2
    num_load_workers: int = 2
    fifo_io: bool = False
    coalesce_bytes: Optional[int] = None
    max_retries: Optional[int] = None
    retry_backoff_s: Optional[float] = None
    tenants: Optional[TenantRegistry] = None
    prefetch_window: int = 8
    io_backend: str = "thread"
    io_direct: bool = False
    io_deadlines: Optional[Dict[str, float]] = None
    hedge_reads: bool = False
    hedge_delay_s: Optional[float] = None
    io_slow_request_s: Optional[float] = None
    probe_backoff_s: Optional[float] = None

    def validate(self) -> None:
        """Raise :class:`EngineConfigError` on an inconsistent config.

        Rejects every combination in which a field would be silently
        ignored (an experiment flag that does nothing is worse than an
        error), plus checks for the scheduler axis.
        """
        if self.target not in OFFLOAD_TARGETS:
            raise EngineConfigError(
                f"unknown offload target {self.target!r}; "
                f"expected one of {OFFLOAD_TARGETS}"
            )
        if self.target == "cpu" and self.chunk_bytes is not None:
            raise EngineConfigError(
                "chunk_bytes applies to the ssd/tiered targets, not cpu"
            )
        if self.target == "ssd" and self.cpu_pool_bytes is not None:
            raise EngineConfigError(
                "cpu_pool_bytes applies to the cpu/tiered targets, not ssd"
            )
        if self.target in ("ssd", "tiered") and self.store_dir is None:
            raise EngineConfigError(f"{self.target} target requires store_dir")
        if self.target == "tiered" and self.cpu_pool_bytes is None:
            raise EngineConfigError("tiered target requires cpu_pool_bytes")
        if self.cpu_pool_bytes is not None and self.cpu_pool_bytes < 0:
            raise EngineConfigError(
                f"cpu_pool_bytes must be >= 0: {self.cpu_pool_bytes}"
            )
        if self.num_store_workers < 1 or self.num_load_workers < 1:
            raise EngineConfigError("each channel needs at least one worker")
        if self.prefetch_window < 0:
            raise EngineConfigError(
                f"prefetch_window must be >= 0: {self.prefetch_window}"
            )
        if self.io_backend not in IO_BACKENDS:
            raise EngineConfigError(
                f"unknown io_backend {self.io_backend!r}; "
                f"expected one of {IO_BACKENDS}"
            )
        if self.io_direct and self.target == "cpu":
            raise EngineConfigError(
                "io_direct applies to the ssd/tiered targets, not cpu"
            )
        if self.io_direct and self.chunk_bytes is not None:
            raise EngineConfigError(
                "io_direct applies to the per-tensor store; chunk files "
                "(chunk_bytes) are always buffered"
            )
        if self.durable and self.target not in ("ssd", "tiered"):
            raise EngineConfigError(
                "durable (manifest-journaled) stores require an ssd/tiered target"
            )
        if self.durable and self.chunk_bytes is None:
            raise EngineConfigError("durable requires chunk_bytes (chunked store)")
        if self.store_roots and self.target not in ("ssd", "tiered"):
            raise EngineConfigError(
                "store_roots (write-leveling) requires an ssd/tiered target"
            )
        if self.store_roots and self.chunk_bytes is None:
            raise EngineConfigError(
                "store_roots (write-leveling) requires chunk_bytes (chunked store)"
            )
        if self.io_deadlines:
            for cls, deadline in self.io_deadlines.items():
                if cls not in Priority.__members__:
                    raise EngineConfigError(
                        f"io_deadlines names unknown priority class {cls!r}; "
                        f"expected one of {tuple(Priority.__members__)}"
                    )
                if deadline <= 0:
                    raise EngineConfigError(
                        f"io_deadlines[{cls!r}] must be positive: {deadline}"
                    )
        if self.hedge_delay_s is not None and self.hedge_delay_s <= 0:
            raise EngineConfigError(
                f"hedge_delay_s must be positive: {self.hedge_delay_s}"
            )
        if self.hedge_delay_s is not None and not self.hedge_reads:
            raise EngineConfigError("hedge_delay_s requires hedge_reads")
        if self.io_slow_request_s is not None and self.io_slow_request_s <= 0:
            raise EngineConfigError(
                f"io_slow_request_s must be positive: {self.io_slow_request_s}"
            )
        if self.probe_backoff_s is not None and self.probe_backoff_s <= 0:
            raise EngineConfigError(
                f"probe_backoff_s must be positive: {self.probe_backoff_s}"
            )
        if self.probe_backoff_s is not None and self.target != "tiered":
            raise EngineConfigError(
                "probe_backoff_s (SSD breaker auto-probing) requires the "
                "tiered target"
            )


@dataclass
class PoolBooks:
    """Point-in-time books of the pinned host pool."""

    capacity_bytes: Optional[int]
    used_bytes: int
    high_watermark_bytes: int
    overflow_bytes: int
    used_by_tenant: Dict[str, int] = field(default_factory=dict)


@dataclass
class EnduranceStats:
    """SSD-endurance books of a chunked store (service-mode lifespan).

    The paper's lifespan analysis (Fig. 5, ``bench_fig5_lifespan.py``)
    projects SSD life from write volume; a week-long service needs the
    *live* counterpart: how many bytes the engine is actually pushing,
    how much of that is GC write amplification, and how evenly the
    write-leveling spreads it across store roots.  All fields come
    straight from the chunk store's books plus the engine's uptime.
    """

    bytes_written: int
    dead_bytes: int
    reclaimed_bytes: int
    gc_runs: int
    gc_bytes_rewritten: int
    gc_reclaimed_dead_bytes: int
    root_bytes_written: tuple
    manifest_records_replayed: int
    replay_was_torn: bool
    uptime_s: float

    @property
    def write_rate_bytes_per_day(self) -> float:
        """Lifetime write volume extrapolated to a 24 h day."""
        if self.uptime_s <= 0:
            return 0.0
        return self.bytes_written * 86400.0 / self.uptime_s

    def bytes_per_gb_day(self, capacity_bytes: int) -> float:
        """The lifespan budget: daily write volume per GB of capacity.

        Divide a device's rated DWPD-equivalent budget by this to get
        projected life — the live analogue of the Fig. 5 model.
        """
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive: {capacity_bytes}")
        return self.write_rate_bytes_per_day / (capacity_bytes / 10**9)


@dataclass
class EngineStats:
    """One aggregated, non-destructive snapshot of the whole engine.

    Every field is a detached copy: mutating it (or the engine doing
    more work) affects nothing, and taking the snapshot never drains
    the adaptive controller's completion windows.  Fields that do not
    apply to the configured target stay ``None``/empty (e.g. ``tiers``
    for a pure-SSD engine, ``scheduler`` before any front-end touched
    the lazily-built I/O plane).
    """

    target: str
    dataplane: DataPlaneStats
    scheduler: Optional[SchedulerStats] = None
    channels: Dict[str, Dict[str, ChannelWindow]] = field(default_factory=dict)
    lane_health: Dict[str, LaneHealthSnapshot] = field(default_factory=dict)
    tenants: Dict[str, TenantStats] = field(default_factory=dict)
    pool: Optional[PoolBooks] = None
    tiers: Optional["TierStats"] = None
    arena: Optional[ArenaStats] = None
    #: Which lane execution backend the I/O plane runs.
    io_backend: str = "thread"
    #: Per-lane backend books (syscalls, batched requests, reap lag)
    #: — empty until the lazy scheduler exists.
    io_lanes: Dict[str, IOLaneStats] = field(default_factory=dict)
    #: SSD endurance / lifespan books — ``None`` unless the engine runs
    #: a chunked store (the only backend with wear-relevant batching).
    endurance: Optional[EnduranceStats] = None


class Engine:
    """The assembled offload engine: data plane + I/O plane + policy.

    Use :func:`build_engine` rather than constructing directly.  The
    scheduler is built lazily on first access, so callers that only
    need the synchronous offloader (``build_engine(...).offloader``,
    unit fixtures) never spawn worker threads.
    """

    def __init__(self, config: EngineConfig) -> None:
        config.validate()
        self.config = config
        self.policy = config.policy if config.policy is not None else OffloadPolicy()
        self.tenants = config.tenants
        self.offloader = self._build_offloader()
        self._scheduler: Optional[IOScheduler] = None
        self._scheduler_lock = threading.Lock()
        self._caches: List["TensorCache"] = []
        self._started_at = time.monotonic()
        self._closed = False

    # ------------------------------------------------------------ construction
    def _build_offloader(self) -> Offloader:
        from repro.core.tiered import TieredOffloader  # circular-import guard

        cfg = self.config
        # Pack-time registrations are what the SSD store routes on.
        gds = GDSRegistry() if cfg.io_backend == "gds-sim" else None
        if cfg.target == "ssd":
            return SSDOffloader(
                cfg.store_dir,
                throttle_bytes_per_s=cfg.throttle_bytes_per_s,
                array=cfg.array,
                gds=gds,
                chunk_bytes=cfg.chunk_bytes,
                durable=cfg.durable,
                store_roots=cfg.store_roots,
                io_direct=cfg.io_direct,
            )
        if cfg.target == "cpu":
            return CPUOffloader(
                PinnedMemoryPool(cfg.cpu_pool_bytes),
                throttle_bytes_per_s=cfg.throttle_bytes_per_s,
            )
        return TieredOffloader(
            cfg.store_dir,
            cpu_pool_bytes=cfg.cpu_pool_bytes,
            chunk_bytes=cfg.chunk_bytes,
            policy=self.policy,
            promote_on_load=cfg.promote_on_load,
            throttle_bytes_per_s=cfg.throttle_bytes_per_s,
            array=cfg.array,
            gds=gds,
            durable=cfg.durable,
            store_roots=cfg.store_roots,
            probe_backoff_s=cfg.probe_backoff_s,
            io_direct=cfg.io_direct,
        )

    @property
    def scheduler(self) -> IOScheduler:
        """The shared priority scheduler, built (and wired to the
        offloader's demotion path) on first access."""
        with self._scheduler_lock:
            if self._scheduler is None:
                cfg = self.config
                kwargs: Dict[str, Any] = {}
                if cfg.coalesce_bytes is not None:
                    kwargs["coalesce_bytes"] = cfg.coalesce_bytes
                if cfg.max_retries is not None:
                    kwargs["max_retries"] = cfg.max_retries
                if cfg.retry_backoff_s is not None:
                    kwargs["retry_backoff_s"] = cfg.retry_backoff_s
                if cfg.io_deadlines:
                    kwargs["deadlines"] = dict(cfg.io_deadlines)
                if cfg.hedge_reads:
                    kwargs["hedge"] = True
                    kwargs["hedge_delay_s"] = cfg.hedge_delay_s
                if cfg.io_slow_request_s is not None:
                    kwargs["slow_request_s"] = cfg.io_slow_request_s
                if cfg.io_backend in ("uring", "gds-sim"):
                    kwargs["backend"] = UringBackend()  # settle on a reaper
                self._scheduler = IOScheduler(
                    num_store_workers=cfg.num_store_workers,
                    num_load_workers=cfg.num_load_workers,
                    fifo=cfg.fifo_io,
                    tenants=cfg.tenants,
                    **kwargs,
                )
                set_scheduler = getattr(self.offloader, "set_scheduler", None)
                if set_scheduler is not None:
                    set_scheduler(self._scheduler)
            return self._scheduler

    @property
    def scheduler_started(self) -> bool:
        """True once the lazy I/O plane exists (without creating it)."""
        return self._scheduler is not None

    def cache(self, **overrides: Any) -> "TensorCache":
        """Build a :class:`~repro.core.tensor_cache.TensorCache` on this
        engine — the ``Trainer`` front-end's construction path.

        The cache shares the engine's offloader, policy and scheduler,
        so its records, the KV front-end's blocks and any direct
        submissions all flow through one set of books.
        """
        from repro.core.tensor_cache import TensorCache  # circular-import guard

        kwargs: Dict[str, Any] = {
            "policy": self.policy,
            "scheduler": self.scheduler,
            "prefetch_window": self.config.prefetch_window,
        }
        kwargs.update(overrides)
        cache = TensorCache(self.offloader, **kwargs)
        self._caches.append(cache)
        return cache

    # ------------------------------------------------------------------- stats
    def stats(self) -> EngineStats:
        """The one aggregated snapshot (see :class:`EngineStats`)."""
        off = self.offloader
        snap = EngineStats(
            target=self.config.target,
            dataplane=off.dataplane_stats(),
            io_backend=self.config.io_backend,
        )
        sched = self._scheduler
        if sched is not None:
            snap.scheduler = sched.stats_snapshot()
            snap.channels = sched.peek_completion_stats()
            snap.lane_health = sched.health.snapshot()
            snap.tenants = sched.tenants.stats_snapshot()
            snap.io_lanes = sched.backend_stats_snapshot()
        elif self.tenants is not None:
            snap.tenants = self.tenants.stats_snapshot()
        pool = getattr(off, "pool", None)
        if pool is not None:
            snap.pool = PoolBooks(
                capacity_bytes=pool.capacity_bytes,
                used_bytes=pool.used,
                high_watermark_bytes=pool.high_watermark,
                overflow_bytes=pool.overflow_bytes,
                used_by_tenant=pool.used_by_tenant(),
            )
        tier_snapshot = getattr(off, "stats_snapshot", None)
        if tier_snapshot is not None:
            snap.tiers = tier_snapshot()
        arena = getattr(off, "arena", None)
        if arena is not None:
            snap.arena = arena.stats()
        store = self.chunk_store
        if store is not None:
            snap.endurance = EnduranceStats(
                bytes_written=store.bytes_written,
                dead_bytes=store.dead_bytes,
                reclaimed_bytes=store.reclaimed_bytes,
                gc_runs=store.gc_runs,
                gc_bytes_rewritten=store.gc_bytes_rewritten,
                gc_reclaimed_dead_bytes=store.gc_reclaimed_dead_bytes,
                root_bytes_written=store.root_bytes_written,
                manifest_records_replayed=store.manifest_records_replayed,
                replay_was_torn=store.replay_was_torn,
                uptime_s=time.monotonic() - self._started_at,
            )
        return snap

    @property
    def chunk_store(self):
        """The engine's :class:`~repro.io.chunkstore.ChunkedTensorStore`
        (ssd or tiered target with ``chunk_bytes``), else ``None``."""
        off = self.offloader
        store = getattr(off, "file_store", None)
        if store is None:
            store = getattr(getattr(off, "ssd", None), "file_store", None)
        if store is not None and hasattr(store, "gc_runs"):
            return store
        return None

    # ---------------------------------------------------------------- teardown
    def shutdown(self) -> None:
        """Stop the I/O plane (if started) and release the data plane.

        Idempotent and leak-free: scheduler workers and the uring
        reaper are joined (not abandoned as daemons), the stores close
        their descriptors, and a durable store keeps its files +
        manifest while an ephemeral one is cleared.  A 20×-restart
        regression test holds this to a thread/FD baseline.
        """
        with self._scheduler_lock:
            sched, self._scheduler = self._scheduler, None
            if self._closed and sched is None:
                return
            self._closed = True
        if sched is not None:
            sched.shutdown()
        self.offloader.shutdown()

    #: PEP 3116-style alias so engines read like other closeable resources.
    close = shutdown

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


def build_engine(config: Optional[EngineConfig] = None, **overrides: Any) -> Engine:
    """Build an :class:`Engine` from an :class:`EngineConfig`.

    The single construction path shared by the ``Trainer`` front-end
    (via :meth:`Engine.cache`), the KV paging server
    (:class:`repro.serve.KVBlockPool`) and the CLI.  Keyword overrides
    are a convenience for the common "default config plus a couple of
    fields" call — ``build_engine(target="ssd", store_dir=d)`` —
    applied on a copy, so a shared config object is never mutated.
    """
    from dataclasses import replace

    if config is None:
        config = EngineConfig(**overrides)
    elif overrides:
        config = replace(config, **overrides)
    return Engine(config)
