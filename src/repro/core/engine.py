"""The engine facade: one typed construction path for the offload stack.

Two front-ends share the offload stack — the original
:class:`~repro.train.trainer.Trainer` and the KV-cache paging server in
:mod:`repro.serve` — and both build it, and read its telemetry, here:

- :class:`EngineConfig` is the single typed configuration record;
  invalid combinations raise :class:`EngineConfigError` (a
  :class:`ValueError` subclass, so ``except ValueError`` callers work).
- :func:`build_engine` returns an :class:`Engine`, the one place the
  configuration is read: it builds each part once — the scheduler, the
  SSD store, the offloader over both — hands the built parts down
  (never their options), and keeps what it built as attributes.
  ``Trainer`` runs construct a cache via :meth:`Engine.cache`; the KV
  front-end drives the offloader/scheduler pair directly; callers that
  only need the synchronous backend take ``engine.offloader``.
- :meth:`Engine.stats` returns one :class:`EngineStats` snapshot
  aggregating every book non-destructively — reading it never steals the
  adaptive controller's bandwidth windows or resets a counter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from repro.core.offloader import (
    CPUOffloader,
    OFFLOAD_TARGETS,
    Offloader,
    PinnedMemoryPool,
    SSDOffloader,
)
from repro.core.policy import OffloadPolicy
from repro.core.tiered import TieredOffloader, TierStats
from repro.io.aio import IOLaneStats
from repro.io.buffers import ArenaStats, DataPlaneStats
from repro.io.chunkstore import ChunkedTensorStore
from repro.io.filestore import TensorFileStore
from repro.io.scheduler import IOScheduler, SchedulerStats
from repro.io.tenancy import TenantRegistry, TenantStats
from repro.io.uring import UringBackend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.tensor_cache import TensorCache

#: Lane execution backends an :class:`EngineConfig` may select.
IO_BACKENDS = ("thread", "uring")

#: The scheduler lanes each target queues on: a single-tier engine never
#: submits to the other tier's lane, so it starts no workers for it.
TARGET_LANES = {"ssd": ("ssd",), "cpu": ("cpu",), "tiered": ("ssd", "cpu")}


class EngineConfigError(ValueError):
    """An :class:`EngineConfig` describes an impossible engine.

    Subclasses :class:`ValueError` so ``except ValueError`` /
    ``pytest.raises(ValueError)`` callers catch it too.
    """


@dataclass
class EngineConfig:
    """Typed configuration for one offload engine (data + I/O plane).

    Each field is read by :class:`Engine` and handed to exactly one
    constructor (named in brackets); nothing is passed through a layer
    that does not use it.

    Data plane:

    Attributes:
        target: ``"ssd"``, ``"cpu"`` or ``"tiered"`` (see
            :data:`~repro.core.offloader.OFFLOAD_TARGETS`) — which
            offloader is built, and which lanes the scheduler starts.
        store_dir: backing directory; required for ``ssd``/``tiered``
            [the store].
        chunk_bytes: coalesce tensors into chunk files of this size
            [:class:`~repro.io.chunkstore.ChunkedTensorStore`; ``None``
            builds a per-tensor
            :class:`~repro.io.filestore.TensorFileStore`].
        store_roots: extra chunk-store directories; flushed chunks are
            write-leveled across them by cumulative bytes written.
            Requires ``chunk_bytes`` [``ChunkedTensorStore``].
        throttle_bytes_per_s: model a paced device [the store; the
            :class:`~repro.core.offloader.CPUOffloader` for ``cpu``].
        cpu_pool_bytes: pinned-pool capacity; ``None`` means unbounded
            for ``cpu`` and is rejected for ``tiered``
            [:class:`~repro.core.offloader.PinnedMemoryPool` /
            :class:`~repro.core.tiered.TieredOffloader`].
        policy: the :class:`~repro.core.policy.OffloadPolicy`; built
            fresh when ``None`` and shared by the offloader and the
            cache, which read one config [``TieredOffloader``, and
            :class:`~repro.core.tensor_cache.TensorCache` via
            :meth:`Engine.cache`].
        promote_on_load: copy SSD residents back into the pinned pool on
            load when there is room [``TieredOffloader``].
        probe_backoff_s: the SSD breaker's backoff before half-open
            canary probes, and the opt-in for store-path auto-probing
            (tiered only); ``None`` leaves probing to the caller of
            :meth:`~repro.core.tiered.TieredOffloader.maybe_probe_ssd`
            [``TieredOffloader``].

    I/O plane [all :class:`~repro.io.scheduler.IOScheduler`; its worker
    count, coalescing cap and retry budget are the scheduler's defaults]:

    Attributes:
        fifo_io: dequeue in submission order (paper baseline).
        tenants: a :class:`~repro.io.tenancy.TenantRegistry` enabling
            quota admission + weighted fair-share dequeue.
        io_backend: who settles a finished request (:data:`IO_BACKENDS`).
            ``"thread"`` (default): the lane worker, inline; ``"uring"``:
            a dedicated completion reaper.  The syscalls issued are the
            same under both.

    No option times a request out: a request ends by its own body, or
    by a cancel that reaches it still PENDING (architecture §12).
    """

    target: str = "tiered"
    store_dir: Any = None
    cpu_pool_bytes: Optional[int] = None
    chunk_bytes: Optional[int] = None
    throttle_bytes_per_s: Optional[float] = None
    policy: Optional[OffloadPolicy] = None
    promote_on_load: bool = True
    store_roots: Any = None
    fifo_io: bool = False
    tenants: Optional[TenantRegistry] = None
    io_backend: str = "thread"
    probe_backoff_s: Optional[float] = None

    def validate(self) -> None:
        """Raise :class:`EngineConfigError` on an inconsistent config.

        Rejects every combination in which a field would be silently
        ignored (an experiment flag that does nothing is worse than an
        error).  The one judge of combinations: the constructors the
        fields are handed to check their own values only.
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
        if self.io_backend not in IO_BACKENDS:
            raise EngineConfigError(
                f"unknown io_backend {self.io_backend!r}; "
                f"expected one of {IO_BACKENDS}"
            )
        if self.store_roots and self.target not in ("ssd", "tiered"):
            raise EngineConfigError(
                "store_roots (write-leveling) requires an ssd/tiered target"
            )
        if self.store_roots and self.chunk_bytes is None:
            raise EngineConfigError(
                "store_roots (write-leveling) requires chunk_bytes (chunked store)"
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
    """SSD-endurance books of a chunked store.

    The paper's lifespan analysis (Fig. 5, ``bench_fig5_lifespan.py``)
    projects SSD life from write volume; these are the *live*
    counterpart: how many bytes the engine is actually pushing and how
    evenly the write-leveling spreads them across store roots.  All
    fields come straight from the chunk store's books plus the engine's
    uptime.
    """

    bytes_written: int
    dead_bytes: int
    reclaimed_bytes: int
    root_bytes_written: tuple
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
    for a pure-SSD engine).
    """

    target: str
    dataplane: DataPlaneStats
    scheduler: Optional[SchedulerStats] = None
    tenants: Dict[str, TenantStats] = field(default_factory=dict)
    pool: Optional[PoolBooks] = None
    tiers: Optional[TierStats] = None
    arena: Optional[ArenaStats] = None
    #: Which lane execution backend the I/O plane runs.
    io_backend: str = "thread"
    #: Per-lane backend books (syscalls, batched requests, reap lag),
    #: one key per lane the target uses.
    io_lanes: Dict[str, IOLaneStats] = field(default_factory=dict)
    #: SSD endurance / lifespan books — ``None`` unless the engine runs
    #: a chunked store (the only backend with wear-relevant batching).
    endurance: Optional[EnduranceStats] = None


class Engine:
    """The assembled offload engine: data plane + I/O plane + policy.

    Use :func:`build_engine` rather than constructing directly.  The
    parts the engine built are its attributes — ``file_store`` (the SSD
    store, ``None`` for the cpu target), ``chunk_store`` (the same
    object when it is a chunked store, else ``None``), ``tiered`` (the
    offloader when the target is tiered, else ``None``), ``scheduler``
    — so nothing above has to ask the offloader what it is made of.
    The scheduler is built first (the tiered offloader queues its
    demotions on it and reads degraded mode off its lane health) and
    starts workers for the lanes the target queues on and no others.
    """

    def __init__(self, config: EngineConfig) -> None:
        config.validate()
        self.config = config
        self.policy = config.policy if config.policy is not None else OffloadPolicy()
        self.tenants = config.tenants
        self.file_store: Optional[Union[TensorFileStore, ChunkedTensorStore]] = None
        self.chunk_store: Optional[ChunkedTensorStore] = None
        self.tiered: Optional[TieredOffloader] = None
        self.scheduler = IOScheduler(
            lanes=TARGET_LANES[config.target],
            fifo=config.fifo_io,
            tenants=config.tenants,
            backend=UringBackend() if config.io_backend == "uring" else None,
        )
        try:
            self.offloader = self._build_offloader()
        except BaseException:
            self.scheduler.shutdown()  # a refused store must not leak the workers
            raise
        self._started_at = time.monotonic()
        self._closed = False

    # ------------------------------------------------------------ construction
    def _build_offloader(self) -> Offloader:
        cfg = self.config
        if cfg.target == "cpu":
            return CPUOffloader(
                PinnedMemoryPool(cfg.cpu_pool_bytes),
                throttle_bytes_per_s=cfg.throttle_bytes_per_s,
            )
        if cfg.chunk_bytes is not None:
            self.file_store = self.chunk_store = ChunkedTensorStore(
                cfg.store_dir,
                chunk_bytes=cfg.chunk_bytes,
                throttle_bytes_per_s=cfg.throttle_bytes_per_s,
                roots=cfg.store_roots,
            )
        else:
            self.file_store = TensorFileStore(
                cfg.store_dir,
                throttle_bytes_per_s=cfg.throttle_bytes_per_s,
            )
        ssd = SSDOffloader(self.file_store)
        if cfg.target == "ssd":
            return ssd
        self.tiered = TieredOffloader(
            ssd,
            cfg.cpu_pool_bytes,
            self.scheduler,
            policy=self.policy,
            promote_on_load=cfg.promote_on_load,
            probe_backoff_s=cfg.probe_backoff_s,
        )
        return self.tiered

    def cache(self, **overrides: Any) -> "TensorCache":
        """Build a :class:`~repro.core.tensor_cache.TensorCache` on this
        engine — the ``Trainer`` front-end's construction path.

        The cache shares the engine's offloader, policy and scheduler,
        so its records, the KV front-end's blocks and any direct
        submissions all flow through one set of books.
        """
        from repro.core.tensor_cache import TensorCache  # circular-import guard

        kwargs: Dict[str, Any] = {"policy": self.policy, "scheduler": self.scheduler}
        kwargs.update(overrides)
        return TensorCache(self.offloader, **kwargs)

    # ------------------------------------------------------------------- stats
    def stats(self) -> EngineStats:
        """The one aggregated snapshot (see :class:`EngineStats`)."""
        off = self.offloader
        snap = EngineStats(
            target=self.config.target,
            dataplane=off.dataplane_stats(),
            io_backend=self.config.io_backend,
        )
        snap.scheduler = self.scheduler.stats_snapshot()
        snap.tenants = self.scheduler.tenants.stats_snapshot()
        snap.io_lanes = self.scheduler.backend_stats_snapshot()
        pool = off.pool
        if pool is not None:
            snap.pool = PoolBooks(
                capacity_bytes=pool.capacity_bytes,
                used_bytes=pool.used,
                high_watermark_bytes=pool.high_watermark,
                overflow_bytes=pool.overflow_bytes,
                used_by_tenant=pool.used_by_tenant(),
            )
        snap.tiers = off.stats_snapshot()
        if off.arena is not None:
            snap.arena = off.arena.stats()
        store = self.chunk_store
        if store is not None:
            snap.endurance = EnduranceStats(
                bytes_written=store.bytes_written,
                dead_bytes=store.dead_bytes,
                reclaimed_bytes=store.reclaimed_bytes,
                root_bytes_written=store.root_bytes_written,
                uptime_s=time.monotonic() - self._started_at,
            )
        return snap

    # ---------------------------------------------------------------- teardown
    def shutdown(self) -> None:
        """Stop the I/O plane and release the data plane.

        Idempotent and leak-free: scheduler workers and the uring
        reaper are joined (not abandoned as daemons), the stores close
        their descriptors, and the store is cleared (activations are
        scratch: nothing outlives the engine).  A 20×-restart
        regression test holds this to a thread/FD baseline.
        """
        if self._closed:
            return
        self._closed = True
        self.scheduler.shutdown()
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
    if config is None:
        config = EngineConfig(**overrides)
    elif overrides:
        config = replace(config, **overrides)
    return Engine(config)
