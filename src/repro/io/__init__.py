"""Asynchronous I/O substrate for activation offloading.

- :class:`~repro.io.scheduler.IOScheduler` — priority-aware scheduler with
  per-tier lanes, deadline promotion, store cancellation and write
  coalescing; the cache's I/O spine.
- :class:`~repro.io.aio.IOJob` — the unit of I/O work: state machine,
  completion event, done callbacks, cancel/claim handshake.
- :class:`~repro.io.filestore.TensorFileStore` — real file-backed tensor
  persistence with optional bandwidth throttling.
- :class:`~repro.io.chunkstore.ChunkedTensorStore` — chunk-coalescing
  variant: many small tensors per fixed-size chunk file, one sequential
  write per chunk, refcounted space reclaim.
- :mod:`~repro.io.gds` — GPUDirect Storage path model: direct GPU<->SSD
  transfers vs. a CPU bounce buffer, plus the CUDA-malloc-hook registration
  emulation (Sec. III-A).
- :mod:`~repro.io.errors` — the typed I/O failure taxonomy
  (transient / permanent / integrity) and the retry classification rule.
- :mod:`~repro.io.faults` — seeded deterministic fault injection
  (:class:`FaultPlan` / :class:`FaultInjector`): the chaos harness that
  proves the retry, checksum, and tier-failover recovery paths.
- :mod:`~repro.io.health` — :class:`LaneHealthTracker`: the one owner
  of "this lane is unusable (for this tenant)", holding the stack's only
  circuit breakers (:mod:`~repro.io.breaker`).
- :mod:`~repro.io.buffers` — the zero-copy data plane's allocator:
  :class:`BufferArena` (size-class-binned pool of reusable host buffers
  with explicit lease/release) plus the copy-count telemetry that makes
  the eliminated copies measurable.
- :mod:`~repro.io.tenancy` — multi-tenant QoS layer:
  :class:`TenantContext` / :class:`TenantRegistry` (weights, byte
  quotas, admission) plus the thread-local tenant scope that
  attributes every store/load to its owning job.
- :mod:`~repro.io.fdtable` — the one positioned-I/O path from a store to
  the kernel: ``pwritev``/``preadv`` over descriptors borrowed from the
  store's own LRU-bounded :class:`FDTable`.
- :mod:`~repro.io.uring` — :class:`UringBackend`, the lane backend that
  settles completions on a dedicated reaper thread;
  :class:`~repro.io.aio.ThreadBackend` (the default) settles on the lane
  worker.  Both run the one lane loop of :class:`~repro.io.aio.IOBackend`.
"""

from repro.io.aio import (
    IOBackend,
    IOJob,
    IOLaneStats,
    ThreadBackend,
    count_syscalls,
    syscall_tape,
)
from repro.io.buffers import (
    ArenaStats,
    BufferArena,
    BufferLease,
    CopyCounter,
    DataPlaneStats,
)
from repro.io.chunkstore import ChunkedTensorStore, DEFAULT_CHUNK_BYTES
from repro.io.errors import (
    IntegrityError,
    PermanentIOError,
    TransientIOError,
    is_retryable,
    retry_call,
)
from repro.io.faults import FaultInjector, FaultPlan, inject_faults
from repro.io.fdtable import FDTable
from repro.io.filestore import TensorFileStore
from repro.io.gds import BounceBufferPath, DirectGDSPath, GDSRegistry
from repro.io.health import LaneHealthTracker
from repro.io.scheduler import (
    IORequest,
    IOScheduler,
    Priority,
    SchedulerStats,
)
from repro.io.tenancy import (
    DEFAULT_TENANT,
    TenantContext,
    TenantQuotaError,
    TenantRegistry,
    TenantStats,
    current_tenant,
    jain_index,
    tenant_scope,
)
from repro.io.uring import UringBackend

__all__ = [
    "IOBackend",
    "IOJob",
    "IOLaneStats",
    "ThreadBackend",
    "UringBackend",
    "FDTable",
    "count_syscalls",
    "syscall_tape",
    "ArenaStats",
    "BufferArena",
    "BufferLease",
    "CopyCounter",
    "DataPlaneStats",
    "IORequest",
    "IOScheduler",
    "LaneHealthTracker",
    "Priority",
    "SchedulerStats",
    "TensorFileStore",
    "ChunkedTensorStore",
    "DEFAULT_CHUNK_BYTES",
    "GDSRegistry",
    "DirectGDSPath",
    "BounceBufferPath",
    "TransientIOError",
    "PermanentIOError",
    "IntegrityError",
    "is_retryable",
    "retry_call",
    "FaultPlan",
    "FaultInjector",
    "inject_faults",
    "DEFAULT_TENANT",
    "TenantContext",
    "TenantQuotaError",
    "TenantRegistry",
    "TenantStats",
    "current_tenant",
    "jain_index",
    "tenant_scope",
]
