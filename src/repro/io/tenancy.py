"""Multi-tenant contexts, quotas and fair-share bookkeeping.

The paper's engine assumes one trainer owns the SSD.  The ROADMAP's
"many jobs, one engine" item needs the opposite: N concurrent jobs
sharing one :class:`~repro.io.scheduler.IOScheduler` and one tiered
store without starving each other.  This module is the identity and
policy layer for that:

- :class:`TenantContext` — one tenant's contract: a weight (fair-share
  ratio) and a byte quota (cumulative admission budget);
- :class:`TenantRegistry` — the thread-safe registry the scheduler
  consults on every submit: quota-aware admission (``"ok"`` /
  ``"reject"``), per-tenant counters with the same exact
  reconciliation bar as the scheduler's global books
  (``submitted == executed + failed + cancelled`` per tenant), and the
  deficit-round-robin quantum the fair queue deals in;
- :func:`current_tenant` / :func:`tenant_scope` — thread-local tenant
  propagation, so the offloader/pool/arena call surfaces stay unchanged
  (a trainer wraps its step in ``tenant_scope("job-a")`` and every
  store/load it issues is attributed automatically).  Scheduler workers
  re-enter the submitting tenant's scope around each request body, so
  attribution survives the thread hop.

Quota semantics: a **byte quota** is a cumulative admission budget —
bytes are charged when a request is admitted and refunded only when the
request is cancelled or fails (the data never landed).  An over-budget
submission has one answer: :class:`TenantQuotaError` at submit.  A
tenant's share of the device under contention is its weight; nothing
paces a tenant that has the device to itself.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Union

#: The implicit tenant of every un-scoped caller.  The single-tenant
#: path — nobody ever constructs a registry or enters a scope — runs
#: entirely as this tenant and behaves exactly like the pre-tenancy
#: engine.
DEFAULT_TENANT = "default"

#: Default deficit-round-robin quantum: bytes of credit a tenant earns
#: per ring visit (scaled by its weight).
DEFAULT_DRR_QUANTUM_BYTES = 64 << 10


class _TenantState(threading.local):
    tenant = DEFAULT_TENANT  # a class default: getattr's miss path costs ~0.6 us


_tls = _TenantState()


def current_tenant() -> str:
    """The tenant attributed to work submitted from this thread."""
    return _tls.tenant


class tenant_scope:
    """Attribute all I/O submitted from this thread to ``name``.

    Scopes nest; the previous tenant is restored on exit.  The lane
    loop enters the request's tenant around its body and settlement, so
    placement decisions and pool/arena accounting made *inside* a
    store/load body land on the right tenant even though the body runs
    on a worker thread.
    """

    __slots__ = ("name", "_previous")

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("tenant name must be non-empty")
        self.name = name

    def __enter__(self) -> str:
        self._previous = _tls.tenant
        _tls.tenant = self.name
        return self.name

    def __exit__(self, *exc: object) -> None:
        _tls.tenant = self._previous


class TenantQuotaError(RuntimeError):
    """A submission was rejected by the tenant's byte quota."""


@dataclass
class TenantContext:
    """One tenant's QoS contract: a weight and a byte quota."""

    name: str
    #: Fair-share weight: a weight-2 tenant earns twice the DRR credit
    #: per ring visit, i.e. ~2x the bandwidth under contention.
    weight: float = 1.0
    #: Cumulative byte budget (None = unlimited).  Charged on admission,
    #: refunded when a request cancels or fails; a submission past it
    #: raises :class:`TenantQuotaError`.
    byte_quota: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if not self.weight > 0:
            raise ValueError(f"tenant weight must be > 0: {self.weight}")
        if self.byte_quota is not None and self.byte_quota < 0:
            raise ValueError(f"byte_quota must be >= 0: {self.byte_quota}")


@dataclass
class TenantStats:
    """Per-tenant request books, same reconciliation bar as the global
    scheduler stats: once drained,
    ``submitted == executed + failed + cancelled``.  ``submitted``
    counts requests actually enqueued on a lane (a rejected one never
    is)."""

    submitted: int = 0
    executed: int = 0
    failed: int = 0
    cancelled: int = 0
    submitted_bytes: int = 0
    executed_bytes: int = 0
    failed_bytes: int = 0
    cancelled_bytes: int = 0
    retries: int = 0
    rejected: int = 0
    rejected_bytes: int = 0
    quota_charged_bytes: int = 0
    quota_refunded_bytes: int = 0

    @property
    def quota_in_use_bytes(self) -> int:
        return self.quota_charged_bytes - self.quota_refunded_bytes


class TenantRegistry:
    """Thread-safe tenant registry + admission control + per-tenant books.

    Unknown tenants auto-register with default QoS (weight 1, no
    quota) on first sight, so the registry never gates *who* may
    submit — only how much.
    """

    def __init__(self, quantum_bytes: int = DEFAULT_DRR_QUANTUM_BYTES) -> None:
        if quantum_bytes < 1:
            raise ValueError(f"quantum_bytes must be >= 1: {quantum_bytes}")
        self.quantum_bytes = quantum_bytes
        #: The books lock.  The scheduler that owns the registry keeps its
        #: global books under it too, so one acquisition opens (or
        #: closes) a request's global and tenant books: the ``*_locked``
        #: methods are for a caller that holds it.
        self.lock = threading.Lock()
        self._tenants: Dict[str, TenantContext] = {}
        self._stats: Dict[str, TenantStats] = {}

    # ------------------------------------------------------------- registration
    def register(
        self, tenant: Union[str, TenantContext], **kwargs
    ) -> TenantContext:
        """Register (or replace, whole) a tenant's QoS contract."""
        ctx = tenant if isinstance(tenant, TenantContext) else TenantContext(tenant, **kwargs)
        with self.lock:
            self._tenants[ctx.name] = ctx
            self._stats.setdefault(ctx.name, TenantStats())
        return ctx

    def weight(self, name: str) -> float:
        with self.lock:
            ctx = self._tenants.get(name)
            return ctx.weight if ctx is not None else 1.0

    # ---------------------------------------------------------------- admission
    def admit(self, name: str, nbytes: int) -> str:
        """Admission verdict for one submission: ``"ok"`` (charged and
        counted as submitted) or ``"reject"``."""
        with self.lock:
            return "ok" if self.admit_locked(name, nbytes) else "reject"

    def admit_locked(self, name: str, nbytes: int) -> bool:
        """:meth:`admit` under :attr:`lock`: True when admitted.  An
        unknown tenant registers with the default contract."""
        ctx = self._tenants.get(name)
        if ctx is None:
            ctx = self._tenants[name] = TenantContext(name)
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = TenantStats()
        quota = ctx.byte_quota
        if quota is not None and stats.quota_in_use_bytes + nbytes > quota:
            stats.rejected += 1
            stats.rejected_bytes += nbytes
            return False
        if quota is not None:
            stats.quota_charged_bytes += nbytes
        stats.submitted += 1
        stats.submitted_bytes += nbytes
        return True

    def rollback_locked(self, name: str, nbytes: int) -> None:
        """Undo one admitted-but-never-enqueued submission (the
        scheduler refused it at the lane, e.g. shutdown raced)."""
        stats = self._stats[name]
        stats.submitted -= 1
        stats.submitted_bytes -= nbytes
        if self._tenants[name].byte_quota is not None:
            stats.quota_refunded_bytes += nbytes

    # -------------------------------------------------------------------- books
    def finish_locked(self, name: str, outcome: str, nbytes: int, retries: int = 0) -> None:
        """Book one terminal admitted request under :attr:`lock`
        (outcome: executed/failed/cancelled).  A request that did not
        execute never landed its bytes: its quota charge is refunded."""
        stats = self._stats[name]
        stats.retries += retries
        if outcome == "executed":
            stats.executed += 1
            stats.executed_bytes += nbytes
            return
        if outcome == "failed":
            stats.failed += 1
            stats.failed_bytes += nbytes
        elif outcome == "cancelled":
            stats.cancelled += 1
            stats.cancelled_bytes += nbytes
        else:
            raise ValueError(f"unknown outcome {outcome!r}")
        if self._tenants[name].byte_quota is not None:
            stats.quota_refunded_bytes += nbytes

    def stats_of(self, name: str) -> TenantStats:
        with self.lock:
            stats = self._stats.get(name, TenantStats())
            return TenantStats(**vars(stats))

    def stats_snapshot(self) -> Dict[str, TenantStats]:
        with self.lock:
            return {name: TenantStats(**vars(s)) for name, s in self._stats.items()}


def jain_index(values: Iterable[float]) -> float:
    """Jain's fairness index over per-tenant allocations: 1.0 is perfect
    fairness, 1/n is one tenant taking everything."""
    vals = [max(0.0, float(v)) for v in values]
    if not vals:
        return 1.0
    square_of_sum = sum(vals) ** 2
    sum_of_squares = sum(v * v for v in vals)
    if sum_of_squares <= 0.0:
        return 1.0
    return square_of_sum / (len(vals) * sum_of_squares)
