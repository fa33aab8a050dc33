"""Priority-aware I/O scheduler: the successor of the two FIFO pools.

The paper's tensor cache drives all traffic through two strictly FIFO
worker pools (Sec. III-C2).  Under load that design inverts priorities:
a backlog of low-urgency stores can starve the loads sitting on the
backward critical path.  This module replaces the pools with one
:class:`IOScheduler` that understands *what* each request is for:

- **per-tier lanes** — every storage tier (``"ssd"``, ``"cpu"``) gets its
  own worker group and request queue, modelling that PCIe traffic to host
  memory and NVMe queue depth are independent resources.  Store and load
  channels of a tier share its lane, the way reads and writes share one
  NVMe submission stream;
- **priority classes** — lanes dequeue by :class:`Priority`:
  backward-blocking loads > prefetch loads > tier demotions > stores.
  A blocking load submitted behind N queued stores runs next, not last;
- **deadline promotion** — a pending prefetch load is re-queued as
  BLOCKING_LOAD when its segment's backward arrives
  (:meth:`IOScheduler.promote`), so urgency follows the training
  schedule instead of submission order;
- **store cancellation** — a store whose tensor was already consumed via
  data forwarding is cancelled while still PENDING
  (:meth:`~repro.io.aio.IOJob.cancel`), reclaiming its queue slot and
  the SSD write it would have issued;
- **a waiter runs its own request** — :meth:`~repro.io.aio.IOJob.wait` without a
  timeout runs a request no worker has claimed yet on the waiting
  thread, instead of waking a worker and being woken by it;
- **write coalescing** — a worker that dequeues a small store drains the
  adjacent small stores queued behind it and runs them back-to-back as
  one batch, so a :class:`~repro.io.chunkstore.ChunkedTensorStore`
  backend fills one chunk with one uninterrupted submission instead of
  interleaving chunk fragments with higher-priority work;
- **one observation feed** — the scheduler keeps cumulative books and
  says what a finished request did once: the ``"done"`` listener event
  carries the request with its three time stamps.  Whoever wants
  bandwidths or busy time listens and aggregates
  (:class:`~repro.io.trace.IOTracer`), so observing costs nothing
  while nobody does.

``fifo=True`` collapses every class into submission order — the paper's
original behaviour — which keeps an apples-to-apples baseline for the
priority-vs-FIFO comparison in benchmarks and tests.

**Multi-tenancy** (architecture §8): every lane owns one
:class:`_FairQueue` — priority classes stay strictly ordered, and
*within* a class tenants are served by deficit round-robin over
per-tenant subqueues, so one tenant's backlog cannot starve another's.
Pass a :class:`~repro.io.tenancy.TenantRegistry` to give tenants their
own subqueues; its byte quotas gate admission (an over-budget
submission raises :class:`~repro.io.tenancy.TenantQuotaError` at
submit).  Telemetry, request books and lane health all grow a
per-tenant dimension with the same exact-reconciliation bar as the
global books.  Single-job and ``fifo=True`` runs are configurations of
the same queue (see :class:`_FairQueue`).

**Failure model** (see :mod:`repro.io.errors` for the taxonomy and
``docs/architecture.md`` §6 for the map): a request whose body raises is
never allowed to take a lane worker down with it — the worker loop
survives any job exception (FAILED is a first-class terminal state with
exact accounting: ``submitted == executed + failed + cancelled`` once
drained, and the blocking waiter sees the error instead of a hang),
retryable errors are re-attempted within the request's bounded
retry-with-backoff budget before failing, and every outcome feeds the
per-lane :class:`~repro.io.health.LaneHealthTracker` — the signal the tiered offloader
uses to fail a dead SSD over to the CPU tier.  A request ends by its own
body, or by a cancel that reaches it still PENDING; nothing times a
running one out, and a slow device is not a verdict (architecture §12).
"""

from __future__ import annotations

import enum
import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.io.aio import CANCELLED, DONE, FAILED, PENDING, RUNNING
from repro.io.aio import IOBackend, IOJob, IOLaneStats, ThreadBackend
from repro.io.errors import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_RETRY_BACKOFF_S,
    PermanentIOError,
    is_device_error,
)
from repro.io.health import LaneHealthTracker
from repro.io.tenancy import (
    DEFAULT_TENANT,
    TenantQuotaError,
    TenantRegistry,
    current_tenant,
)

logger = logging.getLogger(__name__)

#: Default cap on the total bytes of one coalesced store batch.
DEFAULT_COALESCE_BYTES = 1 << 20

#: Default workers per lane (the paper's two pools of two, merged: any
#: worker serves any class).
DEFAULT_LANE_WORKERS = 4


class Priority(enum.IntEnum):
    """Dequeue classes, most urgent first (lower value wins)."""

    BLOCKING_LOAD = 0   # backward is waiting on this tensor right now
    PREFETCH_LOAD = 1   # look-ahead load; needed soon, not yet
    DEMOTION = 2        # CPU -> SSD spill; pool space already reclaimed
    STORE = 3           # forward-pass offload; deadline is the step end


#: ``Priority.name`` is a descriptor call; the submit books need the string.
_CLASS_NAMES = {cls: cls.name for cls in Priority}

#: Request kinds (the channel of the paper's two pools, plus demotions).
REQUEST_KINDS = ("store", "load", "demote")


class IORequest(IOJob):
    """A typed unit of I/O work: what, how big, which lane, how urgent.

    Extends :class:`~repro.io.aio.IOJob` (state machine, completion event,
    done callbacks, cancellation) with the scheduling metadata the lanes
    dequeue by.  ``priority`` is mutated only by
    :meth:`IOScheduler.promote` while the request is PENDING.
    """

    def __init__(
        self,
        fn: Callable[[], object],
        *,
        kind: str,
        priority: Priority,
        tensor_id: str = "",
        nbytes: int = 0,
        lane: str = "ssd",
        label: str = "",
        max_retries: Optional[int] = None,
        retry_backoff_s: Optional[float] = None,
        tenant: Optional[str] = None,
    ) -> None:
        if kind not in REQUEST_KINDS:
            raise ValueError(f"unknown request kind {kind!r}; expected one of {REQUEST_KINDS}")
        # A retry budget left None is the scheduler's, stamped at submit;
        # an explicit value (0 opts out — e.g. stateful demotion bodies
        # that retry internally) always wins.
        super().__init__(fn, label, max_retries, retry_backoff_s)
        self.kind = kind
        self.priority = priority if type(priority) is Priority else Priority(priority)
        self.tensor_id = tensor_id
        self.nbytes = int(nbytes)
        self.lane = lane
        #: Owning tenant; defaults to the submitting thread's scope
        #: (:func:`~repro.io.tenancy.current_tenant`), so un-scoped
        #: callers land on ``"default"`` and see pre-tenancy behaviour.
        self.tenant = tenant if tenant is not None else current_tenant()
        #: True when this request ran as a trailing member of a coalesced
        #: store batch (not the batch head).  Set only once the member has
        #: actually won ``claim()`` — a batch member cancelled before the
        #: worker reached it never coalesced anything.
        self.coalesced = False
        #: Set by a body that *recovered* from an I/O failure internally
        #: (e.g. the tiered demotion writer failing a dead SSD over to
        #: the CPU tier): the request completes DONE, but the lane must
        #: still learn about the device failure it papered over.
        self.health_error: Optional[BaseException] = None
        #: Completion telemetry, stamped by the worker loop (monotonic
        #: seconds).  ``submitted_at`` is set by :meth:`IOScheduler.submit`.
        self.submitted_at: float = 0.0
        self.started_at: float = 0.0
        self.finished_at: float = 0.0
        #: The scheduler whose books this request is open on: set when a
        #: lane counts it, cleared by the one call that closes them.
        self._scheduler: Optional["IOScheduler"] = None

    @property
    def label(self) -> str:
        return self._label or f"{self.kind}:{self.tensor_id}"

    def _dispatch(self, callbacks: List[Callable[[IOJob], None]]) -> None:
        """Whichever call made the request terminal (settle or cancel)
        closes its books, before any done callback: a raising
        callback cannot skip them."""
        scheduler = self._scheduler
        if scheduler is not None:
            try:
                scheduler._close_books(self)
            except Exception:
                logger.exception("closing the books of %s raised", self.label)
        if callbacks:
            super()._dispatch(callbacks)


@dataclass
class SchedulerStats:
    """Cumulative counters (the benchmark / test / trace surface)."""

    submitted: int = 0
    executed: int = 0
    #: Requests submitted per priority class name.
    submitted_by_class: Dict[str, int] = field(default_factory=dict)
    cancelled: int = 0
    cancelled_stores: int = 0
    cancelled_bytes: int = 0
    #: Requests whose body failed terminally (retry budget exhausted or a
    #: non-retryable error).  Once drained the books always reconcile:
    #: ``submitted == executed + failed + cancelled``.
    failed: int = 0
    failed_bytes: int = 0
    #: Re-attempts performed across all requests (each healed transient
    #: fault is one retry that kept ``failed`` from growing).
    retries: int = 0
    promotions: int = 0
    #: Coalesced store batches with >= 2 *executed* members, and the
    #: executed members beyond each batch head (the stores that avoided a
    #: standalone submission).  Members cancelled after being claimed into
    #: a batch but before the worker reached them are not counted — they
    #: never ran, so they are cancellation wins, not coalescing wins.
    coalesced_batches: int = 0
    coalesced_requests: int = 0
    coalesced_bytes: int = 0


class _ClassRing:
    """Deficit round-robin over per-tenant FIFO subqueues of one
    priority class.

    Classic DRR: tenants sit on a ring; each visit a tenant earns
    ``quantum * weight`` bytes of credit, and its head request is
    served once the accumulated deficit covers the request size — so
    over time each backlogged tenant's byte share converges to its
    weight share, and a tenant with a non-empty subqueue is always
    served within ``ceil(nbytes / (quantum * weight))`` ring passes
    (the no-starvation bound the property suite pins down).  Idle
    tenants leave the ring and forfeit their credit — deficit never
    accumulates while a tenant has nothing queued.
    """

    __slots__ = ("queues", "order", "idx", "deficit", "fresh")

    def __init__(self) -> None:
        self.queues: Dict[str, Deque[IORequest]] = {}
        self.order: List[str] = []
        self.idx = 0
        self.deficit: Dict[str, float] = {}
        #: True when the ring pointer just arrived at ``order[idx]`` —
        #: the arrival grants the tenant its ``quantum * weight`` credit
        #: exactly once; the pointer then stays (across pop() calls)
        #: while the deficit keeps covering the tenant's heads, and
        #: advances when it no longer does.  Granting per *arrival*
        #: rather than per visit is what makes byte shares track
        #: weights: a weight-2 tenant drains twice the bytes per round,
        #: not merely one request per turn.
        self.fresh = True

    def push(self, tenant: str, request: IORequest) -> None:
        queue = self.queues.get(tenant)
        if queue is None:
            queue = self.queues[tenant] = deque()
            self.order.append(tenant)
            self.deficit.setdefault(tenant, 0.0)
        queue.append(request)

    def retire(self, tenant: str) -> None:
        """Drop an emptied tenant from the ring (and its credit)."""
        pos = self.order.index(tenant)
        del self.order[pos]
        if pos < self.idx:
            self.idx -= 1
        elif pos == self.idx:
            self.fresh = True  # the pointer landed on the next tenant
        if self.idx >= len(self.order):
            self.idx = 0
        del self.queues[tenant]
        self.deficit.pop(tenant, None)

    def pop(self, weight_of, quantum: int) -> Tuple[Optional[IORequest], int]:
        """Serve the next request by DRR; returns (request | None,
        stale entries dropped).  Work-conserving: every visit either
        serves a head or grows a backlogged tenant's credit, so the loop
        ends as soon as any credit covers its head."""
        dropped = 0
        while self.order:
            if self.idx >= len(self.order):
                self.idx = 0
            tenant = self.order[self.idx]
            queue = self.queues[tenant]
            while queue and queue[0].state is not PENDING:
                queue.popleft()  # cancelled while queued
                dropped += 1
            if not queue:
                self.retire(tenant)
                continue
            if len(self.order) == 1:
                # A lone backlogged tenant: DRR over one queue is FIFO,
                # and the credit it would earn is forfeited the moment it
                # idles, so serve its head without the quantum-per-visit
                # loop (a 1 MiB head would take 16 visits of a 64 KiB
                # quantum, each reading the weight under the registry
                # lock).
                head = queue.popleft()
                if not queue:
                    self.retire(tenant)
                return head, dropped
            if self.fresh:
                self.deficit[tenant] = (
                    self.deficit.get(tenant, 0.0) + quantum * weight_of(tenant)
                )
                self.fresh = False
            head = queue[0]
            credit = self.deficit.get(tenant, 0.0)
            if credit >= head.nbytes:
                queue.popleft()
                self.deficit[tenant] = credit - head.nbytes
                if not queue:
                    self.retire(tenant)
                # The pointer stays on this tenant (fresh stays False)
                # so its burst continues while credit lasts.
                return head, dropped
            # Deficit exhausted: the pointer moves on.
            self.idx += 1
            self.fresh = True
        return None, dropped


class _FairQueue:
    """Per-lane weighted fair-share queue: priority classes stay
    strictly ordered (a blocking load still overtakes every store);
    *within* a class tenants are served by :class:`_ClassRing` DRR.

    The scheduler's two degenerate modes are configurations of this one
    structure, not a second one.  ``per_tenant=False`` (no registry was
    passed) files every request under the default tenant's subqueue: a
    ring of one, so dequeue is priority class then submission order.
    ``fifo=True`` additionally files every request under one class key,
    so dequeue is strict submission order whatever the priorities and
    tenants.
    """

    def __init__(
        self, registry: TenantRegistry, fifo: bool = False, per_tenant: bool = True
    ) -> None:
        self.registry = registry
        self.fifo = fifo
        self.per_tenant = per_tenant and not fifo
        self.classes: Dict[int, _ClassRing] = {}
        #: Queued entries, live + stale (drives the workers' wait
        #: predicate; stale entries are dropped lazily by pop()).
        self.size = 0

    def _keys(self, request: IORequest) -> Tuple[int, str]:
        """The (class key, subqueue key) ``request`` files under."""
        cls = 0 if self.fifo else int(request.priority)
        return cls, request.tenant if self.per_tenant else DEFAULT_TENANT

    def push(self, request: IORequest) -> None:
        cls, tenant = self._keys(request)
        ring = self.classes.get(cls)
        if ring is None:
            ring = self.classes[cls] = _ClassRing()
        ring.push(tenant, request)
        self.size += 1

    def pop(self) -> Optional[IORequest]:
        for cls in sorted(self.classes):
            ring = self.classes[cls]
            request, dropped = ring.pop(self.registry.weight, self.registry.quantum_bytes)
            self.size -= dropped
            if not ring.order:
                del self.classes[cls]
            if request is not None:
                self.size -= 1
                return request
        return None

    def remove(self, request: IORequest) -> bool:
        """Unlink a queued request (a promotion's re-push, or a waiter
        running it); False when it is not queued here (already popped)."""
        cls, tenant = self._keys(request)
        ring = self.classes.get(cls)
        if ring is None:
            return False
        queue = ring.queues.get(tenant)
        if queue is None:
            return False
        try:
            queue.remove(request)
        except ValueError:
            return False
        self.size -= 1
        if not queue:
            ring.retire(tenant)
            if not ring.order:
                del self.classes[cls]
        return True

    def peek_behind(self, head: IORequest) -> Optional[IORequest]:
        """The most urgent live request queued in ``head``'s subqueue
        (coalescing looks here for the next batch member, so a batch
        never crosses tenants — adjacency within the owner is the
        point)."""
        _, tenant = self._keys(head)
        for cls in sorted(self.classes):
            ring = self.classes[cls]
            queue = ring.queues.get(tenant)
            if queue is None:
                continue
            while queue and queue[0].state is not PENDING:
                queue.popleft()
                self.size -= 1
            if not queue:
                ring.retire(tenant)
                if not ring.order:
                    del self.classes[cls]
                continue
            return queue[0]
        return None


class _Lane:
    """One tier's queue + bookkeeping (workers live on the scheduler)."""

    def __init__(self, name: str, queue: _FairQueue) -> None:
        self.name = name
        self.lock = threading.Lock()
        #: Workers wait here for work; :meth:`IOScheduler.drain` waits on
        #: ``idle`` (same lock) for ``pending`` to reach zero.
        self.cond = threading.Condition(self.lock)
        self.idle = threading.Condition(self.lock)
        self.queue = queue
        self.pending = 0  # submitted, not yet finished or cancelled


class IOScheduler:
    """Single scheduler owning per-tier lanes with priority dequeue.

    Args:
        workers: worker threads per lane (any worker may serve any
            class — that is what lets a blocking load overtake the store
            backlog).  ``0`` starts none: the caller is every lane's one
            worker and serves it with :meth:`serve_next` (the simulator
            runs the scheduler on a virtual clock this way), or runs a
            request by waiting on it.
        lanes: tier names to create lanes for; a request naming any
            other lane is refused at submit.
        fifo: ignore priority classes and dequeue in submission order
            (the paper's baseline behaviour; promotion becomes a no-op).
        coalesce_bytes: cap on one coalesced store batch; ``0`` disables
            coalescing.  A store larger than the cap always runs alone.
        max_retries / retry_backoff_s: default bounded retry budget
            stamped onto requests that do not carry their own; retryable
            job errors (transient device faults, checksum mismatches)
            are re-attempted this many times with exponential backoff
            before the request goes FAILED.
        tenants: a :class:`~repro.io.tenancy.TenantRegistry` to share
            the lanes across jobs: enables quota admission and — unless
            ``fifo`` — weighted fair-share (DRR) dequeue across tenants
            within each priority class.  With ``None`` (the default)
            every request queues as the default tenant's, so dequeue is
            priority class then submission order (a registry is still
            created for bookkeeping, but never drives dequeue order).
        name: thread-name prefix.
        backend: the lane execution backend
            (:class:`~repro.io.aio.IOBackend`).  ``None`` installs the
            default :class:`~repro.io.aio.ThreadBackend` — the lane
            worker settles each request inline;
            :class:`~repro.io.uring.UringBackend` settles on a reaper.
    """

    def __init__(
        self,
        workers: int = DEFAULT_LANE_WORKERS,
        lanes: Tuple[str, ...] = ("ssd", "cpu"),
        fifo: bool = False,
        coalesce_bytes: int = DEFAULT_COALESCE_BYTES,
        max_retries: int = DEFAULT_MAX_RETRIES,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
        tenants: Optional[TenantRegistry] = None,
        name: str = "ssdtrain-io",
        backend: Optional[IOBackend] = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0: {workers}")
        if not lanes:
            raise ValueError("need at least one lane")
        if coalesce_bytes < 0:
            raise ValueError(f"coalesce_bytes must be >= 0: {coalesce_bytes}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {max_retries}")
        if retry_backoff_s < 0:
            raise ValueError(f"retry_backoff_s must be >= 0: {retry_backoff_s}")
        self.name = name
        self.fifo = fifo
        self.coalesce_bytes = coalesce_bytes
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        #: Tenant registry: admission control + per-tenant books.  Only
        #: a registry passed explicitly gives tenants their own
        #: subqueues — the implicit bookkeeping registry must not
        #: perturb the priority-then-submission order.
        self.tenants = tenants if tenants is not None else TenantRegistry()
        self.stats = SchedulerStats()
        #: Per-lane failure/death bookkeeping fed by request completions;
        #: the tiered offloader reads it.
        self.health = LaneHealthTracker()
        #: The registry's books lock: one acquisition opens (or closes) a
        #: request's global and tenant books.
        self._stats_lock = self.tenants.lock
        # An Event, not a lock-guarded bool: worker loops read the flag
        # under their lane's condition while shutdown() runs under the
        # stats lock — a plain bool written under one lock and read under
        # another has no consistent guard, so a lane mid-wait could miss
        # it.  The Event's own lock makes every read/write coherent and
        # the check-then-wait under ``lane.cond`` stays race-free against
        # the post-set ``notify_all`` (which also takes ``lane.cond``).
        self._shutdown = threading.Event()
        self._listeners: List[Callable[[str, IORequest], None]] = []
        #: Runs dequeued batches and decides which thread settles them
        #: (:class:`~repro.io.aio.IOBackend`).
        self.backend = backend if backend is not None else ThreadBackend()
        self.backend.bind(self)
        self._lanes: Dict[str, _Lane] = {
            lane: _Lane(
                lane,
                _FairQueue(self.tenants, fifo=fifo, per_tenant=tenants is not None),
            )
            for lane in lanes
        }
        self._workers: List[threading.Thread] = []
        for lane in self._lanes.values():
            for i in range(workers):
                worker = threading.Thread(
                    target=self._worker_loop,
                    args=(lane,),
                    name=f"{name}-{lane.name}-{i}",
                    daemon=True,
                )
                self._workers.append(worker)
                worker.start()

    # --------------------------------------------------------------- listeners
    def add_listener(self, listener: Callable[[str, IORequest], None]) -> None:
        """Subscribe to scheduler events.

        ``listener(event, request)`` fires for ``"submit"``, ``"start"``,
        ``"done"``, ``"cancel"`` and ``"promote"``, after the fact, with
        no scheduler lock held.  ``"done"`` fires once per executed
        request, after its books are closed: it is the only completion
        telemetry the scheduler exports, and
        :class:`~repro.io.trace.IOTracer` the listener that aggregates it.
        """
        self._listeners.append(listener)

    # ------------------------------------------------------------------ submit
    def _lane_of(self, request: IORequest) -> _Lane:
        lane = self._lanes.get(request.lane)
        if lane is None:
            raise ValueError(
                f"unknown lane {request.lane!r}; scheduler has {tuple(self._lanes)}"
            )
        return lane

    def submit(self, request: IORequest) -> IORequest:
        """Enqueue a typed request on its tier lane; returns the request.

        Tenant admission runs first: an over-quota submission raises
        :class:`~repro.io.tenancy.TenantQuotaError` and is booked
        ``rejected`` on its tenant.
        """
        self._open(request, queued=True)
        return request

    def run_inline(self, request: IORequest) -> IORequest:
        """:meth:`submit`, run and settled on the calling thread; returns
        the request in a terminal state.

        For a read whose bytes are already in host memory (the paper's
        forwarding rule, Sec. III-C2): there is no device to queue for,
        so the request takes no queue slot, wakes no worker and — under
        every backend — settles on the caller.  Admission, the global,
        per-class and per-tenant books, lane health, the
        ``submit``/``start``/``done`` listener events, the quota refund
        on failure and the refusal after :meth:`shutdown` are
        :meth:`submit`'s, because the same code runs them.
        """
        self._run_batch(self._open(request, queued=False), [request], inline=True)
        return request

    def _open(self, request: IORequest, queued: bool) -> _Lane:
        """Admit ``request`` and open its books — admission and the
        submit counters in one acquisition of the books lock, then the
        lane's ``pending`` — and, unless the caller runs it itself,
        queue it.  :meth:`_close_books` closes them, once."""
        lane = self._lane_of(request)
        # Requests without an explicit retry policy inherit the
        # scheduler's (an explicit 0 opts out — stateful bodies that
        # handle their own retries must not be blindly re-executed).
        if request.max_retries is None:
            request.max_retries = self.max_retries
        if request.retry_backoff_s is None:
            request.retry_backoff_s = self.retry_backoff_s
        tenant, nbytes, stats = request.tenant, request.nbytes, self.stats
        cls = _CLASS_NAMES[request.priority]
        with self._stats_lock:
            if not self.tenants.admit_locked(tenant, nbytes):
                raise TenantQuotaError(
                    f"tenant {tenant!r} over quota: {request.label} ({nbytes} bytes) rejected"
                )
            stats.submitted += 1
            stats.submitted_by_class[cls] = stats.submitted_by_class.get(cls, 0) + 1
        request.submitted_at = time.monotonic()
        with lane.lock:
            shut = self._shutdown.is_set()
            if not shut:
                lane.pending += 1
                # From here on the terminal transition closes the books.
                request._scheduler = self
                if queued:
                    lane.queue.push(request)
                    lane.cond.notify()
        if shut:
            # Undo the admission and the counters: every book stays exact.
            with self._stats_lock:
                self.tenants.rollback_locked(tenant, nbytes)
                stats.submitted -= 1
                stats.submitted_by_class[cls] -= 1
                if not stats.submitted_by_class[cls]:
                    del stats.submitted_by_class[cls]
            raise RuntimeError(f"scheduler {self.name} is shut down")
        if request.done_event._set:
            # Cancelled ahead of (or while) being submitted: its dispatch
            # may have found no books to close.  Closing is once-only.
            self._close_books(request)
        if self._listeners:
            self._safe_notify("submit", request)
        return lane

    def _close_books(self, request: IORequest) -> None:
        """Close a terminal request's books, exactly once: the global and
        tenant outcome and the quota refund under one acquisition of the
        books lock, then lane health, then — last, so a :meth:`drain` that
        returns finds the rest booked, and whatever a step raised — the
        lane's ``pending``.  Called by :meth:`IORequest._dispatch`."""
        state, nbytes, tenant, stats = request.state, request.nbytes, request.tenant, self.stats
        lane = self._lanes[request.lane]
        try:
            with self._stats_lock:
                if request._scheduler is not self:
                    lane = None  # already closed, by another caller
                    return
                request._scheduler = None
                stats.retries += request.attempts
                if state is DONE:
                    stats.executed += 1
                    outcome = "executed"
                elif state is FAILED:
                    stats.failed += 1
                    stats.failed_bytes += nbytes
                    outcome = "failed"
                else:
                    stats.cancelled += 1
                    stats.cancelled_bytes += nbytes
                    if request.kind in ("store", "demote"):
                        stats.cancelled_stores += 1
                    outcome = "cancelled"
                self.tenants.finish_locked(tenant, outcome, nbytes, request.attempts)
            # Health is learned only from requests that actually ran, and
            # only from *device-shaped* errors: a MemoryError (pool
            # capacity spike), a structural OSError (missing file,
            # permissions), or a plain bug in a job body says nothing
            # about the device, and must not brick a lane.  A body that
            # recovered from an I/O failure internally (tiered demotion
            # failover) reports it via ``health_error`` so the lane still
            # learns the truth despite the request completing DONE.
            # Verdicts are tenant-scoped: the default tenant drives the
            # lane's global verdict, any other tenant only its own.
            if state is not CANCELLED:
                error = request.error if state is FAILED else request.health_error
                if error is not None and is_device_error(error):
                    self.health.record_failure(
                        request.lane,
                        permanent=isinstance(error, PermanentIOError),
                        tenant=tenant,
                    )
                elif state is DONE:
                    self.health.record_success(request.lane, tenant)
        finally:
            if lane is not None:
                with lane.lock:
                    lane.pending -= 1
                    if not lane.pending:
                        lane.idle.notify_all()

    # ------------------------------------------------------ cancel / promote
    def cancel(self, request: IORequest) -> bool:
        """Cancel a PENDING request (False if it already started).

        The request's done event fires either way once it reaches a
        terminal state; a successful cancel reaches it without touching
        the backing store.
        """
        if request.cancel():
            self._safe_notify("cancel", request)
            return True
        return False

    def promote(self, request: Optional[IORequest], priority: Priority = Priority.BLOCKING_LOAD) -> bool:
        """Raise a PENDING request's urgency (deadline promotion).

        The request is unlinked from its class ring and re-pushed at
        the back of the new class (no stale entries).  No-op in FIFO
        mode, for requests already at least that urgent, and for
        requests that left the queue.
        """
        if request is None or self.fifo:
            return False
        lane = self._lane_of(request)
        with lane.lock:
            if request.state is not PENDING:
                return False
            if int(priority) >= int(request.priority):
                return False
            requeue = lane.queue.remove(request)
            request.priority = Priority(priority)
            if requeue:
                lane.queue.push(request)
                lane.cond.notify()
        with self._stats_lock:
            self.stats.promotions += 1
        self._safe_notify("promote", request)
        return True

    # ----------------------------------------------------------------- workers
    def _pop_batch_locked(self, lane: _Lane) -> List[IORequest]:
        """Pop one request, plus — for small stores — the adjacent small
        stores queued behind it, to run back-to-back as one batch.

        The queue picks the head (priority class, then DRR across
        tenants); coalescing then drains the *same subqueue's* queued
        small stores/demotions (in its class order) into the batch.
        Stores are the lowest classes, so when one is at the front
        nothing more urgent is queued: draining preserves priority
        order while guaranteeing the batch is adjacent in queue order.
        A batch never mixes tenants, so coalescing cannot become a
        fairness loophole (the bytes a batch moves are all charged to
        the tenant DRR selected).

        Members claimed into a batch ride behind its head even if another
        worker goes idle — adjacency is the point (one chunk submission).
        Within the store class that can reorder a later store ahead of a
        claimed one, which is fine: stores carry no ordering guarantee,
        only a step-end deadline, and claimed members stay cancellable
        until the worker reaches them.
        """
        head = lane.queue.pop()
        if head is None:
            return []
        batch = [head]
        if (
            self.coalesce_bytes <= 0
            or head.kind not in ("store", "demote")
            or head.nbytes >= self.coalesce_bytes
        ):
            return batch
        total = head.nbytes
        while True:
            nxt = lane.queue.peek_behind(head)
            if (
                nxt is None
                or nxt.kind not in ("store", "demote")
                or total + nxt.nbytes > self.coalesce_bytes
            ):
                break
            lane.queue.remove(nxt)
            batch.append(nxt)
            total += nxt.nbytes
        return batch

    def stats_snapshot(self) -> SchedulerStats:
        """A point-in-time copy of the cumulative counters.

        Unlike reading :attr:`stats` directly this is coherent (taken
        under the stats lock) and detached — mutating the copy, or the
        scheduler executing more work, does not affect the other.  The
        aggregate :meth:`repro.core.engine.Engine.stats` surface is built
        from this, so it never hands callers the live mutable books.
        """
        with self._stats_lock:
            snap = replace(self.stats)
            snap.submitted_by_class = dict(self.stats.submitted_by_class)
        return snap

    def _safe_notify(self, event: str, request: IORequest) -> None:
        """Listener dispatch that cannot take a worker down: a raising
        listener is a telemetry bug, not a reason to strand a lane."""
        for listener in self._listeners:
            try:
                listener(event, request)
            except Exception:
                logger.exception(
                    "scheduler listener raised on %r for %s", event, request.label
                )

    def book_coalesced(self, done_members: int, nbytes: int) -> None:
        """Book a batch's ``done_members``-th DONE member as coalesced.

        Called for every member that reaches DONE after the batch's
        first (``done_members >= 2``): only the trailing ones count as
        coalesced work, preserving ``coalesced_requests <= executed``,
        and the second one makes the batch a coalesced batch.
        """
        with self._stats_lock:
            if done_members == 2:
                self.stats.coalesced_batches += 1
            self.stats.coalesced_requests += 1
            self.stats.coalesced_bytes += nbytes

    def backend_stats_snapshot(self) -> Dict[str, IOLaneStats]:
        """Non-destructive per-lane backend telemetry (syscalls, batch
        membership, reap lag) — the ``EngineStats.io_lanes`` surface."""
        return self.backend.lane_stats()

    def _worker_loop(self, lane: _Lane) -> None:
        cond, queue, shutdown = lane.cond, lane.queue, self._shutdown
        while True:
            with lane.lock:
                while not queue.size:
                    if shutdown.is_set():
                        return
                    cond.wait()
                batch = self._pop_batch_locked(lane)
            self._run_batch(lane, batch)

    def serve_next(self, name: str) -> bool:
        """One turn of the worker loop on the caller, for a scheduler
        built with ``workers=0``: pop lane ``name``'s next batch and run
        it to completion.  False when nothing live was queued."""
        lane = self._lanes[name]
        with lane.lock:
            batch = self._pop_batch_locked(lane)
        if not batch:
            return False
        self._run_batch(lane, batch, inline=True)
        return True

    def _run_waited(self, request: IORequest) -> None:
        """Run a request its caller is about to block on, on the caller,
        as :meth:`serve_next` runs a batch, if it is still queued: out of
        the lane's dequeue order, but with the queued path's books, events
        and claim-vs-cancel race.  One a worker popped stays the worker's.
        FIFO mode keeps submission order: the lane's workers run it, or,
        with none, the waiter serves the lane in order up to its own."""
        lane = self._lanes[request.lane]
        if self.fifo:
            while not self._workers and request.state is PENDING and self.serve_next(lane.name):
                pass
            return
        with lane.lock:
            if request.state is not PENDING or not lane.queue.remove(request):
                return
        self._run_batch(lane, [request], inline=True)

    def _run_batch(self, lane: _Lane, batch: List[IORequest], inline: bool = False) -> None:
        """Hand a batch to the backend, which runs the members' bodies on
        this thread and settles them here or (unless ``inline``) on its
        reaper.  The backend must not raise — but one poisoned batch
        still must not kill the lane and hang drain() on the work queued
        behind it, so a claimed member the backend left running, and
        did not hand off (a hand-off stamps ``finished_at``), is failed
        here, through the same settlement."""
        try:
            self.backend.run_batch(lane.name, batch, inline=inline)
        except Exception as exc:
            logger.exception(
                "backend %s raised on a %s batch; thread %s continues",
                self.backend.name,
                lane.name,
                threading.current_thread().name,
            )
            for request in batch:
                if request.state is RUNNING and not request.finished_at:
                    self.backend._settle(None, request, None, exc)

    # ------------------------------------------------------------------- drain
    def pending(self, lane: Optional[str] = None) -> int:
        """Requests submitted but not yet finished (one lane or all)."""
        lanes = [self._lanes[lane]] if lane is not None else self._lanes.values()
        return sum(ln.pending for ln in lanes)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every lane is simultaneously empty and idle.

        A single pass is not enough: work finishing on a later-checked
        lane may submit onto an earlier-checked one (a cpu-lane store
        triggering a tiered demotion queues an ssd-lane write), so loop
        until one pass observes every lane idle at once.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            for lane in self._lanes.values():
                remaining = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                with lane.lock:
                    if not lane.idle.wait_for(lambda: not lane.pending, remaining):
                        return False
            if not any(lane.pending for lane in self._lanes.values()):
                return True

    def shutdown(self) -> None:
        """Finish queued work and stop the workers (idempotent)."""
        with self._stats_lock:  # idempotency only; readers use the Event
            if self._shutdown.is_set():
                return
            self._shutdown.set()
        if not self._workers:
            # No lane worker will finish the queued work: the caller does.
            for name in self._lanes:
                while self.serve_next(name):
                    pass
        self.drain()
        for lane in self._lanes.values():
            with lane.cond:
                lane.cond.notify_all()
        for worker in self._workers:
            worker.join(timeout=5)
        # Only after the lane workers are gone: no batch can be in
        # flight, so the backend can stop its reaper and close its FDs.
        self.backend.shutdown()

    #: Closeable-resource alias: idempotent, and it joins every worker
    #: (no daemon leaks).
    close = shutdown

    def __enter__(self) -> "IOScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
