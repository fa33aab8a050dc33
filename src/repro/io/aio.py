"""The IOJob state machine, the lane-backend interface, and the thread backend.

The paper's tensor cache owns two pools — "one for storing tensors and
the other for loading tensors.  Submitted jobs are executed in
first-in-first-out (FIFO) order." (Sec. III-C2.)  The cache runs on
the priority-aware :class:`~repro.io.scheduler.IOScheduler` instead
(``fifo=True`` is the paper-faithful dequeue order).  :class:`IOJob` is
the unit of work: observable state
(pending/running/done/failed/cancelled), a completion event, done
callbacks, and a ``cancel``/``run`` handshake that lets exactly one side
win the PENDING race.

This module also defines the **lane execution backend**
(:class:`IOBackend`): the scheduler's worker loop dequeues a batch and
hands it to the installed backend, whose :meth:`IOBackend.run_batch` is
the one per-request loop in the stack.  A backend decides only *which
thread settles a finished body*: :class:`ThreadBackend` (the default)
settles on the lane worker, inline; the reaper backend lives in
:mod:`repro.io.uring`.  How the bytes reach the kernel is the stores'
business (:mod:`repro.io.fdtable`) and the same under every backend.

Backend contract (docs/architecture.md §10): for every request in the
batch the loop (1) wins :meth:`IOJob.claim` before touching it — a lost
claim means a canceller got there first and the request is skipped
silently; (2) brackets the body with
:meth:`IOScheduler.begin_request` / :meth:`IOScheduler.finish_request`
(the books themselves are closed by the terminal transition,
:meth:`IOJob._dispatch`, exactly once whoever caused it); (3) leaves every claimed request in a
terminal state (DONE/FAILED) even when the body raises something
unexpected — ``finish_request`` enforces this.  Retries happen inside
the body via :func:`~repro.io.errors.retry_call`; a finished request is
never re-run.
"""

from __future__ import annotations

import enum
import logging
import threading
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.io.errors import retry_call
from repro.io.tenancy import tenant_scope

logger = logging.getLogger(__name__)


# --------------------------------------------------------------------------
# Syscall tape: per-thread attribution of kernel round-trips.
#
# The stores (:mod:`repro.io.filestore` / :mod:`repro.io.chunkstore`)
# call :func:`count_syscalls` next to every ``open``/``read``/``write``
# they issue; a backend wraps each request body in a
# :class:`syscall_tape` so the calls land on the per-lane books no
# matter which closure the request body routed through.  Outside an
# active tape the calls are no-ops (zero overhead on non-lane threads).
# --------------------------------------------------------------------------


class _TapeState(threading.local):
    count = 0
    depth = 0


_TAPE = _TapeState()


def count_syscalls(n: int = 1) -> None:
    """Record ``n`` kernel round-trips on the current thread's tape."""
    if _TAPE.depth:
        _TAPE.count += n


class syscall_tape:
    """Context manager measuring syscalls issued on this thread.

    Re-entrant: nested tapes each see the calls made inside their own
    scope (the inner scope's calls are part of the outer's too).
    """

    __slots__ = ("count", "_start")

    def __init__(self) -> None:
        self.count = 0
        self._start = 0

    def __enter__(self) -> "syscall_tape":
        _TAPE.depth += 1
        self._start = _TAPE.count
        return self

    def __exit__(self, *exc: object) -> bool:
        _TAPE.depth -= 1
        self.count = _TAPE.count - self._start
        if _TAPE.depth == 0:
            _TAPE.count = 0
        return False


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


class IOJob:
    """A unit of I/O work with an observable state and completion event.

    ``max_retries``/``retry_backoff_s`` give the job a bounded
    retry-with-backoff budget: a body raising a *retryable* error
    (:func:`~repro.io.errors.is_retryable` — transient device errors,
    checksum mismatches) is re-run up to ``max_retries`` more times with
    exponential backoff before the job goes FAILED.  Non-retryable
    errors (permanent lane death, missing files) fail fast.  The default
    budget is 0 — plain jobs keep the original one-shot semantics; the
    scheduler stamps its default onto typed requests at submit time.
    """

    def __init__(
        self,
        fn: Callable[[], Any],
        label: str = "",
        max_retries: int = 0,
        retry_backoff_s: float = 0.0,
    ) -> None:
        self.fn = fn
        self._label = label
        self.state = JobState.PENDING
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        #: Re-attempts actually performed (0 = first try succeeded/failed).
        self.attempts = 0
        self.done_event = threading.Event()
        self._callbacks: List[Callable[["IOJob"], None]] = []
        self._lock = threading.Lock()

    @property
    def label(self) -> str:
        """Name for logs and error messages."""
        return self._label

    def add_done_callback(self, cb: Callable[["IOJob"], None]) -> None:
        """Run ``cb(job)`` on completion (immediately if already done)."""
        run_now = False
        with self._lock:
            if self.done_event.is_set():
                run_now = True
            else:
                self._callbacks.append(cb)
        if run_now:
            cb(self)

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self.done_event.wait(timeout)

    def cancel(self) -> bool:
        """Cancel the job if (and only if) it has not started running.

        The PENDING -> CANCELLED and PENDING -> RUNNING transitions take
        the same lock, so exactly one of ``cancel()`` and ``run()`` wins:
        a job observed CANCELLED never touched the backing store, and a
        job that is already RUNNING (or finished) cannot be cancelled.
        Returns True when this call performed the cancellation.  Done
        callbacks fire for cancelled jobs too (with ``state`` CANCELLED).
        """
        with self._lock:
            if self.state is not JobState.PENDING:
                return False
            self.state = JobState.CANCELLED
            self.fn = None  # drop closure refs, as a completed run would
            callbacks = self._finish_locked()
        self._dispatch(callbacks)
        return True

    def _finish_locked(self) -> List[Callable[["IOJob"], None]]:
        """The tail of every terminal transition (caller holds the lock):
        wake the waiters, hand back the callbacks to :meth:`_dispatch`."""
        callbacks, self._callbacks = self._callbacks, []
        self.done_event.set()
        return callbacks

    def _dispatch(self, callbacks: List[Callable[["IOJob"], None]]) -> None:
        """Called once, right after the terminal transition and outside
        the job lock: run the completion callbacks, containing
        per-callback failures — one raising callback must never starve
        the ones behind it.  (:class:`~repro.io.scheduler.IORequest`
        closes the scheduler's books here first.)
        """
        for cb in callbacks:
            try:
                cb(self)
            except Exception:
                logger.exception("done callback for job %s raised", self.label)

    def claim(self) -> bool:
        """Atomically take the PENDING -> RUNNING transition.

        Exactly one caller wins against :meth:`cancel` and against other
        claimers.  The loser must not run the job — nor report
        start/done events for it.
        """
        with self._lock:
            if self.state is not JobState.PENDING:
                return False
            self.state = JobState.RUNNING
            return True

    def _count_retry(self, exc: BaseException, attempt: int) -> None:
        self.attempts = attempt

    def run_body(self) -> Tuple[Any, Optional[BaseException]]:
        """Run the claimed body without finishing — the SQ half.

        Retryable failures are re-attempted within the job's budget via
        the stack's single retry rule (:func:`~repro.io.errors.retry_call`;
        the submitting worker holds the job for the backoff sleeps — the
        budget bounds that occupancy).  Returns ``(result, error)``; the
        job stays RUNNING until :meth:`complete` applies the outcome, so
        a reaper backend can settle it on another thread.
        """
        try:
            result = retry_call(
                self.fn,
                max_retries=self.max_retries or 0,  # None: never submitted
                backoff_s=self.retry_backoff_s or 0.0,
                on_retry=self._count_retry,
            )
        except BaseException as exc:  # surfaced via .error for the waiter
            return None, exc
        return result, None

    def abandon(self, error: BaseException) -> bool:
        """Force a RUNNING job to FAILED without waiting for its body.

        The watchdog's half of the deadline contract: the body may be
        wedged in the kernel (a hung ``pwrite``), so nobody can make it
        return — but the waiter must still unblock and failover.  The
        job goes terminal with ``error``; when the wedged body finally
        returns, :meth:`complete` sees the terminal state and discards
        the late outcome.  ``fn`` is deliberately *not* dropped here —
        the body is still executing and owns its closure.  Returns True
        when this call performed the transition.
        """
        with self._lock:
            if self.done_event.is_set() or self.state is not JobState.RUNNING:
                return False
            self.state = JobState.FAILED
            self.error = error
            callbacks = self._finish_locked()
        self._dispatch(callbacks)
        return True

    def complete(self, result: Any, error: Optional[BaseException]) -> None:
        """Apply a body outcome and finish — the CQ half.

        Idempotent once terminal: a late body outcome arriving after
        :meth:`abandon` (or after a hedge completed this job) is
        discarded — first completion wins.  The check-and-transition is
        one critical section, so an abandon can never interleave between
        the guard and the terminal write.
        """
        with self._lock:
            if self.done_event.is_set():
                self.fn = None  # the body returned; closure refs can go now
                return
            if error is not None:
                self.error = error
                self.state = JobState.FAILED
            else:
                self.result = result
                self.state = JobState.DONE
            self.fn = None  # drop closure refs so GPU buffers can be reclaimed
            callbacks = self._finish_locked()
        self._dispatch(callbacks)

    def run(self) -> None:
        """Claim, run and settle on the calling thread (no backend)."""
        if self.claim():
            self.complete(*self.run_body())


# --------------------------------------------------------------------------
# Lane execution backends
# --------------------------------------------------------------------------


@dataclass
class IOLaneStats:
    """Per-lane backend telemetry (cumulative; snapshot via copies).

    ``syscalls`` counts kernel round-trips attributed to this lane's
    request bodies via the syscall tape; ``batched_requests`` counts the
    members of multi-request batches (>= 2 claimed); ``reaped`` and
    ``reap_lag_s`` count the completions a reaper thread settled and the
    delay between each request's I/O finishing and that settlement (both
    zero on the thread backend, where the lane worker settles inline).
    """

    syscalls: int = 0
    batches: int = 0
    batched_requests: int = 0
    reaped: int = 0
    reap_lag_s: float = 0.0


class _Batch:
    """What the members of one dequeued batch share while they settle."""

    __slots__ = ("lane", "done_members")

    def __init__(self, lane: str) -> None:
        self.lane = lane
        self.done_members = 0


class IOBackend:
    """The lane loop, and who settles a finished body.

    :meth:`run_batch` is the only per-request loop in the stack: claim,
    begin, run the body under the syscall tape, book the lane, hand the
    outcome to :meth:`_hand_off`.  Subclasses differ only in that last
    step — *which thread* runs :meth:`_settle` (apply the outcome, fire
    done callbacks, finish, book coalescing, notify): the lane worker
    itself (:class:`ThreadBackend`) or a reaper
    (:class:`~repro.io.uring.UringBackend`).  The scheduler calls
    :meth:`bind` once at construction and :meth:`shutdown` after its
    workers have been joined (so no batch is in flight).
    """

    name = "backend"

    def __init__(self) -> None:
        self.scheduler = None  # bound by IOScheduler.__init__
        self._stats_lock = threading.Lock()
        self._lanes: Dict[str, IOLaneStats] = defaultdict(IOLaneStats)  # under _stats_lock

    def bind(self, scheduler) -> None:
        self.scheduler = scheduler

    def run_batch(self, lane: str, requests: List["IOJob"], inline: bool = False) -> None:
        """Execute one batch for ``lane``; must not raise.  ``inline``
        (:meth:`IOScheduler.run_inline`) settles on the calling thread
        under every backend: the caller is about to read the outcome, so
        a reaper could only add a hand-off to it."""
        batch = _Batch(lane)
        hand_off = self._settle if inline else self._hand_off
        begin = self.scheduler.begin_request
        claimed = 0
        for request in requests:
            if not request.claim():
                # Lost to cancel(); the winner owns all bookkeeping.
                continue
            claimed += 1
            if claimed > 1:
                request.coalesced = True
            begin(request)
            tape = syscall_tape()
            # One tenant scope for the body and — when this thread
            # settles — the settlement: placement, pool/arena accounting
            # and done callbacks all land on the request's tenant.
            with tenant_scope(request.tenant):
                try:
                    with tape:
                        result, error = request.run_body()
                except BaseException as exc:  # belt: run_body must not raise
                    result, error = None, exc
                # Booked before the hand-off: settling wakes the waiter, and
                # a reader that drained must find this request on the books.
                with self._stats_lock:
                    stats = self._lanes[lane]
                    stats.syscalls += tape.count
                    if claimed == 1:
                        stats.batches += 1
                    elif claimed == 2:
                        stats.batched_requests += 2
                    else:
                        stats.batched_requests += 1
                hand_off(batch, request, result, error)

    def _hand_off(
        self, batch: _Batch, request: "IOJob", result: Any, error: Optional[BaseException]
    ) -> None:
        """Get :meth:`_settle` called with these arguments, once."""
        raise NotImplementedError

    def _settle(
        self, batch: _Batch, request: "IOJob", result: Any, error: Optional[BaseException]
    ) -> None:
        """Apply a body's outcome: the terminal transition (which closes
        the books and fires the done callbacks), then the ``done`` event.
        The caller holds the request's tenant scope (:meth:`run_batch`,
        or the reaper), so refunds/arena attribution land on its tenant."""
        sched = self.scheduler
        try:
            request.complete(result, error)
        except Exception:
            logger.exception("request %s raised outside the job body", request.label)
        finally:
            sched.finish_request(request)
        if request.state is JobState.DONE:
            batch.done_members += 1
            if batch.done_members > 1:
                sched.book_coalesced(batch.done_members, request.nbytes)
        sched.notify_done(request)

    def lane_stats(self) -> Dict[str, IOLaneStats]:
        """Non-destructive snapshot of the per-lane telemetry."""
        with self._stats_lock:
            return {lane: replace(stats) for lane, stats in self._lanes.items()}

    def shutdown(self) -> None:  # pragma: no cover - default is a no-op
        pass


class ThreadBackend(IOBackend):
    """The default backend: the dequeuing lane worker settles each body
    as soon as it returns, before it runs the next one."""

    name = "thread"

    _hand_off = IOBackend._settle
