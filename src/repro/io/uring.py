"""Batched submission/completion-queue I/O backend (io_uring-style).

ROADMAP item 3: the thread-per-request blocking model in
:class:`~repro.io.aio.ThreadBackend` pays one ``open``/``write``/
``close`` round-trip set per tensor.  Real deployments batch: io_uring
submits many requests per kernel transition over pre-opened
("registered") file descriptors, and a completion queue is reaped
independently of submission.  This module reproduces that *shape* with
portable pure-Python syscalls:

- :class:`FDTable` — pre-opened descriptors keyed by path (io_uring's
  fixed-file table), LRU-bounded, with an optional ``O_DIRECT`` mode
  and a per-file fallback when the filesystem refuses it;
- :class:`UringBackend` — the lane worker is the *submission* side: it
  claims the dequeued batch (the scheduler's coalescing machinery
  already groups compatible requests), runs each body as one vectored
  submission (``os.pwritev``/``os.preadv`` through the stores' vectored
  entry points), and pushes completion-queue entries; a dedicated
  **reaper** thread applies outcomes — terminal job states, done
  callbacks, lease release, health/tenant books — and stamps the
  reap lag the adaptive controller folds into its latency estimate;
- :class:`GDSSimBackend` — the simulated GPUDirect-Storage lane:
  stores whose source array belongs to a :class:`~repro.io.gds
  .GDSRegistry`-registered storage go straight to the SSD store with
  zero host copies booked; unregistered ones are staged through an
  explicit host bounce buffer (an arena lease + one copy), like real
  GDS falling back for unregistered allocations.

The backend never changes *what* is read or written — the stores'
vectored entry points produce bit-identical files and validate the same
checksum frame — only how many kernel round-trips carry it.  The
:class:`IOContext` installed around each request body is how the stores
know a batched backend is driving them: no context means the classic
buffered path (plain ``io_backend="thread"`` stays byte-identical).
"""

from __future__ import annotations

import logging
import os
import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager
from typing import Deque, Iterator, List, Optional, Sequence, Tuple

from repro.io.aio import IOBackend, IOJob, JobState, count_syscalls, syscall_tape
from repro.io.buffers import BufferArena
from repro.io.gds import GDSRegistry
from repro.io.tenancy import tenant_scope

logger = logging.getLogger(__name__)

__all__ = [
    "FDTable",
    "GDSSimBackend",
    "IOContext",
    "UringBackend",
    "current_io_context",
    "io_context",
    "preadv_full",
    "pwritev_full",
]


# --------------------------------------------------------------------------
# Vectored-syscall helpers
# --------------------------------------------------------------------------


def _flat_views(buffers: Sequence) -> List[memoryview]:
    """Byte-granular views over ``buffers`` (kept writable for reads)."""
    views = []
    for buf in buffers:
        view = buf if isinstance(buf, memoryview) else memoryview(buf)
        if view.ndim != 1 or view.format != "B":
            view = view.cast("B")
        views.append(view)
    return views


def _advance(views: List[memoryview], moved: int) -> None:
    """Drop/trim the leading ``moved`` bytes from the iovec list."""
    while views and moved >= views[0].nbytes:
        moved -= views[0].nbytes
        views.pop(0)
    if views and moved:
        views[0] = views[0][moved:]


def pwritev_full(fd: int, buffers: Sequence, offset: int = 0) -> int:
    """Write every byte of ``buffers`` at ``offset`` via ``os.pwritev``.

    One syscall in the common case; short writes resume from where the
    kernel stopped.  Returns the total bytes written.
    """
    views = _flat_views(buffers)
    total = 0
    while views:
        written = os.pwritev(fd, views, offset)
        count_syscalls(1)
        if written <= 0:
            raise OSError(f"pwritev made no progress at offset {offset}")
        total += written
        offset += written
        _advance(views, written)
    return total


def preadv_full(fd: int, buffers: Sequence, offset: int = 0) -> int:
    """Fill ``buffers`` from ``offset`` via ``os.preadv``; stops at EOF.

    Returns the total bytes read (callers use the shortfall — or the
    overshoot into a probe buffer — to detect torn/oversized files
    without a separate ``fstat``).
    """
    views = _flat_views(buffers)
    total = 0
    while views:
        got = os.preadv(fd, views, offset)
        count_syscalls(1)
        if got == 0:  # EOF
            break
        total += got
        offset += got
        _advance(views, got)
    return total


# --------------------------------------------------------------------------
# FD table
# --------------------------------------------------------------------------


class _FDEntry:
    __slots__ = ("fd", "direct")

    def __init__(self, fd: int, direct: bool) -> None:
        self.fd = fd
        self.direct = direct


class FDTable:
    """Pre-opened file descriptors keyed by path (the fixed-file table).

    A write acquires (and caches) a descriptor so the follow-up read
    skips the ``open``/``close`` pair entirely; the LRU bound
    (``max_open``) keeps the table inside the process's fd budget —
    an evicted path simply reopens on next touch.

    ``direct=True`` opens *write* descriptors with ``O_DIRECT`` where
    the platform and filesystem allow, counting a ``direct_fallback``
    per refused file.  Read acquisitions always demote to a buffered
    descriptor: ``O_DIRECT`` reads would demand alignment from the
    caller-owned destination arrays, which the load path cannot
    guarantee (documented in docs/architecture.md §10).
    """

    def __init__(self, max_open: int = 128, direct: bool = False) -> None:
        if max_open < 1:
            raise ValueError(f"max_open must be >= 1: {max_open}")
        self.direct = direct and hasattr(os, "O_DIRECT")
        self.max_open = max_open
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _FDEntry]" = OrderedDict()
        self.opens = 0
        self.closes = 0
        self.direct_fallbacks = 0

    # ------------------------------------------------------------- internals
    def _open(self, path: str, flags: int) -> int:
        fd = os.open(path, flags, 0o644)
        count_syscalls(1)
        self.opens += 1
        return fd

    def _close(self, entry: _FDEntry) -> None:
        try:
            os.close(entry.fd)
        except OSError:  # pragma: no cover - close failures are benign
            pass
        count_syscalls(1)
        self.closes += 1

    def _evict_locked(self) -> None:
        while len(self._entries) > self.max_open:
            _, entry = self._entries.popitem(last=False)
            self._close(entry)

    # ------------------------------------------------------------- acquire
    def acquire_write(self, path: str) -> Tuple[int, bool, bool, bool]:
        """Descriptor for writing ``path``.

        Returns ``(fd, direct, cached, fell_back)``: ``direct`` is
        whether the descriptor carries ``O_DIRECT``; ``cached`` whether
        it was reused (the caller must ``ftruncate`` after a reused
        write — a fresh descriptor opens with ``O_TRUNC``);
        ``fell_back`` whether this call hit the O_DIRECT fallback.
        """
        with self._lock:
            entry = self._entries.get(path)
            if entry is not None:
                self._entries.move_to_end(path)
                return entry.fd, entry.direct, True, False
            flags = os.O_RDWR | os.O_CREAT | os.O_TRUNC
            fell_back = False
            direct = False
            if self.direct:
                try:
                    fd = self._open(path, flags | os.O_DIRECT)
                    direct = True
                except OSError:
                    # The filesystem refused O_DIRECT (common on tmpfs/
                    # overlayfs): fall back to buffered, per file.
                    self.direct_fallbacks += 1
                    fell_back = True
                    fd = self._open(path, flags)
            else:
                fd = self._open(path, flags)
            self._entries[path] = _FDEntry(fd, direct)
            self._evict_locked()
            return fd, direct, False, fell_back

    def acquire_read(self, path: str) -> int:
        """Descriptor for reading ``path`` (buffered, never O_DIRECT).

        Raises :class:`FileNotFoundError` when the path does not exist
        and no descriptor is cached — the same contract as the stores'
        classic read path.
        """
        with self._lock:
            entry = self._entries.get(path)
            if entry is not None and not entry.direct:
                self._entries.move_to_end(path)
                return entry.fd
            if entry is not None:
                # A direct descriptor cannot serve unaligned destination
                # buffers; replace it with a buffered one.
                del self._entries[path]
                self._close(entry)
            fd = self._open(path, os.O_RDWR)
            self._entries[path] = _FDEntry(fd, False)
            self._evict_locked()
            return fd

    def invalidate(self, path: str) -> None:
        """Close and forget ``path``'s descriptor (file was deleted)."""
        with self._lock:
            entry = self._entries.pop(path, None)
            if entry is not None:
                self._close(entry)

    def close_all(self) -> None:
        with self._lock:
            for entry in self._entries.values():
                self._close(entry)
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# --------------------------------------------------------------------------
# I/O context: how the stores know a batched backend is driving them
# --------------------------------------------------------------------------


class IOContext:
    """Per-batch execution context a backend installs around bodies.

    The stores check :func:`current_io_context` inside ``write``/``read``
    and, when one is active, route through their vectored entry points
    over ``fds``.  ``gds`` (GDS-sim only) carries the registry the SSD
    store consults for bounce-vs-direct routing; ``arena`` provides the
    staging leases for the bounce path and for O_DIRECT-aligned writes.
    """

    __slots__ = ("fds", "lane", "backend", "arena", "gds")

    def __init__(
        self,
        fds: FDTable,
        lane: str,
        backend: Optional["UringBackend"] = None,
        arena: Optional[BufferArena] = None,
        gds: Optional[GDSRegistry] = None,
    ) -> None:
        self.fds = fds
        self.lane = lane
        self.backend = backend
        self.arena = arena
        self.gds = gds

    def note_bounce(self, skipped: bool) -> None:
        """Book one GDS-sim routing decision on the backend's lane books."""
        if self.backend is not None:
            self.backend._note_bounce(self.lane, skipped)

    def note_direct_fallback(self) -> None:
        """Book a write-time O_DIRECT refusal (open-time ones are counted
        by the FD table)."""
        if self.backend is not None:
            self.backend._note_direct_fallback(self.lane)


class _ContextState(threading.local):
    current: Optional[IOContext] = None


_STATE = _ContextState()


def current_io_context() -> Optional[IOContext]:
    """The I/O context installed on this thread, if any."""
    return _STATE.current


@contextmanager
def io_context(ctx: IOContext) -> Iterator[IOContext]:
    """Install ``ctx`` as the thread's I/O context for the scope."""
    previous = _STATE.current
    _STATE.current = ctx
    try:
        yield ctx
    finally:
        _STATE.current = previous


# --------------------------------------------------------------------------
# SQ/CQ backend
# --------------------------------------------------------------------------


class _CQE:
    """One completion-queue entry: a submitted request plus its outcome."""

    __slots__ = ("request", "result", "error")

    def __init__(
        self, request: IOJob, result: object, error: Optional[BaseException]
    ) -> None:
        self.request = request
        self.result = result
        self.error = error


class UringBackend(IOBackend):
    """Submission/completion-queue lane execution over pre-opened FDs.

    The dequeuing lane worker is the submission side: it claims the
    batch, runs each member's body (bounded retries included) with an
    :class:`IOContext` installed — so the stores take their vectored,
    FD-table paths — and pushes the whole batch to the completion
    queue.  The **reaper** thread is the completion side: it applies
    each outcome (terminal state, done callbacks — which release leases,
    decrement lane pending, refund tenant quota — health books) in
    submission order and stamps the reap lag onto the channel windows.

    Splitting the job's ``execute()`` into ``run_body``/``complete``
    preserves its exact semantics; everything the scheduler observes
    (books, health, lease reconciliation) is identical to the thread
    backend by construction — only the syscall pattern and the
    completion thread differ.

    Args:
        direct: open write descriptors with ``O_DIRECT`` where the
            filesystem allows (alignment via ``aligned=True`` arena
            leases; refused files fall back to buffered, counted).
        max_open_fds: LRU bound on the FD table.
        arena: staging-lease arena for O_DIRECT writes (and, in the
            GDS-sim subclass, bounce staging).  Created on demand when
            ``direct`` and omitted.
    """

    name = "uring"

    def __init__(
        self,
        direct: bool = False,
        max_open_fds: int = 128,
        arena: Optional[BufferArena] = None,
    ) -> None:
        super().__init__()
        self.fds = FDTable(max_open=max_open_fds, direct=direct)
        if arena is None and direct:
            arena = BufferArena()
        self.arena = arena
        self._cq: Deque[Tuple[str, List[_CQE]]] = deque()
        self._cq_cond = threading.Condition()
        self._stop = False
        self._reaper: Optional[threading.Thread] = None

    # ---------------------------------------------------------------- wiring
    def bind(self, scheduler) -> None:
        super().bind(scheduler)
        if self._reaper is None:
            self._reaper = threading.Thread(
                target=self._reap_loop, name=f"{self.name}-reaper", daemon=True
            )
            self._reaper.start()

    def _context_for(self, lane: str) -> IOContext:
        return IOContext(fds=self.fds, lane=lane, backend=self, arena=self.arena)

    def _note_bounce(self, lane: str, skipped: bool) -> None:
        with self._stats_lock:
            stats = self._lane(lane)
            if skipped:
                stats.bounce_copies_skipped += 1
            else:
                stats.bounce_copies += 1

    def _note_direct_fallback(self, lane: str) -> None:
        with self._stats_lock:
            self._lane(lane).direct_fallbacks += 1

    # ------------------------------------------------------------ submission
    def run_batch(self, lane: str, batch: List[IOJob]) -> None:
        sched = self.scheduler
        ctx = self._context_for(lane)
        cqes: List[_CQE] = []
        claimed = 0
        batch_syscalls = 0
        for request in batch:
            if not request.claim():
                # Lost to cancel(); the winner owns all bookkeeping.
                continue
            claimed += 1
            if claimed > 1:
                request.coalesced = True
            sched.begin_request(request)
            tape = syscall_tape()
            try:
                with tape, tenant_scope(request.tenant), io_context(ctx):
                    result, error = request.run_body()
            except BaseException as exc:  # belt: run_body must not raise
                result, error = None, exc
            batch_syscalls += tape.count
            # The I/O is done now — finished_at marks device completion,
            # the reaper's stamp on top of it is pure completion-path
            # latency (reap lag).
            request.finished_at = time.monotonic()
            cqes.append(_CQE(request, result, error))
        if cqes:
            with self._cq_cond:
                self._cq.append((lane, cqes))
                self._cq_cond.notify()
        with self._stats_lock:
            stats = self._lane(lane)
            stats.syscalls += batch_syscalls
            if claimed:
                stats.batches += 1
            if claimed > 1:
                stats.batched_requests += claimed

    # ------------------------------------------------------------ completion
    def _reap_loop(self) -> None:
        while True:
            with self._cq_cond:
                while not self._cq and not self._stop:
                    self._cq_cond.wait()
                if not self._cq and self._stop:
                    return
                lane, cqes = self._cq.popleft()
            try:
                self._reap(lane, cqes)
            except Exception:  # pragma: no cover - reaper must survive
                logger.exception("reaper failed on a %s batch", lane)
                for cqe in cqes:
                    if not cqe.request.done_event.is_set():
                        self.scheduler.finish_request(cqe.request)

    def _reap(self, lane: str, cqes: List[_CQE]) -> None:
        sched = self.scheduler
        done_members = 0
        trailing_done_bytes = 0
        lag_total = 0.0
        for cqe in cqes:
            request = cqe.request
            lag = max(0.0, time.monotonic() - request.finished_at)
            lag_total += lag
            try:
                # The done callbacks fire here — inside the request's
                # tenant scope, like the thread backend's execute(), so
                # refunds/arena attribution land on the right tenant.
                with tenant_scope(request.tenant):
                    request.complete(cqe.result, cqe.error)
            except Exception:
                logger.exception(
                    "request %s raised outside its body (callback failure); "
                    "reaper continues",
                    request.label,
                )
            finally:
                sched.note_reap_lag(request, lag)
                sched.finish_request(request)
            if request.state is JobState.DONE:
                done_members += 1
                if done_members > 1:
                    trailing_done_bytes += request.nbytes
            sched.notify_done(request)
        sched.book_coalesced(done_members, trailing_done_bytes)
        with self._stats_lock:
            stats = self._lane(lane)
            stats.reaped += len(cqes)
            stats.reap_lag_s += lag_total

    def shutdown(self) -> None:
        """Stop the reaper and close every cached descriptor (idempotent)."""
        with self._cq_cond:
            already = self._stop
            self._stop = True
            self._cq_cond.notify_all()
        if self._reaper is not None:
            self._reaper.join(timeout=5)
            self._reaper = None
        if not already:
            self.fds.close_all()

    close = shutdown

    def __enter__(self) -> "UringBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()


class GDSSimBackend(UringBackend):
    """The uring backend plus simulated GPUDirect-Storage routing.

    Registered storages (the CUDA-malloc-hook model —
    :meth:`~repro.core.offloader.SSDOffloader.register_tensor` registers
    every offloaded tensor's storage at pack time) are written straight
    from their payload array: zero host copies, booked as
    ``bounce_copies_skipped``.  Unregistered arrays are staged through a
    host bounce buffer first (one arena lease + one copy, booked as
    ``bounce_copies``), like real GDS falling back for buffers the
    driver never registered.  Reads are already direct-to-destination
    either way.  The routing applies wherever a
    :class:`~repro.io.filestore.TensorFileStore` write runs under this
    backend; the chunk store's staging buffer *is* a host bounce by
    design, so chunked configurations route through it unchanged.
    """

    name = "gds-sim"

    def __init__(
        self,
        registry: Optional[GDSRegistry] = None,
        direct: bool = False,
        max_open_fds: int = 128,
        arena: Optional[BufferArena] = None,
    ) -> None:
        super().__init__(direct=direct, max_open_fds=max_open_fds, arena=arena)
        if self.arena is None:
            # Bounce staging for unregistered storages.
            self.arena = BufferArena()
        self.registry = registry if registry is not None else GDSRegistry()

    def _context_for(self, lane: str) -> IOContext:
        ctx = super()._context_for(lane)
        ctx.gds = self.registry
        return ctx
