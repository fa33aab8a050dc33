"""Positioned I/O over store-owned descriptors.

The one path from a store operation to the kernel: every file write is
one ``os.pwritev`` and every read one ``os.preadv`` (:func:`pwritev_full`
/ :func:`preadv_full`, which resume short transfers) over a descriptor
borrowed from the store's own :class:`FDTable` — pre-opened descriptors
keyed by path (io_uring's fixed-file table), LRU-bounded, so the read
that follows a write skips the ``open``/``close`` pair.

Descriptors are **borrowed, not handed out**: :meth:`FDTable.borrow_write`
/ :meth:`FDTable.borrow_read` return context managers, and a descriptor that
is evicted (LRU) or invalidated (its file was deleted) while borrowed is
closed only when its last borrower returns.  Without that rule another
thread's eviction could close the fd mid-transfer, the kernel could hand
the same number to the next ``open``, and a resumed short transfer would
land in *another tensor's file*.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict, deque
from typing import Deque, List, Sequence

from repro.io.aio import count_syscalls

__all__ = ["FDTable", "MAX_OPEN_FDS", "preadv_full", "pwritev_full"]

#: Descriptors a store keeps open at once.  Well inside the default
#: 1024-fd soft limit even with a file store and a chunk store per
#: engine; an evicted path simply reopens on its next touch.
MAX_OPEN_FDS = 128

#: Deleted files' descriptors held open until the next create (:meth:`FDTable.invalidate`).
LIMBO_FDS = 32


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


def preadv_full(fd: int, buffers: Sequence, offset: int = 0, probe: int = 0) -> int:
    """Fill ``buffers`` from ``offset`` via ``os.preadv``; stops at EOF.

    Returns the total bytes read (callers use the shortfall — or the
    overshoot into a probe buffer — to detect torn/oversized files
    without a separate ``fstat``).  ``probe`` is how many trailing bytes
    of ``buffers`` are such a probe: a regular file returns
    ``min(asked, available)``, so a transfer short by exactly the probe
    has found EOF where the caller expected it and is not resumed only
    to be told so.  An oversized file still fills the probe; a torn one
    comes back shorter and resumes.
    """
    views = _flat_views(buffers)
    want = left = sum(view.nbytes for view in views)
    while left > probe:
        got = os.preadv(fd, views, offset)
        count_syscalls(1)
        if got == 0:  # EOF
            break
        left -= got
        offset += got
        _advance(views, got)
    return want - left


# --------------------------------------------------------------------------
# FD table
# --------------------------------------------------------------------------


class _FDEntry:
    __slots__ = ("fd", "direct", "borrowers", "retired")

    def __init__(self, fd: int, direct: bool) -> None:
        self.fd = fd
        self.direct = direct
        #: Transfers currently running on ``fd``.
        self.borrowers = 0
        #: Dropped from the table (evicted / invalidated) while borrowed:
        #: the last borrower to return closes it.
        self.retired = False


class _Borrow:
    """One borrowed descriptor (taken when built): ``with`` yields
    ``value`` and hands the descriptor back to its table on exit."""

    __slots__ = ("table", "entry", "value")

    def __init__(self, table: "FDTable", entry: _FDEntry, value) -> None:
        self.table = table
        self.entry = entry
        self.value = value

    def __enter__(self):
        return self.value

    def __exit__(self, *exc: object) -> None:
        self.table._return(self.entry)


def _close_fd(fd: int) -> None:
    try:
        os.close(fd)
    except OSError:  # pragma: no cover - close failures are benign
        pass


def _close_dropped(entries: "OrderedDict[str, _FDEntry]", limbo: "Deque[_FDEntry]") -> None:
    """Finaliser of a table nobody closed.  A borrower holds a reference
    to its table, so none can be mid-transfer here."""
    for entry in (*entries.values(), *limbo):
        _close_fd(entry.fd)
    entries.clear()


class FDTable:
    """A store's pre-opened file descriptors, keyed by path.

    The LRU bound (``max_open``) keeps the table inside the process's fd
    budget; stores build theirs with :data:`MAX_OPEN_FDS`, the argument
    exists for the eviction tests.  A table dropped without
    :meth:`close_all` closes its descriptors when it is collected.
    """

    def __init__(self, max_open: int = MAX_OPEN_FDS) -> None:
        if max_open < 1:
            raise ValueError(f"max_open must be >= 1: {max_open}")
        self.max_open = max_open
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _FDEntry]" = OrderedDict()
        self._limbo: Deque[_FDEntry] = deque()
        self.opens = 0
        self.closes = 0
        weakref.finalize(self, _close_dropped, self._entries, self._limbo)

    # ------------------------------------------------------------- internals
    def _open_locked(self, path: str, flags: int, direct: bool = False) -> _FDEntry:
        if flags & os.O_CREAT and self._limbo:
            self._retire_locked(self._limbo.popleft(), counted=False)
        fd = os.open(path, flags, 0o644)
        count_syscalls(1)
        self.opens += 1
        entry = self._entries[path] = _FDEntry(fd, direct)
        while len(self._entries) > self.max_open:
            _, evicted = self._entries.popitem(last=False)
            self._retire_locked(evicted)
        return entry

    def _retire_locked(self, entry: _FDEntry, counted: bool = True) -> None:
        """Close a descriptor the table no longer maps — now, or when
        its last borrower returns.  A deleted file's close belongs to its
        delete, not to the write it runs under: not ``counted`` there."""
        if entry.borrowers:
            entry.retired = True
            return
        _close_fd(entry.fd)
        count_syscalls(int(counted))
        self.closes += 1

    def _return(self, entry: _FDEntry) -> None:
        with self._lock:
            entry.borrowers -= 1
            if entry.retired:
                self._retire_locked(entry)

    # -------------------------------------------------------------- borrowing
    def borrow_write(self, path: str, direct: bool = False) -> _Borrow:
        """Borrow a descriptor for writing ``path``.

        Yields ``(fd, direct, cached)``: ``cached`` is whether the
        descriptor was reused (the caller must ``ftruncate`` after a
        reused write — a fresh descriptor opens with ``O_TRUNC``);
        ``direct`` whether it carries ``O_DIRECT``.  A fresh open asks
        for ``O_DIRECT`` when ``direct`` is set and falls back to a
        buffered descriptor when the filesystem refuses (common on
        tmpfs/overlayfs) — the caller sees ``direct=False, cached=False``.
        """
        with self._lock:
            entry = self._entries.get(path)
            cached = entry is not None
            if cached:
                self._entries.move_to_end(path)
            else:
                flags = os.O_RDWR | os.O_CREAT | os.O_TRUNC
                if direct:
                    try:
                        entry = self._open_locked(path, flags | os.O_DIRECT, True)
                    except OSError:
                        pass  # refused: per-file fallback to buffered
                if entry is None:
                    entry = self._open_locked(path, flags)
            entry.borrowers += 1
        return _Borrow(self, entry, (entry.fd, entry.direct, cached))

    def borrow_read(self, path: str) -> _Borrow:
        """Borrow a buffered (never ``O_DIRECT``) descriptor for ``path``.

        Loads land in caller-owned destination arrays whose alignment
        nobody guarantees, so a cached direct descriptor is replaced by
        a buffered one (docs/architecture.md §10).  Raises
        :class:`FileNotFoundError` when the path does not exist and no
        descriptor is cached.
        """
        with self._lock:
            entry = self._entries.get(path)
            if entry is not None and entry.direct:
                del self._entries[path]
                self._retire_locked(entry)
                entry = None
            if entry is None:
                entry = self._open_locked(path, os.O_RDWR)
            else:
                self._entries.move_to_end(path)
            entry.borrowers += 1
        return _Borrow(self, entry, entry.fd)

    # ------------------------------------------------------------ forgetting
    def invalidate(self, path: str) -> None:
        """Forget ``path``'s descriptor (its file was deleted).

        It is closed when the next file is created (or past
        :data:`LIMBO_FDS` of them, oldest first), not now: the last close
        frees the file's page-cache pages, and freed right before a write
        they are the pages that write gets.  Freed at delete time they
        idle, a hypervisor that reclaims idle guest memory takes them,
        and the next chunk write pays milliseconds per MiB to fault them
        back (docs/architecture.md section 10).
        """
        with self._lock:
            entry = self._entries.pop(path, None)
            if entry is not None:
                self._limbo.append(entry)
                if len(self._limbo) > LIMBO_FDS:
                    self._retire_locked(self._limbo.popleft())

    def close_all(self) -> None:
        """Forget every descriptor, deleted files' too (an open unlinked
        file keeps its blocks); the table stays usable."""
        with self._lock:
            while self._limbo:
                self._retire_locked(self._limbo.popleft())
            while self._entries:
                self._retire_locked(self._entries.popitem()[1])

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
