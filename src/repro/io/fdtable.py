"""Positioned I/O over store-owned descriptors and recycled files.

The one path from a store operation to the kernel: every file write is
one ``os.pwritev`` and every read one ``os.preadv`` (:func:`pwritev_full`
/ :func:`preadv_full`, which resume short transfers) over a descriptor
borrowed from the store's own :class:`FDTable` — pre-opened buffered
read-write descriptors, one per file whichever way it is used, keyed by
path (io_uring's fixed-file table), LRU-bounded — into a file its
:class:`FilePool` recycles, so a steady store opens, closes and unlinks
nothing.

Descriptors are **borrowed, not handed out**: a store takes one under
the table's lock, in the same acquisition that finds the tensor's file.
A descriptor evicted (LRU) or forgotten (:meth:`FDTable.close_all`)
while borrowed is closed only when its last borrower returns: closed
eagerly, its number could go to the next ``open`` and a resumed short
transfer land in *another tensor's file*.  For the same reason a pool
never recycles a file a transfer still runs on (:meth:`FDTable.busy`).
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.io.aio import count_syscalls

__all__ = ["FDTable", "FilePool", "MAX_OPEN_FDS", "preadv_full", "pwritev_full", "pwritev_over"]

#: Descriptors a store keeps open at once.  Well inside the default
#: 1024-fd soft limit even with a file store and a chunk store per
#: engine; an evicted path simply reopens on its next touch.
MAX_OPEN_FDS = 128


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


def pwritev_over(fd: int, buffers: Sequence, held: Optional[int]) -> int:
    """:func:`pwritev_full` from offset 0 into a recycled file that held
    ``held`` bytes (None: unknown), then ``ftruncate`` the stale tail a
    longer file would keep.  Returns the bytes written."""
    total = pwritev_full(fd, buffers)
    if held is None or held > total:
        os.ftruncate(fd, total)
        count_syscalls(1)
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
    __slots__ = ("fd", "path", "borrowers")

    def __init__(self, fd: int, path: str) -> None:
        self.fd = fd
        self.path = path
        #: Transfers currently running on ``fd``.
        self.borrowers = 0


def _close_fd(fd: int) -> None:
    try:
        os.close(fd)
    except OSError:  # pragma: no cover - close failures are benign
        pass


def _close_dropped(entries: "OrderedDict[str, _FDEntry]") -> None:
    """Finaliser of a table nobody closed.  A borrower holds a reference
    to its table, so none can be mid-transfer here."""
    for entry in entries.values():
        _close_fd(entry.fd)
    entries.clear()


class FDTable:
    """A store's pre-opened file descriptors, keyed by path.

    :meth:`take`, :meth:`give_back` and :meth:`busy` run under ``lock``,
    which the owning store also uses as its own.  The LRU bound
    (``max_open``) keeps the table inside the process's fd budget;
    stores build theirs with :data:`MAX_OPEN_FDS`, the argument exists
    for the eviction tests.  A table dropped without :meth:`close_all`
    closes its descriptors when it is collected.
    """

    def __init__(self, max_open: int = MAX_OPEN_FDS) -> None:
        if max_open < 1:
            raise ValueError(f"max_open must be >= 1: {max_open}")
        self.max_open = max_open
        self.lock = threading.Lock()
        self._entries: "OrderedDict[str, _FDEntry]" = OrderedDict()
        #: Entries dropped while borrowed: the last borrower closes them.
        self._retired: List[_FDEntry] = []
        self.opens = 0
        self.closes = 0
        weakref.finalize(self, _close_dropped, self._entries)

    # ------------------------------------------------------------- internals
    def _open_locked(self, path: str, create: bool) -> _FDEntry:
        fd = os.open(path, os.O_RDWR | os.O_CREAT if create else os.O_RDWR, 0o644)
        count_syscalls(1)
        self.opens += 1
        entry = self._entries[path] = _FDEntry(fd, path)
        while len(self._entries) > self.max_open:
            self._retire_locked(self._entries.popitem(last=False)[1])
        return entry

    def _retire_locked(self, entry: _FDEntry) -> None:
        """Close a descriptor the table no longer maps — now, or when
        its last borrower returns."""
        if entry.borrowers:
            if entry not in self._retired:
                self._retired.append(entry)
            return
        _close_fd(entry.fd)
        count_syscalls(1)
        self.closes += 1

    # ------------------------------------------------- borrowing (under lock)
    def take(self, path: str, create: bool = True) -> _FDEntry:
        """Borrow ``path``'s descriptor (buffered, read-write; one per
        file serves its writes and its loads); the caller holds ``lock``.

        No ``O_TRUNC``: the store decides when a recycled file is
        truncated.  Without ``create`` a missing file raises
        :class:`FileNotFoundError`.
        """
        entry = self._entries.get(path)
        if entry is None:
            entry = self._open_locked(path, create)
        else:
            self._entries.move_to_end(path)
        entry.borrowers += 1
        return entry

    def give_back(self, entry: _FDEntry) -> None:
        """End a borrow from :meth:`take`; the caller holds ``lock``."""
        entry.borrowers -= 1
        if not entry.borrowers and entry in self._retired:
            self._retired.remove(entry)
            self._retire_locked(entry)

    def busy(self, path: str) -> bool:
        """Whether a transfer still runs on ``path`` (through its current
        descriptor or a retired one); the caller holds ``lock``."""
        entry = self._entries.get(path)
        if entry is not None and entry.borrowers:
            return True
        return any(retired.path == path for retired in self._retired)

    def close_all(self) -> None:
        """Forget every descriptor; the table stays usable."""
        with self.lock:
            while self._entries:
                self._retire_locked(self._entries.popitem()[1])

    def __len__(self) -> int:
        with self.lock:
            return len(self._entries)


# --------------------------------------------------------------------------
# Recycled files
# --------------------------------------------------------------------------


class FilePool:
    """The files a store writes over in place, in one directory.

    ``sizes`` holds every file the pool has named (bytes on disk, None
    after a failed write) until :meth:`drain`; a released file also waits
    in a free list of its size for :meth:`take`.  Nothing is deleted
    before :meth:`drain`, so the page cache of one write stays resident
    for the next.  Runs under the lock of the store's :class:`FDTable`.
    """

    def __init__(self, fds: FDTable, directory: str, prefix: str) -> None:
        self.fds = fds
        self._prefix = f"{directory}/{prefix}"
        self._named = 0
        self.sizes: Dict[str, Optional[int]] = {}
        self._free: Dict[Optional[int], List[str]] = {}

    def take(self, size: int) -> Tuple[str, Optional[int]]:
        """A file for a ``size``-byte write: a free one of that size,
        else any free one, else a new name — never a file a transfer
        still runs on (:meth:`FDTable.busy`), so a late reader finds the
        bytes it looked up.  Returns the path and the bytes it held (for
        :func:`pwritev_over`; None for a new name, which an earlier run
        may have left longer); a failed write must ``release(path, torn=True)``."""
        exact = self._free.get(size)
        if exact and not self.fds.busy(exact[-1]):
            path = exact.pop()
        else:
            path = self._take_any()
        held = self.sizes.get(path)
        self.sizes[path] = size
        return path, held

    def _take_any(self) -> str:
        for paths in self._free.values():
            for i, path in enumerate(paths):
                if not self.fds.busy(path):
                    return paths.pop(i)
        self._named += 1
        return f"{self._prefix}{self._named - 1}.bin"

    def release(self, path: str, torn: bool = False) -> None:
        """``path`` holds nothing live (``torn``: nothing known either):
        free it for the next :meth:`take`."""
        if torn:
            self.sizes[path] = None
        self._free.setdefault(self.sizes[path], []).append(path)

    def drain(self) -> List[str]:
        """Forget every file and return their paths, for the store to unlink."""
        paths = list(self.sizes)
        self.sizes.clear()
        self._free.clear()
        return paths
