"""Chunk-coalescing tensor persistence: batched SSD I/O.

The per-tensor :class:`~repro.io.filestore.TensorFileStore` issues one
file write per activation.  At quickstart scale that is dozens of tiny
writes per step; on a real NVMe array the small-write penalty (FTL
write-amplification, per-request latency) dominates long before the
sequential bandwidth ceiling is reached.  PatrickStar-style chunk-based
memory managers solve this by packing tensors into fixed-size chunks and
moving whole chunks between tiers.

:class:`ChunkedTensorStore` applies the same idea to the SSD path:

- ``write`` appends the tensor's bytes to the current *open chunk* (an
  in-memory buffer); nothing touches the filesystem until the chunk
  reaches ``chunk_bytes``, at which point the whole chunk is flushed as
  **one** sequential file write;
- ``read`` serves tensors still in the open chunk straight from memory
  (the chunk-level analogue of data forwarding) and otherwise does one
  ranged read (seek + read) into the flushed chunk file;
- every chunk keeps a **refcount** of the live tensors inside it;
  ``delete`` decrements it, and when a chunk's refcount hits zero its
  file is unlinked — space is reclaimed at chunk granularity, like the
  paper's per-step file deletion but amortized.

The store intentionally mirrors the :class:`TensorFileStore` API
(``write`` / ``read`` / ``delete`` / ``clear`` / ``path_for`` + stats)
so :class:`~repro.core.offloader.SSDOffloader` can swap it in behind an
unchanged :class:`~repro.core.tensor_cache.TensorCache`.

**One positioned-I/O path:** ``write`` appends the tensor's contiguous
``memoryview`` straight into the open-chunk staging buffer (no
``tobytes()`` temporary) with the index crc32 computed over the same
view.  The store owns an LRU-bounded :class:`~repro.io.fdtable.FDTable`
for its chunk files and every transfer borrows a descriptor from it: a
flush (and a compaction rewrite) is one ``pwritev`` of the staging
``bytearray`` — no ``bytes`` payload temporary — and a ranged read one
``preadv`` at the tensor's chunk offset straight into the destination
array; open-chunk reads copy once out of a ``memoryview`` window over
the staging buffer.  Chunk descriptors are always buffered (never
``O_DIRECT``): the staging buffer is ordinary unaligned host memory and
a flush is already one large sequential write.  ``copy_stats``
(:class:`~repro.io.buffers.CopyCounter`) counts the copies made and the
allocations avoided; ``write_syscalls``/``read_syscalls`` are measured
by the syscall tape.

**Durability + endurance (service mode):** ``durable=True`` journals
every index mutation — chunk flushes, deletes, clears, compactions —
through a crc-framed append-only manifest
(:mod:`repro.io.manifest`), and a fresh store constructed on the same
root **replays** it: every live tensor reads back bit-exact, the
``bytes_written`` / ``reclaimed_bytes`` / ``dead_bytes`` books are
restored exactly, chunk ids continue monotonically (no path reuse, so a
cached descriptor can never alias a new chunk), and a torn final
journal record — the crash signature — is skipped, not fatal.  On top
of the journal sit the week-long-run endurance features:
:meth:`compact` rewrites chunks whose dead-byte ratio crossed a
threshold (live tensors migrate to a fresh chunk, the hole-ridden file
is unlinked and its descriptor forgotten), and ``roots``
spreads chunk placement across several store directories by cumulative
bytes written (write-leveling).
"""

from __future__ import annotations

import math
import os
import re
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.io.aio import count_syscalls, syscall_tape
from repro.io.buffers import CopyCounter
from repro.io.errors import IntegrityError, is_enospc
from repro.io.fdtable import FDTable, preadv_full, pwritev_full
from repro.io.filestore import StoreTraffic, _TrafficBooks, contiguous_view, pace
from repro.io.manifest import JournalWriter, read_journal

#: Default chunk size: 4 MiB — large enough that a P5800X-class SSD sees
#: near-sequential bandwidth, small enough to bound the open-chunk buffer.
DEFAULT_CHUNK_BYTES = 4 * 2**20

#: Manifest file name inside the primary root (``durable=True``).
MANIFEST_NAME = "manifest.log"

#: Default dead-byte ratio at which :meth:`ChunkedTensorStore.compact`
#: rewrites a chunk.  Half-dead is the classic LFS cleaning point:
#: rewriting earlier amplifies writes for little space, later lets
#: garbage pile up against the free-space (and SSD-endurance) budget.
DEFAULT_COMPACT_DEAD_RATIO = 0.5

_CHUNK_FILE_RE = re.compile(r"chunk(\d+)\.bin$")


@dataclass
class _ChunkMeta:
    """Bookkeeping for one flushed chunk file."""

    chunk_id: int
    total_bytes: int
    refcount: int
    live_bytes: int


@dataclass
class _TensorLoc:
    """Where one tensor's bytes live: (chunk, byte offset, length), plus
    the crc32 of those bytes at write time.  The checksum lives in the
    index rather than on disk so ranged reads stay exactly payload-sized
    (framing every tensor inside a chunk would shift offsets and tax the
    4-KiB-alignment story); every ``read`` verifies length and crc32
    before returning and raises :class:`IntegrityError` on mismatch."""

    chunk_id: int
    offset: int
    nbytes: int
    crc32: int = 0


class ChunkedTensorStore(_TrafficBooks):
    """Packs tensors into fixed-size chunk files written in one I/O each.

    Args:
        root: directory for chunk files (created if missing).
        chunk_bytes: flush threshold for the open chunk.  A tensor larger
            than this triggers an immediate flush: the open chunk —
            including that tensor and any smaller ones buffered before
            it — is written as one oversized file in a single I/O.
        throttle_bytes_per_s: optional bandwidth cap, matching
            :class:`TensorFileStore` semantics (applied to chunk flushes
            and ranged reads).
        durable: journal every index mutation to ``root/manifest.log``
            and replay an existing manifest on construction — the crash
            -recovery substrate of the service mode.  A durable store's
            :meth:`close` keeps the chunk files; only :meth:`clear`
            destroys data.
        roots: additional store directories for write-leveling; each
            flushed chunk lands in the directory with the least
            cumulative bytes written (the primary ``root`` is index 0
            and always holds the manifest).
    """

    def __init__(
        self,
        root: Union[str, Path],
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        throttle_bytes_per_s: Optional[float] = None,
        durable: bool = False,
        roots: Optional[Sequence[Union[str, Path]]] = None,
    ) -> None:
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive: {chunk_bytes}")
        if throttle_bytes_per_s is not None and throttle_bytes_per_s <= 0:
            raise ValueError(f"throttle must be positive: {throttle_bytes_per_s}")
        self.root = Path(root)
        self.roots: List[Path] = [self.root]
        for extra in roots or ():
            extra = Path(extra)
            if extra not in self.roots:
                self.roots.append(extra)
        for directory in self.roots:
            directory.mkdir(parents=True, exist_ok=True)
        self._root_dirs = [str(directory) for directory in self.roots]
        self.chunk_bytes = chunk_bytes
        self.throttle_bytes_per_s = throttle_bytes_per_s
        self.durable = durable
        self.copy_stats = CopyCounter()
        #: Descriptors of this store's chunk files; every unlink path
        #: (refcount-zero reclaim, :meth:`clear`, :meth:`compact`)
        #: forgets the chunk's entry so an open descriptor can never
        #: outlive the unlink and serve a deleted file's inode.
        self.fds = FDTable()
        #: Injectable per-root failure seam: ``fault_gate(root_index,
        #: nbytes)`` runs before every physical chunk write and may
        #: raise (the chaos harness injects per-root ``ENOSPC`` here).
        #: ``None`` disables it — zero cost on the production path.
        self.fault_gate = None
        #: Root indices that returned ``ENOSPC``: write-leveling skips
        #: them until compaction/clear frees space.  Guarded by _lock.
        self._full_roots: set = set()
        #: ENOSPC write failures absorbed by re-routing to another root.
        self.enospc_root_skips = 0
        #: Set when an ``ENOSPC`` was absorbed — the engine's GC tick
        #: consumes it to schedule an immediate compaction.
        self._compaction_hint = False

        self._lock = threading.Lock()
        self._next_chunk_id = 0
        self._open_buf = bytearray()
        self._open_entries: Dict[str, _TensorLoc] = {}
        self._chunks: Dict[int, _ChunkMeta] = {}
        self._index: Dict[str, _TensorLoc] = {}
        #: chunk_id -> index into ``roots`` (write-leveling placement),
        #: and the chunk file's path: composed once, when the chunk is
        #: placed (:meth:`_place_chunk_locked`).
        self._chunk_root: Dict[int, int] = {}
        self._chunk_paths: Dict[int, str] = {}
        #: Cumulative bytes ever written per root — the write-leveling
        #: criterion; survives replay so wear stays balanced for life.
        self._root_bytes: List[int] = [0] * len(self.roots)

        # Books, written under the lock; each reads as one int.
        self._traffic = StoreTraffic()
        #: Bytes of chunk files unlinked after their refcount hit zero.
        self.reclaimed_bytes = 0
        self._open_dead_bytes = 0
        #: :meth:`compact` over this store's life: chunks rewritten, live
        #: bytes migrated into fresh chunks (GC's write amplification) and
        #: dead (hole) bytes freed, net of the rewrite.
        self.gc_runs = 0
        self.gc_bytes_rewritten = 0
        self.gc_reclaimed_dead_bytes = 0
        self._closed = False
        self._manifest_records_replayed = 0
        self._replay_was_torn = False

        self._journal: Optional[JournalWriter] = None
        if durable:
            self._replay_manifest()
            self._journal = JournalWriter(self.manifest_path)
        self._open_chunk_locked()

    # ------------------------------------------------------------- durability
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def persistent(self) -> bool:
        """Whether this store's contents outlive the object (durable)."""
        return self.durable

    def _alloc_chunk_id_locked(self) -> int:
        chunk_id = self._next_chunk_id
        self._next_chunk_id += 1
        return chunk_id

    def _place_chunk_locked(self, chunk_id: int, root_index: int) -> None:
        self._chunk_root[chunk_id] = root_index
        self._chunk_paths[chunk_id] = f"{self._root_dirs[root_index]}/chunk{chunk_id}.bin"

    def _forget_chunk_locked(self, chunk_id: int) -> None:
        self._chunk_root.pop(chunk_id, None)
        self._chunk_paths.pop(chunk_id, None)

    def _open_chunk_locked(self) -> None:
        """A fresh open chunk.  Its write-leveling placement is decided
        now (so path_for is stable), not when it flushes."""
        self._open_id = self._alloc_chunk_id_locked()
        self._place_chunk_locked(self._open_id, self._pick_root_locked())

    def _journal_append(self, record: Dict[str, object]) -> None:
        # Skipped once closed: the only post-close mutation is a cleanup
        # clear(), whose file unlinks the next replay re-derives anyway.
        if self._journal is not None and not self._journal.closed:
            self._journal.append(record)

    def _replay_manifest(self) -> None:
        """Rebuild the index, chunk metadata and books from the journal.

        Applied record by record, so the in-memory state lands exactly
        where the crashed instance's flushed state was: deletes
        decrement replayed refcounts, refcount-zero chunks are reclaimed
        (their files unlinked if the crash beat the original unlink),
        and ``clear``/``compact`` records replay their book movements.
        Orphan chunk files — written by a flush whose journal record
        never landed — are swept, so a restarted id can never read a
        ghost's bytes.  A torn final record is skipped (``
        replay_was_torn``), never fatal.
        """
        records, torn = read_journal(self.manifest_path)
        self._replay_was_torn = torn
        self._manifest_records_replayed = len(records)
        max_id = -1
        for record in records:
            op = record.get("op")
            if op == "flush" or op == "compact":
                chunk_id = int(record["chunk"])
                root = int(record.get("root", 0))
                if root >= len(self.roots):
                    root = 0  # a leveling root was dropped; fall back
                entries = record["entries"]
                total = int(record["total"])
                max_id = max(max_id, chunk_id)
                live = 0
                for tid, offset, nbytes, crc in entries:
                    self._delete_replayed(tid)  # overwrite drops the old copy
                    self._index[tid] = _TensorLoc(
                        chunk_id=chunk_id,
                        offset=int(offset),
                        nbytes=int(nbytes),
                        crc32=int(crc),
                    )
                    live += int(nbytes)
                if entries:
                    # A compact whose live set emptied writes no chunk.
                    self._place_chunk_locked(chunk_id, root)
                    self._chunks[chunk_id] = _ChunkMeta(
                        chunk_id=chunk_id,
                        total_bytes=total,
                        refcount=len(entries),
                        live_bytes=live,
                    )
                    self._traffic.bytes_written += total if op == "flush" else live
                    self._traffic.write_count += 1
                    self._root_bytes[root] += total
                if op == "compact":
                    victim = int(record["victim"])
                    max_id = max(max_id, victim)
                    self._reclaim_replayed(victim)
                    self.gc_runs += 1
                    self.gc_bytes_rewritten += live
                    self.gc_reclaimed_dead_bytes += int(record["dead"])
            elif op == "delete":
                self._delete_replayed(str(record["tid"]))
            elif op == "clear":
                for chunk_id in list(self._chunks):
                    self._reclaim_replayed(chunk_id)
                self._index = {}
            # Unknown ops from a newer writer are skipped, not fatal.
        for chunk_id in self._chunks:
            max_id = max(max_id, chunk_id)
        self._next_chunk_id = max_id + 1
        self._sweep_orphans()

    def _delete_replayed(self, tensor_id: str) -> None:
        loc = self._index.pop(tensor_id, None)
        if loc is None:
            return
        meta = self._chunks.get(loc.chunk_id)
        if meta is None:
            return
        meta.refcount -= 1
        meta.live_bytes -= loc.nbytes
        if meta.refcount <= 0:
            self._reclaim_replayed(meta.chunk_id)

    def _reclaim_replayed(self, chunk_id: int) -> None:
        meta = self._chunks.pop(chunk_id, None)
        if meta is None:
            return
        # The crashed instance may have died between journaling the
        # delete and unlinking the file: finish the job here.
        try:
            os.unlink(self._chunk_path(chunk_id))
        except FileNotFoundError:
            pass
        self.reclaimed_bytes += meta.total_bytes

    def _sweep_orphans(self) -> None:
        """Unlink chunk files the manifest never acknowledged.

        A crash between a chunk-file write and its journal append leaves
        a file with no record; its id will be reissued (the allocator
        only counts journaled ids), so the stale bytes must go before a
        new chunk — or a cached descriptor — can alias them.
        """
        for directory in self.roots:
            try:
                names = os.listdir(directory)
            except FileNotFoundError:  # pragma: no cover - root vanished
                continue
            for name in names:
                match = _CHUNK_FILE_RE.fullmatch(name)
                if match is None:
                    continue
                if int(match.group(1)) not in self._chunks:
                    try:
                        (directory / name).unlink()
                    except FileNotFoundError:  # pragma: no cover - race
                        pass

    # ------------------------------------------------------------------ stats
    @property
    def dead_bytes(self) -> int:
        """Bytes still occupying storage whose tensors were deleted —
        holes inside live chunk files plus holes in the open buffer.
        Chunk-granularity reclaim trades this garbage for the write
        batching; a whole chunk's worth is recovered at refcount zero."""
        with self._lock:
            flushed_holes = sum(
                meta.total_bytes - meta.live_bytes for meta in self._chunks.values()
            )
            return flushed_holes + self._open_dead_bytes

    @property
    def root_bytes_written(self) -> Tuple[int, ...]:
        """Cumulative bytes written per store root (write-leveling books)."""
        with self._lock:
            return tuple(self._root_bytes)

    @property
    def full_roots(self) -> Tuple[int, ...]:
        """Root indices currently excluded from placement (device full)."""
        with self._lock:
            return tuple(sorted(self._full_roots))

    def consume_compaction_hint(self) -> bool:
        """Return (and clear) the "a root filled up, compact me" flag.

        The housekeeping loop polls this so an ENOSPC event triggers a
        GC pass promptly instead of waiting for the cadence timer.
        """
        with self._lock:
            hint = self._compaction_hint
            self._compaction_hint = False
            return hint

    @property
    def manifest_records_replayed(self) -> int:
        """Journal records applied when this instance was constructed."""
        return self._manifest_records_replayed

    @property
    def replay_was_torn(self) -> bool:
        """Whether replay hit (and skipped) a torn final journal record."""
        return self._replay_was_torn

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def num_chunks(self) -> int:
        """Flushed chunks currently on disk."""
        with self._lock:
            return len(self._chunks)

    def tensor_ids(self) -> Tuple[str, ...]:
        """Every live tensor id (flushed + open chunk) — the surface a
        restarted tiered engine rehydrates its tier map from."""
        with self._lock:
            return tuple(self._index) + tuple(self._open_entries)

    @property
    def open_chunk_bytes(self) -> int:
        with self._lock:
            return len(self._open_buf)

    def reset_stats(self) -> None:
        with self._lock:
            self._traffic = StoreTraffic()
            self.reclaimed_bytes = 0

    # ------------------------------------------------------------------- I/O
    def _chunk_path(self, chunk_id: int) -> str:
        # An unplaced id (a replayed victim nobody wrote here) is root 0's.
        return self._chunk_paths.get(chunk_id) or f"{self._root_dirs[0]}/chunk{chunk_id}.bin"

    def _pick_root_locked(self) -> int:
        """Write-leveling placement: the root with the least lifetime
        bytes written takes the next chunk (ties break to the lowest
        index, keeping the single-root case byte-identical).  Roots that
        returned ``ENOSPC`` are skipped while any other root remains —
        degraded-capacity leveling — and reconsidered only when every
        root is full (the caller's write then surfaces the error)."""
        candidates = [
            i for i in range(len(self.roots)) if i not in self._full_roots
        ]
        if not candidates:
            candidates = list(range(len(self.roots)))
        return min(candidates, key=lambda i: (self._root_bytes[i], i))

    def path_for(self, tensor_id: str) -> Path:
        """Chunk file holding (or destined to hold) ``tensor_id``."""
        with self._lock:
            loc = self._index.get(tensor_id) or self._open_entries.get(tensor_id)
            chunk_id = loc.chunk_id if loc is not None else self._open_id
            return Path(self._chunk_path(chunk_id))

    def _unlink_chunk(self, path: str) -> None:
        """Remove a chunk file, then forget its descriptor (that order:
        a read racing the unlink must not re-cache the dead inode)."""
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        self.fds.invalidate(path)

    def _flush_locked(self) -> Tuple[int, float]:
        """Write the open chunk as one file; caller holds the lock.

        The staging ``bytearray`` is handed to the kernel directly — no
        ``bytes(buf)`` payload temporary — and then dropped, so the
        chunk-sized allocation is paid once per chunk,
        not once per flush plus once per payload copy.

        Returns ``(bytes written, when the write started)``: the pacing
        debt, which the caller sleeps out (:func:`~repro.io.filestore.pace`)
        *after* releasing the lock — the modelled device is busy, the
        index is not.
        """
        if not self._open_entries:
            self._open_buf = bytearray()
            return 0, 0.0
        chunk_id = self._open_id
        nbytes = len(self._open_buf)
        start = time.monotonic()
        while True:
            root_index = self._chunk_root.get(chunk_id, 0)
            try:
                syscalls = self._write_chunk_locked(chunk_id)
                break
            except OSError as exc:
                if not is_enospc(exc):
                    raise
                # This root is full: remember it, steer write-leveling
                # to the remaining roots, and retry the same chunk on
                # the next-least-worn one.  Only when *every* root is
                # full does the error surface to the caller (who then
                # compacts / degrades to the CPU tier).
                self._full_roots.add(root_index)
                self.enospc_root_skips += 1
                self._compaction_hint = True
                if len(self._full_roots) >= len(self.roots):
                    raise
                self._place_chunk_locked(chunk_id, self._pick_root_locked())
        self._traffic.write_syscalls += syscalls
        self._chunks[chunk_id] = _ChunkMeta(
            chunk_id=chunk_id,
            total_bytes=nbytes,
            refcount=len(self._open_entries),
            live_bytes=sum(loc.nbytes for loc in self._open_entries.values()),
        )
        # Journal AFTER the file write: a record always names a real
        # file; a crash in between leaves an orphan the replay sweeps.
        self._journal_append(
            {
                "op": "flush",
                "chunk": chunk_id,
                "root": self._chunk_root.get(chunk_id, 0),
                "total": nbytes,
                "entries": [
                    [tid, loc.offset, loc.nbytes, loc.crc32]
                    for tid, loc in self._open_entries.items()
                ],
            }
        )
        self._index.update(self._open_entries)
        self._open_entries = {}
        self._open_buf = bytearray()
        self._open_dead_bytes = 0  # holes now accounted via chunk metadata
        self._root_bytes[self._chunk_root.get(chunk_id, 0)] += nbytes
        self._open_chunk_locked()
        self._traffic.bytes_written += nbytes
        self._traffic.write_count += 1
        return nbytes, start

    def _write_chunk_locked(self, chunk_id: int) -> int:
        """One physical write of the open chunk (the flush loop's
        retryable unit); returns the syscalls it cost.  The
        ``fault_gate`` seam fires first, so injected per-root failures
        surface exactly where a real full filesystem would."""
        if self.fault_gate is not None:
            self.fault_gate(self._chunk_root.get(chunk_id, 0), len(self._open_buf))
        syscalls = self._pwrite_chunk(chunk_id, self._open_buf)
        self.copy_stats.count_avoided(1)  # the bytes() payload temp
        return syscalls

    def _pwrite_chunk(self, chunk_id: int, buf: bytearray) -> int:
        """Write ``buf`` as chunk ``chunk_id``'s whole file in one
        ``pwritev``; returns the syscalls issued."""
        tape = syscall_tape()
        with tape, self.fds.borrow_write(self._chunk_path(chunk_id)) as (fd, _direct, cached):
            pwritev_full(fd, [buf])
            if cached:
                # Chunk ids are never reissued, so only a retried flush
                # can find its own torn first attempt here.
                os.ftruncate(fd, len(buf))
                count_syscalls(1)
        return tape.count

    def write(self, tensor_id: str, data: np.ndarray) -> None:
        """Append ``data`` to the open chunk; flush it when full.

        The tensor's bytes move exactly once — from its contiguous
        ``memoryview`` into the staging buffer — with the index crc32
        computed over the same view (no ``tobytes()`` temporary).  As with
        :meth:`TensorFileStore.write`, ``data`` must not mutate during
        the call: crc and staging append are two passes over the source.
        """
        contiguous, copied = contiguous_view(data)
        nbytes = contiguous.nbytes
        if copied:
            self.copy_stats.count_copy(nbytes)
        raw = memoryview(contiguous.reshape(-1)).cast("B")
        # The one staging append; avoided: the tobytes() temporary.
        self.copy_stats.count_copy(nbytes, avoided=1)
        crc = zlib.crc32(raw)
        flushed, start = 0, 0.0
        with self._lock:
            self._delete_locked(tensor_id)  # overwrite drops the old copy
            loc = _TensorLoc(
                chunk_id=self._open_id,
                offset=len(self._open_buf),
                nbytes=nbytes,
                crc32=crc,
            )
            self._open_buf.extend(raw)
            self._open_entries[tensor_id] = loc
            if len(self._open_buf) >= self.chunk_bytes:
                flushed, start = self._flush_locked()
        pace(self.throttle_bytes_per_s, flushed, start)

    def flush(self) -> None:
        """Force the partially-filled open chunk to disk (one write)."""
        with self._lock:
            flushed, start = self._flush_locked()
        pace(self.throttle_bytes_per_s, flushed, start)

    def read(self, tensor_id: str, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """Read a tensor back as a fresh array of ``shape``/``dtype``.

        Tensors still in the open chunk are served from memory without
        any file I/O — one copy out of a ``memoryview`` window over the
        staging buffer; flushed tensors cost one ``preadv`` at the
        tensor's chunk offset, straight into the destination array.
        Both validate the index-held length before touching payload
        bytes.
        """
        start = time.monotonic()
        dtype = np.dtype(dtype)
        expected = math.prod(shape) * dtype.itemsize
        with self._lock:
            open_loc = self._open_entries.get(tensor_id)
            if open_loc is not None:
                self._check_length(tensor_id, open_loc, expected)
                # The staging buffer mutates under this lock only; copy
                # out through a released-before-return window so the
                # bytearray is never left with a live buffer export (a
                # later extend() would raise BufferError on resize).
                with memoryview(self._open_buf) as staging:
                    window = staging[
                        open_loc.offset : open_loc.offset + open_loc.nbytes
                    ]
                    try:
                        self._verify(tensor_id, open_loc, window)
                        data = np.frombuffer(window, dtype=dtype).reshape(shape).copy()
                    finally:
                        window.release()
                self.copy_stats.count_copy(open_loc.nbytes, avoided=1)  # the bytes() slice temp
                return data
            loc = self._index.get(tensor_id)
            if loc is None:
                raise FileNotFoundError(f"no offloaded tensor {tensor_id!r} in chunk store")
            path = self._chunk_path(loc.chunk_id)
        self._check_length(tensor_id, loc, expected)
        flat = np.empty(expected // dtype.itemsize, dtype)
        view = memoryview(flat)
        tape = syscall_tape()
        with tape:
            try:
                with self.fds.borrow_read(path) as fd:
                    got = preadv_full(fd, [view], offset=loc.offset)
            except FileNotFoundError:
                raise FileNotFoundError(
                    f"no offloaded tensor {tensor_id!r} in chunk store"
                ) from None
        if got != loc.nbytes:
            # The destination view is full-size whatever the file holds,
            # so the short-read case needs its own length check; the
            # crc (and its message) stays centralized in _verify.
            raise IntegrityError(
                f"torn write: tensor {tensor_id!r} expected {loc.nbytes} bytes "
                f"in chunk {loc.chunk_id}, read {got}"
            )
        self._verify(tensor_id, loc, view)
        data = flat.reshape(shape)
        self.copy_stats.count_copy(loc.nbytes, avoided=1)  # the ranged-read bytes temp
        pace(self.throttle_bytes_per_s, loc.nbytes, start)
        with self._lock:
            self._traffic.bytes_read += loc.nbytes
            self._traffic.read_count += 1
            self._traffic.read_syscalls += tape.count
        return data

    @staticmethod
    def _check_length(tensor_id: str, loc: _TensorLoc, expected: int) -> None:
        """Reject a size mismatch *before* any payload bytes move.

        The index is internally consistent here, so a mismatch is a
        deterministic caller shape/dtype bug — ``ValueError`` (fail
        fast, non-retryable); corruption keeps raising the retryable
        :class:`IntegrityError` from the crc/short-read checks.
        """
        if loc.nbytes != expected:
            raise ValueError(
                f"tensor {tensor_id!r} indexes {loc.nbytes} bytes "
                f"in chunk {loc.chunk_id}, caller expects {expected}"
            )

    @staticmethod
    def _verify(tensor_id: str, loc: _TensorLoc, raw) -> None:
        """Length + crc32 check of one tensor's bytes against its index
        entry; raises :class:`IntegrityError` on torn writes / bit-rot.
        ``raw`` is any C-contiguous buffer (bytes or memoryview)."""
        nbytes = raw.nbytes if isinstance(raw, memoryview) else len(raw)
        if nbytes != loc.nbytes:
            raise IntegrityError(
                f"torn write: tensor {tensor_id!r} expected {loc.nbytes} bytes "
                f"in chunk {loc.chunk_id}, read {nbytes}"
            )
        if zlib.crc32(raw) != loc.crc32:
            raise IntegrityError(
                f"checksum mismatch for tensor {tensor_id!r} in chunk "
                f"{loc.chunk_id}: bit-rot or torn write"
            )

    # --------------------------------------------------------------- reclaim
    def _delete_locked(self, tensor_id: str) -> None:
        open_loc = self._open_entries.pop(tensor_id, None)
        if open_loc is not None:
            self._open_dead_bytes += open_loc.nbytes
            if not self._open_entries:
                # Every tensor in the open chunk died before the flush:
                # drop the buffer, no write ever happens.  (No journal
                # record either — the open chunk never hit disk.)
                self._open_buf = bytearray()
                self._open_dead_bytes = 0
            return
        loc = self._index.pop(tensor_id, None)
        if loc is None:
            return
        self._journal_append({"op": "delete", "tid": tensor_id})
        meta = self._chunks.get(loc.chunk_id)
        if meta is None:
            return
        meta.refcount -= 1
        meta.live_bytes -= loc.nbytes
        if meta.refcount <= 0:
            self._unlink_chunk(self._chunk_path(meta.chunk_id))
            self.reclaimed_bytes += meta.total_bytes
            del self._chunks[meta.chunk_id]
            self._forget_chunk_locked(meta.chunk_id)

    def delete(self, tensor_id: str) -> None:
        """Drop one tensor; unlink its chunk once no live tensor remains."""
        with self._lock:
            self._delete_locked(tensor_id)

    def compact(
        self,
        max_dead_ratio: float = DEFAULT_COMPACT_DEAD_RATIO,
        max_chunks: Optional[int] = None,
    ) -> int:
        """Rewrite chunks whose dead-byte ratio crossed ``max_dead_ratio``.

        For each victim the live tensors are read back (crc-verified —
        GC doubles as a scrub), packed into a fresh chunk written in one
        I/O on the least-worn root, the index is repointed, the old file
        is unlinked and its descriptor forgotten, and a ``compact``
        journal record makes the move durable.  Returns the
        dead bytes reclaimed (0 when nothing crossed the threshold).

        Runs entirely under the store lock: reads and writes briefly
        queue behind it, which is the deliberate trade — the background
        GC must never race a ranged read against its own unlink.  The
        rewrite is charged to ``bytes_written``: that is GC write amplification, surfaced via
        :attr:`gc_bytes_rewritten` so the endurance budget sees it.
        """
        if not 0.0 < max_dead_ratio <= 1.0:
            raise ValueError(f"max_dead_ratio must be in (0, 1]: {max_dead_ratio}")
        reclaimed_dead = 0
        with self._lock:
            victims = [
                meta
                for meta in self._chunks.values()
                if meta.total_bytes > 0
                and meta.live_bytes < meta.total_bytes
                and (meta.total_bytes - meta.live_bytes) / meta.total_bytes
                >= max_dead_ratio
            ]
            victims.sort(key=lambda m: m.total_bytes - m.live_bytes, reverse=True)
            if max_chunks is not None:
                victims = victims[:max_chunks]
            for meta in victims:
                reclaimed_dead += self._compact_one_locked(meta)
            if reclaimed_dead > 0:
                # Space was reclaimed: give previously-full roots another
                # chance.  The next ENOSPC simply re-marks them.  Reclaimed
                # means closed: an unlinked file keeps its blocks while the
                # table holds its descriptor (FDTable.invalidate).
                self._full_roots.clear()
                self.fds.close_deleted()
        return reclaimed_dead

    def _compact_one_locked(self, meta: _ChunkMeta) -> int:
        """Migrate one chunk's live tensors to a fresh chunk; unlink it."""
        old_path = self._chunk_path(meta.chunk_id)
        live = [(tid, loc) for tid, loc in self._index.items() if loc.chunk_id == meta.chunk_id]
        live.sort(key=lambda item: item[1].offset)
        raw = memoryview(bytearray(meta.total_bytes))
        try:
            with self.fds.borrow_read(old_path) as fd:
                raw = raw[: preadv_full(fd, [raw])]  # a short file reads short
        except FileNotFoundError:
            raw = raw[:0]
        buf = bytearray()
        new_id = self._alloc_chunk_id_locked()
        moved: List[Tuple[str, _TensorLoc]] = []
        for tid, loc in live:
            window = raw[loc.offset : loc.offset + loc.nbytes]
            self._verify(tid, loc, window)  # GC doubles as a scrub
            moved.append(
                (
                    tid,
                    _TensorLoc(
                        chunk_id=new_id,
                        offset=len(buf),
                        nbytes=loc.nbytes,
                        crc32=loc.crc32,
                    ),
                )
            )
            buf.extend(window)
        nbytes = len(buf)
        root = self._pick_root_locked()
        self._place_chunk_locked(new_id, root)
        if moved:
            self._traffic.write_syscalls += self._pwrite_chunk(new_id, buf)
            self._chunks[new_id] = _ChunkMeta(
                chunk_id=new_id,
                total_bytes=nbytes,
                refcount=len(moved),
                live_bytes=nbytes,
            )
            self._traffic.bytes_written += nbytes
            self._traffic.write_count += 1
            self._root_bytes[root] += nbytes
            for tid, loc in moved:
                self._index[tid] = loc
        dead = meta.total_bytes - nbytes
        self._journal_append(
            {
                "op": "compact",
                "victim": meta.chunk_id,
                "chunk": new_id,
                "root": root,
                "total": nbytes,
                "dead": dead,
                "entries": [
                    [tid, loc.offset, loc.nbytes, loc.crc32] for tid, loc in moved
                ],
            }
        )
        self._unlink_chunk(old_path)
        del self._chunks[meta.chunk_id]
        self._forget_chunk_locked(meta.chunk_id)
        self.reclaimed_bytes += meta.total_bytes
        self.gc_runs += 1
        self.gc_bytes_rewritten += nbytes
        self.gc_reclaimed_dead_bytes += dead
        return dead

    def close(self) -> None:
        """Flush the open chunk, release the journal and the cached
        descriptors — keep the data.

        The durable counterpart of :meth:`clear`: every chunk file (and
        the manifest) stays on disk so a fresh store on the same root
        replays back to this exact state.  Idempotent; a non-durable
        store's close just flushes.
        """
        with self._lock:
            if self._closed:
                return
            flushed, start = self._flush_locked()
            self._closed = True
            if self._journal is not None:
                self._journal.sync()
                self._journal.close()
        self.fds.close_all()
        pace(self.throttle_bytes_per_s, flushed, start)

    def clear(self) -> None:
        """Remove every chunk file and reset the in-memory state.

        The destroyed chunks' bytes are booked as ``reclaimed_bytes``
        and the dead-byte holes they carried are zeroed — the explicit
        stats contract: after ``clear`` (and across a durable
        close/reopen) ``dead_bytes == 0`` and ``reclaimed_bytes`` equals
        every chunk byte ever unlinked, exactly.
        """
        with self._lock:
            self._open_buf = bytearray()
            self._open_entries = {}
            self._open_dead_bytes = 0
            self._index = {}
            chunk_ids = list(self._chunks)
            self.reclaimed_bytes += sum(
                meta.total_bytes for meta in self._chunks.values()
            )
            self._chunks = {}
            self._full_roots.clear()
            self._journal_append({"op": "clear"})
            paths = [self._chunk_path(chunk_id) for chunk_id in chunk_ids]
            for chunk_id in chunk_ids:
                self._forget_chunk_locked(chunk_id)
        for path in paths:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        self.fds.close_all()
