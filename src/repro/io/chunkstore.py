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
  space is reclaimed at chunk granularity: the file joins its root's
  free list, and the next chunk placed on that root rewrites it in
  place (``ftruncate`` only when it shrinks or is new) through the descriptor the
  store already holds — the paper's per-step file deletion, without the
  ``unlink`` and the next step's ``open``.

The store intentionally mirrors the :class:`TensorFileStore` API
(``write`` / ``read`` / ``delete`` / ``clear`` / ``path_for`` + stats)
so :class:`~repro.core.offloader.SSDOffloader` can swap it in behind an
unchanged :class:`~repro.core.tensor_cache.TensorCache`.

**One positioned-I/O path:** ``write`` appends the tensor's contiguous
``memoryview`` straight into the open-chunk staging buffer (no
``tobytes()`` temporary) with the index crc32 computed over the same
view.  The store owns an LRU-bounded :class:`~repro.io.fdtable.FDTable`
for its chunk files and every transfer borrows a descriptor from it: a
flush is one ``pwritev`` of the staging ``bytearray`` — no ``bytes``
payload temporary — and a ranged read one ``preadv`` at the tensor's
chunk offset straight into the destination array; open-chunk reads copy
once out of a ``memoryview`` window over the staging buffer.  Chunk
descriptors are buffered, like every store descriptor: a flush is
already one large sequential write.  ``copy_stats``
(:class:`~repro.io.buffers.CopyCounter`) counts the copies made and the
allocations avoided; ``write_syscalls``/``read_syscalls`` are measured
by the syscall tape.

**Scratch space:** activations live for one step, so a store is
created empty and nothing in it outlives the process (a crashed run
restarts from a model checkpoint, not from offloaded activations).
``roots`` spreads chunk placement across several store directories by
cumulative bytes written (write-leveling); a root that returned
``ENOSPC`` is skipped until one of its chunks is reclaimed.  Files are
removed only by :meth:`ChunkedTensorStore.clear`.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.io import checksum
from repro.io.aio import syscall_tape
from repro.io.buffers import CopyCounter, check_destination
from repro.io.errors import IntegrityError, is_enospc
from repro.io.fdtable import FDTable, FilePool, preadv_full, pwritev_over
from repro.io.filestore import StoreTraffic, _TrafficBooks, contiguous_view, pace

#: Default chunk size: 4 MiB — large enough that a P5800X-class SSD sees
#: near-sequential bandwidth, small enough to bound the open-chunk buffer.
DEFAULT_CHUNK_BYTES = 4 * 2**20

@dataclass
class _ChunkMeta:
    """Bookkeeping for one flushed chunk: its size, live tensors, and the
    file it was written into (in ``roots[root_index]``)."""

    chunk_id: int
    total_bytes: int
    refcount: int
    live_bytes: int
    root_index: int
    path: str


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
        roots: additional store directories for write-leveling; each
            flushed chunk lands in the directory with the least
            cumulative bytes written (the primary ``root`` is index 0).

    A flush picks the root, then a file of its :class:`~repro.io.fdtable.FilePool`.
    """

    def __init__(
        self,
        root: Union[str, Path],
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        throttle_bytes_per_s: Optional[float] = None,
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
        self.chunk_bytes = chunk_bytes
        self.throttle_bytes_per_s = throttle_bytes_per_s
        self.copy_stats = CopyCounter()
        #: Descriptors of this store's chunk files, recycled ones included.
        self.fds = FDTable()
        #: Injectable per-root failure seam: ``fault_gate(root_index,
        #: nbytes)`` runs before every physical chunk write and may
        #: raise (the chaos harness injects per-root ``ENOSPC`` here).
        #: ``None`` disables it — zero cost on the production path.
        self.fault_gate = None
        #: Root indices that returned ``ENOSPC``: write-leveling skips
        #: them until a chunk of theirs is reclaimed (or :meth:`clear`).
        #: Guarded by _lock.
        self._full_roots: set = set()
        #: ENOSPC write failures absorbed by re-routing to another root.
        self.enospc_root_skips = 0

        #: The table's lock: a tensor's lookup and its file's borrow are one.
        self._lock = self.fds.lock
        self._open_id = 0
        self._open_buf = bytearray()
        self._open_entries: Dict[str, _TensorLoc] = {}
        self._chunks: Dict[int, _ChunkMeta] = {}
        self._index: Dict[str, _TensorLoc] = {}
        #: Per root, its chunk files, live and reclaimed.
        self._pools = [FilePool(self.fds, str(directory), "chunk") for directory in self.roots]
        #: Cumulative bytes ever written per root — the write-leveling
        #: criterion.
        self._root_bytes: List[int] = [0] * len(self.roots)

        # Books, written under the lock; each reads as one int.
        self._traffic = StoreTraffic()
        #: Bytes of chunks whose refcount hit zero (their files recycled).
        self.reclaimed_bytes = 0
        self._open_dead_bytes = 0
        self._closed = False

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

    @property
    def num_chunks(self) -> int:
        """Flushed chunks currently on disk."""
        with self._lock:
            return len(self._chunks)

    @property
    def open_chunk_bytes(self) -> int:
        with self._lock:
            return len(self._open_buf)

    def reset_stats(self) -> None:
        with self._lock:
            self._traffic = StoreTraffic()
            self.reclaimed_bytes = 0

    # ------------------------------------------------------------------- I/O
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

    def path_for(self, tensor_id: str) -> Optional[Path]:
        """Chunk file holding ``tensor_id``; None while it waits in the
        open chunk (a flush picks the file) or is not held at all."""
        with self._lock:
            loc = self._index.get(tensor_id)
            return Path(self._chunks[loc.chunk_id].path) if loc is not None else None

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
            root_index = self._pick_root_locked()
            try:
                path, syscalls = self._write_chunk_locked(root_index)
                break
            except OSError as exc:
                if not is_enospc(exc):
                    raise
                # This root is full: remember it, steer write-leveling
                # to the remaining roots, and retry the same chunk on
                # the next-least-worn one.  Only when *every* root is
                # full does the error surface to the caller (who then
                # degrades to the CPU tier).
                self._full_roots.add(root_index)
                self.enospc_root_skips += 1
                if len(self._full_roots) >= len(self.roots):
                    raise
        self._traffic.write_syscalls += syscalls
        self._chunks[chunk_id] = _ChunkMeta(
            chunk_id=chunk_id,
            total_bytes=nbytes,
            refcount=len(self._open_entries),
            live_bytes=sum(loc.nbytes for loc in self._open_entries.values()),
            root_index=root_index,
            path=path,
        )
        self._index.update(self._open_entries)
        self._open_entries = {}
        self._open_buf = bytearray()
        self._open_dead_bytes = 0  # holes now accounted via chunk metadata
        self._root_bytes[root_index] += nbytes
        self._open_id += 1
        self._traffic.bytes_written += nbytes
        self._traffic.write_count += 1
        return nbytes, start

    def _write_chunk_locked(self, root_index: int) -> Tuple[str, int]:
        """One physical write of the open chunk into a file of
        ``roots[root_index]`` (the flush loop's retryable unit); returns
        the file and the syscalls it cost.  The ``fault_gate`` seam fires
        first, so injected per-root failures surface exactly where a
        real full filesystem would."""
        buf = self._open_buf
        if self.fault_gate is not None:
            self.fault_gate(root_index, len(buf))
        pool = self._pools[root_index]
        path, held = pool.take(len(buf))
        tape = syscall_tape()
        try:
            with tape:
                entry = self.fds.take(path)
                try:
                    pwritev_over(entry.fd, [buf], held)
                finally:
                    self.fds.give_back(entry)
        except BaseException:
            pool.release(path, torn=True)
            raise
        self.copy_stats.count_avoided(1)  # the bytes() payload temp
        return path, tape.count

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
        crc = checksum.crc32(raw)
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

    def read(
        self,
        tensor_id: str,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Read a tensor back into ``out``, or into a fresh array of
        ``shape``/``dtype`` when ``out`` is None (an ``out`` that cannot
        take it in place is a ``ValueError`` before any byte moves).

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
        data = np.empty(shape, dtype) if out is None else check_destination(out, shape, dtype)
        flat = data.reshape(-1)
        tape = syscall_tape()
        with tape:
            with self._lock:
                loc = self._open_entries.get(tensor_id)
                if loc is not None:
                    self._check_length(tensor_id, loc, expected)
                    # The staging buffer mutates under this lock only; copy
                    # out through a released-before-return window so the
                    # bytearray is never left with a live buffer export (a
                    # later extend() would raise BufferError on resize).
                    with memoryview(self._open_buf) as staging:
                        window = staging[loc.offset : loc.offset + loc.nbytes]
                        try:
                            self._verify(tensor_id, loc, window)
                            np.copyto(flat, np.frombuffer(window, dtype=dtype))
                        finally:
                            window.release()
                    self.copy_stats.count_copy(loc.nbytes, avoided=1)  # the bytes() slice temp
                    return data
                loc = self._index.get(tensor_id)
                if loc is None:
                    raise FileNotFoundError(f"no offloaded tensor {tensor_id!r} in chunk store")
                self._check_length(tensor_id, loc, expected)
                # Borrowed under the lookup's lock: a reclaim that races
                # this read cannot hand the file to the next chunk.
                entry = self.fds.take(self._chunks[loc.chunk_id].path, create=False)
            view = memoryview(flat)
            try:
                got = preadv_full(entry.fd, [view], offset=loc.offset)
            finally:
                with self._lock:
                    self.fds.give_back(entry)
        if got != loc.nbytes:
            # The destination view is full-size whatever the file holds,
            # so the short-read case needs its own length check; the
            # crc (and its message) stays centralized in _verify.
            raise IntegrityError(
                f"torn write: tensor {tensor_id!r} expected {loc.nbytes} bytes "
                f"in chunk {loc.chunk_id}, read {got}"
            )
        self._verify(tensor_id, loc, view)
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
        if checksum.crc32(raw) != loc.crc32:
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
                # drop the buffer, no write ever happens.
                self._open_buf = bytearray()
                self._open_dead_bytes = 0
            return
        loc = self._index.pop(tensor_id, None)
        if loc is None:
            return
        meta = self._chunks[loc.chunk_id]
        meta.refcount -= 1
        meta.live_bytes -= loc.nbytes
        if meta.refcount <= 0:
            self.reclaimed_bytes += meta.total_bytes
            del self._chunks[meta.chunk_id]
            self._pools[meta.root_index].release(meta.path)
            # Its root has room again: let write-leveling place there.
            self._full_roots.discard(meta.root_index)

    def delete(self, tensor_id: str) -> None:
        """Drop one tensor; recycle its chunk's file once no live tensor
        remains."""
        with self._lock:
            self._delete_locked(tensor_id)

    def close(self) -> None:
        """Flush the open chunk and release the cached descriptors — keep
        the data (:meth:`clear` destroys it).  Idempotent."""
        with self._lock:
            if self._closed:
                return
            flushed, start = self._flush_locked()
            self._closed = True
        self.fds.close_all()
        pace(self.throttle_bytes_per_s, flushed, start)

    def clear(self) -> None:
        """Remove every chunk file, live or free, and reset the in-memory
        state.

        The destroyed chunks' bytes are booked as ``reclaimed_bytes``
        and the dead-byte holes they carried are zeroed — the explicit
        stats contract: after ``clear`` ``dead_bytes == 0`` and
        ``reclaimed_bytes`` equals every chunk byte ever written, exactly.
        """
        with self._lock:
            self._open_buf = bytearray()
            self._open_entries = {}
            self._open_dead_bytes = 0
            self._index = {}
            self.reclaimed_bytes += sum(
                meta.total_bytes for meta in self._chunks.values()
            )
            self._chunks = {}
            self._full_roots.clear()
            paths = [path for pool in self._pools for path in pool.drain()]
        self.fds.close_all()
        for path in paths:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
