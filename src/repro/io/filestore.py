"""File-backed tensor persistence (the functional-mode "SSD").

Writes tensor bytes to files under a directory (one file per tensor
identifier, like the paper's ``/mnt/md1/t1.pt`` in Fig. 4) and reads them
back.  Optional throttling emulates a bandwidth-limited device so tests can
exercise stalls, backpressure, and forwarding races.

Every file carries a **checksum frame** so silent corruption surfaces as
a typed :class:`~repro.io.errors.IntegrityError` instead of wrong
numerics::

    ┌───────┬────────────┬───────┬───────────────────┐
    │ magic │ payload len│ crc32 │      payload      │
    │ 4 B   │ 8 B (LE)   │ 4 B   │ raw tensor bytes  │
    └───────┴────────────┴───────┴───────────────────┘

``read`` verifies the magic, the length (catches short/torn writes) and
the crc32 of the payload (catches bit-rot) before any bytes reach the
caller.  An ``IntegrityError`` is classified retryable
(:func:`~repro.io.errors.is_retryable`): a transient read-path flip
heals on re-read; corruption at rest exhausts the retry budget and
surfaces.  All byte accounting (stats, throttle) stays on
the payload — the 16-byte frame is bookkeeping, not traffic.

**One positioned-I/O path:** the store owns an LRU-bounded
:class:`~repro.io.fdtable.FDTable` for its own files and every transfer
is one vectored syscall over a descriptor borrowed from it.  ``write``
is a single ``pwritev`` of the 16-byte header and the tensor's
contiguous ``memoryview`` — no ``tobytes()`` temporary, no
header+payload ``bytes`` concatenation, the crc32 computed directly over
the view.  ``read`` is a single ``preadv`` scattering into the header,
the destination array and a one-byte probe: the header (magic, framed
length vs the expected tensor size) and the transfer length (a shortfall
is a torn write, an overshoot into the probe an oversized file) are
validated before the payload is trusted — one disk-to-array transfer,
zero staging buffers, no ``fstat``.  The on-disk format is bit-identical
to ``frame_payload(data.tobytes())`` — the 20-line reference pair
``frame_payload``/``unframe_payload`` that tests compare files against;
:class:`~repro.io.buffers.CopyCounter` telemetry (``copy_stats``) makes
the eliminated copies a printed number and ``write_syscalls``/
``read_syscalls`` (measured by the syscall tape, never assumed) the
kernel round-trips.

Two staging decisions belong to this store, and it books both on
``copy_stats``: ``direct=True`` opens write descriptors ``O_DIRECT`` and
stages each frame through an aligned arena lease (per-file fallback to
buffered where the filesystem refuses), and a ``gds``
:class:`~repro.io.gds.GDSRegistry` turns on simulated GPUDirect-Storage
routing — arrays of registered storages go straight to disk, anything
else is staged through a host bounce lease first.  Neither changes a
byte on disk.  The store behaves the same on every thread and under
every ``io_backend``.
"""

from __future__ import annotations

import math
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.io.aio import count_syscalls, syscall_tape
from repro.io.buffers import DIRECT_ALIGNMENT, BufferArena, CopyCounter
from repro.io.errors import IntegrityError
from repro.io.fdtable import FDTable, preadv_full, pwritev_full
from repro.io.gds import GDSRegistry

#: Checksum-frame header: magic, payload length (LE u64), crc32 (LE u32).
FRAME_MAGIC = b"RPRO"
_FRAME_HEADER = struct.Struct("<4sQI")
FRAME_HEADER_BYTES = _FRAME_HEADER.size


def frame_payload(payload: bytes) -> bytes:
    """Prepend the checksum frame to raw tensor bytes."""
    return _FRAME_HEADER.pack(FRAME_MAGIC, len(payload), zlib.crc32(payload)) + payload


def contiguous_view(data: np.ndarray) -> Tuple[np.ndarray, bool]:
    """C-contiguous form of ``data`` plus whether materializing it copied."""
    contiguous = np.ascontiguousarray(data)
    return contiguous, contiguous is not data


def parse_frame_header(header, got: int, label: Callable[[], str]) -> Tuple[int, int]:
    """Validate the frame header in the first ``got`` valid bytes of
    ``header`` (any buffer); returns ``(payload_len, crc32)``.

    The single source of truth for the fixed 16-byte header — both the
    whole-file :func:`unframe_payload` and the store's ``preadv`` reader
    validate through it, so a frame-format change has one site.
    ``label()`` names the tensor/file, and is called only to word an
    :class:`IntegrityError` (short header, bad magic).
    """
    if got < FRAME_HEADER_BYTES:
        raise IntegrityError(
            f"torn write: {label()} holds {got} bytes, shorter than the frame header"
        )
    magic, length, crc = _FRAME_HEADER.unpack_from(header)
    if magic != FRAME_MAGIC:
        raise IntegrityError(f"corrupt frame header for {label()}: bad magic {magic!r}")
    return length, crc


def unframe_payload(raw: bytes, label: str) -> bytes:
    """Verify and strip the checksum frame; raises :class:`IntegrityError`.

    ``label`` names the tensor/file for the error message.
    """
    length, crc = parse_frame_header(raw, len(raw), lambda: label)
    payload = raw[FRAME_HEADER_BYTES:]
    if len(payload) != length:
        raise IntegrityError(
            f"torn write: {label} frames {length} payload bytes, found {len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise IntegrityError(f"checksum mismatch for {label}: bit-rot or torn write")
    return payload


def pace(bytes_per_s: Optional[float], nbytes: int, start: float) -> None:
    """Model a ``bytes_per_s`` device: sleep out whatever is left of the
    time ``nbytes`` would have taken it, counted from ``start``."""
    if bytes_per_s is not None:
        delay = start + nbytes / bytes_per_s - time.monotonic()
        if delay > 0:
            time.sleep(delay)


@dataclass
class StoreTraffic:
    """A store's cumulative traffic books (written under the store's
    lock; ``store.bytes_written`` … read them through :class:`_TrafficBooks`).

    ``write_count`` is physical file writes — for the chunk store one
    per flushed chunk, the number tests compare against the per-tensor
    store's one write per tensor.  The syscall counts (open / pwritev /
    ftruncate, open / preadv) are what the syscall tape measured around
    each transfer — never an assumed per-operation constant.
    """

    bytes_written: int = 0
    bytes_read: int = 0
    write_count: int = 0
    read_count: int = 0
    write_syscalls: int = 0
    read_syscalls: int = 0


class _TrafficBooks:
    """A store whose ``_traffic`` fields read as its own attributes (one
    int each: a consistent multi-field view takes the store's lock)."""

    _traffic: StoreTraffic

    def __getattr__(self, name: str) -> int:
        if name in StoreTraffic.__dataclass_fields__:
            return getattr(self._traffic, name)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")


class TensorFileStore(_TrafficBooks):
    """Stores numpy arrays as raw files, one per tensor id.

    Args:
        root: directory for tensor files (created if missing).
        throttle_bytes_per_s: if set, sleep so that transfers do not exceed
            this bandwidth — used to emulate slow SSDs in tests.
        direct: open write descriptors with ``O_DIRECT`` where the
            platform and filesystem allow; refused files fall back to
            buffered I/O, counted on ``copy_stats.direct_fallbacks``.
        gds: registry of GDS-registered storages; when given, writes are
            routed past or through a host bounce buffer by registration
            (``copy_stats.bounce_copies_skipped`` / ``bounce_copies``).

    Descriptors are closed by :meth:`close`/:meth:`clear`, or when a
    store nobody closed is collected.
    """

    #: Nothing here outlives the object: shutdown clears the files (the
    #: durable chunk store answers True and is closed instead).
    persistent = False

    def __init__(
        self,
        root: Union[str, Path],
        throttle_bytes_per_s: Optional[float] = None,
        direct: bool = False,
        gds: Optional[GDSRegistry] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._dir = str(self.root)  # file paths are composed as strings
        if throttle_bytes_per_s is not None and throttle_bytes_per_s <= 0:
            raise ValueError(f"throttle must be positive: {throttle_bytes_per_s}")
        self.throttle_bytes_per_s = throttle_bytes_per_s
        self.direct = direct and hasattr(os, "O_DIRECT")
        self.gds = gds
        self.copy_stats = CopyCounter()
        self.fds = FDTable()
        #: Staging leases: aligned frames for ``O_DIRECT`` writes and
        #: host bounce buffers for unregistered GDS-sim sources.
        self.arena = BufferArena() if self.direct or gds is not None else None
        self._lock = threading.Lock()
        self._traffic = StoreTraffic()

    # ------------------------------------------------------------------ stats
    def reset_stats(self) -> None:
        with self._lock:
            self._traffic = StoreTraffic()

    # ------------------------------------------------------------------- I/O
    def _path(self, tensor_id: str) -> str:
        return f"{self._dir}/{tensor_id}.bin"

    def path_for(self, tensor_id: str) -> Path:
        return Path(self._path(tensor_id))

    def write(self, tensor_id: str, data: np.ndarray) -> None:
        """Persist ``data`` at :meth:`path_for` ``(tensor_id)``.

        One ``pwritev`` carries the header and the tensor's contiguous
        view — the crc32 is computed over the view and no intermediate
        ``bytes`` object is ever built — and a reused descriptor is
        ``ftruncate``\\ d so no stale tail survives.  The resulting file
        is bit-identical to ``frame_payload(data.tobytes())``.  With a
        ``gds`` registry, registered source arrays go straight to disk
        and unregistered ones are staged through a host bounce lease.

        Contract: ``data`` must not mutate during the call.  The zero-copy
        path reads the source twice (crc pass, write pass) — a concurrent
        mutation would frame a checksum that can never match the payload,
        i.e. a file that is unreadable rather than merely stale.  The
        engine honors this by construction: activations are immutable
        once packed, and mutable buffers (weights) never reach a store.
        """
        start = time.monotonic()
        path = self._path(tensor_id)
        contiguous, copied = contiguous_view(data)
        nbytes = contiguous.nbytes
        if copied:
            self.copy_stats.count_copy(nbytes)
        payload = memoryview(contiguous.reshape(-1)).cast("B")
        bounce = None
        if self.gds is not None:
            if self.gds.is_array_registered(data):
                self.copy_stats.count_bounce(skipped=True)
            else:
                bounce = self.arena.lease(nbytes)
                staged = bounce.view((nbytes,), np.uint8)
                staged[:] = np.frombuffer(payload, dtype=np.uint8)
                self.copy_stats.count_copy(nbytes)
                self.copy_stats.count_bounce(skipped=False)
                payload = memoryview(staged)
        tape = syscall_tape()
        try:
            with tape:
                header = _FRAME_HEADER.pack(FRAME_MAGIC, nbytes, zlib.crc32(payload))
                self._write_frame(path, header, payload)
        finally:
            if bounce is not None:
                bounce.release()
        self.copy_stats.count_avoided(2)  # tobytes() + frame concat
        pace(self.throttle_bytes_per_s, nbytes, start)
        with self._lock:
            self._traffic.bytes_written += nbytes
            self._traffic.write_count += 1
            self._traffic.write_syscalls += tape.count

    def _write_frame(self, path: str, header: bytes, payload: memoryview) -> None:
        with self.fds.borrow_write(path, direct=self.direct) as (fd, direct, cached):
            if self.direct and not direct and not cached:
                self.copy_stats.count_direct_fallback()  # refused at open
            if not direct:
                self._pwrite_buffered(fd, header, payload, truncate=cached)
                return
            if self._pwrite_direct(fd, header, payload):
                return
        # The O_DIRECT open succeeded but the device refused the write:
        # demote this path's descriptor to buffered and carry on.
        with self.fds.borrow_read(path) as fd:
            self._pwrite_buffered(fd, header, payload, truncate=True)

    @staticmethod
    def _pwrite_buffered(fd: int, header: bytes, payload: memoryview, truncate: bool) -> None:
        pwritev_full(fd, [header, payload])
        if truncate:
            # A fresh descriptor opened with O_TRUNC; a reused one must
            # drop any longer stale frame.
            os.ftruncate(fd, FRAME_HEADER_BYTES + payload.nbytes)
            count_syscalls(1)

    def _pwrite_direct(self, fd: int, header: bytes, payload: memoryview) -> bool:
        """``O_DIRECT`` write: stage the frame into an aligned arena
        lease, zero-pad to the alignment unit, ``pwrite`` the padded
        block, then ``ftruncate`` to the true frame length — the on-disk
        bytes stay bit-identical to the buffered path.  Returns False to
        demote (the device refused the write).
        """
        total = FRAME_HEADER_BYTES + payload.nbytes
        padded = -(-total // DIRECT_ALIGNMENT) * DIRECT_ALIGNMENT
        lease = self.arena.lease(padded, aligned=True)
        try:
            buf = lease.view((padded,), np.uint8)
            buf[:FRAME_HEADER_BYTES] = np.frombuffer(header, dtype=np.uint8)
            if total > FRAME_HEADER_BYTES:
                buf[FRAME_HEADER_BYTES:total] = np.frombuffer(payload, dtype=np.uint8)
            buf[total:] = 0
            # The aligned staging copy is the O_DIRECT tax; counted so
            # copy telemetry never under-reports.
            self.copy_stats.count_copy(total - FRAME_HEADER_BYTES)
            mv = memoryview(buf)
            offset = 0
            while offset < padded:
                try:
                    written = os.pwrite(fd, mv[offset:], offset)
                except OSError:
                    if offset:
                        raise  # partial direct write: surface, don't demote
                    self.copy_stats.count_direct_fallback()
                    return False
                count_syscalls(1)
                if written <= 0:
                    raise OSError(f"pwrite made no progress at offset {offset}")
                offset += written
            os.ftruncate(fd, total)
            count_syscalls(1)
            return True
        finally:
            lease.release()

    def read(self, tensor_id: str, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """Read a tensor back as a fresh array of ``shape``/``dtype``.

        One ``preadv`` scatter fills the header, the destination array
        and a one-byte probe: one disk-to-array transfer — one syscall,
        the empty probe being the EOF answer — and the only allocation
        is the returned array itself — the ownership copy the
        GPU-reinstate boundary demands.  Overshooting into the probe
        means the file holds more than the frame claims, a shortfall
        means a torn write — both rejected before the payload is
        trusted.  Missing-file detection rides the open (no separate
        ``exists()`` stat).
        """
        start = time.monotonic()
        path = self._path(tensor_id)
        dtype = np.dtype(dtype)
        numel = math.prod(shape)
        expected = numel * dtype.itemsize
        flat = np.empty(numel, dtype)
        header = bytearray(FRAME_HEADER_BYTES)
        probe = bytearray(1)
        tape = syscall_tape()
        with tape:
            try:
                with self.fds.borrow_read(path) as fd:
                    got = preadv_full(fd, [header, memoryview(flat), probe], probe=1)
            except FileNotFoundError:
                raise FileNotFoundError(f"no offloaded tensor at {path}") from None
        # How an error names the tensor: built only when one is raised.
        label = lambda: f"tensor {tensor_id!r} at {path}"
        length, crc = parse_frame_header(header, got, label)
        payload_got = got - FRAME_HEADER_BYTES
        if length == expected:
            if payload_got != length:
                found = payload_got if payload_got < length else f"over {length}"
                raise IntegrityError(
                    f"torn write: {label()} frames {length} payload bytes, found {found}"
                )
        elif (length < expected and payload_got == length) or (
            length > expected and payload_got == expected + 1
        ):
            # Header and file agree with each other but not with the
            # caller: a deterministic shape/dtype bug, not corruption —
            # fail fast (ValueError is non-retryable).
            raise ValueError(f"{label()} holds {length} payload bytes, caller expected {expected}")
        else:
            # Header and file disagree: corruption — retryable.
            raise IntegrityError(
                f"torn write: {label()} frames {length} payload bytes, found {max(0, payload_got)}"
            )
        if zlib.crc32(memoryview(flat)) != crc:
            raise IntegrityError(f"checksum mismatch for {label()}: bit-rot or torn write")
        data = flat.reshape(shape)
        self.copy_stats.count_copy(data.nbytes, avoided=1)  # the whole-file bytes slurp
        pace(self.throttle_bytes_per_s, data.nbytes, start)
        with self._lock:
            self._traffic.bytes_read += data.nbytes
            self._traffic.read_count += 1
            self._traffic.read_syscalls += tape.count
        return data

    def delete(self, tensor_id: str) -> None:
        """Best-effort removal of an offloaded tensor file."""
        path = self._path(tensor_id)
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        # Unlink first, forget second: a read racing the delete (a hedged
        # duplicate) either borrows the old descriptor — closed when it
        # returns — or finds no file; it can never re-cache a descriptor
        # of the unlinked inode for a later write to land in.
        self.fds.invalidate(path)

    def flush(self) -> None:
        """Every write already reached its file; nothing is staged."""

    def close(self) -> None:
        """Close every cached descriptor; the files stay (idempotent)."""
        self.fds.close_all()

    def clear(self) -> None:
        """Remove every tensor file (used between steps/tests)."""
        for path in self.root.glob("*.bin"):
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        self.close()
