"""File-backed tensor persistence (the functional-mode "SSD").

Writes tensor bytes to files under a directory (one file per tensor
identifier, like the paper's ``/mnt/md1/t1.pt`` in Fig. 4) and reads them
back.  Optional throttling emulates a bandwidth-limited device so tests can
exercise stalls, backpressure, and forwarding races; writes/reads are also
recorded against an optional :class:`~repro.device.ssd.RAID0Array` for wear
accounting.

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
surfaces.  All byte accounting (stats, throttle, wear model) stays on
the payload — the 16-byte frame is bookkeeping, not traffic.

**Zero-copy streaming (PR 5):** the store writes the 16-byte header and
then the tensor's contiguous ``memoryview`` as two writes — no
``tobytes()`` temporary, no header+payload ``bytes`` concatenation —
with the crc32 computed directly over the view.  The read path validates
the header (magic, framed length vs the expected tensor size, and the
on-disk file size) *before* touching the payload, then ``readinto``\\ s
the destination array directly: one disk-to-array transfer, zero staging
buffers.  The on-disk format is bit-identical to
``frame_payload(data.tobytes())`` — the 20-line reference pair
``frame_payload``/``unframe_payload`` that tests compare files against;
:class:`~repro.io.buffers.CopyCounter` telemetry (``copy_stats``) makes
the eliminated copies a printed number.

**Batched backends (PR 8):** when a lane backend installs an
:class:`~repro.io.uring.IOContext` (``io_backend="uring"`` /
``"gds-sim"``), ``write``/``read`` route through vectored entry points:
one ``pwritev``/``preadv`` over a pre-opened descriptor from the
backend's FD table carries the *same* frame bytes (a one-byte probe in
the read scatter replaces the ``fstat`` torn-write check), with an
optional ``O_DIRECT`` staged-aligned write path and GDS-sim bounce
routing (registered storages skip the host staging copy).  Per-store
``write_syscalls``/``read_syscalls`` counters plus the backend's syscall
tape make the saved kernel round-trips a printed number too.  With no
context installed the classic buffered paths run unchanged —
``io_backend="thread"`` stays byte- and syscall-identical.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from repro.device.ssd import RAID0Array, SSD
from repro.io.aio import count_syscalls, syscall_tape
from repro.io.buffers import DIRECT_ALIGNMENT, CopyCounter
from repro.io.errors import IntegrityError
from repro.io.uring import IOContext, current_io_context, preadv_full, pwritev_full

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


def parse_frame_header(header: bytes, label: str) -> Tuple[int, int]:
    """Validate a frame header prefix; returns ``(payload_len, crc32)``.

    The single source of truth for the fixed 16-byte header — both the
    whole-file :func:`unframe_payload` and the streaming ``readinto``
    reader validate through it, so a frame-format change has one site.
    Raises :class:`IntegrityError` on a short header or bad magic.
    """
    if len(header) < FRAME_HEADER_BYTES:
        raise IntegrityError(
            f"torn write: {label} holds {len(header)} bytes, shorter than the frame header"
        )
    magic, length, crc = _FRAME_HEADER.unpack_from(header)
    if magic != FRAME_MAGIC:
        raise IntegrityError(f"corrupt frame header for {label}: bad magic {magic!r}")
    return length, crc


def unframe_payload(raw: bytes, label: str) -> bytes:
    """Verify and strip the checksum frame; raises :class:`IntegrityError`.

    ``label`` names the tensor/file for the error message.
    """
    length, crc = parse_frame_header(raw, label)
    payload = raw[FRAME_HEADER_BYTES:]
    if len(payload) != length:
        raise IntegrityError(
            f"torn write: {label} frames {length} payload bytes, found {len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise IntegrityError(f"checksum mismatch for {label}: bit-rot or torn write")
    return payload


class TensorFileStore:
    """Stores numpy arrays as raw files, one per tensor id.

    Args:
        root: directory for tensor files (created if missing).
        throttle_bytes_per_s: if set, sleep so that transfers do not exceed
            this bandwidth — used to emulate slow SSDs in tests.
        array: optional SSD/RAID0 model charged with the traffic.
    """

    def __init__(
        self,
        root: Union[str, Path],
        throttle_bytes_per_s: Optional[float] = None,
        array: Optional[Union[SSD, RAID0Array]] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if throttle_bytes_per_s is not None and throttle_bytes_per_s <= 0:
            raise ValueError(f"throttle must be positive: {throttle_bytes_per_s}")
        self.throttle_bytes_per_s = throttle_bytes_per_s
        self.array = array
        self.copy_stats = CopyCounter()
        #: The FD table of the last batched backend that drove this
        #: store (self-attached by the vectored paths) — ``delete``/
        #: ``clear`` invalidate its cached descriptors so a reopened
        #: path never resurrects stale bytes.
        self.fd_table = None
        self._lock = threading.Lock()
        self._bytes_written = 0
        self._bytes_read = 0
        self._write_count = 0
        self._read_count = 0
        self._write_syscalls = 0
        self._read_syscalls = 0

    # ------------------------------------------------------------------ stats
    @property
    def bytes_written(self) -> int:
        with self._lock:
            return self._bytes_written

    @property
    def bytes_read(self) -> int:
        with self._lock:
            return self._bytes_read

    @property
    def write_count(self) -> int:
        with self._lock:
            return self._write_count

    @property
    def read_count(self) -> int:
        with self._lock:
            return self._read_count

    @property
    def write_syscalls(self) -> int:
        """Kernel round-trips spent writing (open/write/close/ftruncate)."""
        with self._lock:
            return self._write_syscalls

    @property
    def read_syscalls(self) -> int:
        """Kernel round-trips spent reading (open/read/fstat/close)."""
        with self._lock:
            return self._read_syscalls

    def reset_stats(self) -> None:
        with self._lock:
            self._bytes_written = 0
            self._bytes_read = 0
            self._write_count = 0
            self._read_count = 0
            self._write_syscalls = 0
            self._read_syscalls = 0

    # ------------------------------------------------------------------- I/O
    def path_for(self, tensor_id: str) -> Path:
        return self.root / f"{tensor_id}.bin"

    def _throttle(self, nbytes: int, start: float) -> None:
        if self.throttle_bytes_per_s is None:
            return
        required = nbytes / self.throttle_bytes_per_s
        elapsed = time.monotonic() - start
        if elapsed < required:
            time.sleep(required - elapsed)

    def write(self, tensor_id: str, data: np.ndarray) -> Path:
        """Persist ``data``; returns the file path.

        Streaming path: header and payload land as two writes, the crc32
        is computed over the tensor's contiguous view, and no
        intermediate ``bytes`` object is ever built.  The resulting file
        is bit-identical to ``frame_payload(data.tobytes())``.

        Contract: ``data`` must not mutate during the call.  The zero-copy
        path reads the source twice (crc pass, write pass) — a concurrent
        mutation would frame a checksum that can never match the payload,
        i.e. a file that is unreadable rather than merely stale.  The
        engine honors this by construction: activations are immutable
        once packed, and mutable buffers (weights) never reach a store.
        """
        start = time.monotonic()
        path = self.path_for(tensor_id)
        contiguous, copied = contiguous_view(data)
        nbytes = contiguous.nbytes
        if copied:
            self.copy_stats.count_copy(nbytes)
        ctx = current_io_context()
        if ctx is not None:
            syscalls = self._write_vectored(path, data, contiguous, nbytes, ctx)
            self.copy_stats.count_avoided(2)  # tobytes() + frame concat
        else:
            view = memoryview(contiguous.reshape(-1)).cast("B")
            with open(path, "wb") as f:
                f.write(_FRAME_HEADER.pack(FRAME_MAGIC, nbytes, zlib.crc32(view)))
                f.write(view)
            self.copy_stats.count_avoided(2)  # tobytes() + frame concat
            syscalls = 4  # open + header write + payload write + close
            count_syscalls(syscalls)
        self._throttle(nbytes, start)
        with self._lock:
            self._bytes_written += nbytes
            self._write_count += 1
            self._write_syscalls += syscalls
        if self.array is not None:
            self.array.record_write(nbytes)
        return path

    def read(self, tensor_id: str, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """Read a tensor back as a fresh array of ``shape``/``dtype``.

        Streaming path: the header is read and validated first (magic,
        framed length against both the expected tensor size and the
        on-disk file size — a torn write is rejected *before* any
        payload bytes are slurped), then the payload is ``readinto`` the
        destination array directly: one disk-to-array transfer, and the
        only allocation is the returned array itself — the ownership
        copy the GPU-reinstate boundary demands.
        """
        start = time.monotonic()
        path = self.path_for(tensor_id)
        ctx = current_io_context()
        if ctx is not None:
            # Batched backend: missing-file detection rides the open
            # (no separate exists() stat).
            data, syscalls = self._read_vectored(tensor_id, path, shape, dtype, ctx)
            self.copy_stats.count_copy(data.nbytes)
            self.copy_stats.count_avoided(1)  # the whole-file bytes slurp
            self._throttle(data.nbytes, start)
            with self._lock:
                self._bytes_read += data.nbytes
                self._read_count += 1
                self._read_syscalls += syscalls
            if self.array is not None:
                self.array.record_read(data.nbytes)
            return data
        if not path.exists():
            raise FileNotFoundError(f"no offloaded tensor at {path}")
        label = f"tensor {tensor_id!r} at {path}"
        dtype = np.dtype(dtype)
        numel = int(np.prod(shape, dtype=np.int64))
        expected = numel * dtype.itemsize
        flat = np.empty(numel, dtype)
        with open(path, "rb") as f:
            length, crc = parse_frame_header(f.read(FRAME_HEADER_BYTES), label)
            file_size = os.fstat(f.fileno()).st_size
            if file_size != FRAME_HEADER_BYTES + length:
                # Header and file disagree: corruption — retryable.
                raise IntegrityError(
                    f"torn write: {label} frames {length} payload bytes, "
                    f"found {max(0, file_size - FRAME_HEADER_BYTES)}"
                )
            if length != expected:
                # Header and file agree with each other but not with
                # the caller: a deterministic shape/dtype bug, not
                # corruption — fail fast (ValueError is
                # non-retryable).
                raise ValueError(
                    f"{label} holds {length} payload bytes, "
                    f"caller expected {expected}"
                )
            view = memoryview(flat)
            got = f.readinto(view)
            if got != length:
                raise IntegrityError(
                    f"torn write: {label} frames {length} payload bytes, read {got}"
                )
            if zlib.crc32(view) != crc:
                raise IntegrityError(
                    f"checksum mismatch for {label}: bit-rot or torn write"
                )
        data = flat.reshape(shape)
        self.copy_stats.count_copy(data.nbytes)
        self.copy_stats.count_avoided(1)  # the whole-file bytes slurp
        syscalls = 5  # open + header read + fstat + readinto + close
        count_syscalls(syscalls)
        self._throttle(data.nbytes, start)
        with self._lock:
            self._bytes_read += data.nbytes
            self._read_count += 1
            self._read_syscalls += syscalls
        if self.array is not None:
            self.array.record_read(data.nbytes)
        return data

    # ------------------------------------------------------- vectored paths
    def _write_vectored(
        self,
        path: Path,
        source: np.ndarray,
        contiguous: np.ndarray,
        nbytes: int,
        ctx: IOContext,
    ) -> int:
        """Batched-backend write over a pre-opened descriptor.

        One ``pwritev`` carries header + payload (bit-identical to the
        streaming frame); a reused descriptor is ``ftruncate``\\ d so no
        stale tail survives.  A GDS-sim context routes by registration:
        registered source arrays go straight to disk (the direct lane),
        unregistered ones are staged through a host bounce lease first.
        Returns the syscalls issued.
        """
        if self.fd_table is not ctx.fds:
            self.fd_table = ctx.fds
        payload = memoryview(contiguous.reshape(-1)).cast("B")
        lease = None
        if ctx.gds is not None:
            if ctx.gds.is_array_registered(source):
                ctx.note_bounce(skipped=True)
            elif ctx.arena is not None:
                lease = ctx.arena.lease(nbytes)
                staged = lease.view((nbytes,), np.uint8)
                staged[:] = np.frombuffer(payload, dtype=np.uint8)
                self.copy_stats.count_copy(nbytes)
                ctx.note_bounce(skipped=False)
                payload = memoryview(staged)
        tape = syscall_tape()
        try:
            with tape:
                header = _FRAME_HEADER.pack(FRAME_MAGIC, nbytes, zlib.crc32(payload))
                total = FRAME_HEADER_BYTES + nbytes
                fd, direct, cached, _ = ctx.fds.acquire_write(str(path))
                if direct and self._pwrite_direct(fd, header, payload, total, ctx):
                    pass
                else:
                    if direct:
                        # O_DIRECT open succeeded but the write path
                        # refused (or no staging arena): demote this
                        # path's descriptor to buffered and carry on.
                        fd = ctx.fds.acquire_read(str(path))
                        cached = True
                    pwritev_full(fd, [header, payload])
                    if cached:
                        # A fresh descriptor opened with O_TRUNC; a
                        # reused one must drop any longer stale frame.
                        os.ftruncate(fd, total)
                        count_syscalls(1)
        finally:
            if lease is not None:
                lease.release()
        return tape.count

    def _pwrite_direct(
        self, fd: int, header: bytes, payload: memoryview, total: int, ctx: IOContext
    ) -> bool:
        """``O_DIRECT`` write: stage the frame into an aligned arena
        lease, zero-pad to the alignment unit, ``pwrite`` the padded
        block, then ``ftruncate`` to the true frame length — the on-disk
        bytes stay bit-identical to the buffered path.  Returns False to
        demote (no staging arena, or the device refused the write).
        """
        if ctx.arena is None:
            return False
        padded = -(-total // DIRECT_ALIGNMENT) * DIRECT_ALIGNMENT
        lease = ctx.arena.lease(padded, aligned=True)
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
                    ctx.note_direct_fallback()
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

    def _read_vectored(
        self,
        tensor_id: str,
        path: Path,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        ctx: IOContext,
    ) -> Tuple[np.ndarray, int]:
        """Batched-backend read: one ``preadv`` scatter fills the header,
        the destination array, and a one-byte probe.

        The probe replaces the classic path's ``fstat``: overshooting
        into it means the file holds more than the frame claims, a
        shortfall means a torn write — both rejected before the payload
        is trusted, with the classic path's error taxonomy.  Returns
        ``(data, syscalls)``.
        """
        if self.fd_table is not ctx.fds:
            self.fd_table = ctx.fds
        dtype = np.dtype(dtype)
        numel = int(np.prod(shape, dtype=np.int64))
        expected = numel * dtype.itemsize
        label = f"tensor {tensor_id!r} at {path}"
        flat = np.empty(numel, dtype)
        header = bytearray(FRAME_HEADER_BYTES)
        probe = bytearray(1)
        tape = syscall_tape()
        with tape:
            try:
                fd = ctx.fds.acquire_read(str(path))
            except FileNotFoundError:
                raise FileNotFoundError(f"no offloaded tensor at {path}") from None
            got = preadv_full(fd, [header, memoryview(flat), probe])
        length, crc = parse_frame_header(
            bytes(header[: min(got, FRAME_HEADER_BYTES)]), label
        )
        payload_got = got - FRAME_HEADER_BYTES
        if length == expected:
            if payload_got != length:
                found = payload_got if payload_got < length else f"over {length}"
                raise IntegrityError(
                    f"torn write: {label} frames {length} payload bytes, found {found}"
                )
        elif (length < expected and payload_got == length) or (
            length > expected and payload_got == expected + 1
        ):
            # Header and file agree with each other but not with the
            # caller: a deterministic shape/dtype bug — fail fast
            # (ValueError is non-retryable), like the classic path.
            raise ValueError(
                f"{label} holds {length} payload bytes, caller expected {expected}"
            )
        else:
            raise IntegrityError(
                f"torn write: {label} frames {length} payload bytes, "
                f"found {max(0, payload_got)}"
            )
        if zlib.crc32(memoryview(flat)) != crc:
            raise IntegrityError(f"checksum mismatch for {label}: bit-rot or torn write")
        return flat.reshape(shape), tape.count

    def delete(self, tensor_id: str) -> None:
        """Best-effort removal of an offloaded tensor file."""
        path = self.path_for(tensor_id)
        table = self.fd_table
        if table is not None:
            table.invalidate(str(path))
        try:
            path.unlink()
        except FileNotFoundError:
            pass

    def clear(self) -> None:
        """Remove every tensor file (used between steps/tests)."""
        table = self.fd_table
        for path in self.root.glob("*.bin"):
            if table is not None:
                table.invalidate(str(path))
            try:
                path.unlink()
            except FileNotFoundError:
                pass
