"""File-backed tensor persistence (the functional-mode "SSD").

Writes tensor bytes to files under a directory (one live tensor per
file, like the paper's ``/mnt/md1/t1.pt`` in Fig. 4) and reads them
back.  A released tensor's file is not deleted but **recycled**: the
next write overwrites it in place, with no ``open``/``close``/``unlink``
and into resident page cache (docs/architecture.md §10).  Optional
throttling emulates a bandwidth-limited device so tests can exercise
stalls, backpressure, and forwarding races.

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

Every write is buffered: the kernel's page cache absorbs it and
writeback reaches the device behind the caller (the paper's page-cache
bypass is GPUDirect Storage, which :mod:`repro.io.gds` models
analytically; docs/architecture.md §10 records why the store has no
page-cache-bypassing write mode).  The store behaves the same on every
thread and under every ``io_backend``.
"""

from __future__ import annotations

import math
import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.io import checksum
from repro.io.aio import syscall_tape
from repro.io.buffers import CopyCounter, check_destination
from repro.io.errors import IntegrityError
from repro.io.fdtable import FDTable, FilePool, preadv_full, pwritev_over

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
    """Stores numpy arrays as framed files, one live tensor per file.

    A released tensor's file is recycled (:class:`~repro.io.fdtable.FilePool`):
    the store never holds more files than its peak number of live
    tensors, names them by number (``f{n}.bin``; :meth:`path_for` says
    which holds a tensor now) and removes them only in :meth:`clear`.

    Args:
        root: directory for tensor files (created if missing).
        throttle_bytes_per_s: if set, sleep so that transfers do not exceed
            this bandwidth — used to emulate slow SSDs in tests.

    Descriptors are closed by :meth:`close`/:meth:`clear`, or when a
    store nobody closed is collected.
    """

    def __init__(
        self,
        root: Union[str, Path],
        throttle_bytes_per_s: Optional[float] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._dir = str(self.root)  # file paths are composed as strings
        if throttle_bytes_per_s is not None and throttle_bytes_per_s <= 0:
            raise ValueError(f"throttle must be positive: {throttle_bytes_per_s}")
        self.throttle_bytes_per_s = throttle_bytes_per_s
        self.copy_stats = CopyCounter()
        self.fds = FDTable()
        #: The table's lock: a file lookup and its descriptor borrow are one.
        self._lock = self.fds.lock
        self._traffic = StoreTraffic()
        #: tensor id -> path of the file holding it.
        self._files: Dict[str, str] = {}
        self._pool = FilePool(self.fds, self._dir, "f")

    # ------------------------------------------------------------------ stats
    def reset_stats(self) -> None:
        with self._lock:
            self._traffic = StoreTraffic()

    # ------------------------------------------------------------------- I/O
    def path_for(self, tensor_id: str) -> Optional[Path]:
        """The file holding ``tensor_id`` now; None if the store holds none."""
        with self._lock:
            path = self._files.get(tensor_id)
        return Path(path) if path is not None else None

    def write(self, tensor_id: str, data: np.ndarray) -> None:
        """Persist ``data`` as ``tensor_id`` in a recycled or new file.

        One ``pwritev`` carries the header and the tensor's contiguous
        view — the crc32 is computed over the view and no intermediate
        ``bytes`` object is ever built — and a recycled file that was
        longer is ``ftruncate``\\ d so no stale tail survives.  The
        resulting file is bit-identical to ``frame_payload(data.tobytes())``.
        A rewrite of a held ``tensor_id`` lands in another file and frees
        the old one.

        Contract: ``data`` must not mutate during the call.  The zero-copy
        path reads the source twice (crc pass, write pass) — a concurrent
        mutation would frame a checksum that can never match the payload,
        i.e. a file that is unreadable rather than merely stale.  The
        engine honors this by construction: activations are immutable
        once packed, and mutable buffers (weights) never reach a store.
        """
        start = time.monotonic()
        contiguous, copied = contiguous_view(data)
        nbytes = contiguous.nbytes
        if copied:
            self.copy_stats.count_copy(nbytes)
        payload = memoryview(contiguous.reshape(-1)).cast("B")
        frame = FRAME_HEADER_BYTES + nbytes
        tape = syscall_tape()
        with tape:
            header = _FRAME_HEADER.pack(FRAME_MAGIC, nbytes, checksum.crc32(payload))
            with self._lock:
                path, held = self._pool.take(frame)
                try:
                    entry = self.fds.take(path)
                except BaseException:
                    self._pool.release(path, torn=True)
                    raise
            try:
                pwritev_over(entry.fd, [header, payload], held)
            except BaseException:
                with self._lock:
                    self.fds.give_back(entry)
                    self._pool.release(path, torn=True)
                raise
        self.copy_stats.count_avoided(2)  # tobytes() + frame concat
        with self._lock:
            self.fds.give_back(entry)
            old = self._files.get(tensor_id)
            self._files[tensor_id] = path
            if old is not None:
                self._pool.release(old)
            self._traffic.bytes_written += nbytes
            self._traffic.write_count += 1
            self._traffic.write_syscalls += tape.count
        pace(self.throttle_bytes_per_s, nbytes, start)

    def read(
        self,
        tensor_id: str,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Read a tensor back into ``out``, or into a fresh array of
        ``shape``/``dtype`` when ``out`` is None.

        One ``preadv`` scatter fills the header, the destination array
        and a one-byte probe: one disk-to-array transfer — one syscall,
        the empty probe being the EOF answer — and the only allocation
        is the destination, none when the caller passed ``out`` (one
        that cannot take the tensor in place is a ``ValueError`` before
        any byte moves: :func:`~repro.io.buffers.check_destination`); a
        retried read refills it.  Overshooting into the probe
        means the file holds more than the frame claims, a shortfall
        means a torn write — both rejected before the payload is
        trusted.  The file is looked up and its descriptor borrowed in
        one acquisition of the store's lock, and a writer never takes a
        borrowed file: a read racing the tensor's release and the reuse
        of its file reads the released bytes, never the next tensor's.
        """
        start = time.monotonic()
        dtype = np.dtype(dtype)
        expected = math.prod(shape) * dtype.itemsize
        data = np.empty(shape, dtype) if out is None else check_destination(out, shape, dtype)
        flat = data.reshape(-1)
        header = bytearray(FRAME_HEADER_BYTES)
        probe = bytearray(1)
        tape = syscall_tape()
        with tape:
            with self._lock:
                path = self._files.get(tensor_id)
                if path is None:
                    raise FileNotFoundError(f"no offloaded tensor {tensor_id!r} in {self._dir}")
                entry = self.fds.take(path, create=False)
            try:
                got = preadv_full(entry.fd, [header, memoryview(flat), probe], probe=1)
            finally:
                with self._lock:
                    self.fds.give_back(entry)
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
        if checksum.crc32(flat) != crc:
            raise IntegrityError(f"checksum mismatch for {label()}: bit-rot or torn write")
        self.copy_stats.count_copy(data.nbytes, avoided=1)  # the whole-file bytes slurp
        pace(self.throttle_bytes_per_s, data.nbytes, start)
        with self._lock:
            self._traffic.bytes_read += data.nbytes
            self._traffic.read_count += 1
            self._traffic.read_syscalls += tape.count
        return data

    def delete(self, tensor_id: str) -> None:
        """Release ``tensor_id``: its file joins the free pool (idempotent)."""
        with self._lock:
            path = self._files.pop(tensor_id, None)
            if path is not None:
                self._pool.release(path)

    def flush(self) -> None:
        """Every write already reached its file; nothing is staged."""

    def close(self) -> None:
        """Close every cached descriptor; the files stay (idempotent)."""
        self.fds.close_all()

    def clear(self) -> None:
        """Remove every file, live or free (at shutdown, and in tests)."""
        with self._lock:
            self._files.clear()
            paths = self._pool.drain()
        self.close()
        for path in paths:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
