"""Tag-aware GPU memory accounting.

SSDTrain's headline metric is the *activation memory peak* during forward and
backward propagation (Fig. 6b, Fig. 7).  The :class:`MemoryLedger` tracks
live bytes per :class:`MemoryTag` and maintains running peaks, so both the
functional engine (real numpy buffers) and the discrete-event simulator can
report the same statistic.

The ledger is thread-safe: SSDTrain's offloading threads release activation
memory concurrently with the main thread allocating new activations.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import Dict, Optional


class MemoryTag(str, enum.Enum):
    """Classification of GPU memory use, following Sec. II-B of the paper."""

    ACTIVATIONS = "activations"
    WEIGHTS = "weights"
    GRADIENTS = "gradients"
    OPTIMIZER = "optimizer"
    WORKSPACE = "workspace"
    OTHER = "other"


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation would exceed the device capacity."""


@dataclass
class _TagStats:
    current: int = 0
    peak: int = 0
    total_allocated: int = 0


@dataclass
class MemorySnapshot:
    """Point-in-time view of ledger state, safe to hold across mutations."""

    current_by_tag: Dict[MemoryTag, int]
    peak_by_tag: Dict[MemoryTag, int]
    current_total: int
    peak_total: int

    def current(self, tag: MemoryTag) -> int:
        return self.current_by_tag.get(tag, 0)

    def peak(self, tag: MemoryTag) -> int:
        return self.peak_by_tag.get(tag, 0)


class MemoryLedger:
    """Byte-accurate memory accounting with per-tag peaks.

    Args:
        capacity_bytes: device capacity; ``None`` disables OOM checking
            (useful for what-if sweeps that intentionally exceed 40 GB).
        name: label used in error messages and reprs.
    """

    def __init__(self, capacity_bytes: Optional[int] = None, name: str = "gpu0") -> None:
        self.capacity_bytes = capacity_bytes
        self.name = name
        self._lock = threading.Lock()
        self._stats: Dict[MemoryTag, _TagStats] = {tag: _TagStats() for tag in MemoryTag}
        self._current_total = 0
        self._peak_total = 0

    # ------------------------------------------------------------------ alloc
    def alloc(self, nbytes: int, tag: MemoryTag = MemoryTag.OTHER) -> None:
        """Record an allocation of ``nbytes`` under ``tag``.

        Raises:
            OutOfMemoryError: when a capacity is configured and exceeded.
            ValueError: on negative sizes.
        """
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        with self._lock:
            new_total = self._current_total + nbytes
            if self.capacity_bytes is not None and new_total > self.capacity_bytes:
                raise OutOfMemoryError(
                    f"{self.name}: allocating {nbytes} bytes under {tag.value} would use "
                    f"{new_total} of {self.capacity_bytes} bytes"
                )
            stats = self._stats[tag]
            stats.current += nbytes
            stats.total_allocated += nbytes
            stats.peak = max(stats.peak, stats.current)
            self._current_total = new_total
            self._peak_total = max(self._peak_total, new_total)

    def free(self, nbytes: int, tag: MemoryTag = MemoryTag.OTHER) -> None:
        """Record a free of ``nbytes`` under ``tag``.

        Raises:
            ValueError: when freeing more than is live under the tag, which
                indicates an accounting bug in the caller.
        """
        if nbytes < 0:
            raise ValueError(f"negative free: {nbytes}")
        with self._lock:
            stats = self._stats[tag]
            if nbytes > stats.current:
                raise ValueError(
                    f"{self.name}: freeing {nbytes} bytes under {tag.value} but only "
                    f"{stats.current} bytes are live"
                )
            stats.current -= nbytes
            self._current_total -= nbytes

    # ------------------------------------------------------------------ query
    def current(self, tag: Optional[MemoryTag] = None) -> int:
        """Live bytes under ``tag``, or across all tags when ``tag is None``."""
        with self._lock:
            if tag is None:
                return self._current_total
            return self._stats[tag].current

    def peak(self, tag: Optional[MemoryTag] = None) -> int:
        """Peak bytes observed under ``tag`` (or total peak)."""
        with self._lock:
            if tag is None:
                return self._peak_total
            return self._stats[tag].peak

    def total_allocated(self, tag: Optional[MemoryTag] = None) -> int:
        """Cumulative bytes ever allocated (never decreases)."""
        with self._lock:
            if tag is None:
                return sum(s.total_allocated for s in self._stats.values())
            return self._stats[tag].total_allocated

    def snapshot(self) -> MemorySnapshot:
        """Return a consistent snapshot of current and peak usage."""
        with self._lock:
            return MemorySnapshot(
                current_by_tag={tag: s.current for tag, s in self._stats.items()},
                peak_by_tag={tag: s.peak for tag, s in self._stats.items()},
                current_total=self._current_total,
                peak_total=self._peak_total,
            )

    # ----------------------------------------------------------------- manage
    def reset_peak(self, tag: Optional[MemoryTag] = None) -> None:
        """Reset peaks to current usage (one tag, or all tags and the total).

        Fig. 6 measures the peak *during forward and backward propagation*;
        the trainer calls this at step boundaries to scope the measurement.
        """
        with self._lock:
            if tag is None:
                for stats in self._stats.values():
                    stats.peak = stats.current
                self._peak_total = self._current_total
            else:
                self._stats[tag].peak = self._stats[tag].current

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (
            f"MemoryLedger({self.name}, current={snap.current_total}, "
            f"peak={snap.peak_total}, capacity={self.capacity_bytes})"
        )
