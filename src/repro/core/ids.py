"""Tensor identifiers with storage-level deduplication (Sec. III-C1).

PyTorch's native ``id()`` is tied to the memory address, which gets reused
once an offloaded activation is garbage-collected — causing identifier
collisions.  SSDTrain's ``get_id()`` instead stamps a timestamp on the
tensor's *underlying storage* the first time it sees it and combines that
stamp with the tensor shape:

- two ``Tensor`` objects viewing the same data (PyTorch "sometimes creates
  new torch.Tensor objects representing the identical tensor") map to the
  same identifier — preventing redundant I/O;
- a weight and its transpose share the storage stamp, so the transpose's
  identifier is consistent across steps and can be recorded in the weight
  exclusion set before training.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Set, Tuple

from repro.tensor.module import Module
from repro.tensor.tensor import Tensor

#: Key under which the stamp is stored on ``storage.metadata``.
STORAGE_STAMP_KEY = "ssdtrain_stamp"


@dataclass(frozen=True)
class TensorID:
    """Identifier = (first-seen stamp of the storage, tensor shape)."""

    stamp: int
    shape: Tuple[int, ...]

    def filename(self) -> str:
        """The store key; composed once per identifier (a frozen
        dataclass still has an instance dict, which is not a field)."""
        name = self.__dict__.get("_filename")
        if name is None:
            shape_part = "x".join(map(str, self.shape)) or "scalar"
            name = self.__dict__["_filename"] = f"t{self.stamp}_{shape_part}"
        return name

    def __str__(self) -> str:
        return self.filename()


class TensorIDRegistry:
    """Issues :class:`TensorID`s and tracks the weight exclusion set."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counter = itertools.count()
        self._weight_ids: Set[TensorID] = set()

    def _new_stamp(self) -> int:
        # Timestamp in ns, disambiguated by a process-wide counter so two
        # tensors first seen in the same clock tick never collide.
        return (time.monotonic_ns() << 20) | (next(self._counter) & 0xFFFFF)

    def get_id(self, tensor: Tensor) -> TensorID:
        """The identifier for ``tensor``, stamping its storage if new."""
        storage = tensor.untyped_storage()
        with self._lock:
            stamp = storage.metadata.get(STORAGE_STAMP_KEY)
            if stamp is None:
                stamp = self._new_stamp()
                storage.metadata[STORAGE_STAMP_KEY] = stamp
        return TensorID(stamp=stamp, shape=tuple(tensor.shape))

    # ------------------------------------------------------------- weights
    def record_weight(self, param: Tensor) -> None:
        """Add a parameter (and its transpose view) to the exclusion set.

        Linear layers register the *transpose* of their weight on the graph;
        recording the transposed identifier up front keeps every step's
        pack-hook lookups hitting the same ids (Sec. III-C1).
        """
        tid = self.get_id(param)
        with self._lock:
            self._weight_ids.add(tid)
        if param.ndim == 2:
            transposed = TensorID(stamp=tid.stamp, shape=(param.shape[1], param.shape[0]))
            with self._lock:
                self._weight_ids.add(transposed)

    def record_module_weights(self, module: Module) -> int:
        """Record every parameter of ``module``; returns the count."""
        count = 0
        for _, param in module.named_parameters():
            self.record_weight(param)
            count += 1
        return count

    def is_weight(self, tensor: Tensor) -> bool:
        """Membership test used by the pack hook (Alg. 1 line 2)."""
        storage = tensor.untyped_storage()
        stamp = storage.metadata.get(STORAGE_STAMP_KEY)
        if stamp is None:
            return False
        with self._lock:
            return TensorID(stamp=stamp, shape=tuple(tensor.shape)) in self._weight_ids

    @property
    def num_weights(self) -> int:
        with self._lock:
            return len(self._weight_ids)
