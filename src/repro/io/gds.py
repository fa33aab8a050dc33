"""GPUDirect Storage (GDS) path model.

GDS "enables a direct data path between GPU and NVMe SSDs, removing the
need for a CPU bounce buffer" (Sec. II-D).  The paper uses the kvikio
binding plus an ``LD_PRELOAD`` CUDA-malloc hook library so GPU buffers are
registered with GDS at allocation time (Sec. III-A).

This module models both paths analytically for the simulator and provides
the registration bookkeeping for the functional engine:

- :class:`DirectGDSPath` — GPU -> SSD limited by min(GPU PCIe link, SSD
  array bandwidth).
- :class:`BounceBufferPath` — GPU -> host -> SSD: two serialized copies
  plus CPU-memory contention, the inefficiency SSDTrain avoids.
- :class:`GDSRegistry` — which storages are registered (the CUDA malloc
  hook's job); transfers of unregistered buffers fall back to the bounce
  path, like real GDS.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Union

from repro.device.pcie import PCIeLink
from repro.device.ssd import SSD
from repro.tensor.storage import UntypedStorage


class GDSRegistry:
    """Tracks which storages have been registered for GDS.

    The paper hooks ``cudaMalloc``/``cudaFree`` via ``LD_PRELOAD`` so that
    every allocation is registered "for best GDS performance" without
    replacing the PyTorch allocator.  The functional engine calls
    :meth:`register` from the offloader; membership is by weak reference so
    registration never extends a buffer's lifetime.
    """

    def __init__(self) -> None:
        self._registered: "weakref.WeakSet[UntypedStorage]" = weakref.WeakSet()
        #: Owning storage by payload-array identity (``id(storage.data)``)
        #: — the lookup the GDS-sim lane performs at store time, when it
        #: holds the ndarray being written, not the storage object.  A
        #: WeakValueDictionary so the index, like the membership set,
        #: never extends a buffer's lifetime; the ``.data is array``
        #: re-check below guards against ``id()`` reuse after a collect.
        self._by_array: "weakref.WeakValueDictionary[int, UntypedStorage]" = (
            weakref.WeakValueDictionary()
        )
        self._lock = threading.Lock()
        self.register_count = 0
        self.deregister_count = 0

    def register(self, storage: UntypedStorage) -> None:
        with self._lock:
            if storage not in self._registered:
                self._registered.add(storage)
                self._by_array[id(storage.data)] = storage
                self.register_count += 1

    def deregister(self, storage: UntypedStorage) -> None:
        with self._lock:
            if storage in self._registered:
                self._registered.discard(storage)
                self._by_array.pop(id(storage.data), None)
                self.deregister_count += 1

    def is_registered(self, storage: UntypedStorage) -> bool:
        with self._lock:
            return storage in self._registered

    def owner_of(self, array) -> Union[UntypedStorage, None]:
        """The registered storage whose payload is ``array``, else None."""
        with self._lock:
            storage = self._by_array.get(id(array))
            if storage is None or storage.data is not array:
                return None
            return storage

    def is_array_registered(self, array) -> bool:
        """Whether ``array`` is the payload of a registered storage.

        The functional GDS-sim lane's routing predicate: a store whose
        source array belongs to a registered storage takes the direct
        path (no host bounce staging); anything else — unregistered
        storages, detached copies — falls back to the bounce path, like
        real GDS.
        """
        return self.owner_of(array) is not None


@dataclass(frozen=True)
class DirectGDSPath:
    """Direct GPU <-> SSD DMA: bottlenecked by the slower of the two hops."""

    gpu_link: PCIeLink
    array: SSD  # one SSD, or a RAID0Array of them

    def write_bandwidth(self) -> float:
        return min(self.gpu_link.bandwidth, self.array.write_bw)

    def read_bandwidth(self) -> float:
        return min(self.gpu_link.bandwidth, self.array.read_bw)

    def write_time(self, nbytes: int) -> float:
        if nbytes == 0:
            return 0.0
        return self.gpu_link.latency_s + nbytes / self.write_bandwidth()

    def read_time(self, nbytes: int) -> float:
        if nbytes == 0:
            return 0.0
        return self.gpu_link.latency_s + nbytes / self.read_bandwidth()


@dataclass(frozen=True)
class BounceBufferPath:
    """GPU -> host bounce buffer -> SSD (what SSDTrain avoids).

    The two hops serialize unless double-buffered; host-memory bandwidth is
    additionally shared with "training management tasks and offloaded
    computation" (Sec. I), modeled by ``host_contention`` < 1.
    """

    gpu_link: PCIeLink
    array: SSD  # one SSD, or a RAID0Array of them
    host_contention: float = 0.7
    double_buffered: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.host_contention <= 1:
            raise ValueError(f"host_contention must be in (0, 1]: {self.host_contention}")

    def write_bandwidth(self) -> float:
        gpu_hop = self.gpu_link.bandwidth * self.host_contention
        ssd_hop = self.array.write_bw
        if self.double_buffered:
            return min(gpu_hop, ssd_hop)
        # Serialized hops: effective rate is the harmonic combination.
        return 1.0 / (1.0 / gpu_hop + 1.0 / ssd_hop)

    def read_bandwidth(self) -> float:
        gpu_hop = self.gpu_link.bandwidth * self.host_contention
        ssd_hop = self.array.read_bw
        if self.double_buffered:
            return min(gpu_hop, ssd_hop)
        return 1.0 / (1.0 / gpu_hop + 1.0 / ssd_hop)

    def write_time(self, nbytes: int) -> float:
        if nbytes == 0:
            return 0.0
        return 2 * self.gpu_link.latency_s + nbytes / self.write_bandwidth()

    def read_time(self, nbytes: int) -> float:
        if nbytes == 0:
            return 0.0
        return 2 * self.gpu_link.latency_s + nbytes / self.read_bandwidth()
