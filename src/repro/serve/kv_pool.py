"""The KV-cache block pool: fixed-size paged KV over HBM → CPU → SSD.

The serving analogue of the training-side tensor cache.  Each inference
request's KV cache is chopped into fixed-size per-layer blocks
(``block_tokens`` tokens each — the chunk-based memory-management idea
of PatrickStar, SNIPPETS §1, applied to KV); the **block table** keys
every block by ``(request_id, layer, token_range)`` and tracks which
tier holds it:

- **HBM-sim** — a bounded byte budget owned by the pool itself (the
  "GPU" tier of the serving box); resident blocks are served with zero
  engine traffic.
- **engine** — everything paged out lands in the existing
  :class:`~repro.core.tiered.TieredOffloader` data plane (pinned CPU
  pool backed by the :class:`~repro.io.buffers.BufferArena`, spilling
  to the SSD store), placed per block by the strategy: its tier is the
  ``tier`` argument of the engine's ``store``.

Page-outs and look-ahead prefetches run on the calling thread (under
the block's tenant scope, so the PR 6 fair-share/quota books account KV
bytes per user with no new mechanism), which makes *placement a pure
function of the call sequence* — the determinism the seeded server
simulation and the ``repro kv`` asserts require.  A demand fetch — the
read a decode blocks on — is a ``BLOCKING_LOAD`` request on the shared
:class:`~repro.io.scheduler.IOScheduler`'s books either way, and where
it runs follows where the bytes are (the paper's forwarding rule,
Sec. III-C2: a read that finds its bytes in memory never pays the I/O
path): a block in the pinned pool is read on the calling thread
(:meth:`~repro.io.scheduler.IOScheduler.run_inline` — no queue, no
worker hand-off), a block on the SSD is queued on the ``ssd`` lane and
waited for, where priority and deadlines do something.

A block's state is ``HBM`` or ``ENGINE`` (nothing is in flight when a
caller looks), and :meth:`KVBlockPool._set_state` is the one place it
is written: it keeps the index of HBM residents and the HBM byte count
in step, so an eviction orders the residents it is handed and never
scans the table.  Next to the state, ``engine_copy`` records that the
pool stored the block and still holds that engine copy.  The **copy
rule** is Linux's swap cache: a block read back from the pinned pool
keeps its copy, so its next eviction only flips the state — no store.
Like ``vm_swap_full()``, a read-back releases the copy instead when the
pool is more than half full, so a kept copy never forces another
block's demotion.  A copy on the SSD (or queued or spilling there) is
never trusted: the device may have died unnoticed, so such a block is
written back on eviction like one with no copy.  The pool is driven
from one thread; its lock keeps the table and counters coherent for
concurrent *readers* (``tier_census``, ``hbm_used_bytes``).
"""

from __future__ import annotations

import enum
import itertools
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import Engine
from repro.core.ids import TensorID
from repro.core.policy import Tier
from repro.io.scheduler import IORequest, Priority
from repro.io.tenancy import DEFAULT_TENANT, tenant_scope
from repro.serve.paging import BlockContext, PagingStrategy, PreferHBM

__all__ = ["BlockKey", "BlockMeta", "BlockState", "KVBlockPool", "KVPoolStats"]

#: A read-back keeps the engine's pinned-pool copy only while the pool
#: is at most this full (the ``vm_swap_full()`` threshold).
KEEP_COPY_MAX_FILL = 0.5


@dataclass(frozen=True)
class BlockKey:
    """Block-table key: ``(request_id, layer, token_range)``.

    Equality/hash use ``(request_id, layer, index)``; the token range is
    carried alongside (it is bijective with the index for fixed-size
    blocks) so table entries self-describe which tokens they cover.
    """

    request_id: str
    layer: int
    index: int
    token_start: int = field(compare=False, default=0)
    token_end: int = field(compare=False, default=0)

    @property
    def token_range(self) -> Tuple[int, int]:
        return (self.token_start, self.token_end)


class BlockState(enum.Enum):
    HBM = "hbm"        # resident in the pool's HBM budget
    ENGINE = "engine"  # held by, or on its way to, the tiered engine (CPU or SSD)


class BlockMeta:
    """One row of the block table."""

    __slots__ = (
        "key",
        "tid",
        "tenant",
        "nbytes",
        "shape",
        "dtype",
        "state",
        "data",
        "engine_copy",
        "prefetched",
        "last_access_seq",
        "context_blocks",
        "num_layers",
    )

    def __init__(
        self,
        key: BlockKey,
        tid: TensorID,
        tenant: str,
        data: np.ndarray,
        context_blocks: int,
        num_layers: int,
    ) -> None:
        self.key = key
        self.tid = tid
        self.tenant = tenant
        self.nbytes = int(data.nbytes)
        self.shape = tuple(data.shape)
        self.dtype = data.dtype
        #: ``state`` is written by :meth:`KVBlockPool._set_state` only
        #: (first when the pool files the row); ``data`` follows it.
        self.data: Optional[np.ndarray] = None
        #: Set by a page-out, cleared when a read-back releases the copy.
        self.engine_copy = False
        #: Set when a prefetch was issued for this block and not yet
        #: consumed by an access — the hit-accounting flag.
        self.prefetched = False
        self.last_access_seq = 0
        self.context_blocks = context_blocks
        self.num_layers = num_layers

    def context(self) -> BlockContext:
        return BlockContext(
            request_id=self.key.request_id,
            tenant=self.tenant,
            layer=self.key.layer,
            num_layers=self.num_layers,
            block_index=self.key.index,
            context_blocks=self.context_blocks,
            token_start=self.key.token_start,
            token_end=self.key.token_end,
            nbytes=self.nbytes,
        )


@dataclass
class KVPoolStats:
    """Cumulative pool counters (test / bench / CLI surface)."""

    blocks_written: int = 0
    bytes_written: int = 0
    hbm_hits: int = 0
    prefetch_issued: int = 0
    prefetch_hits: int = 0
    demand_fetches: int = 0
    fetched_bytes: int = 0
    #: Engine stores by page-outs; a clean eviction counts in ``evictions`` only.
    writebacks: int = 0
    writeback_bytes: int = 0
    evictions: int = 0
    #: Always 0: page-outs are inline, so no read can find one in flight
    #: to be forwarded from.  Kept because the frozen benchmark
    #: (``benchmarks/e2e/wl_kv.py``) sums it into its access count.
    forward_hits: int = 0
    released_blocks: int = 0

    @property
    def prefetch_hit_rate(self) -> float:
        """Fraction of non-HBM accesses a prefetch had already covered."""
        covered = self.prefetch_hits + self.demand_fetches
        return self.prefetch_hits / covered if covered else 0.0


@dataclass
class _RequestEntry:
    tenant: str
    context_blocks: int
    next_index: Dict[int, int] = field(default_factory=dict)
    keys: List[BlockKey] = field(default_factory=list)


class KVBlockPool:
    """Fixed-size KV block manager over the tiered engine (see module
    docstring).

    Args:
        engine: a built :class:`~repro.core.engine.Engine` — the single
            construction path (``build_engine(EngineConfig(...))``)
            shared with the training front-end.
        block_tokens: tokens per block (the paging granularity).
        num_layers: model depth — each token's KV spans this many blocks
            columns.
        hbm_capacity_bytes: the simulated HBM budget for resident blocks.
        strategy: a :class:`~repro.serve.paging.PagingStrategy`
            (default :class:`~repro.serve.paging.PreferHBM`).
    """

    def __init__(
        self,
        engine: Engine,
        *,
        block_tokens: int = 64,
        num_layers: int = 2,
        hbm_capacity_bytes: int = 1 << 20,
        strategy: Optional[PagingStrategy] = None,
    ) -> None:
        if block_tokens < 1:
            raise ValueError(f"block_tokens must be >= 1: {block_tokens}")
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1: {num_layers}")
        if hbm_capacity_bytes < 0:
            raise ValueError(f"hbm_capacity_bytes must be >= 0: {hbm_capacity_bytes}")
        self.engine = engine
        self.block_tokens = block_tokens
        self.num_layers = num_layers
        self.hbm_capacity_bytes = hbm_capacity_bytes
        self.strategy = strategy if strategy is not None else PreferHBM()
        self.stats = KVPoolStats()
        self._lock = threading.RLock()
        self._table: Dict[BlockKey, BlockMeta] = {}
        self._requests: Dict[str, _RequestEntry] = {}
        #: The rows whose state is HBM and their byte sum; maintained by
        #: :meth:`_set_state` alone.
        self._resident: Dict[BlockKey, BlockMeta] = {}
        self._hbm_used = 0
        self._seq = itertools.count(1)
        self._stamps = itertools.count(1)

    # ------------------------------------------------------------- requests
    def begin_request(
        self,
        request_id: str,
        *,
        user: str = DEFAULT_TENANT,
        context_tokens: int = 0,
    ) -> None:
        """Register a request; its blocks are booked to ``user``'s tenant."""
        with self._lock:
            if request_id in self._requests:
                raise ValueError(f"request {request_id!r} already registered")
            context_blocks = max(1, -(-int(context_tokens) // self.block_tokens))
            self._requests[request_id] = _RequestEntry(user, context_blocks)

    def _entry(self, request_id: str) -> _RequestEntry:
        entry = self._requests.get(request_id)
        if entry is None:
            raise KeyError(f"unknown request {request_id!r}")
        return entry

    # -------------------------------------------------------------- append
    def append_block(self, request_id: str, layer: int, data: np.ndarray) -> BlockKey:
        """Append the next KV block for ``(request_id, layer)``.

        Placement is the strategy's call: ``Tier.GPU`` keeps the block
        HBM-resident (evicting colder residents if needed), ``CPU`` /
        ``SSD`` page it out to that engine tier.
        """
        if not (0 <= layer < self.num_layers):
            raise ValueError(f"layer {layer} out of range for num_layers={self.num_layers}")
        with self._lock:
            entry = self._entry(request_id)
            index = entry.next_index.get(layer, 0)
            entry.next_index[layer] = index + 1
            tokens = self.block_tokens
            key = BlockKey(request_id, layer, index, index * tokens, (index + 1) * tokens)
            tid = TensorID(stamp=next(self._stamps), shape=tuple(data.shape))
            meta = BlockMeta(key, tid, entry.tenant, data, entry.context_blocks, self.num_layers)
            self._table[key] = meta
            self._set_state(meta, BlockState.ENGINE)  # not resident until admitted
            entry.keys.append(key)
            self.stats.blocks_written += 1
            self.stats.bytes_written += meta.nbytes
            tier = self.strategy.place(meta.context())
        if tier is Tier.GPU:
            self._admit_hbm(meta, data)
        else:
            self._page_out(meta, data, tier)
        return key

    # ----------------------------------------------------------- block state
    def _set_state(
        self,
        meta: BlockMeta,
        state: Optional[BlockState],
        data: Optional[np.ndarray] = None,
    ) -> None:
        """The one writer of :attr:`BlockMeta.state`; callers hold the lock.

        ``data`` is the payload an HBM resident holds (``None`` in every
        other state); ``state=None`` takes a released row out of the
        pool.  The resident index and the HBM byte count move with the
        state, so they cannot disagree with it.
        """
        if self._resident.pop(meta.key, None) is not None:
            self._hbm_used -= meta.nbytes
        meta.state = state
        meta.data = data
        if state is BlockState.HBM:
            self._resident[meta.key] = meta
            self._hbm_used += meta.nbytes

    def _clean(self, meta: BlockMeta) -> bool:
        """Whether ``meta`` can leave HBM without a store: the engine
        still holds the pool's copy of it, in the pinned pool."""
        return meta.engine_copy and self.engine.offloader.tier_of(meta.tid) is Tier.CPU

    # ----------------------------------------------------- HBM admission
    def _admit_hbm(self, meta: BlockMeta, data: np.ndarray) -> None:
        """Make an engine-state block HBM-resident, evicting colder
        blocks for room; a clean victim only changes state."""
        to_evict: List[Tuple[BlockMeta, np.ndarray]] = []
        overflow = False
        with self._lock:
            while self._hbm_used + meta.nbytes > self.hbm_capacity_bytes:
                victim = self._pick_victim()
                if victim is None:
                    break
                if not self._clean(victim):
                    to_evict.append((victim, victim.data))
                victim.prefetched = False
                self._set_state(victim, BlockState.ENGINE)
                self.stats.evictions += 1
            if self._hbm_used + meta.nbytes <= self.hbm_capacity_bytes:
                self._set_state(meta, BlockState.HBM, data)
                meta.last_access_seq = next(self._seq)
            else:
                # Nothing evictable and no room: the new block itself
                # pages out (to its strategy tier, or pool-first)
                # unless the engine still holds it.
                meta.prefetched = False
                overflow = not self._clean(meta)
        for victim, victim_data in to_evict:
            self._page_out(victim, victim_data, self.strategy.place(victim.context()))
        if overflow:
            self._page_out(meta, data, self.strategy.place(meta.context()))

    def _pick_victim(self) -> Optional[BlockMeta]:
        """The resident the strategy evicts first.  ``last_access_seq``
        is unique per resident, so the order does not depend on the
        order the residents are handed over in."""
        if not self._resident:
            return None
        ordered = self.strategy.eviction_order(list(self._resident.values()))
        return ordered[0] if ordered else None

    # ------------------------------------------------------------- page-out
    def _page_out(self, meta: BlockMeta, data: np.ndarray, tier: Tier) -> None:
        """Hand an engine-state block's bytes to the engine, inline, to
        the strategy's ``tier``; ``GPU`` (a block evicted under HBM
        pressure) leaves the engine's placement rule to choose."""
        with self._lock:
            meta.engine_copy = True
            self.stats.writebacks += 1
            self.stats.writeback_bytes += meta.nbytes
        with tenant_scope(meta.tenant):
            self.engine.offloader.store(meta.tid, data, None if tier is Tier.GPU else tier)

    def _read_back(self, meta: BlockMeta) -> None:
        """The copy rule for a block just read back for HBM: keep the
        engine's copy while it is in the pinned pool and the pool is at
        most :data:`KEEP_COPY_MAX_FILL` full, else release it."""
        offloader = self.engine.offloader
        if offloader.tier_of(meta.tid) is Tier.CPU:
            capacity = offloader.pool.capacity_bytes
            if capacity is None or offloader.pool.used <= KEEP_COPY_MAX_FILL * capacity:
                return
        offloader.release(meta.tid)
        with self._lock:
            meta.engine_copy = False

    # -------------------------------------------------------------- prefetch
    def prefetch(self, schedule: Sequence[str]) -> int:
        """Run the strategy's look-ahead plan for the decode ``schedule``.

        Each planned engine-resident block is migrated into HBM inline
        (the look-ahead happens between decode rounds).  Returns the
        number of blocks brought back.
        """
        offloader = self.engine.offloader
        issued = 0
        for key in self.strategy.prefetch_plan(schedule, self):
            meta = self._table.get(key)
            if meta is None:
                continue
            with self._lock:
                if meta.state is not BlockState.ENGINE or meta.prefetched:
                    continue
                # Set before _admit_hbm: a block that overflows straight
                # back to the engine has the flag cleared there.
                meta.prefetched = True
            try:
                with tenant_scope(meta.tenant):
                    data = offloader.load(meta.tid, meta.shape, meta.dtype)
            except BaseException:
                # The block is still ENGINE and nothing was prefetched: a
                # stuck flag would skip it forever and book its next HBM
                # read as a prefetch hit.
                with self._lock:
                    meta.prefetched = False
                raise
            self._read_back(meta)
            with self._lock:
                self.stats.prefetch_issued += 1
            issued += 1
            self._admit_hbm(meta, data)
        return issued

    # ----------------------------------------------------------------- fetch
    def fetch(self, request_id: str, layer: int, index: int) -> np.ndarray:
        """Read one block for a decode step (always returns the bytes).

        HBM residents are free (a hit, or a *prefetch* hit when a
        look-ahead brought the block back); an engine-resident block
        costs a ``BLOCKING_LOAD`` demand fetch (miss).  Fetched blocks
        are re-admitted to HBM — they are the decode working set.
        """
        key = BlockKey(request_id=request_id, layer=layer, index=index)
        with self._lock:
            meta = self._table.get(key)
            if meta is None:
                raise KeyError(f"no KV block for {request_id!r}/{layer}/{index}")
            meta.last_access_seq = next(self._seq)
            if meta.state is BlockState.HBM:
                if meta.prefetched:
                    meta.prefetched = False
                    self.stats.prefetch_hits += 1
                else:
                    self.stats.hbm_hits += 1
                return meta.data
        return self._fetch_demand(meta)

    def _fetch_demand(self, meta: BlockMeta) -> np.ndarray:
        """The decode-blocking read: one ``BLOCKING_LOAD`` on the engine's
        books, run here when the block is in host memory and queued on
        the ``ssd`` lane (and awaited) when it is not."""
        offloader = self.engine.offloader
        scheduler = self.engine.scheduler
        tid, shape, dtype = meta.tid, meta.shape, meta.dtype
        lane = offloader.load_lane(tid)
        # A fetch handed to a lane worker reads into a destination this
        # thread allocated, so the worker's malloc arena keeps none of it.
        out = None if lane == "cpu" else np.empty(shape, dtype)
        request = IORequest(
            lambda: offloader.load(tid, shape, dtype, out=out),
            kind="load",
            priority=Priority.BLOCKING_LOAD,
            tensor_id=str(tid),
            nbytes=meta.nbytes,
            lane=lane,
            label=f"kv-fetch:{meta.key.request_id}/{meta.key.layer}/{meta.key.index}",
            tenant=meta.tenant,
        )
        if request.lane == "cpu":
            scheduler.run_inline(request)
        else:
            scheduler.submit(request).wait()
        if request.error is not None:
            raise request.error
        data = request.result
        self._read_back(meta)
        with self._lock:
            meta.prefetched = False
            self.stats.demand_fetches += 1
            self.stats.fetched_bytes += meta.nbytes
        self._admit_hbm(meta, data)
        return data

    # --------------------------------------------------------------- release
    def release_request(self, request_id: str) -> int:
        """Drop every block of a finished request and every engine copy
        held of them, whatever their state; returns the block count."""
        with self._lock:
            entry = self._requests.pop(request_id, None)
            if entry is None:
                return 0
            metas = [self._table.pop(key) for key in entry.keys]
            held = [m for m in metas if m.engine_copy]
            for meta in metas:
                self._set_state(meta, None)
            self.stats.released_blocks += len(metas)
        for meta in held:
            self.engine.offloader.release(meta.tid)
        return len(metas)

    # ----------------------------------------------------------------- views
    @property
    def hbm_used_bytes(self) -> int:
        with self._lock:
            return self._hbm_used

    def request_ids(self) -> List[str]:
        with self._lock:
            return list(self._requests)

    def paged_out_keys(self, request_id: str) -> List[BlockKey]:
        """Blocks of ``request_id`` currently held by the engine only —
        the candidates a look-ahead prefetch should bring back."""
        with self._lock:
            entry = self._requests.get(request_id)
            if entry is None:
                return []
            return [k for k in entry.keys if self._table[k].state is BlockState.ENGINE]

    def block_tier(self, key: BlockKey) -> str:
        """Where a block's bytes live right now: ``"hbm"``, ``"cpu"`` or
        ``"ssd"``."""
        with self._lock:
            meta = self._table.get(key)
            if meta is None:
                raise KeyError(f"unknown block {key}")
            if meta.state is BlockState.HBM:
                return "hbm"
        return self.engine.offloader.tier_of(meta.tid).value

    def tier_census(self) -> Dict[str, int]:
        """Block counts per tier — the paging A/B's placement picture."""
        census: Counter = Counter()
        with self._lock:
            keys = list(self._table)
        for key in keys:
            try:
                census[self.block_tier(key)] += 1
            except KeyError:
                continue  # released concurrently
        return dict(census)
