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
  to the SSD store), placed per block through the strategy's tier hint
  via the per-tenant :meth:`~repro.core.policy.OffloadPolicy
  .set_tenant_policy` hook.

Traffic is inline except where a decode blocks: page-outs and look-ahead
prefetches run on the calling thread (under the block's tenant scope, so
the PR 6 fair-share/quota books account KV bytes per user with no new
mechanism), which makes *placement a pure function of the call sequence*
— the determinism the seeded server simulation and the ``repro kv``
asserts require.  Demand fetches ride the shared
:class:`~repro.io.scheduler.IOScheduler` as ``BLOCKING_LOAD`` requests
and the pool waits for them, so they are deterministic too.  A block is
therefore only ever in one of two states, ``HBM`` or ``ENGINE``; the
in-flight half of a residency machine (parked payloads, forwarding,
cancel-or-wait) belongs to the training-side tensor cache, the one
asynchronous front-end.  The pool is driven from one thread; its lock
keeps the table and counters coherent for concurrent *readers*
(``tier_census``, ``hbm_used_bytes``).
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
from repro.serve.paging import BlockContext, PagingPolicy, PagingStrategy

__all__ = ["BlockKey", "BlockMeta", "BlockState", "KVBlockPool", "KVPoolStats"]


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
    ENGINE = "engine"  # held by the tiered engine (CPU or SSD)


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
        self.state = BlockState.HBM
        self.data: Optional[np.ndarray] = None
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
            raise ValueError(
                f"hbm_capacity_bytes must be >= 0: {hbm_capacity_bytes}"
            )
        self.engine = engine
        self.block_tokens = block_tokens
        self.num_layers = num_layers
        self.hbm_capacity_bytes = hbm_capacity_bytes
        self.paging = PagingPolicy(strategy)
        self.stats = KVPoolStats()
        self._lock = threading.RLock()
        self._table: Dict[BlockKey, BlockMeta] = {}
        self._requests: Dict[str, _RequestEntry] = {}
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
        """Register a request and wire its user's tenant placement hook."""
        with self._lock:
            if request_id in self._requests:
                raise ValueError(f"request {request_id!r} already registered")
            context_blocks = max(
                1, -(-int(context_tokens) // self.block_tokens)
            )
            self._requests[request_id] = _RequestEntry(
                tenant=user, context_blocks=context_blocks
            )
        self.paging.install(self.engine.policy, user)

    def _entry(self, request_id: str) -> _RequestEntry:
        entry = self._requests.get(request_id)
        if entry is None:
            raise KeyError(f"unknown request {request_id!r}")
        return entry

    # -------------------------------------------------------------- append
    def append_block(
        self, request_id: str, layer: int, data: np.ndarray
    ) -> BlockKey:
        """Append the next KV block for ``(request_id, layer)``.

        Placement is the strategy's call: ``Tier.GPU`` keeps the block
        HBM-resident (evicting colder residents if needed), ``CPU`` /
        ``SSD`` page it out to the engine with that tier as the
        per-tenant placement hint.
        """
        if not (0 <= layer < self.num_layers):
            raise ValueError(
                f"layer {layer} out of range for num_layers={self.num_layers}"
            )
        with self._lock:
            entry = self._entry(request_id)
            index = entry.next_index.get(layer, 0)
            entry.next_index[layer] = index + 1
            key = BlockKey(
                request_id=request_id,
                layer=layer,
                index=index,
                token_start=index * self.block_tokens,
                token_end=(index + 1) * self.block_tokens,
            )
            tid = TensorID(stamp=next(self._stamps), shape=tuple(data.shape))
            meta = BlockMeta(
                key,
                tid,
                entry.tenant,
                data,
                context_blocks=entry.context_blocks,
                num_layers=self.num_layers,
            )
            self._table[key] = meta
            entry.keys.append(key)
            self.stats.blocks_written += 1
            self.stats.bytes_written += meta.nbytes
            tier = self.paging.strategy.place(meta.context())
        if tier is Tier.GPU:
            self._admit_hbm(meta, data)
        else:
            self._page_out(meta, data, tier)
        return key

    # ----------------------------------------------------- HBM admission
    def _admit_hbm(self, meta: BlockMeta, data: np.ndarray) -> None:
        """Make the block HBM-resident, evicting colder blocks for room."""
        to_evict: List[Tuple[BlockMeta, np.ndarray]] = []
        with self._lock:
            while self._hbm_used + meta.nbytes > self.hbm_capacity_bytes:
                victim = self._pick_victim(exclude=meta)
                if victim is None:
                    break
                to_evict.append((victim, victim.data))
                victim.data = None
                victim.state = BlockState.ENGINE
                self._hbm_used -= victim.nbytes
                self.stats.evictions += 1
            if self._hbm_used + meta.nbytes <= self.hbm_capacity_bytes:
                meta.data = data
                meta.state = BlockState.HBM
                meta.last_access_seq = next(self._seq)
                self._hbm_used += meta.nbytes
                overflow = None
            else:
                # Nothing evictable and no room: the new block itself
                # pages out (its strategy tier hint, or pool-first).
                overflow = meta
        for victim, victim_data in to_evict:
            hint = self.paging.strategy.eviction_tier(victim.context())
            self._page_out(victim, victim_data, hint)
        if overflow is not None:
            hint = self.paging.strategy.eviction_tier(meta.context())
            self._page_out(meta, data, hint)

    def _pick_victim(self, exclude: BlockMeta) -> Optional[BlockMeta]:
        resident = [
            m
            for m in self._table.values()
            if m.state is BlockState.HBM and m is not exclude
        ]
        if not resident:
            return None
        ordered = self.paging.strategy.eviction_order(resident)
        return ordered[0] if ordered else None

    # ------------------------------------------------------------- page-out
    def _page_out(
        self, meta: BlockMeta, data: np.ndarray, tier_hint: Optional[Tier]
    ) -> None:
        """Hand the block's bytes to the engine, inline."""
        with self._lock:
            meta.state = BlockState.ENGINE
            meta.prefetched = False
            self.stats.writebacks += 1
            self.stats.writeback_bytes += meta.nbytes
        with tenant_scope(meta.tenant), self.paging.hint(tier_hint):
            self.engine.offloader.store(meta.tid, data)

    # -------------------------------------------------------------- prefetch
    def prefetch(self, schedule: Sequence[str]) -> int:
        """Run the strategy's look-ahead plan for the decode ``schedule``.

        Each planned engine-resident block is migrated into HBM inline
        (the look-ahead happens between decode rounds).  Returns the
        number of blocks brought back.
        """
        offloader = self.engine.offloader
        issued = 0
        for key in self.paging.strategy.prefetch_plan(schedule, self):
            meta = self._table.get(key)
            if meta is None:
                continue
            with self._lock:
                if meta.state is not BlockState.ENGINE or meta.prefetched:
                    continue
                # Set before _admit_hbm: a block that overflows straight
                # back to the engine has the flag cleared by its page-out.
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
            offloader.release(meta.tid)
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
        load lane, awaited."""
        offloader = self.engine.offloader
        tid, shape, dtype = meta.tid, meta.shape, meta.dtype
        request = IORequest(
            lambda: offloader.load(tid, shape, dtype),
            kind="load",
            priority=Priority.BLOCKING_LOAD,
            tensor_id=str(tid),
            nbytes=meta.nbytes,
            lane=offloader.load_lane(tid),
            label=f"kv-fetch:{meta.key.request_id}/{meta.key.layer}/{meta.key.index}",
            tenant=meta.tenant,
        )
        self.engine.scheduler.submit(request)
        request.wait()
        if request.error is not None:
            raise request.error
        data = request.result
        offloader.release(tid)
        with self._lock:
            meta.prefetched = False
            self.stats.demand_fetches += 1
            self.stats.fetched_bytes += meta.nbytes
        self._admit_hbm(meta, data)
        return data

    # --------------------------------------------------------------- release
    def release_request(self, request_id: str) -> int:
        """Drop every block of a finished request; returns the count."""
        with self._lock:
            entry = self._requests.pop(request_id, None)
            if entry is None:
                return 0
            metas = [self._table.pop(key) for key in entry.keys]
            for meta in metas:
                if meta.state is BlockState.HBM:
                    self._hbm_used -= meta.nbytes
                    meta.data = None
            self.stats.released_blocks += len(metas)
        for meta in metas:
            if meta.state is BlockState.ENGINE:
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

    def keys_of(self, request_id: str) -> List[BlockKey]:
        with self._lock:
            entry = self._requests.get(request_id)
            return list(entry.keys) if entry is not None else []

    def paged_out_keys(self, request_id: str) -> List[BlockKey]:
        """Blocks of ``request_id`` currently held by the engine only —
        the candidates a look-ahead prefetch should bring back."""
        with self._lock:
            entry = self._requests.get(request_id)
            if entry is None:
                return []
            return [
                key
                for key in entry.keys
                if self._table[key].state is BlockState.ENGINE
            ]

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
