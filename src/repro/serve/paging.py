"""Pluggable KV paging strategies (SNIPPETS §2 blueprint).

A :class:`PagingStrategy` answers the three questions the
:class:`~repro.serve.kv_pool.KVBlockPool` asks:

1. **place** — where does a freshly produced KV block go *now*
   (HBM-resident, or paged out to the engine's CPU/SSD tiers)?
2. **eviction order** — when HBM is under pressure, which resident
   blocks leave first?
3. **prefetch plan** — given the decode schedule (which requests run in
   the upcoming rounds), which paged-out blocks should be brought back
   *before* their decode blocks on them?

The shipped strategies mirror the placement/migration strategy set of
the data-placement simulator referenced in SNIPPETS.md §2: PreferHBM,
SplitToken (position-split placement), LayerImportance (importance-
ranked eviction) and LookAheadBatch (schedule-keyed prefetch).

:class:`PagingPolicy` is the bridge into the engine: it installs a
per-tenant placement hook through the *existing*
:meth:`repro.core.policy.OffloadPolicy.set_tenant_policy` shape
(``placer(nbytes, cpu_free_bytes) -> Optional[Tier]``).  The per-block
tier the strategy chose travels to that hook through a thread-local
hint set around the engine ``store`` call — the hook signature the
training front-end already uses is untouched, and tenants without a
hint fall back to the shared placement rule.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

from repro.core.policy import OffloadPolicy, Tier


@dataclass(frozen=True)
class BlockContext:
    """Everything a strategy may condition a placement decision on."""

    request_id: str
    tenant: str
    layer: int
    num_layers: int
    #: Index of this block within the request's per-layer block list.
    block_index: int
    #: Total context blocks the request will write per layer (known at
    #: admission from the prompt length).
    context_blocks: int
    token_start: int
    token_end: int
    nbytes: int


class PagingStrategy:
    """Base strategy: everything in HBM, LRU eviction, no prefetch."""

    name = "prefer-hbm"

    # ---------------------------------------------------------- placement
    def place(self, ctx: BlockContext) -> Tier:
        """Tier for a freshly written block.  ``Tier.GPU`` means
        HBM-resident; ``CPU``/``SSD`` page it out to the engine with
        that tier as the per-tenant placement hint."""
        return Tier.GPU

    # ----------------------------------------------------------- eviction
    def eviction_order(self, resident: Sequence) -> List:
        """HBM blocks sorted most-evictable first.

        ``resident`` is a sequence of
        :class:`~repro.serve.kv_pool.BlockMeta`; the default is plain
        LRU on the access sequence number.
        """
        return sorted(resident, key=lambda meta: meta.last_access_seq)

    #: Engine-tier hint for blocks evicted under HBM pressure (rather
    #: than placed cold at write time).  ``None`` defers to the shared
    #: pool-first placement rule.
    def eviction_tier(self, ctx: BlockContext) -> Optional[Tier]:
        return None

    # ----------------------------------------------------------- prefetch
    def prefetch_plan(self, schedule: Sequence[str], pool) -> List:
        """Block keys to bring HBM-ward before the next decode rounds.

        ``schedule`` lists the request ids about to decode, soonest
        first; ``pool`` answers which of their blocks are paged out.
        The base strategy never prefetches.
        """
        return []


class PreferHBM(PagingStrategy):
    """Keep every block HBM-resident while there is room; spill LRU.

    The "as much in the fast tier as fits" baseline of the SNIPPETS §2
    strategy set.
    """

    name = "prefer-hbm"


class SplitToken(PagingStrategy):
    """Split each request's KV by token position across the tiers.

    The most recent ``hbm_recent_blocks`` blocks of a context stay in
    HBM (the decode window re-reads them every step), the next
    ``cpu_window_blocks`` land in the pinned CPU pool, and the cold
    prefix goes straight to SSD.  Long contexts therefore cost HBM
    proportional to the *window*, not the prompt.
    """

    name = "split-token"

    def __init__(self, hbm_recent_blocks: int = 2, cpu_window_blocks: int = 4) -> None:
        if hbm_recent_blocks < 1:
            raise ValueError(f"hbm_recent_blocks must be >= 1: {hbm_recent_blocks}")
        if cpu_window_blocks < 0:
            raise ValueError(f"cpu_window_blocks must be >= 0: {cpu_window_blocks}")
        self.hbm_recent_blocks = hbm_recent_blocks
        self.cpu_window_blocks = cpu_window_blocks

    def place(self, ctx: BlockContext) -> Tier:
        blocks_from_tail = ctx.context_blocks - 1 - ctx.block_index
        if blocks_from_tail < self.hbm_recent_blocks:
            return Tier.GPU
        if blocks_from_tail < self.hbm_recent_blocks + self.cpu_window_blocks:
            return Tier.CPU
        return Tier.SSD

    def eviction_tier(self, ctx: BlockContext) -> Optional[Tier]:
        # A pressure-evicted block keeps its position-derived tier.
        tier = self.place(ctx)
        return None if tier is Tier.GPU else tier


class LayerImportance(PagingStrategy):
    """Importance-ranked eviction: drop low-value layers' blocks first.

    ``importance(layer) -> float`` scores each layer; under HBM pressure
    the lowest-scoring resident blocks are evicted first (ties broken by
    LRU).  The default profile scores a layer by its index — deeper
    layers' KV (consumed sooner after being produced in the decode
    pipeline) is treated as more important, so layer 0's blocks leave
    first.  Pass a measured profile to override.
    """

    name = "layer-importance"

    def __init__(self, importance: Optional[Callable[[int], float]] = None) -> None:
        self.importance = importance if importance is not None else float

    def eviction_order(self, resident: Sequence) -> List:
        return sorted(
            resident,
            key=lambda meta: (self.importance(meta.key.layer), meta.last_access_seq),
        )


class LookAheadBatch(PagingStrategy):
    """Prefetch keyed on the decode schedule (SNIPPETS §2 look-ahead).

    Wraps a base strategy for placement/eviction and adds a prefetch
    plan: for the next ``depth`` scheduled requests, every paged-out
    block is brought HBM-ward *before* its decode round needs it —
    turning decode-blocking demand fetches into prefetch hits.
    """

    name = "lookahead-batch"

    def __init__(
        self, base: Optional[PagingStrategy] = None, depth: int = 4
    ) -> None:
        if depth < 1:
            raise ValueError(f"depth must be >= 1: {depth}")
        self.base = base if base is not None else PreferHBM()
        self.depth = depth

    def place(self, ctx: BlockContext) -> Tier:
        return self.base.place(ctx)

    def eviction_order(self, resident: Sequence) -> List:
        return self.base.eviction_order(resident)

    def eviction_tier(self, ctx: BlockContext) -> Optional[Tier]:
        return self.base.eviction_tier(ctx)

    def prefetch_plan(self, schedule: Sequence[str], pool) -> List:
        keys: List = []
        for request_id in schedule[: self.depth]:
            keys.extend(pool.paged_out_keys(request_id))
        return keys


#: Strategy names accepted by the CLI/benches.
STRATEGIES = ("prefer-hbm", "split-token", "layer-importance", "lookahead")


def make_strategy(name: str, **kwargs) -> PagingStrategy:
    """Build a strategy from a CLI-style name."""
    if name == "prefer-hbm":
        return PreferHBM()
    if name == "split-token":
        return SplitToken(**kwargs)
    if name == "layer-importance":
        return LayerImportance(**kwargs)
    if name == "lookahead":
        return LookAheadBatch(**kwargs)
    raise ValueError(f"unknown paging strategy {name!r}; expected one of {STRATEGIES}")


class PagingPolicy:
    """Bridges one :class:`PagingStrategy` into the engine's
    :class:`~repro.core.policy.OffloadPolicy` per-tenant hook.

    The strategy decides a per-*block* engine tier, but the engine hook
    shape is per-*tenant* ``placer(nbytes, cpu_free_bytes)``.  The pool
    therefore wraps each engine ``store`` in :meth:`hint`, parking the
    block's tier in a thread-local the installed placer reads — valid
    on whichever thread executes the store body (the caller inline, or
    a scheduler worker running the request fn).
    """

    def __init__(self, strategy: Optional[PagingStrategy] = None) -> None:
        self.strategy = strategy if strategy is not None else PreferHBM()
        self._tls = threading.local()

    @contextmanager
    def hint(self, tier: Optional[Tier]) -> Iterator[None]:
        """Scope a placement hint around one engine store call."""
        previous = getattr(self._tls, "tier", None)
        self._tls.tier = tier
        try:
            yield
        finally:
            self._tls.tier = previous

    def engine_placer(
        self, nbytes: int, cpu_free_bytes: Optional[int]
    ) -> Optional[Tier]:
        """The hook installed via ``OffloadPolicy.set_tenant_policy``."""
        tier = getattr(self._tls, "tier", None)
        if tier is None or tier is Tier.GPU:
            return None  # defer to the shared placement rule
        return tier

    def install(self, policy: OffloadPolicy, tenant: str) -> None:
        """Idempotently install the placer for one tenant."""
        # Bound-method equality (not identity): ``self.engine_placer``
        # is a fresh bound-method object on every attribute access.
        if policy.tenant_policy(tenant) != self.engine_placer:
            policy.set_tenant_policy(tenant, self.engine_placer)
