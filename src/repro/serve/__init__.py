"""KV-cache paging front-end for inference serving.

The second front-end over the offload engine (the first is the training
:class:`~repro.train.trainer.Trainer`): per-request KV caches are paged
in fixed-size blocks across HBM-sim → pinned CPU → SSD, constructed
through the same :func:`~repro.core.engine.build_engine` path and
riding the same scheduler priority classes and per-tenant QoS books.

- :class:`~repro.serve.kv_pool.KVBlockPool` — the block table + tier
  moves (decode-blocking reads, look-ahead prefetch, writeback).
- :mod:`~repro.serve.paging` — pluggable placement/eviction/prefetch
  strategies (PreferHBM, SplitToken, LayerImportance, LookAheadBatch).
- :class:`~repro.serve.trace.RequestTrace` — seeded Poisson multi-user
  workloads with long-tail context lengths.
- :class:`~repro.serve.server_sim.KVServerSim` — the deterministic
  virtual-clock decode loop behind ``repro kv`` (p50/p99 TTFT, paged
  vs no-paging A/B).
"""

from repro.serve.kv_pool import (
    BlockKey,
    BlockMeta,
    BlockState,
    KVBlockPool,
    KVPoolStats,
)
from repro.serve.paging import (
    BlockContext,
    LayerImportance,
    LookAheadBatch,
    PagingStrategy,
    PreferHBM,
    SplitToken,
    STRATEGIES,
    make_strategy,
)
from repro.serve.server_sim import (
    KVServeResult,
    KVServerSim,
    ServedRequest,
    ServerConfig,
    block_payload,
    percentile,
)
from repro.serve.trace import InferenceRequest, RequestTrace, TraceConfig

__all__ = [
    "BlockContext",
    "BlockKey",
    "BlockMeta",
    "BlockState",
    "InferenceRequest",
    "KVBlockPool",
    "KVPoolStats",
    "KVServeResult",
    "KVServerSim",
    "LayerImportance",
    "LookAheadBatch",
    "PagingStrategy",
    "PreferHBM",
    "RequestTrace",
    "STRATEGIES",
    "ServedRequest",
    "ServerConfig",
    "SplitToken",
    "TraceConfig",
    "block_payload",
    "make_strategy",
    "percentile",
]
