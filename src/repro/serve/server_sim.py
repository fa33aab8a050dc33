"""Deterministic multi-user inference server over the KV block pool.

Drives a seeded :class:`~repro.serve.trace.RequestTrace` through a
virtual-clock decode loop and measures **time-to-first-token** (TTFT =
queue wait + prefill + first decode round) for two configurations of
the same machine:

- **paged** — KV blocks live in the :class:`~repro.serve.kv_pool
  .KVBlockPool` over HBM → pinned CPU → SSD; admission only reserves a
  small HBM *working window* per request, so many more contexts run
  concurrently and queue wait collapses (at the price of modeled fetch
  stalls for paged-out blocks).
- **no-paging baseline** — every request must hold its *entire* KV span
  in HBM for its whole lifetime; requests that never fit are rejected,
  the rest queue until enough HBM frees up.

Determinism contract (the ``repro kv`` asserts and the seeded-trace
test lean on it): the pool's page-outs and prefetches are inline —
placement and migration are pure functions of the call sequence — and
every duration is *virtual*, derived from byte counts and the cost-model rates, never
from wall time.  Same trace + same config → bit-identical results.

KV payloads are regenerated from the seed for verification: after a
request finishes, every one of its blocks is fetched back and compared
bit-for-bit against the generator — a block that survived
HBM → CPU → SSD migration and back must be byte-identical.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.engine import Engine, EngineConfig, EngineStats, build_engine
from repro.io.tenancy import TenantRegistry
from repro.serve.kv_pool import BlockKey, KVBlockPool, KVPoolStats
from repro.serve.paging import make_strategy
from repro.serve.trace import InferenceRequest, RequestTrace

__all__ = [
    "KVServeResult",
    "KVServerSim",
    "ServedRequest",
    "ServerConfig",
    "block_payload",
    "percentile",
]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def block_payload(
    seed: int, request_id: str, layer: int, index: int, nbytes: int
) -> np.ndarray:
    """The deterministic KV bytes of one block.

    Keyed by (seed, block key) so verification can *regenerate* the
    expected bytes instead of holding every original in memory.
    """
    digest = zlib.crc32(f"{seed}:{request_id}:{layer}:{index}".encode())
    rng = np.random.default_rng(digest)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8)


@dataclass(frozen=True)
class ServerConfig:
    """The serving box and its virtual cost model."""

    hbm_capacity_bytes: int = 256 << 10
    block_tokens: int = 64
    #: KV bytes per token per layer (keys + values).
    bytes_per_token: int = 128
    num_layers: int = 2
    paged: bool = True
    strategy: str = "lookahead"
    #: HBM blocks (per layer) admission reserves per paged request —
    #: the decode working window.
    admit_window_blocks: int = 2
    #: Pinned CPU pool of the tiered engine (paged mode).
    cpu_pool_bytes: int = 128 << 10
    #: Engine store directory; a temp dir is created (and removed) when
    #: ``None``.
    store_dir: Optional[str] = None
    # ---- virtual-time cost model ----
    prefill_tokens_per_s: float = 16384.0
    decode_step_s: float = 0.05
    cpu_fetch_bytes_per_s: float = 256e6
    ssd_fetch_bytes_per_s: float = 64e6
    fetch_latency_s: float = 0.0002
    verify: bool = True

    @property
    def block_bytes(self) -> int:
        return self.block_tokens * self.bytes_per_token

    def label(self) -> str:
        return f"paged/{self.strategy}" if self.paged else "hbm-only"


@dataclass
class ServedRequest:
    """Outcome of one trace request."""

    request_id: str
    user: str
    arrival_s: float
    context_tokens: int
    decode_tokens: int
    served: bool
    admitted_s: float = 0.0
    ttft_s: float = 0.0
    finished_s: float = 0.0


@dataclass
class KVServeResult:
    """One configuration's run over one trace."""

    label: str
    served: int
    rejected: int
    peak_concurrency: int
    ttft_p50: float
    ttft_p99: float
    per_user_ttft_p50: Dict[str, float] = field(default_factory=dict)
    requests: List[ServedRequest] = field(default_factory=list)
    pool_stats: Optional[KVPoolStats] = None
    tier_census_peak: Dict[str, int] = field(default_factory=dict)
    bit_exact_checked: int = 0
    bit_exact_ok: bool = True
    engine_stats: Optional[EngineStats] = None

    @property
    def prefetch_hit_rate(self) -> float:
        return self.pool_stats.prefetch_hit_rate if self.pool_stats else 0.0

    @property
    def ttfts(self) -> List[float]:
        return [r.ttft_s for r in self.requests if r.served]


@dataclass(slots=True)
class _ActiveRequest:
    req: InferenceRequest
    reserved_bytes: int
    prefill_end_s: float = 0.0
    generated: int = 0
    first_token_s: Optional[float] = None
    blocks_per_layer: int = 0


class KVServerSim:
    """Virtual-clock decode loop over one trace (see module docstring)."""

    def __init__(self, trace: RequestTrace, config: ServerConfig) -> None:
        self.trace = trace
        self.config = config

    # ------------------------------------------------------------ sizing
    def _context_blocks(self, tokens: int) -> int:
        return max(1, math.ceil(tokens / self.config.block_tokens))

    def _full_kv_bytes(self, req: InferenceRequest) -> int:
        blocks = self._context_blocks(req.total_tokens())
        return blocks * self.config.num_layers * self.config.block_bytes

    def _window_bytes(self) -> int:
        cfg = self.config
        return cfg.admit_window_blocks * cfg.num_layers * cfg.block_bytes

    # --------------------------------------------------------------- run
    def run(self) -> KVServeResult:
        cfg = self.config
        store_dir = cfg.store_dir
        cleanup_dir = None
        engine: Optional[Engine] = None
        pool: Optional[KVBlockPool] = None
        if cfg.paged:
            if store_dir is None:
                store_dir = cleanup_dir = tempfile.mkdtemp(prefix="repro-kv-")
            registry = TenantRegistry()
            for user in self.trace.users:
                registry.register(user)
            engine = build_engine(
                EngineConfig(
                    target="tiered",
                    store_dir=store_dir,
                    cpu_pool_bytes=cfg.cpu_pool_bytes,
                    tenants=registry,
                    promote_on_load=False,
                )
            )
            pool = KVBlockPool(
                engine,
                block_tokens=cfg.block_tokens,
                num_layers=cfg.num_layers,
                hbm_capacity_bytes=cfg.hbm_capacity_bytes,
                strategy=make_strategy(cfg.strategy),
            )
        try:
            return self._run_loop(pool, engine)
        finally:
            if engine is not None:
                engine.shutdown()
            if cleanup_dir is not None:
                shutil.rmtree(cleanup_dir, ignore_errors=True)

    # ----------------------------------------------------------- the loop
    def _run_loop(
        self, pool: Optional[KVBlockPool], engine: Optional[Engine]
    ) -> KVServeResult:
        cfg = self.config
        seed = self.trace.config.seed
        result = KVServeResult(
            label=cfg.label(),
            served=0,
            rejected=0,
            peak_concurrency=0,
            ttft_p50=0.0,
            ttft_p99=0.0,
        )
        outcomes: Dict[str, ServedRequest] = {
            r.request_id: ServedRequest(
                request_id=r.request_id,
                user=r.user,
                arrival_s=r.arrival_s,
                context_tokens=r.context_tokens,
                decode_tokens=r.decode_tokens,
                served=False,
            )
            for r in self.trace
        }
        pending: List[InferenceRequest] = sorted(
            self.trace, key=lambda r: (r.arrival_s, r.request_id)
        )
        waiting: List[InferenceRequest] = []
        active: List[_ActiveRequest] = []
        reserved = 0
        clock = 0.0

        def admit(req: InferenceRequest, need: int) -> None:
            nonlocal reserved
            reserved += need
            rid = req.request_id
            act = _ActiveRequest(req, reserved_bytes=need)
            outcomes[rid].admitted_s = clock
            act.blocks_per_layer = self._context_blocks(req.context_tokens)
            if pool is not None:
                pool.begin_request(rid, user=req.user, context_tokens=req.context_tokens)
                for index in range(act.blocks_per_layer):
                    for layer in range(cfg.num_layers):
                        payload = block_payload(seed, rid, layer, index, cfg.block_bytes)
                        pool.append_block(rid, layer, payload)
            act.prefill_end_s = clock + req.context_tokens / cfg.prefill_tokens_per_s
            active.append(act)

        while pending or waiting or active:
            while pending and pending[0].arrival_s <= clock:
                waiting.append(pending.pop(0))
            still_waiting: List[InferenceRequest] = []
            for req in waiting:
                need = (
                    self._window_bytes()
                    if cfg.paged
                    else self._full_kv_bytes(req)
                )
                if need > cfg.hbm_capacity_bytes:
                    # Can never be served on this box (baseline only —
                    # a paged window always fits a sane config).
                    result.rejected += 1
                    continue
                if reserved + need <= cfg.hbm_capacity_bytes:
                    admit(req, need)
                else:
                    still_waiting.append(req)
            waiting = still_waiting
            if result.peak_concurrency < len(active):
                result.peak_concurrency = len(active)
                if pool is not None:
                    result.tier_census_peak = pool.tier_census()
            if not active:
                if pending:
                    clock = max(clock, pending[0].arrival_s)
                    continue
                break  # only unadmittable leftovers (none, by then)

            # ---- one decode round over every prefill-complete request
            decoders = [a for a in active if a.prefill_end_s <= clock]
            if not decoders:
                # Jump to the earliest prefill completion (or arrival).
                horizon = min(a.prefill_end_s for a in active)
                if pending:
                    horizon = min(horizon, pending[0].arrival_s)
                clock = max(clock, horizon)
                continue

            if pool is not None:
                pool.prefetch([a.req.request_id for a in decoders])
            io_cost = 0.0
            finished: List[_ActiveRequest] = []
            for act in decoders:
                rid = act.req.request_id
                if pool is not None:
                    for index in range(act.blocks_per_layer):
                        for layer in range(cfg.num_layers):
                            io_cost += self._access_cost(pool, rid, layer, index)
                            pool.fetch(rid, layer, index)
                act.generated += 1
                total_tokens = act.req.context_tokens + act.generated
                if (
                    total_tokens > act.blocks_per_layer * cfg.block_tokens
                    and act.generated < act.req.decode_tokens
                ):
                    index = act.blocks_per_layer
                    act.blocks_per_layer += 1
                    if pool is not None:
                        for layer in range(cfg.num_layers):
                            pool.append_block(
                                rid,
                                layer,
                                block_payload(
                                    seed, rid, layer, index, cfg.block_bytes
                                ),
                            )
                if act.generated >= act.req.decode_tokens:
                    finished.append(act)
            clock += cfg.decode_step_s + io_cost
            for act in decoders:
                if act.first_token_s is None:
                    act.first_token_s = clock
                    out = outcomes[act.req.request_id]
                    out.ttft_s = clock - act.req.arrival_s
            for act in finished:
                out = outcomes[act.req.request_id]
                out.served = True
                out.finished_s = clock
                result.served += 1
                if pool is not None:
                    if cfg.verify:
                        checked, ok = self._verify(pool, act, seed)
                        result.bit_exact_checked += checked
                        result.bit_exact_ok = result.bit_exact_ok and ok
                    pool.release_request(act.req.request_id)
                reserved -= act.reserved_bytes
                active.remove(act)

        ttfts = [o.ttft_s for o in outcomes.values() if o.served]
        result.requests = list(outcomes.values())
        result.ttft_p50 = percentile(ttfts, 50.0)
        result.ttft_p99 = percentile(ttfts, 99.0)
        by_user: Dict[str, List[float]] = {}
        for out in outcomes.values():
            if out.served:
                by_user.setdefault(out.user, []).append(out.ttft_s)
        result.per_user_ttft_p50 = {
            user: percentile(vals, 50.0)
            for user, vals in sorted(by_user.items())
        }
        if pool is not None:
            result.pool_stats = pool.stats
        if engine is not None:
            result.engine_stats = engine.stats()
        return result

    # ------------------------------------------------------------- costs
    def _access_cost(
        self, pool: KVBlockPool, rid: str, layer: int, index: int
    ) -> float:
        """Virtual seconds a decode pays to read one block *before* the
        actual fetch mutates placement."""
        cfg = self.config
        tier = pool.block_tier(BlockKey(request_id=rid, layer=layer, index=index))
        if tier == "hbm":
            return 0.0
        rate = (
            cfg.cpu_fetch_bytes_per_s
            if tier == "cpu"
            else cfg.ssd_fetch_bytes_per_s
        )
        return cfg.fetch_latency_s + cfg.block_bytes / rate

    # ------------------------------------------------------------ verify
    def _verify(
        self, pool: KVBlockPool, act: _ActiveRequest, seed: int
    ) -> Tuple[int, bool]:
        """Fetch every block back and compare against the generator —
        KV bytes must be bit-exact after however many migrations."""
        cfg = self.config
        rid = act.req.request_id
        ok = True
        checked = 0
        for index in range(act.blocks_per_layer):
            for layer in range(cfg.num_layers):
                data = pool.fetch(rid, layer, index)
                expected = block_payload(seed, rid, layer, index, cfg.block_bytes)
                ok = ok and np.array_equal(
                    np.asarray(data, dtype=np.uint8).ravel(), expected
                )
                checked += 1
        return checked, ok
