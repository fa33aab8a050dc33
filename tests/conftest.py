"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading
import traceback
from collections import Counter

import numpy as np
import pytest

from repro.core import OffloadPolicy, PolicyConfig, SSDOffloader, TensorCache
from repro.device import GPU
from repro.models import ModelConfig
from repro.tensor.tensor import Tensor


@pytest.fixture
def gpu() -> GPU:
    return GPU()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_gpt_config() -> ModelConfig:
    return ModelConfig(
        arch="gpt", hidden=64, num_layers=2, vocab_size=97, seq_len=16, head_dim=16
    )


@pytest.fixture
def tiny_bert_config() -> ModelConfig:
    return ModelConfig(
        arch="bert", hidden=64, num_layers=2, vocab_size=97, seq_len=16, head_dim=16
    )


@pytest.fixture
def tiny_t5_config() -> ModelConfig:
    return ModelConfig(
        arch="t5", hidden=64, num_layers=3, vocab_size=97, seq_len=16, head_dim=16
    )


@pytest.fixture
def token_batch(gpu, rng):
    tokens = Tensor(rng.integers(0, 97, (2, 16)).astype(np.int64), device=gpu)
    targets = Tensor(rng.integers(0, 97, (2, 16)).astype(np.int64), device=gpu)
    return tokens, targets


@pytest.fixture
def make_cache(tmp_path):
    """Factory for tensor caches backed by a per-test temp directory."""
    caches = []

    def _make(min_offload_numel: int = 64, **kwargs) -> TensorCache:
        policy = OffloadPolicy(
            PolicyConfig(min_offload_numel=min_offload_numel, **kwargs.pop("policy_kwargs", {}))
        )
        cache = TensorCache(
            SSDOffloader(tmp_path / f"store{len(caches)}"), policy=policy, **kwargs
        )
        caches.append(cache)
        return cache

    yield _make
    for cache in caches:
        cache.shutdown()


# ------------------------------------------------------ hand-built tiers
#: Schedulers :func:`build_tier` started, stopped after the test.
_TIER_SCHEDULERS: list = []


def build_tier(store, cpu_pool_bytes: int, scheduler=None, **kwargs):
    """A :class:`TieredOffloader` over ``store`` (a directory or a built
    ``SSDOffloader``) on ``scheduler`` — by default a fresh one with one
    worker per lane, so spills run in queue order; ``tier.scheduler
    .drain()`` is the moment they have all landed.  Every hand-built tier
    in ``tests/`` comes from here (the engine builds the rest)."""
    from repro.core.tiered import TieredOffloader
    from repro.io.scheduler import IOScheduler

    if scheduler is None:
        scheduler = IOScheduler(workers=1)
        _TIER_SCHEDULERS.append(scheduler)
    ssd = store if isinstance(store, SSDOffloader) else SSDOffloader(store)
    return TieredOffloader(ssd, cpu_pool_bytes, scheduler, **kwargs)


@pytest.fixture(autouse=True)
def _stop_tier_schedulers():
    yield
    while _TIER_SCHEDULERS:
        _TIER_SCHEDULERS.pop().shutdown()


# ------------------------------------------------- tier-lock discipline
# ``TieredOffloader._lock`` is a metadata lock: device I/O never runs
# under it and the cache's hooks never take it (docs/architecture.md
# section 3).  These helpers turn that rule into a check a test can fail.
#: The one SSD write allowed under the lock (rare ENOSPC recovery).
_LOCKED_IO_ALLOWED = "_retry_store_after_compaction"


def guard_tier_lock(offloader, violations: list) -> None:
    """Wrap ``offloader.ssd.store``/``.load`` to record every call made by
    a thread that owns the tier lock.  Violations are collected, not
    raised: a lane worker's exception would be swallowed as a job error."""
    for op in ("store", "load"):
        inner = getattr(offloader.ssd, op)

        def guarded(*args, _inner=inner, _op=op):
            if offloader._lock._is_owned():
                stack = traceback.extract_stack()
                if not any(frame.name == _LOCKED_IO_ALLOWED for frame in stack):
                    callers = " <- ".join(frame.name for frame in reversed(stack[-6:-1]))
                    violations.append(f"ssd.{_op} called under the tier lock: {callers}")
            return _inner(*args)

        setattr(offloader.ssd, op, guarded)


@pytest.fixture
def tier_lock_discipline(monkeypatch):
    """Guard every ``TieredOffloader`` the test builds (directly or through
    ``build_engine``) and fail the test if one did device I/O under its
    tier lock.  Yields the violation list for tests that add their own."""
    from repro.core.tiered import TieredOffloader

    violations: list = []
    construct = TieredOffloader.__init__

    def guarded_init(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        guard_tier_lock(self, violations)

    monkeypatch.setattr(TieredOffloader, "__init__", guarded_init)
    yield violations
    assert not violations, "\n".join(violations)


def assert_tier_books(tiered, sched=None, drained: bool = False) -> None:
    """The tier's byte-exact books, read off its one table under the tier
    lock: pool bytes are the CPU-state entries' and every outstanding
    arena lease sits on an entry (both in total and per tenant), the LRU
    orders exactly the CPU-state entries, and (given ``sched``, drained
    first) every submitted request reached a terminal state.
    ``drained`` is the variant for "every tensor was released"."""
    from repro.core.tiered import _State

    if sched is not None:
        assert sched.drain(10)
        stats = sched.stats
        assert stats.submitted == stats.executed + stats.failed + stats.cancelled
    with tiered._lock:
        entries = dict(tiered._entries)
        for tid, entry in entries.items():
            assert entry.state not in (None, _State.GONE), f"{tid}: {entry.state}"
            assert (entry.spill is not None) == (entry.state is _State.QUEUED), tid
        resident = {tid: e for tid, e in entries.items() if e.state is _State.CPU}
        assert set(tiered._lru) == set(resident)
        assert tiered.pool.used == sum(e.nbytes for e in resident.values())
        pool_bytes = Counter()
        for entry in resident.values():
            pool_bytes[entry.owner] += entry.nbytes
        assert tiered.pool.used_by_tenant() == pool_bytes
        arena = tiered.arena.stats()
        leases = Counter(e.owner for e in entries.values() if e.lease is not None)
        assert arena.outstanding == sum(leases.values())
        assert arena.outstanding_by_tenant == leases
        assert arena.leases == arena.releases + arena.outstanding
        assert arena.leaked == 0
        if drained:
            assert not entries, f"table not empty: {entries}"
            assert tiered.pool.used == 0


class TierLockSpy:
    """Stands in for a tier ``RLock`` and records every acquisition made
    while the acquiring thread is inside one of the watched calls."""

    def __init__(self, lock, violations: list) -> None:
        self._lock = lock
        self._violations = violations
        self._inside = threading.local()

    def watch(self, monkeypatch, cls, names) -> None:
        """Mark the calling thread as "inside" for the duration of each
        ``cls.<name>`` call (patched on the class, so hook registrations
        made later pick the wrapper up)."""
        for name in names:
            inner = getattr(cls, name)

            def watched(*args, _inner=inner, _name=name, **kwargs):
                outer = getattr(self._inside, "name", None)
                self._inside.name = outer or _name
                try:
                    return _inner(*args, **kwargs)
                finally:
                    self._inside.name = outer

            monkeypatch.setattr(cls, name, watched)

    def acquire(self, *args, **kwargs):
        inside = getattr(self._inside, "name", None)
        if inside is not None:
            self._violations.append(f"tier lock acquired inside {inside}")
        return self._lock.acquire(*args, **kwargs)

    def release(self) -> None:
        self._lock.release()

    def _is_owned(self) -> bool:
        return self._lock._is_owned()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


def numeric_grad(f, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return grad
