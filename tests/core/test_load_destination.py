"""Loads fill a destination the caller allocated.

Every offloader's ``load(..., out=)`` returns the caller's array filled,
on each path it has: the SSD read, the CPU tier's copy, and the tiered
offloader's CPU hit, demotion-forward hit and SSD read.  A bad ``out``
is a ``ValueError`` that moves no byte and books nothing.  And the rule
the engine keeps with it — whoever hands a load to another thread
allocates its destination first — holds end to end: during an
offloaded training step no lane worker allocates a load destination.
"""

import threading

import numpy as np
import pytest

from repro.core import EngineConfig, OffloadPolicy, PolicyConfig, build_engine
from repro.core.ids import TensorID
from repro.core.offloader import CPUOffloader, SSDOffloader
from repro.core.policy import Tier
from repro.io.scheduler import IORequest, IOScheduler, Priority
from repro.models import GPT
from tests.conftest import block_workers, build_tier

SHAPE = (32, 32)
NBYTES = 32 * 32 * 4


def _data(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(SHAPE).astype(np.float32)


def _tid(i: int) -> TensorID:
    return TensorID(stamp=i, shape=SHAPE)


def _load_into(offloader, tid) -> np.ndarray:
    out = np.full(SHAPE, np.nan, dtype=np.float32)
    back = offloader.load(tid, SHAPE, np.float32, out=out)
    assert back is out
    return out


def test_ssd_and_cpu_offloaders_fill_the_destination(tmp_path):
    data = _data(0)
    for offloader in (SSDOffloader(tmp_path), CPUOffloader()):
        try:
            offloader.store(_tid(1), data)
            assert np.array_equal(_load_into(offloader, _tid(1)), data)
        finally:
            offloader.shutdown()


def test_tiered_cpu_hit_and_ssd_read_fill_the_destination(tmp_path):
    tier = build_tier(tmp_path, cpu_pool_bytes=NBYTES)
    try:
        hot, cold = _data(1), _data(2)
        tier.store(_tid(1), hot)
        tier.store(_tid(2), cold, Tier.SSD)  # the caller's placement
        assert (tier.tier_of(_tid(1)), tier.tier_of(_tid(2))) == (Tier.CPU, Tier.SSD)
        assert np.array_equal(_load_into(tier, _tid(1)), hot)
        assert np.array_equal(_load_into(tier, _tid(2)), cold)
        assert (tier.stats.cpu_hits, tier.stats.ssd_loads) == (1, 1)
    finally:
        tier.shutdown()


def test_tiered_demotion_forward_hit_fills_the_destination(tmp_path):
    """A victim whose spill is still queued is served from its parked
    buffer, into the caller's array."""
    sched = IOScheduler(workers=1)
    tier = build_tier(tmp_path, cpu_pool_bytes=NBYTES, scheduler=sched)
    held, gate = threading.Event(), threading.Event()

    def hold():
        held.set()
        assert gate.wait(10)

    try:
        sched.submit(IORequest(hold, kind="load", priority=Priority.BLOCKING_LOAD, lane="ssd"))
        assert held.wait(10)  # the ssd lane's one worker is busy: spills queue
        victim = _data(3)
        tier.store(_tid(1), victim)
        tier.store(_tid(2), _data(4))  # demotes tid 1; the pool stays full
        assert np.array_equal(_load_into(tier, _tid(1)), victim)
        assert tier.stats.demotion_forward_hits == 1
        gate.set()
        assert sched.drain(10)
    finally:
        gate.set()
        sched.shutdown()
        tier.shutdown()


@pytest.mark.parametrize("target", ["ssd", "cpu", "tiered-cpu-hit"])
def test_a_bad_destination_books_nothing(tmp_path, target):
    data = _data(5)
    if target == "ssd":
        offloader = SSDOffloader(tmp_path)
    elif target == "cpu":
        offloader = CPUOffloader()
    else:
        offloader = build_tier(tmp_path, cpu_pool_bytes=NBYTES)
    try:
        offloader.store(_tid(1), data)
        before = offloader.dataplane_stats()
        with pytest.raises(ValueError, match="destination"):
            offloader.load(_tid(1), SHAPE, np.float32, out=np.empty(SHAPE, np.float64))
        assert offloader.dataplane_stats() == before
        if target == "tiered-cpu-hit":
            assert offloader.stats.cpu_hits == 0
        assert np.array_equal(offloader.load(_tid(1), SHAPE, np.float32), data)
    finally:
        offloader.shutdown()


class _RecordingNumpy:
    """Stands in for ``np`` in one module and records the thread of
    every ``np.empty`` it makes."""

    def __init__(self, where: str, calls: list) -> None:
        self._where, self._calls = where, calls

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, *args, **kwargs):
        self._calls.append((self._where, threading.current_thread()))
        return np.empty(*args, **kwargs)


@pytest.mark.parametrize("chunk_bytes", [None, 64 << 10], ids=["file", "chunk"])
def test_no_lane_worker_allocates_a_load_destination(
    tmp_path, monkeypatch, gpu, tiny_gpt_config, token_batch, chunk_bytes
):
    """During a ``target="ssd"`` training step every load destination is
    allocated on the training thread (by the cache, at submit), none by a
    store on a lane worker — so the worker's malloc arena never holds the
    step's loaded activations the training thread frees in backward."""
    from repro.core import tensor_cache
    from repro.io import chunkstore, filestore

    calls = []
    for module in (filestore, chunkstore, tensor_cache):
        monkeypatch.setattr(module, "np", _RecordingNumpy(module.__name__, calls))
    config = EngineConfig(
        target="ssd",
        store_dir=str(tmp_path),
        chunk_bytes=chunk_bytes,
        policy=OffloadPolicy(PolicyConfig(min_offload_numel=256)),
    )
    with build_engine(config) as engine:
        cache = engine.cache()
        model = GPT(tiny_gpt_config, rng=np.random.default_rng(0)).to(gpu)
        cache.register_weights(model)
        cache.attach(model)
        with cache:
            loss = model(*token_batch)
            cache.on_backward_begin()
            loss.backward()
            cache.on_backward_end()
        cache.on_step_end()
        loaded = cache.stats.loaded_tensors
    assert loaded > 0
    main = threading.main_thread()
    assert [where for where, thread in calls if thread is not main] == []
    assert [where for where, _ in calls] == ["repro.core.tensor_cache"] * loaded


def test_a_queued_kv_fetch_reads_into_the_callers_array(tmp_path, monkeypatch):
    """``KVBlockPool``'s demand fetch allocates the destination of the
    fetch it queues on the ``ssd`` lane, since a lane worker may claim
    it before the waiting caller does; with every ssd worker busy the
    caller runs it, into that array.  The fetch it runs inline on the
    ``cpu`` lane reads as before."""
    from repro.serve import SplitToken
    from tests.serve.test_kv_pool import BLOCK_TOKENS, make_pool, payload

    engine = build_engine(
        EngineConfig(target="tiered", store_dir=str(tmp_path), cpu_pool_bytes=1 << 20)
    )
    gate = threading.Event()
    try:
        pool = make_pool(engine, strategy=SplitToken(hbm_recent_blocks=1, cpu_window_blocks=1))
        pool.begin_request("r1", user="alice", context_tokens=3 * BLOCK_TOKENS)
        originals = [payload(20 + i) for i in range(3)]
        ssd_key, cpu_key, _ = [pool.append_block("r1", 0, data) for data in originals]
        assert (pool.block_tier(ssd_key), pool.block_tier(cpu_key)) == ("ssd", "cpu")
        seen = []  # (calling thread, out) of every offloader.load
        real_load = engine.offloader.load

        def load(*args, **kwargs):
            seen.append((threading.current_thread(), kwargs.get("out")))
            return real_load(*args, **kwargs)

        monkeypatch.setattr(engine.offloader, "load", load)
        block_workers(engine.scheduler, gate)
        assert np.array_equal(pool.fetch("r1", 0, cpu_key.index), originals[1])
        fetched = pool.fetch("r1", 0, ssd_key.index)
        assert np.array_equal(fetched, originals[0])
        (cpu_thread, cpu_out), (ssd_thread, ssd_out) = seen
        assert cpu_thread is threading.current_thread() and cpu_out is None
        assert ssd_thread is threading.current_thread() and ssd_out is fetched
    finally:
        gate.set()
        engine.shutdown()

