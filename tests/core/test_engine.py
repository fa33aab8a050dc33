"""Engine facade: typed config validation, construction wiring and the
one stats snapshot."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    EngineConfig,
    EngineConfigError,
    build_engine,
)
from repro.core.ids import TensorID
from repro.io import ChunkedTensorStore, IORequest, IOScheduler, Priority, TensorFileStore
from repro.io.tenancy import TenantRegistry

DATA = np.arange(256, dtype=np.float32)


# -------------------------------------------------------------- validation
@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(target="dram"), "unknown offload target"),
        (dict(target="cpu", chunk_bytes=4096),
         "chunk_bytes applies to the ssd/tiered targets, not cpu"),
        (dict(target="ssd", store_dir="x", cpu_pool_bytes=1),
         "cpu_pool_bytes applies to the cpu/tiered targets, not ssd"),
        (dict(target="ssd"), "ssd target requires store_dir"),
        (dict(target="tiered", cpu_pool_bytes=1),
         "tiered target requires store_dir"),
        (dict(target="tiered", store_dir="x"),
         "tiered target requires cpu_pool_bytes"),
        (dict(target="cpu", cpu_pool_bytes=-1), "cpu_pool_bytes must be >= 0"),
        (dict(target="ssd", store_dir="x", probe_backoff_s=0.01),
         "probe_backoff_s .* requires the tiered target"),
        # Store-option combinations: validate() is their only judge — the
        # offloaders take a built store and re-check nothing.
        (dict(target="cpu", store_roots=["y"]),
         "store_roots .* requires an ssd/tiered target"),
        (dict(target="tiered", store_dir="x", cpu_pool_bytes=1, store_roots=["y"]),
         "store_roots .* requires chunk_bytes"),
    ],
)
def test_config_validation_is_typed(kwargs, message):
    with pytest.raises(EngineConfigError, match=message):
        build_engine(EngineConfig(**kwargs))


def test_worker_and_window_checks_live_with_their_constructors(tmp_path):
    """The options EngineConfig dropped are checked by the one
    constructor that reads them."""
    with pytest.raises(ValueError, match="workers must be >= 0"):
        IOScheduler(workers=-1)
    engine = build_engine(target="cpu")
    try:
        with pytest.raises(ValueError, match="prefetch_window must be >= 0"):
            engine.cache(prefetch_window=-1)
    finally:
        engine.shutdown()


def test_config_error_is_a_value_error():
    # Callers that catch ValueError catch the typed error too.
    assert issubclass(EngineConfigError, ValueError)
    with pytest.raises(ValueError, match="ssd target requires store_dir"):
        build_engine(target="ssd")
    with pytest.raises(ValueError, match="unknown offload target"):
        build_engine(target="dram")


# ------------------------------------------------------------------ wiring
def test_engine_cache_shares_policy_and_scheduler(tmp_path):
    engine = build_engine(
        EngineConfig(target="tiered", store_dir=tmp_path, cpu_pool_bytes=1 << 16)
    )
    try:
        cache = engine.cache()
        assert cache.policy is engine.policy
        assert cache.scheduler is engine.scheduler
        assert cache.offloader is engine.offloader
        assert cache.prefetch_window == 8  # TensorCache's own default
        other = engine.cache(prefetch_window=3)
        assert other.scheduler is cache.scheduler
        assert other.prefetch_window == 3
    finally:
        engine.shutdown()


def test_engine_overrides_form(tmp_path):
    engine = build_engine(
        EngineConfig(target="ssd", store_dir=tmp_path), fifo_io=True
    )
    try:
        assert engine.config.fifo_io is True
        assert engine.config.target == "ssd"
    finally:
        engine.shutdown()


# ------------------------------------------------------- lanes follow target
def _lane_workers(engine):
    return sorted(w.name for w in engine.scheduler._workers)


@pytest.mark.parametrize(
    "target, lanes",
    [("ssd", ("ssd",)), ("cpu", ("cpu",)), ("tiered", ("cpu", "ssd"))],
)
def test_engine_starts_workers_only_for_the_lanes_its_target_uses(tmp_path, target, lanes):
    kwargs = {} if target == "cpu" else {"store_dir": tmp_path}
    if target == "tiered":
        kwargs["cpu_pool_bytes"] = 1 << 16
    engine = build_engine(EngineConfig(target=target, **kwargs))
    try:
        assert _lane_workers(engine) == [
            f"ssdtrain-io-{lane}-{i}" for lane in lanes for i in range(4)
        ]
        tid = TensorID(stamp=1, shape=tuple(DATA.shape))
        engine.scheduler.submit(
            IORequest(
                lambda: engine.offloader.store(tid, DATA),
                kind="store",
                priority=Priority.STORE,
                nbytes=DATA.nbytes,
                lane=engine.offloader.store_lane(tid, DATA.nbytes),
            )
        ).wait()
        engine.scheduler.drain()
        assert set(engine.stats().io_lanes) <= set(lanes)
        # A lane the engine did not build refuses the request before any
        # book is touched or quota charged.
        other = "cpu" if target == "ssd" else "ssd" if target == "cpu" else "nvme"
        before = engine.scheduler.tenants.stats_of("default")
        with pytest.raises(ValueError, match="unknown lane"):
            engine.scheduler.submit(
                IORequest(lambda: None, kind="load", priority=Priority.BLOCKING_LOAD,
                          nbytes=64, lane=other)
            )
        after = engine.scheduler.tenants.stats_of("default")
        assert (after.submitted, after.submitted_bytes) == (before.submitted, before.submitted_bytes)
        assert engine.stats().scheduler.submitted == 1
    finally:
        engine.shutdown()


@pytest.mark.parametrize("workers", [1, 3])
def test_scheduler_starts_exactly_the_workers_it_is_given(workers):
    with IOScheduler(workers=workers, lanes=("ssd", "cpu"), name="exact") as sched:
        assert sorted(w.name for w in sched._workers) == sorted(
            f"exact-{lane}-{i}" for lane in ("ssd", "cpu") for i in range(workers)
        )
        assert all(w.is_alive() for w in sched._workers)


# ------------------------------------------- the store each front-end gets
# What the engine built for these configs at the parent commit (PR 18),
# read off once: the refactor moved *who* constructs the store, not what
# is constructed.  ``roots`` is relative to store_dir's parent.
_FRONT_END_STORES = [
    # benchmarks/e2e/wl_train.py
    ("train_ssd", dict(target="ssd", throttle_bytes_per_s=100e6),
     TensorFileStore, dict(throttle_bytes_per_s=100e6)),
    ("train_tiered",
     dict(target="tiered", cpu_pool_bytes=4 << 20, chunk_bytes=1 << 20,
          io_backend="uring", throttle_bytes_per_s=100e6),
     ChunkedTensorStore,
     dict(chunk_bytes=1 << 20, throttle_bytes_per_s=100e6)),
    # benchmarks/e2e/wl_replay.py
    ("engine_replay", dict(target="ssd", chunk_bytes=4 << 20),
     ChunkedTensorStore, dict(chunk_bytes=4 << 20, throttle_bytes_per_s=None)),
    # ServerConfig -> serve/server_sim.py (benchmarks/e2e/wl_kv.py, `repro kv`)
    ("kv_serve", dict(target="tiered", cpu_pool_bytes=4 << 20, promote_on_load=False),
     TensorFileStore, dict(throttle_bytes_per_s=None)),
    # examples/quickstart.py (`repro quickstart` and its flags)
    ("quickstart", dict(target="ssd", throttle_bytes_per_s=150e6),
     TensorFileStore, dict(throttle_bytes_per_s=150e6)),
    ("quickstart_tiered_chunked",
     dict(target="tiered", cpu_pool_bytes=64 << 10, chunk_bytes=1 << 20,
          throttle_bytes_per_s=150e6),
     ChunkedTensorStore,
     dict(chunk_bytes=1 << 20, throttle_bytes_per_s=150e6)),
    ("quickstart_uring", dict(target="ssd", io_backend="uring", throttle_bytes_per_s=150e6),
     TensorFileStore, dict(throttle_bytes_per_s=150e6)),
    # cli.py `repro faults`
    ("faults", dict(target="tiered", cpu_pool_bytes=64 << 10),
     TensorFileStore, dict(throttle_bytes_per_s=None)),
    ("faults_heal",
     dict(target="tiered", cpu_pool_bytes=64 << 10, chunk_bytes=32 << 10,
          store_roots=["root1"], probe_backoff_s=0.01),
     ChunkedTensorStore,
     dict(chunk_bytes=32 << 10, throttle_bytes_per_s=None)),
]


@pytest.mark.parametrize(
    "name, config, store_cls, expected", _FRONT_END_STORES, ids=[r[0] for r in _FRONT_END_STORES]
)
def test_front_end_configs_build_the_store_they_built_before(
    tmp_path, name, config, store_cls, expected
):
    config = dict(config)
    extra_roots = [tmp_path / r for r in config.pop("store_roots", [])]
    if extra_roots:
        config["store_roots"] = extra_roots
    engine = build_engine(EngineConfig(store_dir=tmp_path / name, **config))
    try:
        store = engine.file_store
        assert type(store) is store_cls
        assert store is engine.offloader.file_store  # the engine kept what it built
        assert (engine.chunk_store is store) == (store_cls is ChunkedTensorStore)
        assert (engine.tiered is engine.offloader) == (config["target"] == "tiered")
        for attr, value in expected.items():
            assert getattr(store, attr) == value, attr
        if store_cls is ChunkedTensorStore:
            assert store.roots == [tmp_path / name, *extra_roots]
        else:
            assert store.root == tmp_path / name
    finally:
        engine.shutdown()


# ------------------------------------------------------------------- stats
def test_engine_stats_aggregates_every_plane(tmp_path):
    registry = TenantRegistry()
    registry.register("alice")
    engine = build_engine(
        EngineConfig(
            target="tiered",
            store_dir=tmp_path,
            cpu_pool_bytes=1 << 16,
            tenants=registry,
        )
    )
    try:
        snap = engine.stats()
        assert snap.target == "tiered"
        assert snap.scheduler.submitted == 0  # the I/O plane exists from construction
        assert snap.tiers is not None
        assert snap.pool is not None
        assert snap.pool.capacity_bytes == 1 << 16
        assert "alice" in snap.tenants

        tid = TensorID(stamp=1, shape=tuple(DATA.shape))
        engine.offloader.store(tid, DATA)
        engine.scheduler.drain()
        snap = engine.stats()
        assert snap.scheduler is not None
        assert snap.tiers.cpu_stored_bytes >= DATA.nbytes
        assert snap.pool.used_bytes >= DATA.nbytes
        assert snap.dataplane is not None
        assert snap.arena is not None
    finally:
        engine.shutdown()


def test_endurance_books_project_the_daily_write_rate():
    """Fig. 5's lifespan arithmetic on live books: bytes written over the
    uptime, scaled to a day, then per GB of device capacity."""
    from repro.core.engine import EnduranceStats

    hour = EnduranceStats(
        bytes_written=3 * 10**9, dead_bytes=0, reclaimed_bytes=0,
        root_bytes_written=(3 * 10**9,), uptime_s=3600.0,
    )
    assert hour.write_rate_bytes_per_day == 72 * 10**9
    assert hour.bytes_per_gb_day(1600 * 10**9) == 72 * 10**9 / 1600
    with pytest.raises(ValueError, match="capacity_bytes must be positive"):
        hour.bytes_per_gb_day(0)
    assert replace(hour, uptime_s=0.0).write_rate_bytes_per_day == 0.0


def test_stats_snapshot_is_detached(tmp_path):
    engine = build_engine(EngineConfig(target="cpu"))
    try:
        snap = engine.stats()
        snap.scheduler.submitted += 1000
        assert engine.stats().scheduler.submitted != snap.scheduler.submitted
    finally:
        engine.shutdown()
