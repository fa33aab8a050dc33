"""The tier lock is a metadata lock: SSD transfers run outside it.

Deterministic tests (gates and events, never a sleep as
synchronisation) of what that buys — placement reads and other tensors
proceed while a transfer is parked inside the device call, SSD reads of
different tensors overlap — and of each race the unlocked window opens,
which must end in one of its two serial outcomes.
"""

import itertools
import sys
import threading

import numpy as np
import pytest

from repro.core import OffloadPolicy, PolicyConfig
from repro.core.ids import TensorID
from repro.core.policy import Tier
from repro.core.tiered import TieredOffloader
from repro.io import IORequest, IOScheduler, Priority
from repro.io.errors import PermanentIOError
from repro.io.faults import FaultPlan, inject_faults
from tests.conftest import assert_tier_books, build_tier

pytestmark = pytest.mark.usefixtures("tier_lock_discipline")

SHAPE = (64, 64)
F32 = np.dtype(np.float32)
NBYTES = 64 * 64 * 4
WAIT = 10  # seconds; only ever reached by a failing run


def _tid(i: int) -> TensorID:
    return TensorID(stamp=i, shape=SHAPE)


def _data(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(SHAPE).astype(np.float32)


def _tiered(tmp_path, pool_tensors: int = 2, **kwargs) -> TieredOffloader:
    return build_tier(tmp_path / "t", cpu_pool_bytes=pool_tensors * NBYTES, **kwargs)


def _bypass_policy() -> OffloadPolicy:
    """Every full-size tensor goes straight to the SSD tier."""
    return OffloadPolicy(PolicyConfig(cpu_tier_max_tensor_bytes=NBYTES - 1))


def _store_on_ssd(tiered: TieredOffloader, tid: TensorID, data: np.ndarray) -> None:
    tiered.store(tid, data)
    if tiered.tier_of(tid) is Tier.CPU:
        assert tiered.demote(tid)
        assert tiered.scheduler.drain(WAIT)  # the spill has landed
    assert tiered.location(tid).startswith("tier:ssd:")  # landed, not queued


class _Gate:
    """Parks callers of ``target.<name>`` (the first ``only_first`` of
    them) before the real call; ``entered`` counts arrivals."""

    def __init__(self, target, name: str, only_first: int = sys.maxsize) -> None:
        self.opened = threading.Event()
        self.entered = threading.Semaphore(0)
        inner = getattr(target, name)
        arrivals = itertools.count()

        def gated(*args):
            park = next(arrivals) < only_first
            self.entered.release()
            if park:
                assert self.opened.wait(WAIT), "gate never opened"
            return inner(*args)

        setattr(target, name, gated)


def _spawn(fn, *args):
    """Run ``fn`` on a thread; the returned box gets ``result`` or ``error``."""
    box = {}

    def run():
        try:
            box["result"] = fn(*args)
        except BaseException as exc:  # handed to the asserting thread
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    box["thread"] = thread
    return box


def _join(box) -> None:
    box["thread"].join(WAIT)
    assert not box["thread"].is_alive()


def _notify_on_wait(event: threading.Event) -> threading.Event:
    """Make ``event.wait`` announce its caller: the returned event is set
    once somebody is (about to be) blocked on ``event``."""
    arrived = threading.Event()
    wait = event.wait

    def announced(timeout=None):
        arrived.set()
        return wait(timeout)

    event.wait = announced
    return arrived


# ------------------------------------------- what proceeds during a transfer
def _assert_nothing_waits_on(tiered: TieredOffloader, parked: TensorID, box) -> None:
    """With a transfer of ``parked`` stuck inside the device call, every
    placement read and all work on other tensors completes first."""
    other, resident = _tid(50), _tid(51)
    tiered.tier_of(parked)
    assert tiered.load_lane(parked) == "ssd"
    assert tiered.store_lane(other, 256) == "cpu"
    assert tiered.location(parked)
    small = np.arange(64, dtype=np.float32)
    tiered.store(other, small)
    assert np.array_equal(tiered.load(other, small.shape, F32), small)
    assert np.array_equal(tiered.load(resident, (64,), F32), small + 1)
    assert tiered.stats_snapshot().cpu_hits == 2
    assert "result" not in box and "error" not in box  # still parked
    tiered.release(other)


def test_nothing_waits_on_a_parked_ssd_load(tmp_path):
    tiered = _tiered(tmp_path, policy=_bypass_policy())
    try:
        a = _data(0)
        tiered.store(_tid(1), a)
        tiered.store(_tid(51), np.arange(64, dtype=np.float32) + 1)
        gate = _Gate(tiered.ssd, "load")
        box = _spawn(tiered.load, _tid(1), SHAPE, F32)
        assert gate.entered.acquire(timeout=WAIT)
        _assert_nothing_waits_on(tiered, _tid(1), box)
        gate.opened.set()
        _join(box)
        assert np.array_equal(box["result"], a)
        tiered.release(_tid(1))
        tiered.release(_tid(51))
        assert_tier_books(tiered, drained=True)
    finally:
        tiered.shutdown()


def test_nothing_waits_on_a_parked_direct_ssd_store(tmp_path):
    tiered = _tiered(tmp_path, policy=_bypass_policy())
    try:
        a = _data(1)
        tiered.store(_tid(51), np.arange(64, dtype=np.float32) + 1)
        gate = _Gate(tiered.ssd, "store")
        box = _spawn(tiered.store, _tid(1), a)
        assert gate.entered.acquire(timeout=WAIT)
        _assert_nothing_waits_on(tiered, _tid(1), box)
        # The bytes in hand answer a load of the tensor being written.
        assert np.array_equal(tiered.load(_tid(1), SHAPE, F32), a)
        assert tiered.tier_of(_tid(1)) is Tier.GPU  # in no tier until it lands
        gate.opened.set()
        _join(box)
        assert "error" not in box
        assert tiered.tier_of(_tid(1)) is Tier.SSD
        assert np.array_equal(tiered.load(_tid(1), SHAPE, F32), a)
        tiered.release(_tid(1))
        tiered.release(_tid(51))
        assert_tier_books(tiered, drained=True)
    finally:
        tiered.shutdown()


def test_ssd_loads_of_different_tensors_overlap(tmp_path):
    """Both reads are inside ``ssd.load`` before either is let through."""
    sched = IOScheduler(workers=3)
    tiered = _tiered(tmp_path, policy=_bypass_policy(), scheduler=sched)
    try:
        a, b = _data(2), _data(3)
        tiered.store(_tid(1), a)
        tiered.store(_tid(2), b)
        gate = _Gate(tiered.ssd, "load")
        jobs = [
            sched.submit(
                IORequest(
                    lambda t=tid: tiered.load(t, SHAPE, F32),
                    kind="load",
                    priority=Priority.BLOCKING_LOAD,
                    tensor_id=str(tid),
                    nbytes=NBYTES,
                    lane=tiered.load_lane(tid),
                )
            )
            for tid in (_tid(1), _tid(2))
        ]
        assert gate.entered.acquire(timeout=WAIT)
        assert gate.entered.acquire(timeout=WAIT)  # the second did not queue on the first
        assert not gate.opened.is_set()
        gate.opened.set()
        for job, expected in zip(jobs, (a, b)):
            assert job.wait(WAIT) and job.error is None
            assert np.array_equal(job.result, expected)
        assert tiered.stats_snapshot().ssd_loads == 2
        tiered.release(_tid(1))
        tiered.release(_tid(2))
        assert_tier_books(tiered, sched, drained=True)
    finally:
        sched.shutdown()
        tiered.shutdown()


# ------------------------------------------------------------------ the races
@pytest.mark.parametrize("mutation", ["release", "restore_cpu", "restore_ssd"])
def test_release_or_restore_during_an_inflight_read(tmp_path, mutation):
    """Race (i): the mutator waits for the read, so the reader gets the
    complete old bytes and the old bytes are never promoted over (or
    resurrected after) what the mutator did."""
    policy = None if mutation == "restore_cpu" else _bypass_policy()
    tiered = _tiered(tmp_path, policy=policy)
    try:
        old, new = _data(4), _data(5)
        _store_on_ssd(tiered, _tid(1), old)
        order = []
        gate = _Gate(tiered.ssd, "load")
        release_copy = tiered.ssd.release
        tiered.ssd.release = lambda tid: (order.append("ssd.release"), release_copy(tid))
        reader = _spawn(tiered.load, _tid(1), SHAPE, F32)
        assert gate.entered.acquire(timeout=WAIT)
        blocked = _notify_on_wait(tiered._entries[_tid(1)].idle)
        if mutation == "release":
            mutator = _spawn(tiered.release, _tid(1))
        else:
            mutator = _spawn(tiered.store, _tid(1), new)
        assert blocked.wait(WAIT)  # the mutator found the read and waits for it
        assert tiered.tier_of(_tid(1)) is Tier.SSD and not order
        gate.opened.set()
        _join(reader)
        _join(mutator)
        assert "error" not in mutator
        assert np.array_equal(reader["result"], old)  # complete, never torn
        # Promoted at most once: by the reader, before the mutator ran.
        assert tiered.stats_snapshot().promotions <= 1
        if mutation == "release":
            assert tiered.tier_of(_tid(1)) is Tier.GPU
            with pytest.raises(KeyError):
                tiered.load(_tid(1), SHAPE, F32)
        else:
            expected = Tier.CPU if mutation == "restore_cpu" else Tier.SSD
            assert tiered.tier_of(_tid(1)) is expected
            assert np.array_equal(tiered.load(_tid(1), SHAPE, F32), new)
            tiered.release(_tid(1))
        assert_tier_books(tiered, drained=True)
    finally:
        tiered.shutdown()


def test_hedged_duplicate_read_promotes_once(tmp_path):
    """Race (ii), through the scheduler's hedging: the primary read is
    stuck in the device, the hedge serves the waiter, and once the
    primary comes back the tensor is promoted exactly once — the loser
    is served too, never a miss."""
    sched = IOScheduler(
        workers=3, hedge=True, hedge_delay_s=0.0
    )
    tiered = _tiered(tmp_path, scheduler=sched)
    try:
        a = _data(6)
        _store_on_ssd(tiered, _tid(1), a)
        gate = _Gate(tiered.ssd, "load", only_first=1)
        results = []
        finished = threading.Semaphore(0)

        def do_load():
            try:
                results.append(tiered.load(_tid(1), SHAPE, F32))
            finally:
                finished.release()
            return results[-1]

        request = sched.submit(
            IORequest(
                do_load,
                kind="load",
                priority=Priority.BLOCKING_LOAD,
                tensor_id=str(_tid(1)),
                nbytes=NBYTES,
                lane=tiered.load_lane(_tid(1)),
                hedge_fn=do_load,
            )
        )
        assert gate.entered.acquire(timeout=WAIT)  # primary parked in the device
        assert request.wait(WAIT) and request.error is None  # the hedge answered
        assert np.array_equal(request.result, a)
        assert finished.acquire(timeout=WAIT)
        assert sched.stats.hedges_issued == 1 and sched.stats.hedges_won == 1
        # The copy the stuck primary is reading is still there.
        assert tiered.tier_of(_tid(1)) is Tier.SSD
        assert tiered.stats_snapshot().promotions == 0
        gate.opened.set()
        assert finished.acquire(timeout=WAIT)  # the primary's load() returned
        assert len(results) == 2 and all(np.array_equal(r, a) for r in results)
        stats = tiered.stats_snapshot()
        assert stats.promotions == 1 and stats.ssd_loads == 2
        assert tiered.tier_of(_tid(1)) is Tier.CPU
        assert tiered.pool.used == NBYTES  # charged once
        assert np.array_equal(tiered.load(_tid(1), SHAPE, F32), a)
        assert_tier_books(tiered, sched)
        tiered.release(_tid(1))
        assert_tier_books(tiered, sched, drained=True)
    finally:
        sched.shutdown()
        tiered.shutdown()


def test_permanent_read_error_outside_the_lock_reaches_the_health_books(tmp_path):
    """Race (iii): a read that dies in the device, with the tier lock
    released, fails its request, feeds the ssd lane's death verdict (so
    placement fails over) and leaves no in-flight entry behind."""
    sched = IOScheduler(workers=2, retry_backoff_s=0)
    tiered = _tiered(tmp_path, policy=_bypass_policy(), scheduler=sched)
    try:
        tiered.store(_tid(1), _data(7))
        injector = inject_faults(tiered, FaultPlan())
        injector.kill()
        failures = 0
        while not sched.health.is_dead("ssd"):
            job = sched.submit(
                IORequest(
                    lambda: tiered.load(_tid(1), SHAPE, F32),
                    kind="load",
                    priority=Priority.BLOCKING_LOAD,
                    nbytes=NBYTES,
                    lane="ssd",
                )
            )
            assert job.wait(WAIT)
            assert isinstance(job.error, PermanentIOError)
            failures += 1
            assert failures <= 16, "the lane never learned about the dead device"
        assert tiered._entries[_tid(1)].readers == 0 and tiered._entries[_tid(1)].idle is None
        assert tiered.stats_snapshot().ssd_loads == 0  # failed reads are not booked
        # The verdict moves placement: the next bypass-sized store stays warm.
        assert tiered.store_lane(_tid(2), NBYTES) == "cpu"
        tiered.store(_tid(2), _data(8))
        assert tiered.tier_of(_tid(2)) is Tier.CPU and tiered.ssd_dead
        tiered.release(_tid(2))
        tiered.release(_tid(1))
        assert_tier_books(tiered, sched, drained=True)
    finally:
        sched.shutdown()
        tiered.shutdown()


def test_shutdown_with_a_read_in_flight_leaks_nothing(tmp_path):
    """Race (iv): the reader comes back to an offloader that is gone —
    it must not promote into the dead pool, leak a lease or a
    descriptor, or stay alive."""
    threads_before = set(threading.enumerate())
    tiered = _tiered(tmp_path)
    a = _data(9)
    _store_on_ssd(tiered, _tid(1), a)
    store = tiered.ssd.file_store
    gate = _Gate(store, "read")  # parked past the offloader, inside the store
    reader = _spawn(tiered.load, _tid(1), SHAPE, F32)
    assert gate.entered.acquire(timeout=WAIT)
    tiered.shutdown()
    gate.opened.set()
    _join(reader)
    tiered.scheduler.shutdown()
    # The store was cleared under the reader: complete bytes or a miss.
    if "result" in reader:
        assert np.array_equal(reader["result"], a)
    else:
        assert isinstance(reader["error"], (KeyError, FileNotFoundError))
    assert tiered.stats_snapshot().promotions == 0
    assert_tier_books(tiered, drained=True)
    assert store.fds.opens == store.fds.closes
    assert set(threading.enumerate()) <= threads_before


# ------------------------------------------------------------------- stress
@pytest.mark.parametrize("parallel_spills", [False, True])
def test_many_threads_hammering_few_tensors_keep_the_books(tmp_path, parallel_spills):
    """More threads than cores store / load / release a handful of tids
    through both placements, over one spill worker or three; a load
    returns one complete version or the miss, and afterwards nothing is
    left behind."""
    sched = IOScheduler(workers=3 if parallel_spills else 1)
    tiered = _tiered(tmp_path, pool_tensors=2, scheduler=sched)
    # Small tensors land in the pool (and get demoted by pressure), the
    # large ones bypass it, so every branch sees traffic.
    tiered.policy = OffloadPolicy(PolicyConfig(cpu_tier_max_tensor_bytes=NBYTES))
    shapes = {0: SHAPE, 1: SHAPE, 2: (64, 128), 3: SHAPE}
    versions = {
        i: [np.full(shape, 10 * i + v, dtype=np.float32) for v in range(3)]
        for i, shape in shapes.items()
    }
    errors = []

    def tid_of(i):
        return TensorID(stamp=i, shape=shapes[i])

    def worker(seed):
        rng = np.random.default_rng(seed)
        for _ in range(120):
            i = int(rng.integers(len(shapes)))
            op = rng.integers(4)
            try:
                if op == 0:
                    tiered.store(tid_of(i), versions[i][int(rng.integers(3))])
                elif op == 1:
                    tiered.release(tid_of(i))
                else:
                    got = tiered.load(tid_of(i), shapes[i], F32)
                    if not any(np.array_equal(got, v) for v in versions[i]):
                        errors.append(f"torn or foreign bytes for tensor {i}")
            except (KeyError, FileNotFoundError):
                pass  # released, or not stored yet
            except BaseException as exc:
                errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        boxes = [_spawn(worker, seed) for seed in range(6)]
        for box in boxes:
            box["thread"].join(60)
            assert not box["thread"].is_alive()
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not errors, errors[:5]
        for i in shapes:
            tiered.release(tid_of(i))
        assert_tier_books(tiered, sched, drained=True)
    finally:
        sched.shutdown()
        tiered.shutdown()
