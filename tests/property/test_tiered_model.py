"""A stateful model of :class:`~repro.core.tiered.TieredOffloader`.

hypothesis drives an offloader on a one-worker scheduler, drained after
every rule (spills run in queue order and have landed before the next
rule, so every run is deterministic and shrinkable), with random
stores, loads, releases, demotions, SSD faults, lane
failures and probes, against a ``dict`` of what each tensor must read
back as.  After every rule the offloader must agree with the dict bit
for bit, its books must balance
(:func:`tests.conftest.assert_tier_books`), degraded mode must read the
same from the tier and from the lane health that owns it, and the pool
may be over its cap only while nothing can spill; at the end everything
is released and nothing may be left behind.

Tier-1 runs it derandomised; ``--hypothesis-seed=N`` explores.
"""

import errno
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import OffloadPolicy, PolicyConfig
from repro.core.ids import TensorID
from repro.core.policy import Tier
from repro.core.tiered import _State
from repro.io.errors import PermanentIOError
from repro.io.faults import FaultPlan, inject_faults
from repro.io.scheduler import IOScheduler
from repro.io.tenancy import DEFAULT_TENANT, tenant_scope
from tests.conftest import assert_tier_books, build_tier, free_file_names, guard_tier_lock

F32 = np.dtype(np.float32)
SMALL = (256,)  # 1 KiB: lands in the pool
BIG = (1024,)  # 4 KiB: over the policy's pool limit, written straight to the SSD
POOL_TENSORS = 3
#: Tensors 0-3 are pool-sized, 4-5 bypass the pool.
SHAPES = [SMALL] * 4 + [BIG] * 2
TENSORS = st.integers(min_value=0, max_value=len(SHAPES) - 1)
#: Even tensors are the default tenant's, odd ones tenant "t"'s.
TENANTS = (DEFAULT_TENANT, "t")


def _tid(i: int) -> TensorID:
    return TensorID(stamp=i, shape=SHAPES[i])


def _owner(i: int) -> str:
    return TENANTS[i % 2]


class TieredModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="tiered-model-")
        small_bytes = int(np.prod(SMALL)) * F32.itemsize
        self.sched = IOScheduler(workers=1, lanes=("ssd",), retry_backoff_s=0)
        self.health = self.sched.health
        self.off = build_tier(
            self.dir,
            POOL_TENSORS * small_bytes,
            scheduler=self.sched,
            policy=OffloadPolicy(PolicyConfig(cpu_tier_max_tensor_bytes=small_bytes)),
        )
        self.violations: list = []
        guard_tier_lock(self.off, self.violations)
        self.injector = inject_faults(self.off, FaultPlan())
        # The breakers' backoff runs on a clock the rules advance.
        self.now = 0.0
        for tenant in TENANTS:
            self.health.breaker("ssd", tenant)._clock = lambda: self.now
        #: When the last rule ended: the pool's debt, the failovers
        #: booked, and whether any resident could spill.
        self.overflow = self.failovers = 0
        self.could_spill = False
        #: Armed by ``one_enospc``: the next SSD write finds the device full.
        self.full = False
        self.expected: dict = {}

    def teardown(self) -> None:
        try:
            for tid in list(self.expected):
                self.off.release(tid)
            assert_tier_books(self.off, drained=True)
            assert not self.violations, self.violations
        finally:
            self.sched.shutdown()
            self.off.shutdown()
            shutil.rmtree(self.dir, ignore_errors=True)

    def _readable(self, tid: TensorID) -> bool:
        """A dead device cannot serve what only it holds."""
        return not (self.injector.dead and self.off.tier_of(tid) is Tier.SSD)

    def _writable(self) -> bool:
        """Will the next SSD write land?"""
        return not (self.injector.dead or self.full)

    def _settle(self) -> None:
        assert self.sched.drain(10)

    # ------------------------------------------------------------------ rules
    @rule(i=TENSORS, version=st.integers(min_value=0, max_value=9))
    def store(self, i, version):
        """Fresh or re-store, either placement; never fails the caller,
        whatever the device does."""
        data = np.arange(np.prod(SHAPES[i]), dtype=np.float32) + 100 * version + i
        bypasses = SHAPES[i] is BIG and not self.off.ssd_dead_for(_owner(i))
        lands = self._writable()
        with tenant_scope(_owner(i)):
            self.off.store(_tid(i), data)
        self._settle()
        self.expected[_tid(i)] = data
        if bypasses:  # a refused direct write fails over into the pool
            assert self.off.tier_of(_tid(i)) is (Tier.SSD if lands else Tier.CPU)

    @rule(i=TENSORS)
    def load(self, i):
        tid = _tid(i)
        if tid not in self.expected:
            with pytest.raises(KeyError):
                self.off.load(tid, SHAPES[i], F32)
        elif self._readable(tid):
            assert np.array_equal(self.off.load(tid, SHAPES[i], F32), self.expected[tid])
        else:
            with pytest.raises(PermanentIOError):
                self.off.load(tid, SHAPES[i], F32)

    @rule(i=TENSORS)
    def release(self, i):
        self.off.release(_tid(i))  # idempotent: unknown tensors are fine
        self.expected.pop(_tid(i), None)
        assert self.off.tier_of(_tid(i)) is Tier.GPU

    @rule(i=TENSORS)
    def demote(self, i):
        """Only a tensor whose owner can still spill is demoted: the SSD
        dead for that owner pins it in the pool, as pool pressure does."""
        demotable = self.off.tier_of(_tid(i)) is Tier.CPU and not self.off.ssd_dead_for(_owner(i))
        lands = self._writable()
        assert self.off.demote(_tid(i)) == demotable
        self._settle()
        if demotable:  # a failed spill put the only copy back in the pool
            assert self.off.tier_of(_tid(i)) is (Tier.SSD if lands else Tier.CPU)

    @rule()
    def kill_ssd(self):
        self.injector.kill()

    @rule(tenant=st.sampled_from(TENANTS), permanent=st.booleans())
    def lane_failure(self, tenant, permanent):
        """The scheduler books device failures of ``tenant``'s requests
        on the ssd lane — one permanent error, or a streak up to the
        death threshold: the breaker opens there and then, and the tier
        says so without a placement in between."""
        globally = self.off.ssd_dead
        for _ in range(1 if permanent else self.health.death_threshold):
            self.health.record_failure("ssd", permanent=permanent, tenant=tenant)
        assert self.off.ssd_dead_for(tenant)
        assert self.off.ssd_dead == (globally or tenant == DEFAULT_TENANT)

    @rule(tenant=st.sampled_from((None,) + TENANTS))
    def heal(self, tenant):
        """Operator recovery: the device is declared new, for everyone
        or for one tenant."""
        self.injector.heal()
        self.health.revive("ssd", tenant)
        if tenant is None:
            assert not any(self.off.ssd_dead_for(t) for t in TENANTS)

    @precondition(lambda self: not self.full)  # the canary would eat the ENOSPC
    @rule(tenant=st.sampled_from(TENANTS))
    def probe(self, tenant):
        """Two canaries past the backoff (the probe budget): into a
        healed device they close every breaker they reach; into a dead
        one they fail and leave it open."""
        was_dead = self.off.ssd_dead_for(tenant)
        for _ in range(2):
            self.now += 60.0
            result = self.off.maybe_probe_ssd(tenant)
            assert result is (None if not was_dead else not self.injector.dead)
        assert self.off.ssd_dead_for(tenant) == (was_dead and self.injector.dead)

    @precondition(lambda self: self._writable())
    @rule()
    def one_enospc(self):
        """The next SSD write finds the device full, once."""

        def full(tensor_id, data):
            del self.injector.write  # the class's method again
            self.full = False
            raise OSError(errno.ENOSPC, "injected: device full")

        self.injector.write = full
        self.full = True

    # ------------------------------------------------------------- invariants
    @invariant()
    def agrees_with_the_model_and_keeps_its_books(self):
        off = self.off
        assert set(off._entries) == set(self.expected)
        # One owner: the tier's verdict is the lane health's, per tenant.
        for tenant in TENANTS:
            assert off.ssd_dead_for(tenant) == self.health.is_dead("ssd", tenant)
        assert off.dead_tenants == set(self.health.dead_tenants("ssd"))
        # The pool goes (further) over its cap only with bytes that have
        # nowhere else to go: a failover or a reinstated spill, or a
        # store that found nothing to spill, or spilled every victim it
        # had and still did not fit.
        overflow, failovers = off.pool.overflow_bytes, off.stats.failovers
        could_spill = off._next_victim() is not None
        if overflow > self.overflow:
            assert failovers > self.failovers or not (self.could_spill and could_spill)
        self.overflow, self.failovers = overflow, failovers
        self.could_spill = could_spill
        # Drained: between rules every tensor is at rest, and the device
        # holds exactly the SSD-state ones (a tensor lives in one tier).
        assert {e.state for e in off._entries.values()} <= {_State.CPU, _State.SSD}
        on_device = {t for t, e in off._entries.items() if e.state is _State.SSD}
        files = {os.path.basename(off.ssd.location(tid)) for tid in on_device}
        free = free_file_names(off.ssd.file_store)  # released, kept for reuse
        assert set(os.listdir(self.dir)) == files | free and not files & free
        promote, off.promote_on_load = off.promote_on_load, False  # look, don't move
        try:
            for tid, data in self.expected.items():
                if self._readable(tid):
                    assert np.array_equal(off.load(tid, tid.shape, F32), data), tid
        finally:
            off.promote_on_load = promote
        assert_tier_books(off)
        assert not self.violations, self.violations


def test_tiered_offloader_agrees_with_a_dict(pytestconfig):
    seeded = pytestconfig.getoption("hypothesis_seed", None) is not None
    run_state_machine_as_test(
        TieredModel,
        settings=settings(
            max_examples=100, stateful_step_count=40, deadline=None, derandomize=not seeded
        ),
    )
