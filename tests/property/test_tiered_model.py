"""A stateful model of :class:`~repro.core.tiered.TieredOffloader`.

hypothesis drives a scheduler-less offloader (spills run inline on the
demoting call, so every run is deterministic and shrinkable) with
random stores, loads, releases, demotions, watermarks and SSD faults,
against a ``dict`` of what each tensor must read back as.  After every
rule the offloader must agree with the dict bit for bit and its books
must balance (:func:`tests.conftest.assert_tier_books`); at the end
everything is released and nothing may be left behind.

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

from repro.core import OffloadPolicy, PolicyConfig, SSDOffloader
from repro.core.ids import TensorID
from repro.core.policy import Tier
from repro.core.tiered import TieredOffloader, _State
from repro.io.errors import PermanentIOError
from repro.io.faults import FaultPlan, inject_faults
from tests.conftest import assert_tier_books, guard_tier_lock

F32 = np.dtype(np.float32)
SMALL = (256,)  # 1 KiB: lands in the pool
BIG = (1024,)  # 4 KiB: over the policy's pool limit, written straight to the SSD
POOL_TENSORS = 3
#: Tensors 0-3 are pool-sized, 4-5 bypass the pool.
SHAPES = [SMALL] * 4 + [BIG] * 2
TENSORS = st.integers(min_value=0, max_value=len(SHAPES) - 1)


def _tid(i: int) -> TensorID:
    return TensorID(stamp=i, shape=SHAPES[i])


class TieredModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="tiered-model-")
        small_bytes = int(np.prod(SMALL)) * F32.itemsize
        self.off = TieredOffloader(
            SSDOffloader(self.dir),
            cpu_pool_bytes=POOL_TENSORS * small_bytes,
            policy=OffloadPolicy(PolicyConfig(cpu_tier_max_tensor_bytes=small_bytes)),
        )
        self.violations: list = []
        guard_tier_lock(self.off, self.violations)
        self.injector = inject_faults(self.off, FaultPlan())
        # The breaker's backoff runs on a clock the rules advance.
        self.now = 0.0
        self.off.breaker._clock = lambda: self.now
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
            self.off.shutdown()
            shutil.rmtree(self.dir, ignore_errors=True)

    def _readable(self, tid: TensorID) -> bool:
        """A dead device cannot serve what only it holds."""
        return not (self.injector.dead and self.off.tier_of(tid) is Tier.SSD)

    def _writable(self) -> bool:
        """Will the next SSD write land?"""
        return not (self.injector.dead or self.full)

    # ------------------------------------------------------------------ rules
    @rule(i=TENSORS, version=st.integers(min_value=0, max_value=9))
    def store(self, i, version):
        """Fresh or re-store, either placement; never fails the caller,
        whatever the device does."""
        data = np.arange(np.prod(SHAPES[i]), dtype=np.float32) + 100 * version + i
        bypasses = SHAPES[i] is BIG and not self.off.ssd_dead
        lands = self._writable()
        self.off.store(_tid(i), data)
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
        resident = self.off.tier_of(_tid(i)) is Tier.CPU
        lands = self._writable()
        moved = self.off.demote(_tid(i))
        assert moved == (resident and lands)
        if resident:  # a failed spill put the only copy back in the pool
            assert self.off.tier_of(_tid(i)) is (Tier.SSD if moved else Tier.CPU)

    @rule(tensors=st.integers(min_value=0, max_value=POOL_TENSORS))
    def watermark(self, tensors):
        self.off.set_free_watermark(tensors * self.off.cpu_capacity_bytes // POOL_TENSORS)
        written_off = self.off.ssd_dead
        demoted = self.off.apply_watermark()
        if written_off:
            assert demoted == 0

    @rule()
    def kill_ssd(self):
        self.injector.kill()

    @rule()
    def heal_and_probe(self):
        """The device is back; two canaries past the backoff (the probe
        budget) close the breaker and placement returns to the SSD."""
        self.injector.heal()
        for _ in range(2):
            self.now += 60.0
            self.off.maybe_probe_ssd()
        assert not self.off.ssd_dead

    @precondition(lambda self: self.off.ssd_dead and self.injector.dead)
    @rule()
    def probe_a_dead_device(self):
        """A canary into a still-dead device fails and re-opens the breaker."""
        self.now += 60.0
        assert self.off.maybe_probe_ssd() is False and self.off.ssd_dead

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
        # Inline spills: between calls every tensor is at rest, and the
        # device holds exactly the SSD-state ones (a tensor lives in one tier).
        assert {e.state for e in off._entries.values()} <= {_State.CPU, _State.SSD}
        on_device = {t for t, e in off._entries.items() if e.state is _State.SSD}
        files = {os.path.basename(off.ssd.location(tid)) for tid in on_device}
        assert set(os.listdir(self.dir)) == files
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
