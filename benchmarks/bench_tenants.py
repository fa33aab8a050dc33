"""Benchmarks for the multi-tenant fair-share QoS layer (PR 6).

A/B of the weighted DRR fair-share dequeue against naive FIFO on the
shared-lane harness (virtual device clock, so the numbers are CPU-bound
and deterministic), plus the registry's quota-admission hot path that
sits on every ``submit``.  The fairness win itself is asserted
deterministically in ``test_tenant_fair_vs_fifo_jain_ab`` so the
benchmark cannot silently stop demonstrating it.
"""

from repro.io import TenantRegistry
from repro.sim import MultiTenantHarness, TenantJobSpec

from benchmarks.conftest import emit

#: Four equal-weight tenants contending for one SSD lane.
JOBS = tuple(
    TenantJobSpec(name=f"tenant{i}", num_tensors=16, tensor_bytes=16 << 10)
    for i in range(4)
)


def _run(fair):
    return MultiTenantHarness(JOBS, fair=fair).run()


def test_tenant_harness_fair_run():
    result = _run(True)
    emit(
        "Multi-tenant QoS — fair-share DRR over a shared lane",
        [f"contended Jain index: {result.contended_jain:.4f}"],
    )
    assert result.contended_jain >= 0.9


def test_tenant_harness_fifo_run():
    result = _run(False)
    emit(
        "Multi-tenant QoS — naive FIFO over a shared lane",
        [f"contended Jain index: {result.contended_jain:.4f}"],
    )


def test_tenant_fair_vs_fifo_jain_ab():
    """Deterministic A/B: the DRR dequeue must keep its fairness win
    over FIFO regardless of how the wall-clock benches move."""
    fair = _run(True)
    fifo = _run(False)
    emit(
        "Multi-tenant QoS — fair vs FIFO Jain A/B",
        [
            f"fair: {fair.contended_jain:.4f}",
            f"fifo: {fifo.contended_jain:.4f}",
        ],
    )
    assert fair.contended_jain >= 0.9
    assert fair.contended_jain > fifo.contended_jain + 0.05


def test_tenant_admission_quota_hot_path():
    """The per-request admission charge and cancelled-outcome refund
    cycle (quota-tracked tenant) — pure CPU."""
    registry = TenantRegistry()
    registry.register("hot", byte_quota=1 << 40)

    def cycle():
        for _ in range(256):
            registry.admit("hot", 4096)
            with registry.lock:
                registry.finish_locked("hot", "cancelled", 4096)

    cycle()
