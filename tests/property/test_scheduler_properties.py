"""Property-based tests (hypothesis) of the I/O scheduler's accounting
invariants under random submit / cancel / promote / fail interleavings.

The failure model's acceptance bar is *exact* reconciliation: whatever
mixture of successes, injected failures, cancellations and promotions a
run throws at the scheduler, once drained the books must balance —
``submitted == executed + failed + cancelled`` — with every request in a
terminal state, no pending work, and every worker alive, in priority
and in FIFO mode alike (one queue, two configurations)."""

from hypothesis import given, settings, strategies as st

from repro.io import IORequest, IOScheduler, Priority
from repro.io.aio import JobState
from repro.io.errors import PermanentIOError, TransientIOError

#: One scripted operation: (op kind, fault mode, lane, priority index,
#: cancel-after-submit?).
_OPS = st.tuples(
    st.sampled_from(["store", "load", "demote"]),
    st.sampled_from(["ok", "ok", "transient_heals", "transient_fatal", "permanent", "bug"]),
    st.sampled_from(["ssd", "cpu"]),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
)


def _body(mode, counter):
    if mode == "ok":
        return None
    if mode == "transient_heals":
        # Fails on the first attempt, heals on the retry.
        counter["n"] += 1
        if counter["n"] == 1:
            raise TransientIOError("blip")
        return None
    if mode == "transient_fatal":
        raise TransientIOError("blip forever")
    if mode == "permanent":
        raise PermanentIOError("brick")
    raise ValueError("bug")


@settings(deadline=None, max_examples=25)
@given(st.lists(_OPS, min_size=1, max_size=40), st.booleans())
def test_scheduler_counters_always_reconcile(ops, fifo):
    sched = IOScheduler(
        workers=2,
        fifo=fifo,
        max_retries=2,
        retry_backoff_s=0.0,
    )
    requests = []
    promoted_candidates = []
    try:
        for i, (kind, mode, lane, prio_index, cancel_it) in enumerate(ops):
            counter = {"n": 0}
            priority = list(Priority)[prio_index]
            if kind == "load" and priority is Priority.STORE:
                priority = Priority.PREFETCH_LOAD
            req = IORequest(
                lambda m=mode, c=counter: _body(m, c),
                kind=kind,
                priority=priority,
                tensor_id=f"t{i}",
                nbytes=(i + 1) * 16,
                lane=lane,
                # transient_fatal must actually exhaust: give it no budget
                max_retries=0 if mode == "transient_fatal" else None,
            )
            sched.submit(req)
            requests.append((req, mode))
            if cancel_it:
                sched.cancel(req)
            elif mode == "ok" and kind == "load":
                promoted_candidates.append(req)
            if promoted_candidates and i % 3 == 0:
                sched.promote(promoted_candidates[-1])
        assert sched.drain(10), "drain must always return"

        stats = sched.stats
        states = [req.state for req, _ in requests]
        # Every request reached a terminal state and the books balance.
        assert all(s is not JobState.PENDING and s is not JobState.RUNNING for s in states)
        assert all(req.done_event.is_set() for req, _ in requests)
        assert stats.submitted == len(requests)
        assert stats.executed == sum(1 for s in states if s is JobState.DONE)
        assert stats.failed == sum(1 for s in states if s is JobState.FAILED)
        assert stats.cancelled == sum(1 for s in states if s is JobState.CANCELLED)
        assert stats.submitted == stats.executed + stats.failed + stats.cancelled
        assert sched.pending() == 0
        # Mode-level guarantees for requests that were not cancelled:
        for req, mode in requests:
            if req.state is JobState.CANCELLED:
                continue
            if mode in ("ok", "transient_heals"):
                assert req.state is JobState.DONE
            else:
                assert req.state is JobState.FAILED
                assert req.error is not None
        # Coalescing/cancellation sub-counters never exceed their totals.
        assert stats.coalesced_requests <= stats.executed
        assert stats.cancelled_stores <= stats.cancelled
        # Workers all survived the interleaving.
        for worker in sched._workers:
            assert worker.is_alive()
    finally:
        sched.shutdown()


#: Multi-tenant scripted operation: (tenant, op kind, fault mode,
#: priority index, cancel-after-submit?).
_TENANT_OPS = st.tuples(
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(["store", "load", "demote"]),
    st.sampled_from(["ok", "ok", "transient_heals", "permanent"]),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
)


@settings(deadline=None, max_examples=25)
@given(st.lists(_TENANT_OPS, min_size=1, max_size=40), st.booleans())
def test_multi_tenant_books_reconcile_per_tenant(ops, fifo):
    """Random multi-tenant interleavings: each tenant's books reconcile
    exactly (``submitted == executed + failed + cancelled``), the
    per-tenant books sum to the global ones, the capped tenant's quota
    charge equals its executed bytes, and no non-empty subqueue is
    starved (every admitted request reaches a terminal state)."""
    from repro.io import TenantQuotaError, TenantRegistry, tenant_scope
    from repro.io.tenancy import jain_index  # noqa: F401  (re-export sanity)

    quota = 1024
    registry = TenantRegistry()
    registry.register("a", weight=2.0)
    registry.register("b", weight=1.0)
    registry.register("c", weight=1.0, byte_quota=quota)
    sched = IOScheduler(
        workers=2,
        max_retries=2,
        retry_backoff_s=0.0,
        tenants=registry,
        fifo=fifo,
    )
    requests = {"a": [], "b": [], "c": []}
    rejected = {"a": 0, "b": 0, "c": 0}
    try:
        for i, (tenant, kind, mode, prio_index, cancel_it) in enumerate(ops):
            counter = {"n": 0}
            priority = list(Priority)[prio_index]
            if kind == "load" and priority is Priority.STORE:
                priority = Priority.PREFETCH_LOAD
            with tenant_scope(tenant):
                req = IORequest(
                    lambda m=mode, c=counter: _body(m, c),
                    kind=kind,
                    priority=priority,
                    tensor_id=f"t{i}",
                    nbytes=(i % 8 + 1) * 16,
                    max_retries=None,
                )
                try:
                    sched.submit(req)
                except TenantQuotaError:
                    rejected[tenant] += 1
                    continue
            requests[tenant].append(req)
            if cancel_it:
                sched.cancel(req)
        assert sched.drain(10), "drain must always return"

        # No starvation: every admitted request, whatever its tenant's
        # position in the DRR ring, reached a terminal state.
        for reqs in requests.values():
            assert all(r.done_event.is_set() for r in reqs)

        total = sched.stats
        agg_submitted = agg_executed = agg_failed = agg_cancelled = 0
        for tenant in ("a", "b", "c"):
            stats = registry.stats_of(tenant)
            states = [r.state for r in requests[tenant]]
            assert stats.submitted == len(states)
            assert stats.executed == sum(1 for s in states if s is JobState.DONE)
            assert stats.failed == sum(1 for s in states if s is JobState.FAILED)
            assert stats.cancelled == sum(
                1 for s in states if s is JobState.CANCELLED
            )
            assert (
                stats.submitted == stats.executed + stats.failed + stats.cancelled
            ), f"tenant {tenant!r} books do not reconcile"
            assert stats.rejected == rejected[tenant]
            agg_submitted += stats.submitted
            agg_executed += stats.executed
            agg_failed += stats.failed
            agg_cancelled += stats.cancelled
        assert agg_submitted == total.submitted
        assert agg_executed == total.executed
        assert agg_failed == total.failed
        assert agg_cancelled == total.cancelled

        # Quota accounting: failures and cancellations refunded their
        # charge, so the surviving charge is exactly the executed bytes
        # -- and it never exceeded the cap.
        stats_c = registry.stats_of("c")
        executed_bytes = sum(
            r.nbytes for r in requests["c"] if r.state is JobState.DONE
        )
        assert stats_c.quota_in_use_bytes == executed_bytes
        assert stats_c.quota_charged_bytes - stats_c.quota_refunded_bytes <= quota
    finally:
        sched.shutdown()
