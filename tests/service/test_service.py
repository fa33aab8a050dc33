"""EngineService + Supervisor: state machine, controls, crash restart."""

import threading
import time

import numpy as np
import pytest

from repro.core.engine import EngineConfig
from repro.service import (
    ControlBus,
    EngineService,
    ServiceState,
    Supervisor,
    SyntheticWorkload,
    TOPIC_CONTROL,
    TOPIC_EVENTS,
    TOPIC_TELEMETRY,
)

TICK = 0.01


def _config(tmp_path, **overrides):
    kwargs = dict(
        target="ssd", store_dir=tmp_path / "store", chunk_bytes=4096, durable=True
    )
    kwargs.update(overrides)
    return EngineConfig(**kwargs)


def _service(tmp_path, **overrides):
    return EngineService(
        _config(tmp_path),
        heartbeat_interval_s=TICK,
        gc_interval_s=None,
        **overrides,
    )


def _wait(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.002)
    raise TimeoutError("condition not reached")


# ------------------------------------------------------------- state machine
def test_start_stop_lifecycle(tmp_path):
    service = _service(tmp_path)
    assert service.state is ServiceState.STOPPED and service.engine is None
    threads_before = threading.active_count()
    with service:
        assert service.state is ServiceState.HEALTHY
        assert service.generation == 1
        service.start()  # idempotent: no second engine, no state churn
        assert service.generation == 1
        _wait(lambda: service.heartbeat_age() is not None)
    assert service.state is ServiceState.STOPPED and service.engine is None
    service.stop()  # idempotent
    _wait(lambda: threading.active_count() == threads_before)


def test_state_transitions_are_published(tmp_path):
    bus = ControlBus()
    with _service(tmp_path, bus=bus):
        pass
    transitions = [
        (m["from"], m["to"])
        for m in bus.recent(TOPIC_EVENTS)
        if m.get("event") == "state"
    ]
    assert transitions == [
        ("stopped", "starting"),
        ("starting", "healthy"),
        ("healthy", "stopped"),
    ]


def test_degraded_is_a_healthy_substate(tmp_path):
    with _service(tmp_path) as service:
        service.mark_degraded(reason="dead lanes: ssd")
        assert service.state is ServiceState.DEGRADED
        service.mark_degraded()  # only HEALTHY -> DEGRADED transitions
        service.mark_healthy(reason="recovered")
        assert service.state is ServiceState.HEALTHY
        service.mark_healthy()  # only DEGRADED -> HEALTHY transitions
        assert service.state is ServiceState.HEALTHY


def test_heartbeat_advances_and_telemetry_flows(tmp_path):
    bus = ControlBus()
    with _service(tmp_path, bus=bus) as service:
        _wait(lambda: len(bus.recent(TOPIC_TELEMETRY)) >= 3)
        assert service.heartbeat_age() < 1.0
        snapshot = bus.recent(TOPIC_TELEMETRY)[-1]
        assert snapshot["generation"] == 1
        assert snapshot["stats"].endurance is not None


def test_validation(tmp_path):
    with pytest.raises(ValueError):
        EngineService(_config(tmp_path), heartbeat_interval_s=0)
    with pytest.raises(ValueError):
        Supervisor(_service(tmp_path), heartbeat_timeout_s=0)


# ------------------------------------------------------------------ controls
def test_install_budget_lands_without_restart(tmp_path):
    bus = ControlBus()
    with _service(tmp_path, bus=bus) as service:
        generation = service.generation
        bus.publish(TOPIC_CONTROL, {"cmd": "install_budget", "bytes": 123456})
        _wait(lambda: service.controls_applied == 1)
        assert service.engine.policy.config.offload_budget_bytes == 123456
        assert service.generation == generation  # no restart
        acks = [
            m for m in bus.recent(TOPIC_EVENTS) if m.get("event") == "control"
        ]
        assert acks[-1]["ok"] and acks[-1]["cmd"] == "install_budget"


def test_bad_controls_ack_failure_without_wedging(tmp_path):
    bus = ControlBus()
    with _service(tmp_path, bus=bus) as service:
        bus.publish(TOPIC_CONTROL, {"cmd": "no-such-knob"})
        bus.publish(TOPIC_CONTROL, "not a dict either")  # rejected at subscribe
        bus.publish(TOPIC_CONTROL, {"cmd": "install_budget", "bytes": 42})
        _wait(lambda: service.controls_applied == 1)
        assert service.engine.policy.config.offload_budget_bytes == 42
        acks = [
            m for m in bus.recent(TOPIC_EVENTS) if m.get("event") == "control"
        ]
        assert [a["ok"] for a in acks] == [False, True]
        assert "no-such-knob" in acks[0]["error"]
        assert bus.delivery_errors == 1  # the non-dict message


def test_watermark_and_tenant_controls(tmp_path):
    from repro.io.tenancy import TenantRegistry

    bus = ControlBus()
    config = _config(
        tmp_path, target="tiered", cpu_pool_bytes=1 << 20, tenants=TenantRegistry()
    )
    with EngineService(
        config, bus=bus, heartbeat_interval_s=TICK, gc_interval_s=None
    ) as service:
        bus.publish(TOPIC_CONTROL, {"cmd": "set_free_watermark", "bytes": 4096})
        bus.publish(TOPIC_CONTROL, {"cmd": "set_tenant", "name": "a", "weight": 3})
        _wait(lambda: service.controls_applied == 2)
        assert service.engine.offloader.free_watermark_bytes == 4096
        assert service.engine.tenants.get("a").weight == 3


def test_set_tenant_keeps_the_fields_it_does_not_name(tmp_path):
    from repro.io.tenancy import TenantRegistry

    bus = ControlBus()
    registry = TenantRegistry()
    registry.register("a", byte_quota=100)
    config = _config(tmp_path, tenants=registry)
    with EngineService(config, bus=bus, heartbeat_interval_s=TICK, gc_interval_s=None) as service:

        def acks():
            return [m for m in bus.recent(TOPIC_EVENTS) if m.get("event") == "control"]

        bus.publish(TOPIC_CONTROL, {"cmd": "set_tenant", "name": "a", "weight": 3})
        _wait(lambda: len(acks()) == 1)
        assert (registry.get("a").weight, registry.get("a").byte_quota) == (3, 100)
        before = registry.get("a")
        # A key the contract no longer has is refused, and changes nothing.
        bus.publish(TOPIC_CONTROL, {"cmd": "set_tenant", "name": "a", "over_quota": "park"})
        _wait(lambda: len(acks()) == 2)
        assert [ack["ok"] for ack in acks()] == [True, False]
        assert "over_quota" in acks()[1]["error"]
        assert registry.get("a") is before and service.controls_applied == 1


def test_paging_strategy_swap_control(tmp_path):
    from repro.serve.paging import PagingPolicy

    bus = ControlBus()
    with _service(tmp_path, bus=bus) as service:
        bus.publish(TOPIC_CONTROL, {"cmd": "set_paging_strategy", "name": "lookahead"})
        _wait(
            lambda: any(
                m.get("event") == "control" and not m["ok"]
                for m in bus.recent(TOPIC_EVENTS)
            )
        )  # no policy attached yet -> contained failure
        service.paging_policy = PagingPolicy()
        bus.publish(TOPIC_CONTROL, {"cmd": "set_paging_strategy", "name": "lookahead"})
        _wait(lambda: service.controls_applied == 1)
        assert service.paging_policy.strategy.name.startswith("lookahead")


def test_gc_runs_on_cadence_and_publishes(tmp_path):
    bus = ControlBus()
    service = EngineService(
        _config(tmp_path),
        bus=bus,
        heartbeat_interval_s=TICK,
        gc_interval_s=2 * TICK,
    )
    workload = SyntheticWorkload()
    with service:
        workload.run(service.engine, steps=6)  # leaves half-dead chunks
        _wait(lambda: service.gc_reclaimed_total > 0)
    events = [m for m in bus.recent(TOPIC_EVENTS) if m.get("event") == "gc"]
    assert events and sum(m["reclaimed_bytes"] for m in events) == (
        service.gc_reclaimed_total
    )


# ----------------------------------------------------------- supervised crash
def test_kill_freezes_heartbeat_and_supervisor_restarts(tmp_path):
    bus = ControlBus()
    service = _service(tmp_path, bus=bus)
    supervisor = Supervisor(
        service,
        heartbeat_timeout_s=6 * TICK,
        poll_interval_s=TICK,
        backoff_base_s=TICK,
    )
    with service, supervisor:
        generation = service.generation
        service.kill()
        _wait(lambda: service.restarts == 1)
        _wait(lambda: service.state is ServiceState.HEALTHY)
        assert service.generation == generation + 1
        assert supervisor.restarts_triggered == 1
        # A durable engine replayed its manifest on the way back up.
        assert service.engine.chunk_store is not None
        events = [m.get("event") for m in bus.recent(TOPIC_EVENTS)]
        assert "supervisor-restart" in events
        # Heartbeats resumed: the new housekeeping thread is alive.
        _wait(lambda: service.heartbeat_age() < 6 * TICK)


def test_backoff_doubles_and_caps(tmp_path):
    service = _service(tmp_path)
    supervisor = Supervisor(
        service, backoff_base_s=0.05, backoff_max_s=0.2, backoff_reset_s=60.0
    )
    assert supervisor.next_backoff_s() == 0.05
    supervisor._streak = 1
    assert supervisor.next_backoff_s() == 0.10
    supervisor._streak = 10
    assert supervisor.next_backoff_s() == 0.2  # capped


def test_stop_wins_over_restart(tmp_path):
    """stop() during a supervisor-driven restart must leave the service
    STOPPED with no engine — not resurrect a fresh one."""
    service = _service(tmp_path)
    service.start()
    service.stop()
    service.restart(reason="late supervisor")  # no-op on a stopped service
    assert service.state is ServiceState.STOPPED and service.engine is None


def test_restart_replays_bit_exact_mid_workload(tmp_path):
    """The acceptance loop in miniature: run, kill, restart, resume —
    every loss matches an uninterrupted reference run."""
    workload = SyntheticWorkload(seed=3)
    with EngineService(
        _config(tmp_path, store_dir=tmp_path / "ref"),
        heartbeat_interval_s=TICK,
        gc_interval_s=None,
    ) as ref:
        expected = workload.run(ref.engine, steps=8)

    service = _service(tmp_path)
    supervisor = Supervisor(
        service,
        heartbeat_timeout_s=6 * TICK,
        poll_interval_s=TICK,
        backoff_base_s=TICK,
    )
    losses = []
    with service, supervisor:
        for step in range(8):
            if step == 4:
                service.kill()
                _wait(
                    lambda: service.restarts >= 1
                    and service.state is ServiceState.HEALTHY
                )
                assert service.engine.chunk_store.manifest_records_replayed > 0
            losses.append(workload.run_step(service.engine, step))
    assert losses == expected
