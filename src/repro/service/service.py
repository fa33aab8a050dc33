"""The supervised engine service: heartbeat, live control, crash restart.

:class:`EngineService` owns one :class:`~repro.core.engine.Engine` built
from an :class:`~repro.core.engine.EngineConfig` and runs a single
*housekeeping* thread beside it that

- beats a heartbeat timestamp every tick (the liveness signal),
- publishes an :class:`~repro.core.engine.EngineStats` snapshot on the
  telemetry topic,
- applies queued control commands — budget installs, watermark moves,
  tenant QoS changes, paging-strategy swaps — all of which are
  step-safe engine knobs, so **no restart** is needed, and
- runs chunk GC (:meth:`~repro.io.chunkstore.ChunkedTensorStore.compact`)
  on its own cadence for week-long endurance.

:class:`Supervisor` watches from outside, the monitored-liveness shape
of the ROADMAP's exemplars (gridworks-scada actors, Pioreactor jobs): a
stale heartbeat means the engine is wedged or crashed, and the
supervisor reaps it and builds a fresh one with exponential backoff.
With ``durable=True`` the fresh engine's chunk store replays the
manifest journal, so the restart resumes **bit-exact** from disk.  Dead
I/O lanes (from :class:`~repro.io.health.LaneHealthTracker`) degrade
the service without a restart — the engine's own failover already
reroutes traffic; the state just needs to say so.

State machine (see docs/architecture.md §11)::

    STOPPED -> STARTING -> HEALTHY <-> DEGRADED
                   ^          |            |
                   |          v            v
                   +------ RESTARTING <----+     (supervisor-driven)
    any state -> STOPPED                         (stop() only)
    HEALTHY/DEGRADED/RESTARTING -> FAILED        (crash-loop escalation)

``FAILED`` is terminal: the supervisor's crash-loop breaker
(``max_restarts`` within ``restart_window_s``) escalates an engine that
dies on every start instead of restarting it forever; the final state
event on the bus carries the reason.  The service also publishes every
SSD circuit-breaker transition (``event: "breaker"``) and, each
housekeeping tick, probes a tripped breaker so a healed device is
resurrected without operator action (architecture §12).
"""

from __future__ import annotations

import dataclasses
import enum
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.core.engine import Engine, EngineConfig, build_engine
from repro.service.bus import ControlBus

#: Bus topics (outward telemetry, inward control, lifecycle events).
TOPIC_TELEMETRY = "engine.telemetry"
TOPIC_CONTROL = "engine.control"
TOPIC_EVENTS = "engine.events"


class ServiceState(enum.Enum):
    STARTING = "starting"
    HEALTHY = "healthy"
    DEGRADED = "degraded"
    RESTARTING = "restarting"
    STOPPED = "stopped"
    #: Terminal: the supervisor gave up on a crash-looping engine.
    FAILED = "failed"


class EngineService:
    """One supervised engine: lifecycle + heartbeat + live control.

    Args:
        config: engine configuration; ``durable=True`` makes restarts
            recover the chunk store from its manifest.
        bus: the :class:`~repro.service.bus.ControlBus` to attach to
            (a private one is created when ``None``).
        heartbeat_interval_s: housekeeping tick period.
        gc_interval_s: how often the tick also runs chunk compaction
            (``None`` disables background GC).
        gc_dead_ratio: dead-byte ratio handed to ``compact``.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        config: EngineConfig,
        bus: Optional[ControlBus] = None,
        heartbeat_interval_s: float = 0.05,
        gc_interval_s: Optional[float] = 0.5,
        gc_dead_ratio: Optional[float] = None,
        clock=time.monotonic,
    ) -> None:
        if heartbeat_interval_s <= 0:
            raise ValueError(
                f"heartbeat_interval_s must be positive: {heartbeat_interval_s}"
            )
        config.validate()
        self.config = config
        self.bus = bus if bus is not None else ControlBus()
        self.heartbeat_interval_s = heartbeat_interval_s
        self.gc_interval_s = gc_interval_s
        self.gc_dead_ratio = gc_dead_ratio
        self._clock = clock
        self._lock = threading.RLock()
        self.engine: Optional[Engine] = None
        self.state = ServiceState.STOPPED
        #: Bumped on every (re)build of the engine — telemetry carries it
        #: so consumers can tell restarts apart.
        self.generation = 0
        self.restarts = 0
        self.controls_applied = 0
        self.gc_reclaimed_total = 0
        #: Optional :class:`repro.serve.paging.PagingPolicy` whose
        #: strategy the ``set_paging_strategy`` control swaps live.
        self.paging_policy = None
        self._wedged = False
        self._stop_tick = threading.Event()
        self._tick_thread: Optional[threading.Thread] = None
        self._last_beat: Optional[float] = None
        self._last_gc: float = 0.0
        self._pending: Deque[Dict[str, Any]] = deque()
        self._control_sub = self.bus.subscribe(TOPIC_CONTROL, self._on_control)

    # ---------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Build the engine and start housekeeping (idempotent)."""
        with self._lock:
            if self.engine is not None:
                return
            self._set_state(ServiceState.STARTING)
            self._spawn_engine()
            self._set_state(ServiceState.HEALTHY)

    def _spawn_engine(self) -> None:
        """Build a fresh engine + housekeeping thread (lock held)."""
        self.engine = build_engine(self.config)
        self.generation += 1
        self.engine.scheduler.health.add_breaker_listener(self._on_breaker_event)
        self._wedged = False
        self._stop_tick = threading.Event()
        self._last_beat = self._clock()
        self._last_gc = self._last_beat
        self._tick_thread = threading.Thread(
            target=self._housekeeping,
            args=(self._stop_tick,),
            name=f"engine-service-gen{self.generation}",
        )
        self._tick_thread.start()

    def stop(self) -> None:
        """Shut the engine down for good (idempotent, leak-free)."""
        with self._lock:
            if self.state is ServiceState.STOPPED and self.engine is None:
                return
            stop_tick, thread = self._stop_tick, self._tick_thread
            engine, self.engine = self.engine, None
            self._tick_thread = None
            self._set_state(ServiceState.STOPPED)
        stop_tick.set()
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5)
        if engine is not None:
            engine.shutdown()

    def fail(self, reason: str = "") -> None:
        """Terminal escalation: tear the engine down and mark the
        service FAILED (no further restarts).

        The supervisor's crash-loop breaker calls this when restarts
        stop helping; the final ``state`` event on the bus carries the
        reason.  Only :meth:`stop` moves the service out of FAILED.
        """
        with self._lock:
            if self.state in (ServiceState.STOPPED, ServiceState.FAILED):
                return
            stop_tick, thread = self._stop_tick, self._tick_thread
            engine, self.engine = self.engine, None
            self._tick_thread = None
            self._set_state(ServiceState.FAILED, reason=reason)
        stop_tick.set()
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5)
        if engine is not None:
            try:
                engine.shutdown()
            except Exception:
                pass  # reaping a crash-looping engine must not block failing

    def restart(self, reason: str = "") -> None:
        """Reap the current engine and build a fresh one.

        The supervisor's recovery action.  The old engine's teardown is
        best-effort (it may be the thing that crashed); the leak-free
        ``Engine.shutdown`` satellite is what makes reaping in-process
        possible at all.  A ``durable`` store then replays its manifest
        inside ``build_engine``, restoring the index bit-exact.
        """
        with self._lock:
            if self.state in (ServiceState.STOPPED, ServiceState.FAILED):
                return
            self._set_state(ServiceState.RESTARTING, reason=reason)
            stop_tick, thread = self._stop_tick, self._tick_thread
            engine, self.engine = self.engine, None
            self._tick_thread = None
        stop_tick.set()
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5)
        if engine is not None:
            try:
                engine.shutdown()
            except Exception:
                pass  # reaping a crashed engine must never block recovery
        with self._lock:
            # stop() or fail() raced us: respect the terminal state.
            if self.state in (ServiceState.STOPPED, ServiceState.FAILED):
                return
            self._spawn_engine()
            self.restarts += 1
            self._set_state(ServiceState.HEALTHY, reason="restarted")

    def kill(self) -> None:
        """Simulate an engine crash: wedge housekeeping mid-flight.

        The housekeeping thread exits without any teardown on its next
        tick, the heartbeat freezes, and nothing else is told — exactly
        the signature the supervisor must detect and recover from.
        """
        with self._lock:
            self._wedged = True

    def __enter__(self) -> "EngineService":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # ----------------------------------------------------------------- health
    def heartbeat_age(self) -> Optional[float]:
        """Seconds since the housekeeping thread last beat (None = never)."""
        with self._lock:
            last = self._last_beat
        return None if last is None else self._clock() - last

    def dead_lanes(self) -> Tuple[str, ...]:
        """Dead I/O lanes of the current engine."""
        with self._lock:
            engine = self.engine
        if engine is None:
            return ()
        return engine.scheduler.health.dead_lanes()

    def mark_degraded(self, reason: str = "") -> None:
        with self._lock:
            if self.state is ServiceState.HEALTHY:
                self._set_state(ServiceState.DEGRADED, reason=reason)

    def mark_healthy(self, reason: str = "") -> None:
        with self._lock:
            if self.state is ServiceState.DEGRADED:
                self._set_state(ServiceState.HEALTHY, reason=reason)

    def _on_breaker_event(
        self, name: str, old: str, new: str, reason: str
    ) -> None:
        """Publish an SSD circuit-breaker transition on the event topic.

        Fired by the lane-health breakers outside their locks; breaker
        names scope the event (``"ssd"`` global, ``"ssd/<tenant>"``)."""
        self.bus.publish(
            TOPIC_EVENTS,
            {
                "event": "breaker",
                "name": name,
                "from": old,
                "to": new,
                "reason": reason,
                "generation": self.generation,
            },
        )

    def _set_state(self, state: ServiceState, reason: str = "") -> None:
        previous, self.state = self.state, state
        self.bus.publish(
            TOPIC_EVENTS,
            {
                "event": "state",
                "from": previous.value,
                "to": state.value,
                "generation": self.generation,
                "reason": reason,
            },
        )

    # ---------------------------------------------------------------- controls
    def _on_control(self, message: Any) -> None:
        if not isinstance(message, dict) or "cmd" not in message:
            raise ValueError(f"control messages are dicts with a 'cmd': {message!r}")
        with self._lock:
            self._pending.append(message)

    def apply_pending(self) -> int:
        """Apply every queued control command now; returns how many ran OK.

        Normally called by the housekeeping tick (between heartbeats, so
        every knob lands at a step boundary); exposed for deterministic
        tests and for callers that cannot wait a tick.
        """
        ok = 0
        while True:
            with self._lock:
                if not self._pending:
                    return ok
                message = self._pending.popleft()
                engine = self.engine
            error = None
            if engine is None:
                error = "no engine"
            else:
                try:
                    self._apply_one(engine, message)
                except Exception as exc:  # a bad command must not wedge ticks
                    error = f"{type(exc).__name__}: {exc}"
            if error is None:
                ok += 1
                with self._lock:
                    self.controls_applied += 1
            self.bus.publish(
                TOPIC_EVENTS,
                {
                    "event": "control",
                    "cmd": message.get("cmd"),
                    "ok": error is None,
                    "error": error,
                    "generation": self.generation,
                },
            )

    def _apply_one(self, engine: Engine, message: Dict[str, Any]) -> None:
        cmd = message["cmd"]
        if cmd == "install_budget":
            engine.policy.install_budget(int(message["bytes"]))
        elif cmd == "set_free_watermark":
            if engine.tiered is None:
                raise ValueError("engine target has no CPU-tier watermark")
            engine.tiered.set_free_watermark(int(message["bytes"]))
            engine.tiered.apply_watermark()
        elif cmd == "set_tenant":
            if engine.tenants is None:
                raise ValueError("engine has no tenant registry")
            kwargs = {
                key: value
                for key, value in message.items()
                if key not in ("cmd", "name")
            }
            # The fields the message does not name keep their values.
            name = str(message["name"])
            engine.tenants.register(dataclasses.replace(engine.tenants.get(name), **kwargs))
        elif cmd == "set_paging_strategy":
            if self.paging_policy is None:
                raise ValueError("no paging policy attached to the service")
            from repro.serve.paging import make_strategy  # deferred: serve optional

            kwargs = dict(message.get("kwargs", {}))
            self.paging_policy.strategy = make_strategy(
                str(message["name"]), **kwargs
            )
        elif cmd == "compact":
            self._run_gc(engine, force=True)
        else:
            raise ValueError(f"unknown control command {cmd!r}")

    # ------------------------------------------------------------ housekeeping
    def _housekeeping(self, stop_tick: threading.Event) -> None:
        while not stop_tick.wait(self.heartbeat_interval_s):
            with self._lock:
                if self._wedged:
                    return  # simulated crash: die without a trace
                self._last_beat = self._clock()
                engine = self.engine
            if engine is None:
                return
            self.apply_pending()
            try:
                stats = engine.stats()
            except Exception:
                continue  # a mid-restart snapshot race is not a tick failure
            self.bus.publish(
                TOPIC_TELEMETRY,
                {"generation": self.generation, "stats": stats},
            )
            # Self-healing: canary a tripped SSD breaker each tick (the
            # breaker's own backoff + single-flight gating make this
            # cheap), so a healed device is resurrected automatically.
            if engine.tiered is not None:
                try:
                    engine.tiered.maybe_probe_ssd()
                except Exception:
                    pass  # a probe bug must never wedge housekeeping
            # An ENOSPC-rerouted write wants GC *now*, not at the
            # cadence timer: the hint jumps the queue.
            store = engine.chunk_store
            if store is not None and store.consume_compaction_hint():
                try:
                    self._run_gc(engine)
                except OSError:
                    pass  # device still full: the next hint retries
            if self.gc_interval_s is not None:
                now = self._clock()
                if now - self._last_gc >= self.gc_interval_s:
                    self._last_gc = now
                    self._run_gc(engine)

    def _run_gc(self, engine: Engine, force: bool = False) -> int:
        store = engine.chunk_store
        if store is None:
            if force:
                raise ValueError("engine has no chunked store to compact")
            return 0
        kwargs = {}
        if self.gc_dead_ratio is not None:
            kwargs["max_dead_ratio"] = self.gc_dead_ratio
        reclaimed = store.compact(**kwargs)
        if reclaimed:
            with self._lock:
                self.gc_reclaimed_total += reclaimed
            self.bus.publish(
                TOPIC_EVENTS,
                {
                    "event": "gc",
                    "reclaimed_bytes": reclaimed,
                    "generation": self.generation,
                },
            )
        return reclaimed


class Supervisor:
    """Watches an :class:`EngineService`; restarts it when it wedges.

    Detection is purely observational — stale heartbeat (wedged or
    crashed housekeeping) triggers a restart; dead I/O lanes flip the
    state to ``DEGRADED`` (and back) without one, since tier failover
    already reroutes the traffic.  Consecutive restarts back off
    exponentially (``backoff_base_s * 2**n`` capped at
    ``backoff_max_s``); a quiet period of ``backoff_reset_s`` resets
    the streak.

    Crash-loop escalation: when ``max_restarts`` is set and that many
    restarts land inside a sliding ``restart_window_s``, restarting has
    demonstrably stopped helping — the supervisor publishes a final
    ``supervisor-escalate`` event and moves the service to the terminal
    ``FAILED`` state instead of burning restarts forever.
    """

    def __init__(
        self,
        service: EngineService,
        heartbeat_timeout_s: float = 0.5,
        poll_interval_s: float = 0.02,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        backoff_reset_s: float = 5.0,
        max_restarts: Optional[int] = None,
        restart_window_s: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        if heartbeat_timeout_s <= 0:
            raise ValueError(
                f"heartbeat_timeout_s must be positive: {heartbeat_timeout_s}"
            )
        if max_restarts is not None and max_restarts < 1:
            raise ValueError(f"max_restarts must be >= 1: {max_restarts}")
        if restart_window_s <= 0:
            raise ValueError(
                f"restart_window_s must be positive: {restart_window_s}"
            )
        self.service = service
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.poll_interval_s = poll_interval_s
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.backoff_reset_s = backoff_reset_s
        self.max_restarts = max_restarts
        self.restart_window_s = restart_window_s
        self._clock = clock
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.restarts_triggered = 0
        self.escalations = 0
        self._streak = 0
        self._last_restart: Optional[float] = None
        #: Restart timestamps inside the sliding escalation window.
        self._restart_times: Deque[float] = deque()

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._watch, name="engine-supervisor")
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5)

    def next_backoff_s(self) -> float:
        """The delay the *next* restart would wait (exponential, capped)."""
        return min(self.backoff_base_s * (2 ** self._streak), self.backoff_max_s)

    def __enter__(self) -> "Supervisor":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def _watch(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            service = self.service
            state = service.state
            if state not in (ServiceState.HEALTHY, ServiceState.DEGRADED):
                continue
            now = self._clock()
            if (
                self._last_restart is not None
                and now - self._last_restart >= self.backoff_reset_s
            ):
                self._streak = 0
            age = service.heartbeat_age()
            if age is not None and age > self.heartbeat_timeout_s:
                if self.max_restarts is not None:
                    cutoff = now - self.restart_window_s
                    while self._restart_times and self._restart_times[0] < cutoff:
                        self._restart_times.popleft()
                    if len(self._restart_times) >= self.max_restarts:
                        # Restarting has stopped helping: escalate to
                        # the terminal FAILED state instead of looping.
                        count = len(self._restart_times)
                        service.bus.publish(
                            TOPIC_EVENTS,
                            {
                                "event": "supervisor-escalate",
                                "restarts_in_window": count,
                                "window_s": self.restart_window_s,
                                "heartbeat_age_s": age,
                            },
                        )
                        self.escalations += 1
                        service.fail(
                            reason=(
                                f"crash loop: {count} restarts in "
                                f"{self.restart_window_s:g}s"
                            )
                        )
                        continue
                delay = self.next_backoff_s()
                service.bus.publish(
                    TOPIC_EVENTS,
                    {
                        "event": "supervisor-restart",
                        "heartbeat_age_s": age,
                        "backoff_s": delay,
                        "streak": self._streak,
                    },
                )
                if self._stop.wait(delay):
                    return
                service.restart(reason=f"heartbeat stale for {age:.3f}s")
                self.restarts_triggered += 1
                self._streak += 1
                self._last_restart = self._clock()
                self._restart_times.append(self._last_restart)
                continue
            dead = service.dead_lanes()
            if dead and state is ServiceState.HEALTHY:
                service.mark_degraded(reason=f"dead lanes: {','.join(dead)}")
            elif not dead and state is ServiceState.DEGRADED:
                service.mark_healthy(reason="lanes recovered")
