"""Spans recorded from outside the program.

The benchmark's traced run wraps the public entry points of each layer —
from this file, leaving ``src/`` untouched — and records one span per call:
name, start, end, the thread, and the span that caused it.  On one thread
the cause is the enclosing call (a thread-local stack).  A span that
starts on a scheduler worker has no enclosing call; it is parented to the
``scheduler.submit`` span that carried the same ``tensor_id``.  Spans
stay in memory and are written as Chrome trace-event JSON when the run
ends (open the file in https://ui.perfetto.dev or ``chrome://tracing``).

Wrappers are installed on the *classes* for the length of the traced
phase and removed afterwards.  ``TensorCache.__enter__`` and the
scheduler hints look their hooks up on every step, and ``KVServerSim.run``
builds its engine and pool internally, so class-level wrapping reaches
all of them where instance-level wrapping could not reach the last.

Self time of a span is its duration minus the part of it that its
same-thread children cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Chrome trace files are capped so a long run stays openable; the metrics
#: are computed from every span regardless.
MAX_TRACE_EVENTS = 60_000


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "thread", "key", "size", "child_time")

    def __init__(self, sid: int, name: str, parent: int, thread: int, key: str, size: int):
        self.sid = sid
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.thread = thread
        self.key = key
        #: Payload bytes of the call, where the wrap point knows them.
        self.size = size
        #: Seconds of this span covered by same-thread children.
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class SpanTotals:
    """Aggregate of the spans sharing one name."""

    __slots__ = ("count", "total", "self_total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_total = 0.0


#: ``fn(self, args, kwargs)`` of a wrapped call: its span's key / payload size.
KeyFn = Callable[[Any, tuple, dict], str]
SizeFn = Callable[[Any, tuple, dict], int]


class Tracer:
    """Records spans around wrapped methods; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._submit_by_key: Dict[str, int] = {}
        self._installed: List[Tuple[type, str, Any]] = []
        #: Schedulers a listener was added to, kept alive so that an
        #: ``id`` is never reused by a later scheduler.
        self._listened: Dict[int, Any] = {}
        #: The object each span name was last recorded on — how the KV
        #: workload reaches the store that ``KVServerSim.run`` builds
        #: and shuts down internally.
        self.last_self: Dict[str, Any] = {}
        #: ``(lane, kind, submitted_at, started_at, finished_at)`` per
        #: executed request, from the scheduler's ``done`` event.
        self.requests: List[Tuple[str, str, float, float, float]] = []
        self.enabled = False

    # ------------------------------------------------------------ recording
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, key: str = "", size: int = 0) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        else:
            parent = self._submit_by_key.get(key, 0) if key else 0
        with self._lock:
            span = Span(len(self.spans) + 1, name, parent, threading.get_ident(), key, size)
            self.spans.append(span)
        stack.append(span)
        span.start = span.end = time.perf_counter()
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_time += span.end - span.start

    # -------------------------------------------------------------- wrapping
    def wrap(
        self,
        cls: type,
        attr: str,
        name: str,
        key: Optional[KeyFn] = None,
        size: Optional[SizeFn] = None,
    ) -> None:
        """Replace ``cls.attr`` with a wrapper that records a span named
        ``name``.  A call nested inside a span of the same name (a tiered
        offloader's ``store`` calling its SSD tier's ``store``) is not
        recorded again: the layer is entered once."""
        original = cls.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            if not tracer.enabled:
                return original(self, *args, **kwargs)
            stack = tracer._stack()
            if any(open_span.name == name for open_span in stack):
                return original(self, *args, **kwargs)
            tracer.last_self[name] = self
            span = tracer.begin(
                name,
                key(self, args, kwargs) if key else "",
                size(self, args, kwargs) if size else 0,
            )
            try:
                return original(self, *args, **kwargs)
            finally:
                tracer.finish(span)

        setattr(cls, attr, wrapper)
        self._installed.append((cls, attr, original))

    def wrap_submit(self, scheduler_cls: type) -> None:
        """``IOScheduler.submit``: a span keyed by the request's
        ``tensor_id`` (so worker spans find their cause), plus a listener
        on every scheduler met, for submit/start/finish stamps."""
        original = scheduler_cls.__dict__["submit"]
        tracer = self

        @functools.wraps(original)
        def submit(self, request):
            if not tracer.enabled:
                return original(self, request)
            if id(self) not in tracer._listened:
                tracer._listened[id(self)] = self
                self.add_listener(tracer._on_scheduler_event)
            span = tracer.begin("scheduler.submit", request.tensor_id)
            if request.tensor_id:
                tracer._submit_by_key[request.tensor_id] = span.sid
            try:
                return original(self, request)
            finally:
                tracer.finish(span)

        setattr(scheduler_cls, "submit", submit)
        self._installed.append((scheduler_cls, "submit", original))

    def _on_scheduler_event(self, event: str, request) -> None:
        if event == "done" and self.enabled and request.started_at:
            self.requests.append(
                (
                    request.lane,
                    request.kind,
                    request.submitted_at,
                    request.started_at,
                    request.finished_at,
                )
            )

    def uninstall(self) -> None:
        """Put every wrapped method back and stop recording."""
        self.enabled = False
        for cls, attr, original in reversed(self._installed):
            setattr(cls, attr, original)
        self._installed.clear()

    # -------------------------------------------------------------- analysis
    def totals(self) -> Dict[str, SpanTotals]:
        out: Dict[str, SpanTotals] = defaultdict(SpanTotals)
        for span in self.spans:
            agg = out[span.name]
            agg.count += 1
            agg.total += span.duration
            agg.self_total += span.self_time
        return out

    def summary(self) -> List[str]:
        """One printed row per span name: calls, total and self time."""
        rows = [f"spans: {'name':<32}{'calls':>10}{'total_ms':>12}{'self_ms':>12}"]
        for name, agg in sorted(self.totals().items()):
            total_ms, self_ms = agg.total * 1e3, agg.self_total * 1e3
            rows.append(f"       {name:<32}{agg.count:>10}{total_ms:>12.2f}{self_ms:>12.2f}")
        return rows

    def lane_busy_seconds(self) -> Dict[str, float]:
        """Union of the executed requests' intervals, per lane."""
        by_lane: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        for lane, _kind, _sub, started, finished in self.requests:
            by_lane[lane].append((started, finished))
        busy: Dict[str, float] = {}
        for lane, intervals in by_lane.items():
            intervals.sort()
            total, (cur_start, cur_end) = 0.0, intervals[0]
            for start, end in intervals[1:]:
                if start > cur_end:
                    total += cur_end - cur_start
                    cur_start, cur_end = start, end
                else:
                    cur_end = max(cur_end, end)
            busy[lane] = total + (cur_end - cur_start)
        return busy

    # ---------------------------------------------------------------- export
    def write_chrome_trace(self, path: Path) -> int:
        """Write the spans as Chrome trace events; returns how many."""
        if not self.spans:
            return 0
        origin = min(s.start for s in self.spans)
        threads: Dict[int, int] = {}
        events: List[Dict[str, Any]] = []
        for span in self.spans[:MAX_TRACE_EVENTS]:
            tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "args": {"id": span.sid, "parent": span.parent, "key": span.key},
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)
        return len(events)


# ------------------------------------------------------------ the wrap points
def _first_arg_str(_self, args, _kwargs) -> str:
    return str(args[0]) if args else ""


def _request_key(_self, args, _kwargs) -> str:
    return getattr(args[0], "tensor_id", "") if args and args[0] is not None else ""


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads cross."""
    from repro.core.offloader import CPUOffloader, Offloader, SSDOffloader
    from repro.core.tensor_cache import TensorCache
    from repro.core.tiered import TieredOffloader
    from repro.io.chunkstore import ChunkedTensorStore
    from repro.io.filestore import TensorFileStore
    from repro.io.scheduler import IOScheduler
    from repro.serve.kv_pool import KVBlockPool
    from repro.train.trainer import Trainer

    tracer.wrap(
        Trainer, "train_step", "trainer.train_step", lambda self, a, k: self.strategy.value
    )
    for hook in ("pack_hook", "unpack_hook", "on_backward_end", "on_step_end"):
        tracer.wrap(TensorCache, hook, f"tensor_cache.{hook}")
    tracer.wrap_submit(IOScheduler)
    tracer.wrap(IOScheduler, "promote", "scheduler.promote", _request_key)
    tracer.wrap(IOScheduler, "cancel", "scheduler.cancel", _request_key)
    for offloader in (SSDOffloader, CPUOffloader, TieredOffloader):
        for op in ("store", "load", "release"):
            if op in offloader.__dict__:
                tracer.wrap(offloader, op, f"offloader.{op}", _first_arg_str)
    # SSDOffloader and CPUOffloader inherit release() from the base class.
    tracer.wrap(Offloader, "release", "offloader.release", _first_arg_str)
    for store in (TensorFileStore, ChunkedTensorStore):
        tracer.wrap(store, "write", "store.write", _first_arg_str, lambda s, a, k: a[1].nbytes)
        tracer.wrap(store, "read", "store.read", _first_arg_str)
        tracer.wrap(store, "delete", "store.delete", _first_arg_str)
    for op in ("append_block", "fetch", "prefetch"):
        tracer.wrap(KVBlockPool, op, f"kv_pool.{op}")
    tracer.enabled = True
