"""The SSDTrain tensor cache (paper Sec. III-B, III-C).

The cache is "the in-memory structure that manages the references to all
activations and tracks activations' states, including if they are being
offloaded, the path in the file system, etc."  It plugs into the engine
through four mechanisms:

1. the **saved-tensor pack/unpack hook pair** (Alg. 1) — pack decides
   pass-through / keep / offload and returns a :class:`TensorID` that the
   autograd graph holds instead of the tensor;
2. **module forward hook pairs** — maintain the current scope stack and
   record the order activations are produced in;
3. **module backward hook pairs** — entering a module in backward triggers
   prefetching of upcoming activations; exiting removes the module from
   every activation's scope list, releasing tensors no longer in use;
4. **scheduler hints** — micro-batch switches and step boundaries
   (Fig. 2 markers 2-4).

Data forwarding (Sec. III-C2): a load that races an in-flight store simply
adopts the reference the store job still holds — no SSD read happens.
Beyond the paper, the two FIFO pools are replaced by one priority-aware
:class:`~repro.io.scheduler.IOScheduler`: stores whose tensor was consumed
via forwarding while still queued are *cancelled* (no SSD write either),
and a pending prefetch is *promoted* to the blocking class the moment its
segment's backward arrives.
"""

from __future__ import annotations

import enum
import logging
import threading
import time
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.ids import TensorID, TensorIDRegistry
from repro.core.offloader import Offloader
from repro.core.policy import Decision, KeepReason, OffloadPolicy, StepAccounting
from repro.io.aio import IOJob, JobState
from repro.io.scheduler import IORequest, IOScheduler, Priority
from repro.tensor import flags
from repro.tensor.module import Module, RemovableHandle
from repro.tensor.saved_tensors import saved_tensors_hooks
from repro.tensor.storage import Device
from repro.tensor.tensor import Tensor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.autotune import ControllerDecision

logger = logging.getLogger(__name__)

#: Sentinel scope id for tensors saved outside any tracked sub-module
#: (e.g. the loss logits saved by CrossEntropy in the root forward).
_ROOT_SCOPE = -1


class RecordState(enum.Enum):
    OFFLOADING = "being_stored"    # store in flight (Fig. 4c)
    OFFLOADED = "on_ssd"
    LOADING = "being_loaded"       # prefetch in flight (Fig. 4d)
    LOADED = "loaded"
    KEPT = "kept_in_gpu_memory"
    CONSUMED = "consumed"


#: The transitions :meth:`ActivationRecord.trans_state` admits (Fig. 4).
#: OFFLOADING -> LOADED is data forwarding (or a failed store whose
#: tensor is still in hand); there is no way back out of CONSUMED.
_LEGAL_TRANSITIONS = {
    RecordState.OFFLOADING: {RecordState.OFFLOADED, RecordState.LOADED},
    RecordState.OFFLOADED: {RecordState.LOADING},
    RecordState.LOADING: {RecordState.LOADED},
    RecordState.LOADED: {RecordState.CONSUMED},
    RecordState.KEPT: {RecordState.CONSUMED},
    RecordState.CONSUMED: set(),
}


class ActivationRecord:
    """State of one managed activation (one row of the Fig. 4 tables).

    Where the backing copy lives is the offloader's fact, not the
    record's: ask ``offloader.tier_of(tid)`` / ``offloader.location(tid)``.
    """

    __slots__ = (
        "tid",
        "pack_index",
        "shape",
        "dtype",
        "nbytes",
        "state",
        "tensor",
        "scopes",
        "store_job",
        "load_job",
        "forwarded",
        "keep_reason",
        "loaded_event",
        "error",
        "lock",
    )

    def __init__(
        self, tid: TensorID, tensor: Tensor, state: RecordState, pack_index: int = 0
    ) -> None:
        self.tid = tid
        #: Position in the owning table's ``pack_order``.
        self.pack_index = pack_index
        self.shape = tuple(tensor.shape)
        self.dtype = tensor.dtype
        self.nbytes = tensor.nbytes
        #: Pack's decision: KEPT (resident, available) or OFFLOADING.
        self.state = state
        self.tensor: Optional[Tensor] = tensor
        self.scopes: List[int] = []
        self.store_job: Optional[IOJob] = None
        self.load_job: Optional[IOJob] = None
        self.forwarded = False
        self.keep_reason: Optional[KeepReason] = None
        self.loaded_event = threading.Event()
        self.error: Optional[BaseException] = None
        self.lock = threading.Lock()
        if state is RecordState.KEPT:
            self.loaded_event.set()

    def trans_state(self, new: RecordState) -> None:
        """The one writer of :attr:`state` after construction; callers
        hold :attr:`lock` once the record is shared.

        Refuses a transition outside the table loudly (the record is
        left untouched) and applies what each arrival implies: reaching
        OFFLOADED or CONSUMED drops the tensor reference (GPU memory goes
        back via refcount), reaching LOADED publishes availability.
        """
        if new not in _LEGAL_TRANSITIONS[self.state]:
            raise RuntimeError(
                f"illegal transition {self.state.name} -> {new.name} for {self.tid}"
            )
        self.state = new
        if new in (RecordState.OFFLOADED, RecordState.CONSUMED):
            self.tensor = None
        elif new is RecordState.LOADED:
            self.loaded_event.set()


@dataclass
class MicrobatchRecords:
    """Per-micro-batch bookkeeping ("SSDTrain keeps individual records for
    each micro-batch", Sec. III-A)."""

    records: Dict[TensorID, ActivationRecord] = field(default_factory=dict)
    pack_order: List[ActivationRecord] = field(default_factory=list)
    tids_by_scope: Dict[int, List[TensorID]] = field(default_factory=dict)
    backward_cursor: int = 0


@dataclass
class CacheStats:
    """Cumulative statistics exposed for benchmarks and tests."""

    stored_tensors: int = 0
    stored_bytes: int = 0
    loaded_tensors: int = 0
    loaded_bytes: int = 0
    forwarded_tensors: int = 0
    dedup_hits: int = 0
    kept_tensors: int = 0
    kept_bytes: int = 0
    passed_tensors: int = 0
    prefetch_issued: int = 0
    unpack_waits: int = 0
    #: Seconds backward spent blocked in unpack waiting for a load — the
    #: engine's observed I/O stall (the adaptive controller's trim signal).
    unpack_wait_s: float = 0.0
    #: Stores cancelled while still queued because forwarding consumed the
    #: tensor first (``stored_*`` count submissions; subtract these for
    #: the traffic that actually hit the backend).
    cancelled_stores: int = 0
    cancelled_store_bytes: int = 0
    #: Pending prefetch loads re-queued as blocking when their consumer
    #: arrived (scheduler deadline promotion).
    promoted_loads: int = 0
    #: Stores that failed terminally (retry budget exhausted) but whose
    #: tensor was still in hand — recovered by keeping it GPU-resident:
    #: the offload is lost, the training step is not.
    store_failures: int = 0
    #: Loads that failed terminally; the error surfaces to the blocking
    #: unpack as a RuntimeError instead of a hang.
    load_failures: int = 0

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The counters accumulated after ``earlier`` (a copy taken
        then) — the one way to take a per-step delta of these books."""
        return CacheStats(
            **{f.name: getattr(self, f.name) - getattr(earlier, f.name) for f in fields(self)}
        )


class TensorCache:
    """The activation offloading manager.

    Typical use (the "few lines added to the existing script", Sec. III-A)::

        cache = TensorCache(offloader=SSDOffloader(tmpdir))
        cache.register_weights(model)      # bookkeep weights to exclude
        cache.attach(model)                # register PyTorch-style hooks
        with cache:                        # install pack/unpack hooks
            loss = model(tokens, targets)
            cache.on_backward_begin()
            loss.backward()
        cache.on_step_end()

    (The :class:`~repro.train.trainer.Trainer` automates all of this,
    including the scheduler hints.)
    """

    def __init__(
        self,
        offloader: Offloader,
        policy: Optional[OffloadPolicy] = None,
        registry: Optional[TensorIDRegistry] = None,
        prefetch_window: int = 8,
        scheduler: Optional[IOScheduler] = None,
    ) -> None:
        self.offloader = offloader
        self.policy = policy if policy is not None else OffloadPolicy()
        self.registry = registry if registry is not None else TensorIDRegistry()
        # One priority-aware scheduler replaces the paper's two FIFO
        # pools; lanes are sized (or made FIFO) on the scheduler handed
        # in.  A tiered backend queues its demotion writes on the
        # scheduler it was built on and reads degraded mode off its lane
        # health: the cache must be on that one.
        built_on = offloader.scheduler
        if scheduler is not None and built_on is not None and scheduler is not built_on:
            raise ValueError(
                "the offloader was built on a different IOScheduler than the cache's: "
                "pass the cache offloader.scheduler"
            )
        self.scheduler = scheduler or built_on or IOScheduler()
        if prefetch_window < 0:
            raise ValueError(f"prefetch_window must be >= 0: {prefetch_window}")
        self.prefetch_window = prefetch_window
        self.stats = CacheStats()
        self.accounting = StepAccounting()

        self._lock = threading.Lock()
        # Guards the stored/kept counter pairs (stats + step accounting)
        # that are written from both the training thread (pack_hook) and
        # scheduler workers (store-failure recovery reverses them).  The
        # offload budget is decided off accounting.offloaded_bytes, so a
        # lost update is a policy error, not just a stats blemish.
        self._counter_lock = threading.Lock()
        self._microbatches: Dict[int, MicrobatchRecords] = {0: MicrobatchRecords()}
        self._current_mb = 0
        self._scope_stack: List[Module] = []
        self._handles: List[RemovableHandle] = []
        self._hooks_ctx: Optional[saved_tensors_hooks] = None
        self._device: Optional[Device] = None
        self._in_keep_scope = False
        self._keep_all_hint = False
        self._step_index = 0
        # Profiled on step 0: the id of the last top-level segment, whose
        # activations are kept because its backward begins immediately
        # (Fig. 2 marker 4).
        self._segment_order: List[int] = []
        self._last_segment_id: Optional[int] = None
        self._shutdown = False

    # ------------------------------------------------------------- plumbing
    @property
    def current(self) -> MicrobatchRecords:
        return self._microbatches[self._current_mb]

    def register_weights(self, module: Module) -> int:
        """Record all parameters (and transposes) in the exclusion set."""
        return self.registry.record_module_weights(module)

    def attach(self, module: Module) -> None:
        """Register forward/backward hook pairs on every sub-module."""
        for sub in module.modules():
            self._handles.append(sub.register_forward_pre_hook(self._forward_pre_hook))
            self._handles.append(sub.register_forward_hook(self._forward_hook))
            self._handles.append(
                sub.register_full_backward_pre_hook(self._backward_pre_hook)
            )
            self._handles.append(sub.register_full_backward_hook(self._backward_hook))

    def detach(self) -> None:
        """Remove all module hooks."""
        for handle in self._handles:
            handle.remove()
        self._handles.clear()

    def __enter__(self) -> "TensorCache":
        self._hooks_ctx = saved_tensors_hooks(self.pack_hook, self.unpack_hook)
        self._hooks_ctx.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._hooks_ctx is not None:
            self._hooks_ctx.__exit__(exc_type, exc, tb)
            self._hooks_ctx = None

    def shutdown(self) -> None:
        """Drain pools and release every record (idempotent)."""
        if self._shutdown:
            return
        self._shutdown = True
        self.scheduler.shutdown()
        with self._lock:
            tables = list(self._microbatches.values())
            self._microbatches = {0: MicrobatchRecords()}
        for table in tables:
            for rec in table.records.values():
                rec.tensor = None
        self.offloader.shutdown()
        self.detach()

    # ----------------------------------------------------- scheduler hints
    def set_microbatch(self, index: int) -> None:
        """Hint 2 in Fig. 2: switch the per-micro-batch record table."""
        with self._lock:
            if index not in self._microbatches:
                self._microbatches[index] = MicrobatchRecords()
            self._current_mb = index

    def hint_keep_remaining(self, keep: bool = True) -> None:
        """Scheduler hint: backward begins right after the current forward,
        so stop offloading (the Fig. 2 marker-4 case)."""
        self._keep_all_hint = keep

    def on_backward_begin(self) -> None:
        """Hint 3/5: backward for the current micro-batch starts; warm the
        prefetch pipeline from the tail of the pack order."""
        table = self.current
        table.backward_cursor = len(table.pack_order)
        self._prefetch_ahead(table)

    def on_backward_end(self) -> None:
        """Hint: backward for the current micro-batch finished.

        Releases any record whose scope never fires a backward-exit hook
        (root-scope saves) or whose release lagged — by now every saved
        tensor has been consumed.
        """
        table = self.current
        with self._lock:
            records = list(table.records.values())
        for rec in records:
            with rec.lock:
                if rec.state in (RecordState.LOADED, RecordState.KEPT):
                    rec.scopes.clear()
                    rec.trans_state(RecordState.CONSUMED)

    def on_step_end(self) -> None:
        """Step boundary: wait for in-flight stores, release records, and
        finalize first-step profiling.

        A record's backing copy is released iff its store job finished
        DONE (a cancelled or failed store left nothing behind).  That is
        read off the job, not off anything ``_on_store_done`` sets:
        ``IOScheduler._close_books`` runs inside ``IORequest._dispatch``
        before any done callback and drops the lane's ``pending`` last,
        so ``drain()`` can return — and this method run — before
        ``_on_store_done`` does.
        """
        self.scheduler.drain()
        with self._lock:
            tables = list(self._microbatches.items())
            self._microbatches = {self._current_mb: MicrobatchRecords()}
        leftover = 0
        for _, table in tables:
            for rec in table.records.values():
                if rec.state is not RecordState.CONSUMED:
                    leftover += 1
                rec.tensor = None
                job = rec.store_job
                if job is not None and job.state is JobState.DONE:
                    # Recycle this step's files (no filesystem I/O: a
                    # raise here is a books bug and surfaces).
                    self.offloader.release(rec.tid)
        if leftover:
            logger.debug("%d records not consumed by backward", leftover)
        if self._step_index == 0 and self._segment_order:
            self._last_segment_id = self._segment_order[-1]
        self._segment_order = []
        self._step_index += 1
        self._keep_all_hint = False
        self.accounting.reset()

    # ----------------------------------------------------------- autotuning
    def apply_autotune(self, decision: "ControllerDecision") -> None:
        """Install a controller decision's knobs live, between steps.

        ``offload_budget_bytes`` lands in the policy (only when the
        decision says it re-tuned — a ``None`` budget would otherwise
        remove the cap), ``prefetch_window`` replaces the cache's
        look-ahead depth, and ``cpu_free_watermark_bytes`` re-targets a
        tiered backend's free headroom (demoting LRU residents now, while
        the lanes are idle, instead of inside the next forward burst).
        """
        if decision.retuned:
            self.policy.install_budget(decision.offload_budget_bytes)
        if decision.prefetch_window is not None:
            self.prefetch_window = max(1, int(decision.prefetch_window))
        watermark = decision.cpu_free_watermark_bytes
        if watermark is not None:
            self.offloader.set_free_watermark(watermark)
            self.offloader.apply_watermark()

    # ----------------------------------------------------------- fwd hooks
    def _forward_pre_hook(self, module: Module, inputs: Tuple[Any, ...]) -> None:
        if flags.in_backward():
            return  # recomputation re-enters modules; scopes stay backward's
        self._scope_stack.append(module)
        if len(self._scope_stack) == 2:  # a top-level segment under the root
            self._segment_order.append(id(module))
            if (
                self.policy.config.keep_last_module
                and self._last_segment_id is not None
                and id(module) == self._last_segment_id
            ):
                self._in_keep_scope = True

    def _forward_hook(self, module: Module, inputs: Tuple[Any, ...], output: Any) -> None:
        if flags.in_backward():
            return
        if self._scope_stack and self._scope_stack[-1] is module:
            self._scope_stack.pop()
        if len(self._scope_stack) == 1 and self._in_keep_scope:
            self._in_keep_scope = False

    # ----------------------------------------------------------- bwd hooks
    def _backward_pre_hook(self, module: Module, grad_output: Any) -> None:
        """Backward enters a module: its own saved tensors are now on the
        critical path (deadline promotion of any pending prefetches),
        and the look-ahead window advances."""
        table = self.current
        with self._lock:
            tids = list(table.tids_by_scope.get(id(module), []))
        for tid in tids:
            rec = table.records.get(tid)
            if rec is None:
                continue
            self._ensure_available(rec, blocking=True)
        self._prefetch_ahead(table)

    def _backward_hook(self, module: Module, grad_input: Any) -> None:
        """Backward exits a module: shrink scope lists, release free records."""
        table = self.current
        with self._lock:
            tids = table.tids_by_scope.pop(id(module), [])
        for tid in tids:
            rec = table.records.get(tid)
            if rec is None:
                continue
            with rec.lock:
                if id(module) in rec.scopes:
                    rec.scopes.remove(id(module))
                if not rec.scopes and rec.state in (RecordState.LOADED, RecordState.KEPT):
                    rec.trans_state(RecordState.CONSUMED)

    # -------------------------------------------------------- pack / unpack
    def pack_hook(self, t: Any) -> Any:
        """Alg. 1 ``pack_hook``: decide and return graph-resident object."""
        if not isinstance(t, Tensor):
            return t
        decision_inputs = dict(
            is_weight=self.registry.is_weight(t),
            is_cpu=t.is_cpu,
            numel=t.numel,
            nbytes=t.nbytes,
            in_backward=flags.in_backward(),
            in_keep_scope=self._in_keep_scope or self._keep_all_hint,
            accounting=self.accounting,
        )
        decision = self.policy.decide(**decision_inputs)
        if decision is Decision.PASS_THROUGH:
            self.stats.passed_tensors += 1
            self.accounting.passed_bytes += t.nbytes
            return t

        if self._device is None:
            self._device = t.device
        tid = self.registry.get_id(t)
        table = self.current
        self.accounting.pack_calls += 1
        # The scope of this save is the innermost module — the one whose
        # backward consumes the tensor.  (The root module's backward-exit
        # hook cannot fire — its inputs are token ids without grads — so
        # root-scope saves are released by on_backward_end instead.)
        if len(self._scope_stack) > 1:
            scope_ids = [id(self._scope_stack[-1])]
        else:
            scope_ids = [_ROOT_SCOPE]

        with self._lock:
            rec = table.records.get(tid)
            if rec is not None:
                # Deduplication: same tensor saved again (another op or a
                # view) — extend scopes, never store twice (Sec. III-C1).
                self.stats.dedup_hits += 1
                self.accounting.dedup_hits += 1
                self._extend_scopes(table, rec, scope_ids)
                return tid
            rec = ActivationRecord(
                tid,
                t,
                RecordState.KEPT if decision is Decision.KEEP else RecordState.OFFLOADING,
                pack_index=len(table.pack_order),
            )
            table.records[tid] = rec
            table.pack_order.append(rec)
            self._extend_scopes(table, rec, scope_ids)

        if decision is Decision.KEEP:
            rec.keep_reason = self.policy.keep_reason(
                in_backward=decision_inputs["in_backward"],
                in_keep_scope=decision_inputs["in_keep_scope"],
                accounting=self.accounting,
            )
            with self._counter_lock:
                self.stats.kept_tensors += 1
                self.stats.kept_bytes += t.nbytes
                self.accounting.kept_bytes += t.nbytes
            return tid

        # Decision.OFFLOAD: async store; the job holds the only strong
        # reference after this function returns, and drops it on completion.
        with self._counter_lock:
            self.accounting.offloaded_bytes += t.nbytes
            self.stats.stored_tensors += 1
            self.stats.stored_bytes += t.nbytes

        def do_store(tensor: Tensor = t, record: ActivationRecord = rec) -> None:
            self.offloader.store(record.tid, tensor.data)

        job = self.scheduler.submit(
            IORequest(
                do_store,
                kind="store",
                priority=Priority.STORE,
                tensor_id=str(tid),
                nbytes=t.nbytes,
                lane=self.offloader.store_lane(tid, t.nbytes),
            )
        )
        rec.store_job = job
        job.add_done_callback(lambda j, record=rec: self._on_store_done(record, j))
        return tid

    def _extend_scopes(self, table: MicrobatchRecords, rec: ActivationRecord, scope_ids: List[int]) -> None:
        for sid in scope_ids:
            rec.scopes.append(sid)
            table.tids_by_scope.setdefault(sid, []).append(rec.tid)

    def _on_store_done(self, rec: ActivationRecord, job: IOJob) -> None:
        if job.state is JobState.CANCELLED:
            # The cancelling thread (forwarding in _ensure_available)
            # already published LOADED under rec.lock — which it may
            # still hold, so do not take it here.
            return
        with rec.lock:
            if job.error is not None:
                if rec.tensor is not None:
                    # Store-failure recovery: the write never landed (the
                    # request's bounded retries included), but the pack
                    # closure's reference is still alive — keep the
                    # tensor GPU-resident and let backward consume it
                    # directly.  The offload's memory saving is lost for
                    # this tensor; the step's numerics are not, and the
                    # failure still shows up in the stats/health surface.
                    # The pack-time offload accounting is reversed to
                    # kept: the bytes moved nothing, so they must not
                    # consume offload budget or feed the controller as
                    # store traffic that never happened.
                    with self._counter_lock:
                        self.stats.store_failures += 1
                        self.stats.stored_tensors -= 1
                        self.stats.stored_bytes -= rec.nbytes
                        self.stats.kept_tensors += 1
                        self.stats.kept_bytes += rec.nbytes
                        self.accounting.offloaded_bytes -= rec.nbytes
                        self.accounting.kept_bytes += rec.nbytes
                    logger.warning(
                        "store failed for %s (%s); keeping tensor resident",
                        rec.tid,
                        job.error,
                    )
                    if rec.state is RecordState.OFFLOADING:
                        rec.trans_state(RecordState.LOADED)
                    return
                rec.error = job.error
                rec.loaded_event.set()
                return
            if rec.state is not RecordState.OFFLOADING:
                # A consumer that found the job finished adopted the
                # reference (and may have consumed it) before this
                # callback ran; there is nothing left to publish.
                return
            # Forwarded: a consumer flagged the in-memory reference while
            # the store ran, so the record stays resident (Sec. III-C2).
            # Otherwise GPU memory is released via refcount.
            rec.trans_state(
                RecordState.LOADED if rec.forwarded else RecordState.OFFLOADED
            )

    def unpack_hook(self, obj: Any) -> Any:
        """Alg. 1 ``unpack_hook``: wait for availability, return the tensor."""
        if isinstance(obj, Tensor):
            return obj
        if not isinstance(obj, TensorID):
            return obj
        rec = self._find_record(obj)
        if rec is None:
            raise KeyError(f"tensor cache has no record for {obj}")
        self._advance_cursor(rec)
        # Unpack is the definition of backward-blocking: submit (or
        # deadline-promote) the load at the head of its lane.
        self._ensure_available(rec, blocking=True)
        if not rec.loaded_event.is_set():
            # Backward is stalled on I/O: count it and time it — the
            # adaptive controller reads the accumulated wait as the
            # step's stall signal and trims the budget accordingly.
            self.stats.unpack_waits += 1
            begin = time.monotonic()
            rec.loaded_event.wait()
            self.stats.unpack_wait_s += time.monotonic() - begin
        if rec.error is not None:
            raise RuntimeError(f"offload I/O failed for {obj}") from rec.error
        tensor = rec.tensor
        if tensor is None:
            raise RuntimeError(
                f"tensor {obj} was consumed before this unpack; "
                "scope tracking released it too early"
            )
        return tensor

    def _find_record(self, tid: TensorID) -> Optional[ActivationRecord]:
        with self._lock:
            rec = self._microbatches[self._current_mb].records.get(tid)
            if rec is not None:
                return rec
            for table in self._microbatches.values():
                if tid in table.records:
                    return table.records[tid]
        return None

    def _advance_cursor(self, rec: ActivationRecord) -> None:
        table = self.current
        if table.records.get(rec.tid) is not rec:
            return  # another micro-batch's record
        if rec.pack_index < table.backward_cursor:
            table.backward_cursor = rec.pack_index
        self._prefetch_ahead(table)

    # -------------------------------------------------------------- prefetch
    def _ensure_available(self, rec: ActivationRecord, blocking: bool = False) -> None:
        """Move a record toward LOADED (forwarding, load, or no-op).

        ``blocking`` marks the request as sitting on the backward
        critical path: a fresh load is submitted at BLOCKING_LOAD
        priority, and an already-pending prefetch is deadline-promoted.
        """
        with rec.lock:
            if rec.state in (RecordState.KEPT, RecordState.LOADED):
                return
            if rec.state is RecordState.LOADING:
                if blocking and self.scheduler.promote(rec.load_job):
                    self.stats.promoted_loads += 1
                return
            if rec.state is RecordState.OFFLOADING:
                # Data forwarding: adopt the reference the store job
                # holds.  The forwarding counters are booked only on the
                # paths where forwarding actually happens — the fallback
                # reload below is a cache miss, and counting it as a
                # forwarding hit would overstate both the stats surface
                # and the per-step accounting the adaptive controller
                # feeds on.
                job = rec.store_job
                if (
                    job is not None
                    and rec.tensor is not None
                    and self.scheduler.cancel(job)
                ):
                    # The store never left the queue: the consumer owns
                    # the only copy, the queue slot and the SSD write are
                    # reclaimed, and the record never leaves the GPU.
                    self._book_forwarding_locked(rec)
                    self.stats.cancelled_stores += 1
                    self.stats.cancelled_store_bytes += rec.nbytes
                    rec.trans_state(RecordState.LOADED)
                    return
                if job is not None and job.done_event.is_set():
                    # Store already finished; its done callback ran (or
                    # will run) with forwarded=False.
                    if rec.tensor is not None:
                        self._book_forwarding_locked(rec)
                        rec.trans_state(RecordState.LOADED)
                    else:
                        # The reference is gone: this is a reload, not a
                        # forwarding hit — no counters.
                        rec.trans_state(RecordState.OFFLOADED)
                        rec.forwarded = False
                        self._submit_load_locked(rec, blocking=blocking)
                    return
                # Store still queued-but-claimed or running: flag the
                # record so the store-done callback publishes LOADED with
                # the reference retained (the paper's original rule).
                self._book_forwarding_locked(rec)
                return
            if rec.state is RecordState.OFFLOADED:
                self._submit_load_locked(rec, blocking=blocking)
                return
            if rec.state is RecordState.CONSUMED:
                raise RuntimeError(f"record {rec.tid} already consumed")

    def _book_forwarding_locked(self, rec: ActivationRecord) -> None:
        """Record one forwarding hit; caller holds ``rec.lock`` and has
        established that forwarding genuinely happens (the lost-race
        reload path must never book one).  A record is a hit once:
        prefetch, backward pre-hook and unpack all revisit it while its
        store is still running."""
        if rec.forwarded:
            return
        rec.forwarded = True
        self.stats.forwarded_tensors += 1
        self.accounting.forwarding_hits += 1

    def _submit_load_locked(self, rec: ActivationRecord, blocking: bool = False) -> None:
        """Submit the tier read for ``rec``; caller holds ``rec.lock``."""
        rec.trans_state(RecordState.LOADING)
        self.stats.prefetch_issued += 1
        # The destination is allocated here, on the thread that frees it
        # in backward, so a lane worker's malloc arena never holds a
        # step's loaded activations; the load (and any retry) fills it.
        out = np.empty(rec.shape, rec.dtype)

        def do_load(record: ActivationRecord = rec) -> None:
            data = self.offloader.load(record.tid, record.shape, record.dtype, out=out)
            tensor = Tensor(data, device=self._device)
            with record.lock:
                record.tensor = tensor
                record.trans_state(RecordState.LOADED)
            self.stats.loaded_tensors += 1
            self.stats.loaded_bytes += record.nbytes

        def on_done(job: IOJob, record: ActivationRecord = rec) -> None:
            if job.error is not None:
                self.stats.load_failures += 1
                with record.lock:
                    record.error = job.error
                    record.loaded_event.set()

        job = self.scheduler.submit(
            IORequest(
                do_load,
                kind="load",
                priority=Priority.BLOCKING_LOAD if blocking else Priority.PREFETCH_LOAD,
                tensor_id=str(rec.tid),
                nbytes=rec.nbytes,
                lane=self.offloader.load_lane(rec.tid),
            )
        )
        rec.load_job = job
        job.add_done_callback(on_done)

    def _prefetch_ahead(self, table: MicrobatchRecords) -> None:
        """Ensure the next ``prefetch_window`` activations (walking the pack
        order in reverse from the backward cursor) are available or in
        flight.

        The window is positional: only the entries immediately ahead of the
        cursor are touched, bounding the prefetched resident set.  Issuing
        a bounded look-ahead on every backward module entry keeps "always
        I/O tasks in the queue" (Sec. III-C2) without reloading the whole
        step's activations up front.
        """
        cursor = table.backward_cursor
        low = max(0, cursor - self.prefetch_window)
        for index in range(cursor - 1, low - 1, -1):
            rec = table.pack_order[index]
            with rec.lock:
                state = rec.state
            if state in (RecordState.OFFLOADED, RecordState.OFFLOADING):
                self._ensure_available(rec)
