"""Seeded, deterministic fault injection for the offload I/O path.

The chaos harness that proves the recovery semantics: a
:class:`FaultInjector` wraps any tensor store
(:class:`~repro.io.filestore.TensorFileStore` or
:class:`~repro.io.chunkstore.ChunkedTensorStore` — anything with the
``write``/``read``/``delete``/``clear``/``path_for`` surface) and
injects the failure modes a production NVMe path actually exhibits,
according to a :class:`FaultPlan`:

- **transient errors** — :class:`~repro.io.errors.TransientIOError`
  raised before the backing operation; heals on retry (each op the plan
  selects faults its first ``transient_repeats`` attempts, then the
  retry goes through — so a plan with ``transient_repeats`` <= the
  request retry budget is *survivable by construction* and the run's
  results must be bit-exact vs a fault-free run);
- **permanent lane death** — after ``dead_after_ops`` operations (or a
  programmatic :meth:`FaultInjector.kill`) every operation raises
  :class:`~repro.io.errors.PermanentIOError` forever: the bricked
  device.  Recovery is routing around it (tier failover), not retrying;
- **latency spikes** — a seeded fraction of operations sleep an extra
  ``latency_spike_s`` before proceeding: the slow-device mode that must
  surface as stall/telemetry, never as an error;
- **short/torn writes** — the write "succeeds" but the on-disk file is
  truncated to a prefix, so the checksum frame catches it on the next
  read (:class:`~repro.io.errors.IntegrityError`);
- **bit-rot** — the write lands fully, then one byte of the backing
  file is flipped at rest; again surfaced by the checksum frame at read
  time.

Determinism: every draw comes from one ``random.Random(seed)`` consumed
under the injector's lock in operation order.  With single-worker lanes
the op order — and hence the exact fault sequence — is reproducible;
with concurrent workers the *set* of outcomes the suite asserts
(bit-exact results, failover completion, liveness) is order-independent
by design, which is what makes the chaos suite deterministic where it
counts.

The injector deliberately sits *below* the retry layer and *below* the
checksum verification consumers (it corrupts real bytes on the real
filesystem), so the tests exercise the production detection path, not a
mock of it.
"""

from __future__ import annotations

import errno
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.io.errors import PermanentIOError, TransientIOError

#: Operation kinds the plan can target.
FAULT_OPS = ("write", "read")


@dataclass(frozen=True)
class FaultPlan:
    """One seeded schedule of faults for a wrapped store.

    All rates are per-operation probabilities in ``[0, 1]``; a rate of 0
    disables that mode.  ``dead_after_ops=None`` disables permanent
    death; ``0`` means dead on arrival (every op fails — the from-birth
    bricked device the failover acceptance test uses).
    """

    seed: int = 0
    #: Probability a write / read raises a transient error (first
    #: ``transient_repeats`` attempts of that op, then it heals).
    transient_write_rate: float = 0.0
    transient_read_rate: float = 0.0
    transient_repeats: int = 1
    #: Probability an op sleeps ``latency_spike_s`` extra.
    latency_rate: float = 0.0
    latency_spike_s: float = 0.01
    #: Probability a completed write is truncated / bit-flipped at rest.
    torn_write_rate: float = 0.0
    bit_rot_rate: float = 0.0
    #: Op count after which the device is permanently dead (None = never).
    dead_after_ops: Optional[int] = None
    #: Hung I/O: 1-based op indices that sleep ``hang_s`` (deterministic),
    #: plus a probabilistic ``hang_rate`` drawn per op.  A hang is the
    #: wedged-``pwrite`` mode the scheduler watchdog's deadlines exist
    #: for: the op *does* eventually complete, long after any sane
    #: deadline.
    hang_ops: Optional[Tuple[int, ...]] = None
    hang_rate: float = 0.0
    hang_s: float = 0.25
    #: Brownout: after ``brownout_after_ops`` operations every op sleeps
    #: an extra ``brownout_latency_s`` — the sustained latency ramp that
    #: must trip the *slow* lane verdict (distinct from *dead*) until
    #: :meth:`FaultInjector.heal`.
    brownout_after_ops: Optional[int] = None
    brownout_latency_s: float = 0.02
    #: Cumulative write-byte budget after which writes raise ``ENOSPC``
    #: (resource exhaustion, not device death) until ``heal()``.
    enospc_after_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        for name in (
            "transient_write_rate",
            "transient_read_rate",
            "latency_rate",
            "torn_write_rate",
            "bit_rot_rate",
            "hang_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {rate}")
        if self.transient_repeats < 1:
            raise ValueError(f"transient_repeats must be >= 1: {self.transient_repeats}")
        if self.latency_spike_s < 0:
            raise ValueError(f"latency_spike_s must be >= 0: {self.latency_spike_s}")
        if self.dead_after_ops is not None and self.dead_after_ops < 0:
            raise ValueError(f"dead_after_ops must be >= 0: {self.dead_after_ops}")
        if self.hang_s < 0:
            raise ValueError(f"hang_s must be >= 0: {self.hang_s}")
        if self.hang_ops is not None and any(op < 1 for op in self.hang_ops):
            raise ValueError(f"hang_ops indices are 1-based: {self.hang_ops}")
        if self.brownout_after_ops is not None and self.brownout_after_ops < 0:
            raise ValueError(
                f"brownout_after_ops must be >= 0: {self.brownout_after_ops}"
            )
        if self.brownout_latency_s < 0:
            raise ValueError(
                f"brownout_latency_s must be >= 0: {self.brownout_latency_s}"
            )
        if self.enospc_after_bytes is not None and self.enospc_after_bytes < 0:
            raise ValueError(
                f"enospc_after_bytes must be >= 0: {self.enospc_after_bytes}"
            )

    # ------------------------------------------------------------ constructors
    @classmethod
    def transient(cls, rate: float, seed: int = 0, repeats: int = 1) -> "FaultPlan":
        """Retryable hiccups on both channels at ``rate``."""
        return cls(
            seed=seed,
            transient_write_rate=rate,
            transient_read_rate=rate,
            transient_repeats=repeats,
        )

    @classmethod
    def dead(cls, after_ops: int = 0, seed: int = 0) -> "FaultPlan":
        """Permanent device death after ``after_ops`` operations."""
        return cls(seed=seed, dead_after_ops=after_ops)

    @classmethod
    def flaky_latency(cls, rate: float, spike_s: float, seed: int = 0) -> "FaultPlan":
        return cls(seed=seed, latency_rate=rate, latency_spike_s=spike_s)

    @classmethod
    def enospc(cls, after_bytes: int, seed: int = 0) -> "FaultPlan":
        """Writes fail with ``ENOSPC`` once ``after_bytes`` have landed."""
        return cls(seed=seed, enospc_after_bytes=after_bytes)


@dataclass
class FaultStats:
    """What the injector actually did (the chaos suite's assertions)."""

    ops: int = 0
    injected_transient: int = 0
    injected_latency: int = 0
    injected_torn_writes: int = 0
    injected_bit_rot: int = 0
    permanent_failures: int = 0
    injected_brownouts: int = 0
    injected_enospc: int = 0
    #: Corruptions skipped because the backing file did not exist yet
    #: (e.g. a chunk store's open, unflushed chunk).
    skipped_corruptions: int = 0


class FaultInjector:
    """Store wrapper injecting a :class:`FaultPlan`'s failures.

    Mirrors the wrapped store's ``write``/``read`` and forwards every
    other attribute (stats, ``flush``, ``path_for``, ...) untouched, so
    it drops into any ``file_store`` slot —
    ``offloader.file_store = FaultInjector(offloader.file_store, plan)``
    — without the offloader noticing.
    """

    def __init__(self, store, plan: Optional[FaultPlan] = None) -> None:
        self._store = store
        self.plan = plan if plan is not None else FaultPlan()
        self.fault_stats = FaultStats()
        self._rng = random.Random(self.plan.seed)
        self._lock = threading.Lock()
        self._dead = False
        #: True once heal() ran: death/brownout/ENOSPC modes stop firing
        #: (the replaced-cable / freed-space / cooled-down device).
        self._healed = False
        #: Cumulative bytes accepted by write() (the ENOSPC budget's meter).
        self._bytes_written = 0
        #: Remaining forced-transient attempts per (op, tensor_id): once
        #: the RNG selects an op to fault, its first ``transient_repeats``
        #: attempts raise and the retry after that goes through.
        self._pending_transients: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------- fault core
    def kill(self) -> None:
        """Programmatic permanent death (the mid-run bricked device)."""
        with self._lock:
            self._dead = True
            self._healed = False

    def heal(self) -> None:
        """The device comes back: clears death and stops the sustained
        modes (``dead_after_ops``, brownout, ENOSPC) from firing again.

        The half of the die→heal→resurrect cycle the circuit breaker's
        canary probes exist to detect — healing the injector does *not*
        resurrect the tier by itself; the breaker has to notice.
        Probabilistic per-op faults (transients, latency, hangs) keep
        following the plan.
        """
        with self._lock:
            self._dead = False
            self._healed = True
            self._bytes_written = 0

    @property
    def dead(self) -> bool:
        with self._lock:
            return self._dead

    def _roll(self, op: str, tensor_id: str) -> float:
        """One op's bookkeeping + RNG draw; returns a sleep to perform
        (outside the lock).  Raises the injected error directly."""
        plan = self.plan
        spike = 0.0
        with self._lock:
            self.fault_stats.ops += 1
            if (
                plan.dead_after_ops is not None
                and not self._healed
                and self.fault_stats.ops > plan.dead_after_ops
            ):
                self._dead = True
            if self._dead:
                self.fault_stats.permanent_failures += 1
                raise PermanentIOError(
                    f"injected permanent device death ({op} {tensor_id!r})"
                )
            key = (op, tensor_id)
            remaining = self._pending_transients.get(key)
            if remaining is not None:
                # This call is a retry of an op the plan already faulted:
                # fault it again while forced repeats remain, then heal.
                # (Transience is a property of the *op*, so the retry
                # must not re-roll the dice — a fresh draw per attempt
                # could fault past any bounded retry budget.)
                if remaining > 0:
                    self._pending_transients[key] = remaining - 1
                    self.fault_stats.injected_transient += 1
                    raise TransientIOError(
                        f"injected transient fault ({op} {tensor_id!r}, retry will heal)"
                    )
                del self._pending_transients[key]
            else:
                rate = (
                    plan.transient_write_rate
                    if op == "write"
                    else plan.transient_read_rate
                )
                if rate > 0 and self._rng.random() < rate:
                    self._pending_transients[key] = plan.transient_repeats - 1
                    self.fault_stats.injected_transient += 1
                    raise TransientIOError(
                        f"injected transient fault ({op} {tensor_id!r}, retry will heal)"
                    )
            if plan.latency_rate > 0 and self._rng.random() < plan.latency_rate:
                self.fault_stats.injected_latency += 1
                spike = plan.latency_spike_s
            if plan.hang_s > 0 and (
                (plan.hang_ops is not None and self.fault_stats.ops in plan.hang_ops)
                or (plan.hang_rate > 0 and self._rng.random() < plan.hang_rate)
            ):
                spike = max(spike, plan.hang_s)
            if (
                plan.brownout_after_ops is not None
                and not self._healed
                and self.fault_stats.ops > plan.brownout_after_ops
            ):
                self.fault_stats.injected_brownouts += 1
                spike += plan.brownout_latency_s
        return spike

    def _corrupt_at_rest(self, tensor_id: str) -> None:
        """Post-write corruption: truncate (torn write) or flip a byte
        (bit-rot) in the backing file, per the plan's rates."""
        plan = self.plan
        with self._lock:
            torn = plan.torn_write_rate > 0 and self._rng.random() < plan.torn_write_rate
            rot = (
                not torn
                and plan.bit_rot_rate > 0
                and self._rng.random() < plan.bit_rot_rate
            )
            offset_draw = self._rng.random()
        if not torn and not rot:
            return
        path = self._store.path_for(tensor_id)
        if not path.exists():
            # Open-chunk writes have no backing file yet; nothing to rot.
            with self._lock:
                self.fault_stats.skipped_corruptions += 1
            return
        raw = path.read_bytes()
        if not raw:
            with self._lock:
                self.fault_stats.skipped_corruptions += 1
            return
        if torn:
            path.write_bytes(raw[: len(raw) // 2])
            with self._lock:
                self.fault_stats.injected_torn_writes += 1
        else:
            index = int(offset_draw * len(raw)) % len(raw)
            flipped = bytes([raw[index] ^ 0xFF])
            path.write_bytes(raw[:index] + flipped + raw[index + 1 :])
            with self._lock:
                self.fault_stats.injected_bit_rot += 1

    def _charge_enospc(self, nbytes: int) -> None:
        """Meter the write-byte budget; raise ``ENOSPC`` once exhausted.

        A plain ``OSError`` with ``errno.ENOSPC`` — not a
        :class:`~repro.io.errors.PermanentIOError` — because a full
        filesystem is resource exhaustion, not device death: the
        taxonomy (:func:`~repro.io.errors.is_enospc`) routes it to
        compaction/degrade handling instead of lane-health verdicts.
        """
        plan = self.plan
        if plan.enospc_after_bytes is None:
            return
        with self._lock:
            if self._healed:
                return
            if self._bytes_written + nbytes > plan.enospc_after_bytes:
                self.fault_stats.injected_enospc += 1
                raise OSError(
                    errno.ENOSPC,
                    f"injected ENOSPC ({self._bytes_written} + {nbytes} bytes "
                    f"over the {plan.enospc_after_bytes}-byte budget)",
                )
            self._bytes_written += nbytes

    # -------------------------------------------------------------- store API
    def write(self, tensor_id: str, data):
        spike = self._roll("write", tensor_id)
        if spike > 0:
            time.sleep(spike)
        self._charge_enospc(int(getattr(data, "nbytes", len(data))))
        self._store.write(tensor_id, data)
        self._corrupt_at_rest(tensor_id)

    def read(self, tensor_id: str, shape, dtype):
        spike = self._roll("read", tensor_id)
        if spike > 0:
            time.sleep(spike)
        return self._store.read(tensor_id, shape, dtype)

    def __getattr__(self, name: str):
        # delete/clear/flush/path_for/stats all pass straight through.
        return getattr(self._store, name)


def inject_faults(offloader, plan: FaultPlan) -> FaultInjector:
    """Wrap ``offloader.file_store`` (in place) with a fault injector.

    Works on anything exposing a ``file_store`` — :class:`SSDOffloader`
    directly, or a :class:`~repro.core.tiered.TieredOffloader`, where it
    wraps the SSD tier (the CPU pool is host DRAM; the failure model
    targets the device path).  Returns the injector for stats/``kill``.
    """
    target = getattr(offloader, "ssd", offloader)
    store = getattr(target, "file_store", None)
    if store is None:
        raise TypeError(f"{type(offloader).__name__} exposes no file_store to wrap")
    injector = FaultInjector(store, plan)
    target.file_store = injector
    return injector
