"""The reaper backend: completions settle off the lane worker (io_uring-style).

io_uring separates submission from completion: the submitter queues
requests and moves on, and a completion queue is reaped independently.
:class:`UringBackend` reproduces that split on top of the one lane loop
(:meth:`repro.io.aio.IOBackend.run_batch`): the lane worker is the
*submission* side — it runs each claimed body and pushes a
completion-queue entry — and a dedicated **reaper** thread is the
*completion* side: it settles each outcome (terminal job state, done
callbacks, lease release, health/tenant books) in submission order and
books the reap lag (``IOLaneStats.reaped`` / ``reap_lag_s``, the one
book of it) the adaptive controller folds into its latency estimate.

That is all a backend decides.  What reaches the kernel — one
``pwritev``/``preadv`` per transfer over the store's own descriptor
table, ``O_DIRECT`` staging, simulated-GDS routing — belongs to the
stores (:mod:`repro.io.fdtable`, :mod:`repro.io.filestore`) and is
identical under every ``io_backend``; ``"gds-sim"`` runs this backend
with a :class:`~repro.io.gds.GDSRegistry` handed to the SSD store.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from typing import Any, Deque, Optional, Tuple

from repro.io.aio import IOBackend, IOJob, _Batch
from repro.io.tenancy import tenant_scope

logger = logging.getLogger(__name__)

__all__ = ["UringBackend"]

#: One completion-queue entry: the arguments of ``IOBackend._settle``.
_CQE = Tuple[_Batch, IOJob, Any, Optional[BaseException]]


class UringBackend(IOBackend):
    """Lane workers submit; a reaper thread settles.

    Everything the scheduler observes (books, health, lease
    reconciliation) is identical to the thread backend by construction —
    both run :meth:`~repro.io.aio.IOBackend._settle` — only the settling
    thread, and therefore the measured reap lag, differ.
    """

    name = "uring"

    def __init__(self) -> None:
        super().__init__()
        self._cq: Deque[_CQE] = deque()
        self._cq_cond = threading.Condition()
        self._stop = False
        self._reaper: Optional[threading.Thread] = None

    def bind(self, scheduler) -> None:
        super().bind(scheduler)
        if self._reaper is None:
            self._reaper = threading.Thread(
                target=self._reap_loop, name=f"{self.name}-reaper", daemon=True
            )
            self._reaper.start()

    # ------------------------------------------------------------ submission
    def _hand_off(self, batch: _Batch, request: IOJob, result, error) -> None:
        # The I/O is done now — finished_at marks device completion, the
        # reaper's stamp on top of it is pure completion-path latency.
        request.finished_at = time.monotonic()
        with self._cq_cond:
            self._cq.append((batch, request, result, error))
            self._cq_cond.notify()

    # ------------------------------------------------------------ completion
    def _reap_loop(self) -> None:
        while True:
            with self._cq_cond:
                while not self._cq and not self._stop:
                    self._cq_cond.wait()
                if not self._cq:
                    return
                cqe = self._cq.popleft()
            batch, request = cqe[0], cqe[1]
            lag = max(0.0, time.monotonic() - request.finished_at)
            with self._stats_lock:
                stats = self._lanes[batch.lane]
                stats.reaped += 1
                stats.reap_lag_s += lag
            try:
                with tenant_scope(request.tenant):  # the lane worker's is gone
                    self._settle(*cqe)
            except Exception:  # pragma: no cover - reaper must survive
                logger.exception("reaper failed on %s", request.label)
                if not request.done_event.is_set():
                    self.scheduler.finish_request(request)

    def shutdown(self) -> None:
        """Stop the reaper once its queue is empty (idempotent)."""
        with self._cq_cond:
            self._stop = True
            self._cq_cond.notify_all()
        if self._reaper is not None:
            self._reaper.join(timeout=5)
            self._reaper = None

    close = shutdown

    def __enter__(self) -> "UringBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
