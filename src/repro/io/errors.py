"""Typed I/O failure taxonomy and the retry classification rule.

The offload pipeline originally assumed the storage backends never fail.
A production path cannot: NVMe devices throw transient ``EIO``\\ s under
thermal pressure, a RAID member can brick mid-run, and DRAM-less drives
silently corrupt bits at rest.  Every recovery decision in the stack —
the scheduler's bounded retry (:class:`~repro.io.aio.IOJob`), the tiered
offloader's CPU failover (:meth:`~repro.core.tiered.TieredOffloader`),
the cache's keep-resident fallback — keys off this module's taxonomy:

- :class:`TransientIOError` — a hiccup; retrying the same operation is
  expected to succeed (injected by the chaos harness, raised by real
  backends for timeouts/``EIO``-class errors);
- :class:`PermanentIOError` — the device or lane is gone; retrying is
  pointless, recovery means routing *around* it (tier failover);
- :class:`IntegrityError` — the bytes came back, but the checksum frame
  does not match.  Retryable: a transient bus/DMA flip heals on re-read,
  while genuine at-rest bit-rot exhausts the budget and surfaces.

:func:`is_retryable` is the single classification point; generic
``OSError``\\ s from a real filesystem default to retryable (the
conservative choice for device-level errno soup) except the
structural ones where a retry provably cannot help
(:class:`FileNotFoundError`, :class:`PermissionError`,
:class:`IsADirectoryError`, :class:`NotADirectoryError`).
"""

from __future__ import annotations

import errno
import time
from typing import Callable, Optional, TypeVar

T = TypeVar("T")

#: Default bounded-retry budget for one I/O request (attempts beyond the
#: first), and the base of its exponential backoff.  Deliberately small:
#: a retry holds a lane worker, so the budget bounds worst-case lane
#: occupancy to ``sum(backoff * 2**i) + (budget + 1) * op_time``.
DEFAULT_MAX_RETRIES = 2
DEFAULT_RETRY_BACKOFF_S = 0.002


class TransientIOError(OSError):
    """A retryable device hiccup (timeout, spurious EIO, bus reset)."""


class PermanentIOError(OSError):
    """The device/lane is dead; retries cannot help, failover can."""


class IntegrityError(OSError):
    """Checksum-frame mismatch on load: torn write, bit-rot, or a
    transient read-path flip.  Retryable once — persistent corruption
    exhausts the budget and surfaces to the waiter."""


#: OSError subclasses where the failure is structural, not device noise:
#: retrying the identical call cannot change the outcome.
_NON_RETRYABLE_OSERRORS = (
    FileNotFoundError,
    PermissionError,
    IsADirectoryError,
    NotADirectoryError,
)


def is_enospc(exc: Optional[BaseException]) -> bool:
    """Whether the failure is the filesystem running out of space.

    ENOSPC gets its own lane through the taxonomy: it is not retryable
    (the bytes will not appear on their own), but it is *not* a device
    verdict either — a full root says nothing about the drive's health,
    and the right response is write-leveling around the root, then the
    CPU tier, not lane death.
    """
    return isinstance(exc, OSError) and exc.errno == errno.ENOSPC


def is_retryable(exc: BaseException) -> bool:
    """Whether one more attempt at the same operation can plausibly help."""
    if isinstance(exc, PermanentIOError):
        return False
    if isinstance(exc, (TransientIOError, IntegrityError, TimeoutError)):
        return True
    if isinstance(exc, _NON_RETRYABLE_OSERRORS) or is_enospc(exc):
        return False
    return isinstance(exc, OSError)


def is_device_error(exc: Optional[BaseException]) -> bool:
    """Whether the failure says something about the *device* (and should
    feed lane health) rather than about the caller.

    Structural OSErrors (missing file, permissions) and non-OS
    exceptions (a MemoryError from a full pool, a plain bug) are caller
    problems: three of them in a row must not declare a healthy lane
    dead and trigger failover.
    """
    if not isinstance(exc, OSError):
        return False
    if is_enospc(exc):
        # Resource exhaustion, not device death: handled by the store's
        # root re-routing and the tier's CPU degrade, must not brick lane
        # health.
        return False
    return not isinstance(exc, _NON_RETRYABLE_OSERRORS)


def retry_call(
    fn: Callable[[], T],
    max_retries: int = DEFAULT_MAX_RETRIES,
    backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    on_retry: Optional[Callable[[BaseException, int], None]] = None,
) -> T:
    """Run ``fn`` with the stack's bounded retry-with-backoff rule.

    Retries only :func:`is_retryable` failures, sleeping
    ``backoff_s * 2**attempt`` between attempts.  ``on_retry(exc, n)``
    fires before each re-attempt (telemetry hook).  Used by callers that
    need retry semantics *outside* an :class:`~repro.io.aio.IOJob` —
    e.g. the tiered offloader's demotion writer, whose job body is
    stateful and therefore opts out of job-level re-execution.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except BaseException as exc:
            if attempt >= max_retries or not is_retryable(exc):
                raise
            if on_retry is not None:
                on_retry(exc, attempt + 1)
            if backoff_s > 0:
                time.sleep(backoff_s * (2**attempt))
            attempt += 1
