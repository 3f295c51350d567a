"""Retry/backoff policy for transient I/O faults.

The independent-I/O layer wraps every strided/contiguous operation in a
:class:`RetryPolicy`: a :class:`~repro.errors.TransientIOError` raised
anywhere below (server call, cache flush, sieve pre-read) aborts the
attempt, the rank sleeps an exponentially growing *virtual* backoff,
and the whole operation is reissued.  Reissue is safe because every
strided method is idempotent — writes put the same bytes at the same
offsets, reads have no side effects — and the injected fault fires
before the server mutates the store.

When the retries run out (or are disabled with ``io_retries=0``)
the last fault is rethrown as
:class:`~repro.errors.RetryExhausted`, carrying the injection site so
chaos-test failures point at the faulting layer, not the facade.

Backoff is charged with ``ctx.advance`` — it is simulated time, visible
to the scheduler, so other ranks (and the fault window itself) make
progress while this rank waits; riding out a timed outage window is
exactly the behaviour the ``io-outage`` scenario verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from repro.errors import RetryExhausted, TransientIOError
from repro.faults.plan import FAULTS_KEY

__all__ = ["RetryPolicy", "IO_RETRIES", "RETRY_BACKOFF", "BACKOFF_FACTOR", "BACKOFF_MAX"]

T = TypeVar("T")

#: Retries per operation after a transient fault (the ``io_retries``
#: hint's default; 0 = fail at once with RetryExhausted).
IO_RETRIES = 4
#: Virtual seconds slept before the first retry.
RETRY_BACKOFF = 1e-3
#: Multiplier applied to the backoff after each failed attempt.
BACKOFF_FACTOR = 2.0
#: Ceiling on one backoff sleep: exponential growth is the right shape
#: for the first few attempts, but with a deep retry count the
#: uncapped tail (factor^n) dominates total recovery time for no extra
#: politeness — real clients cap it.
BACKOFF_MAX = 0.25


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to reissue a faulted I/O operation, and how long
    to back off (in virtual seconds) between attempts."""

    retries: int = IO_RETRIES
    backoff: float = RETRY_BACKOFF

    def run(self, ctx: Any, op: Callable[[], T]) -> T:
        """Execute ``op`` under this policy; returns its result.

        ``ctx`` is the rank's :class:`~repro.sim.engine.RankContext`
        (for the backoff clock and injector stats discovery)."""
        injector = ctx.shared.get(FAULTS_KEY)
        attempt = 0
        while True:
            try:
                return op()
            except TransientIOError as exc:
                attempt += 1
                if attempt > self.retries:
                    if injector is not None:
                        injector.note_retry_exhausted()
                    raise RetryExhausted(exc.site, attempt) from exc
                delay = min(self.backoff * BACKOFF_FACTOR ** (attempt - 1), BACKOFF_MAX)
                if injector is not None:
                    injector.note_retry(delay)
                ctx.advance(delay)
