"""Retry/backoff policy for transient I/O faults.

The independent-I/O layer wraps every strided/contiguous operation in a
:class:`RetryPolicy`: a :class:`~repro.errors.TransientIOError` raised
anywhere below (server call, cache flush, sieve pre-read) aborts the
attempt, the rank sleeps an exponentially growing *virtual* backoff,
and the whole operation is reissued.  Reissue is safe because every
strided method is idempotent — writes put the same bytes at the same
offsets, reads have no side effects — and the injected fault fires
before the server mutates the store.

When the budget is exhausted (or retries are disabled with
``io_retries=0``) the last fault is rethrown as
:class:`~repro.errors.RetryExhausted`, carrying the injection site so
chaos-test failures point at the faulting layer, not the facade.

Backoff is charged with ``ctx.advance`` — it is simulated time, visible
to the scheduler, so other ranks (and the fault window itself) make
progress while this rank waits; riding out a timed outage window is
exactly the behaviour the ``io-outage`` scenario verifies.

Storm control (``docs/storage_faults.md``): the **retry budget**
(:class:`RetryBudget`, the ``io_retry_budget`` hint) is a mutable
cross-operation allowance shared by all of one client's policies.  When
it runs dry the client stops retrying *anything* and fails fast with a
typed :class:`~repro.errors.RetryBudgetExhausted` — bounded load on a
sick storage system instead of an open-ended storm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, TypeVar

from repro.config import DEFAULT_FAULT_CONFIG
from repro.errors import RetryBudgetExhausted, RetryExhausted, TransientIOError
from repro.faults.plan import FAULTS_KEY

__all__ = ["RetryPolicy", "RetryBudget"]

T = TypeVar("T")


class RetryBudget:
    """A client's cross-operation retry allowance (0 limit = unlimited).

    Mutable on purpose: one budget instance is shared by every policy
    of a client, so retries anywhere draw down the same pool."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = 0) -> None:
        if limit < 0:
            raise ValueError(f"retry budget must be >= 0, got {limit}")
        self.limit = int(limit)
        self.used = 0

    @property
    def remaining(self) -> Optional[int]:
        """Retries left, or ``None`` when unlimited."""
        if self.limit == 0:
            return None
        return max(0, self.limit - self.used)

    def spend(self) -> bool:
        """Consume one retry; False when the budget is already dry."""
        if self.limit and self.used >= self.limit:
            return False
        self.used += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RetryBudget(used={self.used}, limit={self.limit})"


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to reissue a faulted I/O operation, and how long
    to back off (in virtual seconds) between attempts."""

    retries: int = DEFAULT_FAULT_CONFIG.io_retries
    backoff: float = DEFAULT_FAULT_CONFIG.retry_backoff
    backoff_factor: float = DEFAULT_FAULT_CONFIG.retry_backoff_factor
    #: Ceiling on one backoff sleep: exponential growth is the right
    #: shape for the first few attempts, but with a deep retry budget
    #: the uncapped tail (factor^n) dominates total recovery time for
    #: no extra politeness — real clients cap it.
    backoff_max: float = DEFAULT_FAULT_CONFIG.retry_backoff_max
    #: Shared cross-operation budget (``None`` = per-operation retries
    #: only).  The dataclass stays frozen; the budget object mutates.
    budget: Optional[RetryBudget] = None

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
                if self.budget is not None and not self.budget.spend():
                    if injector is not None:
                        injector.note_retry_exhausted()
                    raise RetryBudgetExhausted(
                        exc.site, attempt, self.budget.limit
                    ) from exc
                delay = min(
                    self.backoff * self.backoff_factor ** (attempt - 1),
                    self.backoff_max,
                )
                if injector is not None:
                    injector.note_retry(delay)
                ctx.advance(delay)
