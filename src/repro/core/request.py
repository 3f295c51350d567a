"""Nonblocking collective-I/O requests (the split-collective surface).

:meth:`repro.core.file_handle.CollectiveFile.iwrite_all` /
``iread_all`` return a :class:`Request`: the collective runs as an
engine coroutine (:meth:`repro.sim.engine.RankContext.spawn`) sharing
the caller's communicator queues, while the calling rank keeps
computing.  ``wait()`` joins the coroutine — charging the rank's clock
to the operation's completion time — and re-raises the *original*
typed exception object on failure, so ``DeadlineExceeded`` /
``RankCrashed`` / storage errors observed at ``wait()`` are
indistinguishable from the blocking path's (the chaos classifier
whitelists them identically).

Distinct from :class:`repro.mpi.request.Request`, the point-to-point
message handle: that one completes at message delivery; this one
carries a whole collective's lifecycle — ``PENDING`` → ``COMPLETE`` /
``FAILED`` — plus deferred-error inspection (``test()`` never raises a
deferred error; ``exception()``/``result()``/``wait()`` surface it).

One deliberate asymmetry: a fail-stop :class:`~repro.errors.RankCrashed`
is a ``BaseException`` and is **never deferred** — ``test()``,
``waitany``, and drains all re-raise it immediately, because a dead
rank must stop running the instant its death is observed.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.errors import CollectiveIOError, RankCrashed, WaitTimeout
from repro.sim.engine import BLOCK_TIMEOUT, RankContext, TaskHandle

__all__ = ["Request", "waitall", "testall", "waitany"]

#: Request lifecycle states.
PENDING = "PENDING"
COMPLETE = "COMPLETE"
FAILED = "FAILED"


class Request:
    """Completion handle for one nonblocking collective operation.

    State machine: ``PENDING`` until the backing coroutine is joined
    (by ``wait()``, a successful ``test()``, or a drain), then exactly
    one of ``COMPLETE`` (``result()`` returns the value) or ``FAILED``
    (``wait()``/``result()`` re-raise the captured exception object;
    ``exception()`` returns it).  All transitions are idempotent: a
    second ``wait()`` returns/raises the same thing without touching
    the engine again."""

    __slots__ = ("_ctx", "_handle", "_state", "_value", "_error", "op")

    def __init__(
        self,
        ctx: Optional[RankContext],
        handle: Optional[TaskHandle],
        *,
        op: str = "",
    ) -> None:
        self._ctx = ctx
        self._handle = handle
        self._state = PENDING if handle is not None else COMPLETE
        self._value: Any = None
        self._error: Optional[BaseException] = None
        #: Operation label (``iwrite_all`` / ``iread_all`` / ...).
        self.op = op

    @classmethod
    def completed(cls, value: Any = None, *, op: str = "") -> "Request":
        """A request born complete — the blocking operations return
        these so both surfaces hand back the same type."""
        req = cls(None, None, op=op)
        req._value = value
        return req

    # -- state ----------------------------------------------------------
    @property
    def state(self) -> str:
        """``PENDING`` / ``COMPLETE`` / ``FAILED`` (settled view: a
        finished-but-unjoined coroutine still reads ``PENDING``)."""
        return self._state

    @property
    def done(self) -> bool:
        """True once settled (complete or failed)."""
        return self._state != PENDING

    def _settle(self) -> None:
        """Join the (finished or running) coroutine and record the
        outcome without raising deferred errors.  ``RankCrashed``
        propagates — fail-stop death cannot be parked in a handle the
        program might never look at."""
        if self._state != PENDING:
            return
        try:
            self._value = self._ctx.join(self._handle)
        except RankCrashed:
            # Record it (a later wait() on this request re-raises the
            # same object) but also let it unwind this rank right now.
            self._error = self._handle.error
            self._state = FAILED
            raise
        except Exception as exc:  # noqa: BLE001 - reported via wait()/result()
            self._error = exc
            self._state = FAILED
        else:
            self._state = COMPLETE

    # -- completion ------------------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> Any:
        """Block (in virtual time) until the operation completes.

        Returns the operation's value; re-raises the operation's
        original exception object on failure (idempotently — every
        ``wait()`` on a failed request raises that same object).  With
        ``timeout`` (virtual seconds), raises
        :class:`~repro.errors.WaitTimeout` if the operation is still in
        flight when the budget expires — the request stays pending and
        can be waited again."""
        if self._state == PENDING:
            if timeout is not None and not self._handle.done:
                got = self._ctx.block(
                    lambda: True if self._handle.done else None,
                    f"wait:{self.op or 'request'}",
                    timeout_at=self._ctx.now + timeout,
                    on=self._handle.signal,
                )
                if got is BLOCK_TIMEOUT:
                    raise WaitTimeout(self.op, self._ctx.rank, timeout)
            self._settle()
        if self._state == FAILED:
            raise self._error
        return self._value

    def test(self) -> bool:
        """Nonblocking completion probe (yields the scheduler once).

        True once the operation has finished — including finished *in
        error*: a deferred failure flips the request to ``FAILED`` and
        is surfaced by ``wait()``/``result()``/``exception()``, not
        raised here (``RankCrashed`` excepted, see module docs)."""
        if self._state != PENDING:
            return True
        self._ctx.yield_now()
        if not self._handle.done:
            return False
        self._settle()
        return True

    def result(self) -> Any:
        """``wait()`` under its asyncio-flavoured name."""
        return self.wait()

    def exception(self) -> Optional[BaseException]:
        """The captured exception after failure, ``None`` after
        success.  Raises :class:`~repro.errors.CollectiveIOError` while
        still pending — probe with ``test()`` or ``wait()`` first."""
        if self._state == PENDING:
            raise CollectiveIOError(
                f"request {self.op or ''!r} is still pending; "
                "call wait() or test() before exception()"
            )
        return self._error

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Request({self.op or 'op'!r}, {self._state})"


def waitall(requests: Sequence[Request]) -> List[Any]:
    """Wait for *every* request; return their values in order.

    All requests are joined before any deferred error is re-raised (no
    coroutine may outlive the wait), then the first failure in sequence
    order is re-raised.  ``RankCrashed`` aborts immediately."""
    first: Optional[BaseException] = None
    values: List[Any] = []
    for req in requests:
        try:
            values.append(req.wait())
        except RankCrashed:
            raise
        except Exception as exc:  # noqa: BLE001 - deferred below
            values.append(None)
            if first is None:
                first = exc
    if first is not None:
        raise first
    return values


def testall(requests: Sequence[Request]) -> bool:
    """True when every request has finished (probes all of them — no
    short-circuit, so each gets its completion settled)."""
    done = [req.test() for req in requests]
    return all(done)


def waitany(requests: Sequence[Request]) -> int:
    """Block until at least one request finishes; return its index.

    Already-settled requests win immediately.  The returned request
    may have ``FAILED`` — inspect it; nothing is raised here except an
    immediate ``RankCrashed``."""
    if not requests:
        raise CollectiveIOError("waitany requires at least one request")
    for i, req in enumerate(requests):
        if req.done:
            return i
    for i, req in enumerate(requests):
        if req.test():
            return i
    pending = [(i, req) for i, req in enumerate(requests) if not req.done]
    ctx = pending[0][1]._ctx
    ctx.block(
        lambda: True if any(r._handle.done for _, r in pending) else None,
        "waitany",
        on=[r._handle.signal for _, r in pending],
    )
    for i, req in pending:
        if req._handle.done:
            req._settle()
            return i
    raise CollectiveIOError("waitany woke with no completed request")  # pragma: no cover
