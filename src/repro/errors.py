"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


def error_chain(exc):
    """Walk an exception's cause/context chain (cycle-safe): how a
    caller finds the typed error inside a :class:`RankFailed`."""
    seen = set()
    while exc is not None and id(exc) not in seen:
        seen.add(id(exc))
        yield exc
        exc = exc.__cause__ or exc.__context__


class SimulationError(ReproError):
    """Base class for discrete-event engine failures."""


class SimDeadlock(SimulationError):
    """All live ranks are blocked and no event can wake any of them.

    Carries a human-readable dump of each rank's state to make collective
    mismatches (e.g. one rank missing a barrier) easy to diagnose.
    """


class MissedWakeup(SimulationError):
    """A blocked proc's predicate came true without its signal firing.

    The dispatcher re-evaluates a predicate only after one of the
    signals it blocked ``on`` was notified.  When nothing is runnable
    it re-checks every blocked predicate once: one that now holds means
    somebody mutated the state it reads and forgot ``notify()`` — a bug
    in the blocker's wiring, reported here by rank and blocked-on
    reason instead of as a misleading :class:`SimDeadlock`.
    """

    def __init__(self, rank: int, reason: str = "") -> None:
        super().__init__(
            f"proc {rank} blocked on {reason or '(unnamed)'!s}: its predicate holds "
            "but none of its signals was notified"
        )
        self.rank = rank
        self.reason = reason


class SimHang(SimulationError):
    """The engine gave up waiting for rank threads to terminate.

    Unlike :class:`SimDeadlock` (a *virtual-time* standstill the
    scheduler can prove), a hang is a *wall-clock* failure: some rank
    thread is stuck outside the engine's control (an infinite Python
    loop, a real `time.sleep`, a wedged syscall).  Carries a dump of
    each unfinished rank's state and its last trace event so the abort
    names the culprit instead of spinning silently.
    """


class RankFailed(SimulationError):
    """A rank's main function raised; the original traceback is chained."""

    def __init__(self, rank: int, message: str = "") -> None:
        super().__init__(f"rank {rank} failed{': ' + message if message else ''}")
        self.rank = rank


class RankCrashed(BaseException):
    """A rank process died fail-stop (the ``rank_crash`` fault).

    Derives from :class:`BaseException` — like the engine's internal
    abort signal — so no ``except Exception`` handler or retry policy
    between the crash site and the engine can swallow a death.  The
    engine catches it in the rank thread, marks the rank done, and
    keeps the remaining ranks running (unlike any other rank failure,
    which aborts the whole simulation).  ``site`` names where in the
    collective the process died (``"boundary"``, ``"exchange"``,
    ``"flush"``)."""

    def __init__(self, rank: int, site: str = "boundary") -> None:
        super().__init__(f"rank {rank} crashed (fail-stop at {site})")
        self.rank = rank
        self.site = site


class MPIError(ReproError):
    """Invalid use of the simulated MPI interface."""


class DatatypeError(ReproError):
    """Invalid datatype construction or use (negative lengths, overlap
    where forbidden, count mismatch, uncommitted use, ...)."""


class FileSystemError(ReproError):
    """Simulated file system failure (unknown file, bad mode, ...)."""


class TransientIOError(FileSystemError):
    """An injected, retryable I/O failure (the fault model's bread and
    butter: a server call that would have succeeded if reissued).

    ``site`` names the injection point (e.g. ``"server_write"``) and
    ``client`` the failing client id, so retry exhaustion can report
    exactly where the fault fired."""

    def __init__(self, site: str, client: int, path: str = "") -> None:
        super().__init__(
            f"transient I/O error at {site} (client {client}"
            + (f", file {path!r}" if path else "")
            + ")"
        )
        self.site = site
        self.client = client
        self.path = path


class TransientNetworkError(TransientIOError):
    """A detected in-flight frame corruption that a retransmission can
    fix.  Subclasses :class:`TransientIOError` so the existing
    :class:`~repro.io.retry.RetryPolicy` drives the bounded re-request
    without new machinery."""

    def __init__(self, site: str, rank: int) -> None:
        super().__init__(site, rank)


class OSTUnavailable(TransientIOError):
    """A server call needed an OST that is down (or fenced).

    Raised before any byte reaches the store, so a reissue is safe —
    the OST may recover inside the retry window, replication may
    restore a quorum, or the circuit breaker may shed the call faster
    next time.  ``reason`` is ``"down"`` (health says the OST is
    crashed/flapped out), ``"breaker-open"`` (the per-OST circuit
    breaker fast-failed the call without touching the sick OST), or
    ``"quorum"`` (a replicated write found fewer live replicas than
    its write-quorum)."""

    def __init__(
        self, site: str, client, path: str = "", *, ost: int = -1,
        reason: str = "down",
    ) -> None:
        super().__init__(site, client, path)
        self.ost = ost
        self.reason = reason
        self.args = (
            f"OST {ost} unavailable ({reason}) at {site} (client {client}"
            + (f", file {path!r}" if path else "")
            + ")",
        )


class OSTOverloaded(TransientIOError):
    """Typed backpressure: an OST's bounded queue refused the request.

    The admission check fires before any booking or store mutation, so
    the call is safe to reissue after backing off — which is the whole
    point: clients slow down instead of piling more service time onto
    a queue that is already ``queue_limit`` seconds deep."""

    def __init__(
        self, site: str, client, path: str = "", *, ost: int = -1,
        backlog: float = 0.0, limit: float = 0.0,
    ) -> None:
        super().__init__(site, client, path)
        self.ost = ost
        self.backlog = backlog
        self.limit = limit
        self.args = (
            f"OST {ost} overloaded at {site}: backlog {backlog:g}s exceeds "
            f"queue limit {limit:g}s (client {client}"
            + (f", file {path!r}" if path else "")
            + ")",
        )


class IntegrityError(FileSystemError):
    """Stored data failed its checksum: silent corruption detected.

    Unlike :class:`TransientIOError`, re-reading cannot help — the
    authoritative copy itself is damaged — so retry policies do NOT
    catch this.  ``page_index`` is the corrupt page in its store and
    ``site`` names the verification point (``"page-read"``,
    ``"journal-commit"``, ``"fsck"``, ...)."""

    def __init__(self, site: str, page_index: int, path: str = "") -> None:
        super().__init__(
            f"checksum mismatch on page {page_index} at {site}"
            + (f" (file {path!r})" if path else "")
        )
        self.site = site
        self.page_index = page_index
        self.path = path


class LockDeadlock(TransientIOError):
    """The extent-lock manager found a waits-for cycle and broke it.

    Raised at the waiter chosen as victim; the cycle is released and
    the acquisition is safe to reissue, so this subclasses
    :class:`TransientIOError` and rides the existing
    :class:`~repro.io.retry.RetryPolicy` backoff loop.  ``cycle`` is
    the tuple of client ids forming the loop, victim first."""

    def __init__(self, client: int, cycle: tuple, path: str = "") -> None:
        super().__init__("lock-deadlock", client, path)
        self.cycle = tuple(cycle)
        self.args = (
            f"lock deadlock broken at client {client}: waits-for cycle "
            + " -> ".join(str(c) for c in self.cycle)
            + (f" (file {path!r})" if path else ""),
        )


class RetryExhausted(FileSystemError):
    """A retry policy gave up on a transient fault.

    Chains the final :class:`TransientIOError` and carries its
    injection ``site`` plus the number of ``attempts`` made."""

    def __init__(self, site: str, attempts: int) -> None:
        super().__init__(
            f"I/O retries exhausted after {attempts} attempt(s); "
            f"last fault injected at {site}"
        )
        self.site = site
        self.attempts = attempts


class RetryBudgetExhausted(RetryExhausted):
    """A client's cross-operation retry *budget* ran dry.

    Unlike plain :class:`RetryExhausted` (one operation used up its
    per-operation attempts), this is the storm-control limit: the
    client as a whole has spent ``limit`` retries across all its
    operations and is cut off — further faults fail fast instead of
    adding retry load to an already-sick storage system."""

    def __init__(self, site: str, attempts: int, limit: int) -> None:
        super().__init__(site, attempts)
        self.limit = limit
        self.args = (
            f"client retry budget ({limit}) exhausted; last fault "
            f"injected at {site} (attempt {attempts})",
        )


class CollectiveIOError(ReproError):
    """Invalid use of the collective I/O layer (no view set, mismatched
    collective calls, unknown hint values, ...)."""


class WaitTimeout(CollectiveIOError):
    """A :meth:`repro.core.request.Request.wait` with a ``timeout``
    expired before the nonblocking collective completed.

    The operation itself keeps running — the request stays pending and
    a later ``wait()``/``test()`` can still complete it.  ``seconds``
    is the budget that ran out, ``op`` the operation's label."""

    def __init__(self, op: str, rank: int, seconds: float) -> None:
        super().__init__(
            f"wait on {op or 'request'} (rank {rank}) timed out "
            f"after {seconds:g}s; the operation is still in flight"
        )
        self.op = op
        self.rank = rank
        self.seconds = seconds


class AggregatorLost(CollectiveIOError):
    """An aggregator died during a collective call and could not be
    survived (failover disabled, or no aggregator left alive)."""

    def __init__(self, rank: int, reason: str = "") -> None:
        super().__init__(
            f"aggregator rank {rank} lost{': ' + reason if reason else ''}"
        )
        self.rank = rank


class CollectiveAborted(CollectiveIOError):
    """A collective call lost its quorum of live participants.

    Raised on every *survivor* when, after the epoch-agreement round
    converges on the dead set, fewer than ``crash_quorum`` participants
    remain alive — completing the call would no longer represent the
    communicator.  ``epoch`` is the phase boundary at which agreement
    ran, ``alive``/``dead`` the converged membership."""

    def __init__(
        self, epoch: int, alive: int, quorum: int, dead: tuple = ()
    ) -> None:
        super().__init__(
            f"collective aborted at epoch {epoch}: {alive} live rank(s) "
            f"below quorum {quorum}"
            + (f" (dead: {sorted(dead)})" if dead else "")
        )
        self.epoch = epoch
        self.alive = alive
        self.quorum = quorum
        self.dead = tuple(sorted(dead))


class HintError(CollectiveIOError):
    """An MPI-Info style hint has an unrecognized key or malformed value."""


class HintConflict(HintError):
    """The hints (with the armed fault kinds) ask for a combination no
    implementation can honour; raised at open, before any rank thread
    starts when the run goes through ``Session`` / ``Cluster``.
    ``rule`` is the id of the rejecting row of
    :data:`repro.core.compat.RULES` (docs/compatibility.md)."""

    def __init__(self, rule: str, why: str) -> None:
        super().__init__(f"hint conflict [{rule}]: {why}")
        self.rule = rule


class DeadlineExceeded(CollectiveIOError):
    """A collective call blew its ``coll_deadline`` budget.

    Raised on the rank whose blocking receive would have carried it
    past the deadline — the typed alternative to hanging on a stalled
    peer.  ``site`` names the blocking operation, ``phase`` the
    collective phase label active when the budget ran out."""

    def __init__(
        self, site: str, rank: int, phase: str = "", deadline: float = 0.0
    ) -> None:
        super().__init__(
            f"collective deadline exceeded at {site} (rank {rank}"
            + (f", phase {phase!r}" if phase else "")
            + (f", budget {deadline:g}s" if deadline else "")
            + ")"
        )
        self.site = site
        self.rank = rank
        self.phase = phase
        self.deadline = deadline
