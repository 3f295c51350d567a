"""Deterministic virtual-time execution engine.

Every rank of the simulated MPI job runs as a real Python thread, but
the :class:`Simulator` lets exactly one thread execute at any moment and
always resumes the *runnable rank with the smallest virtual clock*
(rank id breaks ties).  Shared simulation state is therefore mutated by
one thread at a time, in virtual-time order, which makes the whole
simulation deterministic and race free without any locking above the
engine.

Rank code interacts with the engine through its :class:`RankContext`:

* ``ctx.charge(dt)`` — advance the local clock without giving up the
  processor (cheap, for bulk CPU accounting);
* ``ctx.advance(dt)`` — charge and then reschedule, so ranks that are
  now earlier in virtual time get to run;
* ``ctx.block(check, on=signal)`` — block until ``check()`` returns a
  non-``None`` value;
* ``ctx.trace(state)`` — record an MPE-style state interval.

**The notify rule.**  The dispatcher is event driven: a blocked proc's
predicate is evaluated once at the scheduling decision it blocks in,
and afterwards *only at the first decision after one of the*
:class:`Signal` *objects it blocked on was notified*.  So whoever
mutates state a predicate reads must ``notify()`` that predicate's
signal.  The value the predicate returns is captured at that decision —
not lazily when the proc next runs — which is what makes wake values
that depend on the waker's state (the earliest matching message, a lock
holder's release time) independent of how many other procs exist.  The
in-tree signals: one per (communicator, destination) notified when a
message is enqueued (``mpi/comm.py``), one per :class:`TaskHandle`
notified when the coroutine finishes (``join``, ``Request.wait``,
``waitany``), one per lock manager notified when pins are released or
reclaimed (``fs/locks.py``).

A scheduling decision costs O(log n): ready procs sit in a heap keyed
``(clock, rank)``; timed blocks sit in a second heap keyed
``(max(clock, timeout_at), rank)`` whose stale entries are skipped when
they surface.  A timeout fires only when its key is smaller than every
ready proc's, so any message that could still arrive in virtual time
beats it.

If nothing is runnable while procs are blocked, every blocked predicate
is re-evaluated once: one that now holds was missed by its notifier and
raises :class:`~repro.errors.MissedWakeup`; otherwise the engine raises
:class:`SimDeadlock` with a per-rank state dump, which turns
collective-call mismatches into actionable errors instead of hangs.

Implementation note: the processor hand-off is one raw lock per proc
used as a binary semaphore (held while the proc runs or is parked,
released exactly when it is dispatched) — a ``threading.Event`` costs a
condition variable, a fresh lock and several Python frames per
hand-off, and a shared condition variable would wake every parked rank
at every decision.
"""

from __future__ import annotations

import threading
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Iterator, MutableMapping, Optional, Sequence, Union

from repro.errors import (
    MissedWakeup,
    RankCrashed,
    RankFailed,
    SimDeadlock,
    SimHang,
    SimulationError,
)
from repro.sim.clock import VirtualClock
from repro.sim.trace import Tracer

__all__ = [
    "Simulator",
    "RankContext",
    "ScopedContext",
    "Signal",
    "TaskHandle",
    "Watchdog",
    "BLOCK_TIMEOUT",
]

# Rank thread states.
_READY = "ready"
_RUNNING = "running"
_BLOCKED = "blocked"
_DONE = "done"

_JOIN_TIMEOUT = 600.0  # wall-clock safety net for runaway simulations

#: First trace lane (Chrome tid) handed out for coroutine spans — far
#: above any realistic rank count so task lanes never collide with the
#: per-rank rows.
_LANE_BASE = 4096


class _BlockTimeout:
    """Singleton wake value for a timed block that expired."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "BLOCK_TIMEOUT"


#: Returned by :meth:`RankContext.block` when ``timeout_at`` expired
#: before the predicate held.  Compare with ``is``.
BLOCK_TIMEOUT = _BlockTimeout()

#: A blocked-on reason: text, or ``(format, *args)`` formatted on demand.
Reason = Union[str, tuple]


def _reason_text(reason: Reason) -> str:
    """A blocked-on reason as dumps and :class:`MissedWakeup` print it.

    A receive blocks hundreds of thousands of times per run and is
    almost never printed, so it passes its fields and pays for the
    formatting only here."""
    if isinstance(reason, tuple):
        return reason[0].format(*reason[1:])
    return reason


class _SimAborted(BaseException):
    """Raised inside rank threads to unwind them when the run is aborted.

    Derives from BaseException so user-level ``except Exception`` blocks
    cannot swallow it.
    """


class _Proc:
    """Internal per-rank (or per-coroutine) scheduling record."""

    __slots__ = (
        "rank",
        "lane",
        "clock",
        "state",
        "thread",
        "check",
        "wake_value",
        "blocked_on",
        "timeout_at",
        "signals",
        "notified",
        "inbox",
        "epoch",
        "last_progress",
        "result",
        "lock",
    )

    def __init__(self, rank: int, lane: int, inbox: list) -> None:
        self.rank = rank
        #: Trace lane (tid) this proc's spans record under: the rank
        #: itself for rank procs, an interned lane for coroutines.
        self.lane = lane
        self.clock = VirtualClock()
        self.state = _READY
        self.thread: Optional[threading.Thread] = None
        self.check: Optional[Callable[[], Any]] = None
        self.wake_value: Any = None
        self.blocked_on: Reason = ""
        #: Virtual time at which a timed block gives up (None = untimed).
        self.timeout_at: Optional[float] = None
        #: Signals this proc is registered on while blocked.
        self.signals: tuple = ()
        #: True while queued in ``inbox`` (one entry per decision however
        #: many of its signals fired).
        self.notified = False
        #: The owning simulator's list of procs to re-check at the next
        #: decision; :meth:`Signal.notify` appends here.
        self.inbox = inbox
        #: Bumped at every wake-up; a timed-heap entry carrying an older
        #: value belongs to a block that already ended.
        self.epoch = 0
        #: Virtual time of this rank's last scheduler interaction — the
        #: progress mark the watchdog compares against the frontier.
        self.last_progress: float = 0.0
        self.result: Any = None
        #: Binary semaphore: held while this proc runs or is parked,
        #: released exactly when it is dispatched to run.
        self.lock = threading.Lock()
        self.lock.acquire()


class Signal:
    """A wake-up channel between state and the predicates that read it.

    Whoever mutates state that a blocked proc's predicate reads calls
    :meth:`notify` on the signal the proc blocked ``on``; the engine
    re-evaluates the waiters' predicates at its next scheduling
    decision.  A signal is just a waiter list — it belongs to the state
    it guards (a mailbox, a task handle, a lock table), needs no
    simulator to construct, and notifying one nobody waits on is a
    no-op."""

    __slots__ = ("_waiters",)

    def __init__(self) -> None:
        self._waiters: list[_Proc] = []

    def notify(self) -> None:
        """Schedule every waiter's predicate for re-evaluation."""
        for proc in self._waiters:
            if not proc.notified:
                proc.notified = True
                proc.inbox.append(proc)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Signal({len(self._waiters)} waiting)"


class TaskHandle:
    """Completion handle for an engine coroutine (see
    :meth:`RankContext.spawn`).

    ``done`` flips exactly once, under the engine's single-thread
    invariant; ``value`` or ``error`` is set before it does, and
    ``signal`` is notified as it does — block ``on`` it to wait for the
    task.  ``t_start`` / ``t_end`` bracket the task in virtual time so a
    joiner can charge its clock forward to the task's completion."""

    __slots__ = ("label", "done", "value", "error", "t_start", "t_end", "signal")

    def __init__(self, label: str) -> None:
        self.label = label
        self.done = False
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self.t_start = 0.0
        self.t_end = 0.0
        self.signal = Signal()

    def _finish(self, t_end: float) -> None:
        self.t_end = t_end
        self.done = True
        self.signal.notify()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done else "running"
        return f"TaskHandle({self.label!r}, {state})"


class RankContext:
    """Handle through which rank code talks to the engine.

    One per rank; passed as the first argument to the rank main
    function.  Also carries ``rank``, ``nprocs``, and the simulator's
    ``shared`` dictionary for modelling shared hardware (file system,
    network)."""

    __slots__ = ("_sim", "_proc", "rank", "nprocs")

    def __init__(self, sim: "Simulator", proc: _Proc) -> None:
        self._sim = sim
        self._proc = proc
        self.rank = proc.rank
        self.nprocs = sim.nprocs

    # -- time ----------------------------------------------------------
    @property
    def now(self) -> float:
        """This rank's current virtual time (seconds)."""
        return self._proc.clock.now

    def _perturbed(self, dt: float) -> float:
        """Apply the straggler fault model, if one is installed.

        Relative CPU charges stretch by the rank's current slowdown
        factor; absolute charges (message arrivals, OST completions)
        are externally determined times and pass through untouched."""
        faults = self._sim.faults
        if faults is None or dt <= 0.0:
            return dt
        factor = faults.cpu_factor(self.rank, self._proc.clock.now)
        if factor != 1.0:
            faults.note_straggler(dt * (factor - 1.0))
            return dt * factor
        return dt

    def charge(self, dt: float) -> float:
        """Advance the local clock by ``dt`` without rescheduling; return
        the new local time.

        Use for bulk CPU accounting between synchronization points; the
        clock change becomes visible to the scheduler at the next
        reschedule (advance/block/finish).  With no fault plan installed
        (the straggler model is the only thing ``Simulator.faults`` is
        consulted for) the clock is written directly."""
        clock = self._proc.clock
        if self._sim.faults is None and dt >= 0.0:
            clock.now += dt
            return clock.now
        return clock.advance(self._perturbed(dt))

    def charge_to(self, t: float) -> None:
        """Advance the local clock to absolute time ``t`` (if future)."""
        clock = self._proc.clock
        if t > clock.now:
            clock.now = float(t)

    def advance(self, dt: float) -> None:
        """Charge ``dt`` and yield to whichever rank is now earliest."""
        self.charge(dt)
        self._sim._reschedule(self._proc)

    def advance_to(self, t: float) -> None:
        """Advance to absolute time ``t`` and yield."""
        self._proc.clock.advance_to(t)
        self._sim._reschedule(self._proc)

    def yield_now(self) -> None:
        """Give other ranks at earlier virtual times a chance to run."""
        self._sim._reschedule(self._proc)

    # -- blocking --------------------------------------------------------
    def block(
        self,
        check: Callable[[], Any],
        reason: Reason = "",
        timeout_at: Optional[float] = None,
        *,
        on: Union[Signal, Iterable[Signal]],
    ) -> Any:
        """Block until ``check()`` returns non-``None``; return that value.

        ``check`` runs under the engine's single-thread invariant, so it
        may freely read shared state.  It is evaluated once now, and
        afterwards only at the first scheduling decision after a signal
        in ``on`` (one :class:`Signal` or several) was notified — so
        every mutation of state ``check`` reads must notify one of them.

        ``reason`` names the wait in deadlock dumps and
        :class:`~repro.errors.MissedWakeup`: a string, or a
        ``(format, *args)`` tuple that is only formatted when printed.

        With ``timeout_at`` (absolute virtual time), the wait is
        *timed*: if the predicate still fails once no other rank can
        run before ``timeout_at``, the clock advances to the timeout
        and :data:`BLOCK_TIMEOUT` is returned instead.  A predicate
        that becomes true at exactly the timeout wins the tie."""
        return self._sim._block(self._proc, check, reason, timeout_at, on)

    # -- shared state and tracing ----------------------------------------
    @property
    def shared(self) -> dict:
        """Simulator-wide dictionary for shared hardware models."""
        return self._sim.shared

    @property
    def tracer(self) -> Tracer:
        return self._sim.tracer

    def trace(self, state: str, **info: Any):
        """Context manager recording an MPE-style state interval."""
        proc = self._proc
        return self._sim.tracer.interval(proc.lane, state, proc.clock, **info)

    # -- coroutines ------------------------------------------------------
    def spawn(
        self,
        fn: Callable[["RankContext"], Any],
        *,
        label: str = "",
        lane: Optional[int] = None,
    ) -> "TaskHandle":
        """Launch ``fn(task_ctx)`` as an engine coroutine.

        The task gets its own scheduling identity (its clock starts at
        this context's ``now``) but keeps this context's logical
        ``rank`` and ``shared`` dict, so metrics, faults, and liveness
        attribute to the spawning rank.  ``lane`` picks the trace lane
        (tid) its spans record under — see :meth:`Simulator.lane_for`.
        Join with :meth:`join`."""
        return self._sim.spawn(self, fn, label=label, lane=lane)

    def join(self, handle: "TaskHandle") -> Any:
        """Block until ``handle`` completes; charge this clock to the
        task's finish time; return its value or re-raise its error."""
        return self._sim.join(self, handle)


class ScopedContext(RankContext):
    """A rank context whose ``shared`` dict is an overlay.

    Multi-tenant admission (``repro.tenancy``) wraps each rank's real
    context in one of these so per-job state keyed in ``shared`` —
    communicator queues, fault injectors, liveness state, the metrics
    registry — resolves per tenant, while the overlay's fall-through
    reads still reach the cluster-wide hardware models (the shared
    file system).  Time, blocking, and tracing stay on the real
    engine ``_Proc``, so scoping changes *naming*, never scheduling."""

    __slots__ = ("_overlay",)

    def __init__(self, ctx: RankContext, overlay: MutableMapping) -> None:
        super().__init__(ctx._sim, ctx._proc)
        self._overlay = overlay

    @property
    def shared(self) -> MutableMapping:
        """The tenant-scoped overlay (reads fall through to the sim)."""
        return self._overlay


class _TaskContext(RankContext):
    """The context an engine coroutine runs under.

    Scheduling identity (``_proc``) is the task's own, so it competes
    in the dispatch order like any rank; *naming* is the parent's —
    ``rank``/``nprocs``/``shared`` all delegate to the spawning
    context, so metrics, fault evaluation, deadline lookups, and
    tenancy overlays resolve exactly as they would inline.  Trace
    spans record under the task proc's ``lane`` (a distinct tid),
    keeping the tracer's per-key stack discipline while the parent's
    own spans continue on the rank's lane."""

    __slots__ = ("_parent",)

    def __init__(self, sim: "Simulator", proc: _Proc, parent: RankContext) -> None:
        super().__init__(sim, proc)
        self._parent = parent
        self.rank = parent.rank
        self.nprocs = parent.nprocs

    @property
    def shared(self) -> MutableMapping:
        return self._parent.shared


class Watchdog:
    """Virtual-time progress monitor over a simulation's ranks.

    Every dispatch stamps the rank's ``last_progress`` mark; a rank
    whose mark trails the frontier (the most advanced rank clock) by
    more than ``heartbeat`` virtual seconds is *suspect* — it exists
    but is not keeping up.  Purely observational: consulted by the
    liveness layer and by the engine's hang diagnostics, never blocks
    or wakes anything itself."""

    __slots__ = ("_sim", "heartbeat")

    def __init__(self, sim: "Simulator", heartbeat: float = 0.05) -> None:
        self._sim = sim
        self.heartbeat = heartbeat

    def frontier(self) -> float:
        """The most advanced rank clock (0 before the run starts)."""
        procs = self._sim._procs
        return max((p.clock.now for p in procs), default=0.0)

    def suspects(self) -> list[int]:
        """Ranks alive but trailing the frontier by > heartbeat."""
        frontier = self.frontier()
        return [
            p.rank
            for p in self._sim._procs
            if p.state != _DONE and frontier - p.last_progress > self.heartbeat
        ]


class Simulator:
    """Runs ``nprocs`` rank functions under deterministic virtual time.

    Example::

        sim = Simulator(4)
        def main(ctx):
            ctx.advance(1e-3)
            return ctx.rank * 10
        results = sim.run(main)   # [0, 10, 20, 30]
    """

    def __init__(
        self,
        nprocs: int,
        tracer: Optional[Tracer] = None,
        join_timeout: float = _JOIN_TIMEOUT,
    ) -> None:
        if nprocs <= 0:
            raise ValueError(f"nprocs must be positive, got {nprocs}")
        if join_timeout <= 0:
            raise ValueError(f"join_timeout must be positive, got {join_timeout}")
        self.nprocs = nprocs
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        #: Wall-clock seconds to wait for rank threads before declaring
        #: a hang (see :class:`repro.errors.SimHang`).
        self.join_timeout = join_timeout
        #: Virtual-time progress monitor over the rank procs.
        self.watchdog = Watchdog(self)
        #: Shared hardware models (file system, network, ...) live here.
        self.shared: dict = {}
        #: Installed :class:`repro.faults.FaultInjector`, or ``None``.
        #: Set via ``FaultPlan.install(sim)``; consulted by
        #: :meth:`RankContext.charge`/:meth:`RankContext.advance` for
        #: the straggler model (other layers find it in ``shared``).
        self.faults = None
        #: Ranks that died fail-stop (:class:`repro.errors.RankCrashed`).
        #: A crashed rank's ``run`` result is ``None``; the remaining
        #: ranks keep running — death is a survivable event, not an
        #: abort.
        self.crashed: set[int] = set()
        #: Scheduling decisions taken (one per advance/yield/block/exit).
        self.decisions = 0
        #: Blocked-proc predicates evaluated (at block time, after a
        #: notify, and in the standstill re-check).
        self.predicate_evals = 0
        #: Decisions that passed the processor to a different thread.
        self.handoffs = 0
        #: Timed blocks that expired (woke with :data:`BLOCK_TIMEOUT`).
        self.timed_fires = 0
        #: Blocked procs made ready (predicate held, or timeout fired).
        self.wakeups = 0
        self._mu = threading.Lock()
        self._done_event = threading.Event()
        self._procs: list[_Proc] = []
        #: Live engine coroutines by task id (see :meth:`spawn`) —
        #: scheduled alongside the rank procs but excluded from
        #: ``times``/``makespan`` and the watchdog, which reason about
        #: *ranks*.
        self._tasks: dict[int, _Proc] = {}
        self._next_task_id = nprocs
        #: Procs (rank or task) that have not finished.
        self._live = 0
        #: Ready procs, a heap of ``(clock, rank, proc)``.
        self._ready: list = []
        #: Timed blocks, a heap of ``(max(clock, timeout_at), rank,
        #: epoch, proc)``; entries whose epoch is stale are skipped.
        self._timed: list = []
        #: Blocked procs one of whose signals fired since the last
        #: decision (``_Proc.inbox`` aliases this list).
        self._notified: list[_Proc] = []
        #: Interned trace lanes: stable key -> tid (see :meth:`lane_for`).
        self._lanes: dict = {}
        self._next_lane = _LANE_BASE
        self._fatal: Optional[BaseException] = None
        self._started = False

    # -- public ----------------------------------------------------------
    def run(
        self,
        main: Callable[..., Any],
        *args: Any,
        per_rank_args: Optional[Sequence[tuple]] = None,
    ) -> list:
        """Execute ``main(ctx, *args)`` on every rank; return all results.

        ``per_rank_args`` optionally supplies a distinct positional
        argument tuple per rank (appended after ``args``).  A
        :class:`Simulator` is single-shot: create a new one per run.
        """
        if self._started:
            raise SimulationError("Simulator.run() may only be called once")
        self._started = True
        if per_rank_args is not None and len(per_rank_args) != self.nprocs:
            raise ValueError(
                f"per_rank_args has {len(per_rank_args)} entries for {self.nprocs} ranks"
            )

        self._procs = [_Proc(r, r, self._notified) for r in range(self.nprocs)]
        self._live = self.nprocs
        self._ready = [(0.0, p.rank, p) for p in self._procs]  # sorted: a heap
        threads = []
        for proc in self._procs:
            extra = tuple(per_rank_args[proc.rank]) if per_rank_args is not None else ()
            t = threading.Thread(
                target=self._thread_main,
                args=(proc, main, args + extra),
                name=f"sim-rank-{proc.rank}",
                daemon=True,
            )
            proc.thread = t
            threads.append(t)

        for t in threads:
            t.start()
        with self._mu:
            self._dispatch(None)
        while not self._done_event.wait(timeout=self.join_timeout):
            if self._fatal is not None or self._live == 0:
                break  # pragma: no cover - safety net
            # Wall-clock hang: some rank thread is stuck outside the
            # engine's control.  Diagnose it instead of spinning.
            with self._mu:
                if self._fatal is None:
                    self._fatal = SimHang(
                        "simulation hung (wall-clock "
                        f"{self.join_timeout:g}s with no progress): "
                        + self._hang_dump()
                    )
                self._abort_all()
            break

        for t in threads:
            t.join(timeout=self.join_timeout)
            if t.is_alive():
                # A truly wedged (daemon) thread cannot be reclaimed;
                # stop joining and report the hang with diagnostics.
                if self._fatal is None:
                    self._fatal = SimHang(
                        f"thread {t.name} failed to terminate: "
                        + self._hang_dump()
                    )
                break

        if self._fatal is not None:
            raise self._fatal
        return [p.result for p in self._procs]

    @property
    def counters(self) -> dict[str, int]:
        """The dispatcher's work counts, by name (see the attributes)."""
        return {
            "decisions": self.decisions,
            "predicate_evals": self.predicate_evals,
            "handoffs": self.handoffs,
            "timed_fires": self.timed_fires,
            "wakeups": self.wakeups,
        }

    def _everyone(self) -> list[_Proc]:
        """Rank procs plus any live coroutine procs."""
        return self._procs + list(self._tasks.values()) if self._tasks else self._procs

    def _describe(self, p: _Proc) -> str:
        line = f"{'rank' if p.rank < self.nprocs else 'task'} {p.rank}: {p.state}"
        if p.state == _BLOCKED and p.blocked_on:
            line += f" on {_reason_text(p.blocked_on)}"
        return line + f" at t={p.clock.now:.6f}"

    def _hang_dump(self) -> str:
        """Per-rank diagnosis for a wall-clock hang: state, blocked-on
        reason, clock, watchdog suspicion, and last trace event."""
        suspects = set(self.watchdog.suspects())
        parts = []
        for p in self._everyone():
            if p.state == _DONE:
                continue
            line = self._describe(p)
            if p.rank in suspects:
                line += " [suspect]"
            last = self.tracer.last_event(p.lane)
            if last is not None:
                line += f"; last event {last.state!r} [{last.t0:.6f}..{last.t1:.6f}]"
            parts.append(line)
        return "; ".join(parts) if parts else "(all ranks done)"

    @property
    def times(self) -> list[float]:
        """Final virtual time of every rank (valid after :meth:`run`)."""
        return [p.clock.now for p in self._procs]

    @property
    def makespan(self) -> float:
        """Virtual time at which the last rank finished."""
        return max(self.times) if self._procs else 0.0

    # -- scheduling core ---------------------------------------------------
    # All methods below require self._mu to be held.

    def _wake(self, proc: _Proc, value: Any) -> None:
        """Move a blocked proc to the ready heap with its wake value."""
        proc.wake_value = value
        proc.check = None
        proc.timeout_at = None
        proc.epoch += 1
        for signal in proc.signals:
            signal._waiters.remove(proc)
        proc.signals = ()
        proc.state = _READY
        heappush(self._ready, (proc.clock.now, proc.rank, proc))
        self.wakeups += 1

    def _dispatch(self, cur: Optional[_Proc]) -> bool:
        """Take one scheduling decision; return whether ``cur`` (the
        proc deciding, already queued or retired) must park.

        Re-checks the procs whose signals fired since the last
        decision, lets the earliest timed block fire if it precedes
        every ready proc — it then competes at
        ``max(clock, timeout_at)``, so any message that could still
        arrive in virtual time beats the timeout — and hands the
        processor to the ready proc with the smallest (clock, rank)."""
        if self._fatal is not None:
            self._abort_all()
            return True
        self.decisions += 1
        notified = self._notified
        if notified:
            for p in notified:
                p.notified = False
                if p.state is _BLOCKED:
                    self.predicate_evals += 1
                    value = p.check()
                    if value is not None:
                        self._wake(p, value)
            del notified[:]  # as clear(), without a call per decision
        ready = self._ready
        timed = self._timed
        while timed:
            t, rank, epoch, p = timed[0]
            if p.epoch != epoch:
                heappop(timed)  # that block already ended
                continue
            if not ready or (t, rank) < ready[0][:2]:
                heappop(timed)
                p.clock.advance_to(p.timeout_at)
                self.timed_fires += 1
                self._wake(p, BLOCK_TIMEOUT)
            break
        if ready:
            nxt = heappop(ready)[2]
            nxt.state = _RUNNING
            nxt.last_progress = nxt.clock.now
            if nxt is cur:
                return False
            self.handoffs += 1
            nxt.lock.release()
        elif self._live == 0:
            self._done_event.set()
        else:
            self._fatal = self._standstill()
            self._abort_all()
        return True

    def _standstill(self) -> SimulationError:
        """Nothing is runnable but procs are blocked: name a blocker
        whose predicate holds unnotified, else report the deadlock."""
        blocked = [p for p in self._everyone() if p.state == _BLOCKED]
        for p in blocked:
            self.predicate_evals += 1
            if p.check() is not None:
                return MissedWakeup(p.rank, _reason_text(p.blocked_on))
        dump = "; ".join(self._describe(p) for p in self._everyone() if p.state != _DONE)
        return SimDeadlock(f"all live ranks are blocked: {dump}")

    def _retire(self, proc: _Proc) -> None:
        proc.state = _DONE
        self._live -= 1
        self._tasks.pop(proc.rank, None)

    def _abort_all(self) -> None:
        """Wake everything so threads can unwind; requires _mu held."""
        for p in self._everyone():
            # Signals outlive the run (a lock table, a shared file
            # system): leave no dead waiter behind.
            for signal in p.signals:
                signal._waiters.remove(p)
            p.signals = ()
            if p.lock.locked():
                p.lock.release()
        self._done_event.set()

    # -- handoff (called by rank threads) ------------------------------------
    def _park(self, proc: _Proc) -> None:
        """Wait (outside the mutex) until this rank is dispatched."""
        acquire = proc.lock.acquire
        while not acquire(True, self.join_timeout):
            if self._fatal is not None:  # pragma: no cover - safety net
                break
        if self._fatal is not None:
            raise _SimAborted()

    def _reschedule(self, proc: _Proc) -> None:
        """Voluntarily yield: let the earliest ready rank run next."""
        with self._mu:
            proc.state = _READY
            heappush(self._ready, (proc.clock.now, proc.rank, proc))
            park = self._dispatch(proc)
        if park:
            self._park(proc)

    def _block(
        self,
        proc: _Proc,
        check: Callable[[], Any],
        reason: Reason,
        timeout_at: Optional[float],
        on: Union[Signal, Iterable[Signal]],
    ) -> Any:
        # Exact type first: a receive's one signal costs no call.
        single = type(on) is Signal or isinstance(on, Signal)
        signals = (on,) if single else tuple(dict.fromkeys(on))
        with self._mu:
            proc.blocked_on = reason
            proc.state = _BLOCKED
            self.predicate_evals += 1
            value = check()
            if value is not None:
                self._wake(proc, value)
            else:
                proc.check = check
                proc.signals = signals
                for signal in signals:
                    signal._waiters.append(proc)
                if timeout_at is not None:
                    proc.timeout_at = timeout_at
                    key = max(proc.clock.now, timeout_at)
                    heappush(self._timed, (key, proc.rank, proc.epoch, proc))
            park = self._dispatch(proc)
        if park:
            self._park(proc)
        proc.blocked_on = ""
        value, proc.wake_value = proc.wake_value, None
        return value

    # -- coroutines ----------------------------------------------------------
    def lane_for(self, key: Any, label: str) -> int:
        """Intern a stable trace lane (Chrome tid) for ``key``.

        Lanes are how overlapping coroutine spans coexist with the
        rank's own spans: the tracer keeps one open-span stack per tid,
        so each concurrently-active task needs its own lane.  Callers
        reuse a lane only for one task at a time (e.g. per buffer-pool
        slot), which preserves the stack discipline across reuse."""
        lane = self._lanes.get(key)
        if lane is None:
            lane = self._next_lane
            self._next_lane += 1
            self._lanes[key] = lane
        self.tracer.thread_labels[lane] = label
        return lane

    def spawn(
        self,
        parent: RankContext,
        fn: Callable[[RankContext], Any],
        *,
        label: str = "",
        lane: Optional[int] = None,
    ) -> TaskHandle:
        """Launch ``fn(task_ctx)`` as an engine coroutine (see
        :meth:`RankContext.spawn`).  Must be called from a running
        rank/task thread — the engine's single-thread invariant makes
        the bookkeeping here race free."""
        task_id = self._next_task_id
        self._next_task_id += 1
        handle = TaskHandle(label or f"task-{task_id}")
        proc = _Proc(task_id, lane if lane is not None else task_id, self._notified)
        proc.clock.advance_to(parent.now)
        proc.last_progress = parent.now
        handle.t_start = parent.now
        ctx = _TaskContext(self, proc, parent)
        t = threading.Thread(
            target=self._task_main,
            args=(proc, handle, ctx, fn),
            name=f"sim-task-{task_id}",
            daemon=True,
        )
        proc.thread = t
        with self._mu:
            self._tasks[task_id] = proc
            self._live += 1
            heappush(self._ready, (proc.clock.now, task_id, proc))
        t.start()
        return handle

    def join(self, ctx: RankContext, handle: TaskHandle) -> Any:
        """Block ``ctx`` until ``handle`` completes; charge the joiner's
        clock to the task's end time; return its value or re-raise the
        captured error (the original exception object, so typed payloads
        and cause chains survive the join unchanged)."""
        if not handle.done:
            ctx.block(
                lambda: True if handle.done else None,
                reason=f"join:{handle.label}",
                on=handle.signal,
            )
        ctx.charge_to(handle.t_end)
        if handle.error is not None:
            raise handle.error
        return handle.value

    def _task_main(
        self, proc: _Proc, handle: TaskHandle, ctx: "_TaskContext", fn: Callable
    ) -> None:
        try:
            self._park(proc)
            handle.t_start = proc.clock.now
            handle.value = fn(ctx)
            handle._finish(proc.clock.now)
            with self._mu:
                self._retire(proc)
                self._dispatch(None)
        except _SimAborted:
            handle._finish(proc.clock.now)
            with self._mu:
                self._retire(proc)
                self._done_event.set()
        except (Exception, RankCrashed) as exc:  # noqa: BLE001 - delivered at join
            # Typed failures (RankCrashed, DeadlineExceeded, storage
            # errors, ...) are *captured*, not fatal: the joining rank
            # re-raises the same object and its own handling applies.
            # RankCrashed is a BaseException so no handler between the
            # crash site and here can swallow it — but a *task's* death
            # belongs to the rank that joins it, not to the engine.
            handle.error = exc
            handle._finish(proc.clock.now)
            with self._mu:
                self._retire(proc)
                self._dispatch(None)
        except BaseException as exc:  # noqa: BLE001 - report any task failure
            failure = RankFailed(ctx.rank, repr(exc))
            failure.__cause__ = exc
            handle.error = failure
            handle._finish(proc.clock.now)
            with self._mu:
                if self._fatal is None:
                    self._fatal = failure
                self._retire(proc)
                self._abort_all()

    # -- rank thread ---------------------------------------------------------
    def _thread_main(self, proc: _Proc, main: Callable[..., Any], args: tuple) -> None:
        ctx = RankContext(self, proc)
        try:
            self._park(proc)
            proc.result = main(ctx, *args)
            with self._mu:
                self._retire(proc)
                self._dispatch(None)
        except _SimAborted:
            with self._mu:
                self._retire(proc)
                self._done_event.set()
        except RankCrashed:
            # Fail-stop death: this rank is gone, the others live on.
            # Its result stays None; messages queued for it rot
            # harmlessly in the communicator state.
            with self._mu:
                self.crashed.add(proc.rank)
                self._retire(proc)
                self._dispatch(None)
        except BaseException as exc:  # noqa: BLE001 - report any rank failure
            failure = RankFailed(proc.rank, repr(exc))
            failure.__cause__ = exc
            with self._mu:
                if self._fatal is None:
                    self._fatal = failure
                self._retire(proc)
                self._abort_all()


def run_simulation(
    nprocs: int,
    main: Callable[..., Any],
    *args: Any,
    tracer: Optional[Tracer] = None,
    per_rank_args: Optional[Sequence[tuple]] = None,
) -> tuple[list, "Simulator"]:
    """Convenience wrapper: build a Simulator, run it, return (results, sim)."""
    sim = Simulator(nprocs, tracer=tracer)
    results = sim.run(main, *args, per_rank_args=per_rank_args)
    return results, sim


def iter_ranks(n: int) -> Iterator[int]:
    """Tiny helper used in docs/examples."""
    return iter(range(n))
