"""Liveness layer: per-collective deadlines, suspicion, lock leases.

PR 1 made the stack survive crashes and PR 2 corruption; this module
closes the last failure class — *hangs*.  It owns the shared mutable
state that turns the ``coll_deadline`` / ``liveness`` hints into
behaviour:

* **Deadline propagation** — :meth:`LivenessState.begin_call` arms a
  per-rank virtual-time budget when a collective call starts;
  :class:`~repro.mpi.comm.Communicator` consults
  :meth:`LivenessState.deadline_for` in every blocking receive and
  raises a typed :class:`~repro.errors.DeadlineExceeded` (site, rank,
  phase) instead of blocking past it.
* **Suspicion** — ranks stalled by a ``rank_stall`` fault are declared
  *suspect*; with the ``liveness`` hint on, the collective layer
  excludes a suspect mid-call (aggregator realms merge into survivors,
  a suspect client's already-exchanged access is served without it).
  Suspicion here, like crash detection, is a pure function of the
  fault plan that every rank evaluates identically — no
  failure-detector messages.
* **Lock leases** — with liveness installed, a pinned (wedged-callback)
  extent lock is reclaimed after :data:`LOCK_LEASE` virtual seconds.

Everything is found dynamically via ``shared[LIVENESS_KEY]`` (the same
pattern as :mod:`repro.integrity`), so the fast path with liveness off
costs one dict lookup that already fails today — byte-identical
behaviour and cost.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

__all__ = [
    "LIVENESS_KEY",
    "LOCK_LEASE",
    "LivenessState",
    "install_liveness",
    "find_liveness",
    "CRASH_KEY",
    "CrashState",
    "install_crash_state",
    "find_crash_state",
]

#: Key under which the active :class:`LivenessState` lives in
#: ``Simulator.shared`` (installed at collective-file open).
LIVENESS_KEY = "liveness-state"

#: Lease on a pinned extent lock: a lock wedged by a stalled holder is
#: reclaimed after this many virtual seconds.
LOCK_LEASE = 0.02


class LivenessState:
    """Shared, engine-ordered liveness bookkeeping for one simulation.

    Mutated only by the single running rank thread (the engine's
    invariant), so plain dicts suffice.  One instance per simulation,
    shared by every rank."""

    __slots__ = ("deadline", "_deadlines", "_phases", "suspects")

    def __init__(self, deadline: float = 0.0) -> None:
        #: Per-collective-call virtual-time budget (the ``coll_deadline``
        #: hint; 0 = no deadline).
        self.deadline = deadline
        self._deadlines: Dict[int, float] = {}
        self._phases: Dict[int, str] = {}
        #: Ranks ever declared suspect this simulation (for reporting).
        self.suspects: Set[int] = set()

    # -- deadlines -------------------------------------------------------
    def begin_call(self, rank: int, now: float) -> None:
        """Arm this rank's budget for one collective call."""
        if self.deadline > 0.0:
            self._deadlines[rank] = now + self.deadline
        self._phases[rank] = ""

    def end_call(self, rank: int) -> None:
        """Disarm after the collective call returned (or raised)."""
        self._deadlines.pop(rank, None)
        self._phases.pop(rank, None)

    def deadline_for(self, rank: int) -> Optional[float]:
        """Absolute virtual-time deadline, or None when unarmed."""
        return self._deadlines.get(rank)

    # -- phase labels (for DeadlineExceeded diagnostics) -----------------
    def set_phase(self, rank: int, phase: str) -> None:
        if rank in self._phases or phase == "":
            self._phases[rank] = phase

    def phase_of(self, rank: int) -> str:
        return self._phases.get(rank, "")

    # -- suspicion -------------------------------------------------------
    def mark_suspect(self, rank: int) -> bool:
        """Record ``rank`` as suspect; True the first time."""
        if rank in self.suspects:
            return False
        self.suspects.add(rank)
        return True


#: Key under which the simulation's :class:`CrashState` lives in
#: ``Simulator.shared`` (installed at collective-file open when the
#: fault plan carries ``rank_crash`` events).
CRASH_KEY = "crash-state"


class CrashState:
    """Fail-stop membership bookkeeping for one simulation.

    Tracks which ranks died (``rank_crash``), at which agreement epoch
    each death was converged on, and how many agreement rounds ran.
    Mutated only at phase boundaries by the single running rank thread
    (the engine's invariant); every component that must avoid
    communicating with a corpse — collective teardown, the session's
    closing allreduce, journal commit — reads the same instance."""

    __slots__ = ("dead", "epoch_of", "agreement_epochs")

    def __init__(self) -> None:
        #: World ranks dead fail-stop, cumulative over the run.
        self.dead: Set[int] = set()
        #: rank -> (call_index, boundary) at which its death was agreed.
        self.epoch_of: Dict[int, tuple] = {}
        #: Distinct (call_index, boundary) epochs that ran an agreement.
        self.agreement_epochs: Set[tuple] = set()

    def mark_dead(self, rank: int, call_index: int, boundary: int) -> bool:
        """Record ``rank`` as dead; True the first time."""
        if rank in self.dead:
            return False
        self.dead.add(rank)
        self.epoch_of[rank] = (call_index, boundary)
        return True


def install_crash_state(shared: dict, state: Optional[CrashState] = None) -> CrashState:
    """Arm (or find) the simulation's crash bookkeeping.  Idempotent:
    the first install wins, so all ranks and files share one state."""
    return shared.setdefault(CRASH_KEY, state if state is not None else CrashState())


def find_crash_state(shared: dict) -> Optional[CrashState]:
    """The installed :class:`CrashState`, if any."""
    return shared.get(CRASH_KEY)


def install_liveness(shared: dict, state: LivenessState) -> None:
    """Arm the liveness layer for every component of this simulation.

    Idempotent per simulation: the first open wins, so all ranks (and
    all files) of one run share a single :class:`LivenessState`."""
    shared.setdefault(LIVENESS_KEY, state)


def find_liveness(shared: dict) -> Optional[LivenessState]:
    """The installed :class:`LivenessState`, if any."""
    return shared.get(LIVENESS_KEY)
