"""Survivor agreement and communicator shrink after fail-stop crashes.

When a ``rank_crash`` fault kills a rank mid-collective, the survivors
must (a) converge on *who is dead* and (b) obtain a communicator that
excludes the corpses — every collective in :mod:`repro.mpi.collectives`
is built point-to-point over the full membership, so a single dead
member deadlocks a barrier forever.

Both steps are communication-*light* by design.  Crash detection itself
is a pure function of the fault plan (each survivor evaluates
``injector.crashed_ranks(call, boundary)`` identically — the same
philosophy as suspect detection in PR 3), so the proposals entering the
agreement round are already equal.  The epoch-agreement exchange then
*confirms* the convergence over real messages: every survivor
allgathers its proposed dead set over the shrunk communicator and takes
the union.  With equal inputs the union is a fixed point after one
round; an actual failure detector plugged in later would simply need
more rounds of the same exchange.

The shrink itself cannot use ``Communicator.split`` — split is
collective over the *full* membership and would hang on the dead.
Instead each survivor constructs the sub-communicator directly from the
agreed dead set: the communicator id embeds the epoch and the sorted
dead ranks, so every survivor interns the same shared
:class:`~repro.mpi.comm._CommState` without exchanging a byte.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, List, Optional, Tuple

from repro.errors import MPIError

__all__ = ["AliveGroup", "agree_dead_set"]


class AliveGroup:
    """The survivors of one communicator after an agreed set of deaths.

    Wraps the original communicator plus a communication-free shrunk
    sub-communicator containing only the live members.  Collectives run
    on the shrunk comm; ``allgather`` results are re-indexed to the
    *original* communicator's ranks (``None`` at dead slots) so callers
    keep addressing ranks in the coordinate system the collective
    started in.
    """

    __slots__ = ("world", "sub", "dead", "alive", "epoch")

    def __init__(self, comm, dead: FrozenSet[int], epoch: int) -> None:
        dead = frozenset(dead)
        if comm.rank in dead:
            raise MPIError(
                f"rank {comm.rank} cannot form an alive-group it is dead in"
            )
        unknown = [r for r in dead if not (0 <= r < comm.size)]
        if unknown:
            raise MPIError(f"dead ranks {sorted(unknown)} out of range")
        self.world = comm
        self.dead = dead
        self.epoch = epoch
        self.alive: Tuple[int, ...] = tuple(
            r for r in range(comm.size) if r not in dead
        )
        if not dead:
            # Nobody died: the group IS the original communicator.
            self.sub = comm
            return
        tag = "-".join(str(r) for r in sorted(dead))
        comm_id = f"{comm.comm_id}/alive:e{epoch}:d{tag}"
        self.sub = type(comm)(
            comm.ctx,
            comm.cost,
            _comm_id=comm_id,
            _rank=self.alive.index(comm.rank),
            _members=tuple(comm.members[r] for r in self.alive),
        )

    # -- membership ---------------------------------------------------------
    @property
    def size(self) -> int:
        """Live member count."""
        return len(self.alive)

    def first_alive(self, candidates=None) -> Optional[int]:
        """Lowest live rank of ``candidates`` (default: all members),
        in original-communicator numbering — the deterministic choice
        of 'one designated survivor' for once-per-group actions."""
        pool = self.alive if candidates is None else [
            r for r in candidates if r not in self.dead
        ]
        return min(pool) if pool else None

    # -- collectives over the survivors --------------------------------------
    def barrier(self) -> None:
        self.sub.barrier()

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] = None) -> Any:
        if op is None:
            return self.sub.allreduce(value)
        return self.sub.allreduce(value, op=op)

    def allgather(self, value: Any) -> List[Any]:
        """Allgather over survivors, re-indexed to original ranks.

        Returns a ``world.size``-long list with each live rank's value
        at its *original* index and ``None`` at every dead slot."""
        packed = self.sub.allgather(value)
        out: List[Any] = [None] * self.world.size
        for sub_rank, orig in enumerate(self.alive):
            out[orig] = packed[sub_rank]
        return out

    def alltoall(self, values: List[Any]) -> List[Any]:
        """Alltoall over survivors in original-rank coordinates.

        ``values`` is a ``world.size``-long list (entries addressed to
        dead ranks are silently discarded); the result is re-indexed the
        same way, ``None`` at every dead slot."""
        if len(values) != self.world.size:
            raise MPIError(
                f"alltoall wants {self.world.size} entries, got {len(values)}"
            )
        packed = self.sub.alltoall([values[r] for r in self.alive])
        out: List[Any] = [None] * self.world.size
        for sub_rank, orig in enumerate(self.alive):
            out[orig] = packed[sub_rank]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AliveGroup epoch={self.epoch} alive={len(self.alive)}"
            f"/{self.world.size} dead={sorted(self.dead)}>"
        )


def agree_dead_set(comm, proposal: FrozenSet[int], epoch: int) -> AliveGroup:
    """One epoch-agreement round: converge the survivors on a dead set.

    ``proposal`` is this rank's view of who is dead (from the pure
    plan-evaluation detector, so all survivors propose the same set).
    The round allgathers every survivor's proposal over the shrunk
    communicator and unions them; the union must equal the proposal —
    detection is deterministic, so a wider union means the proposals
    disagreed, which is a protocol bug worth failing loudly on.

    Returns the :class:`AliveGroup` for the agreed set.  The caller
    stamps ``faults.crash.agreements`` (gated on one survivor) so the
    metric counts protocol rounds, not participants.
    """
    group = AliveGroup(comm, frozenset(proposal), epoch)
    if not proposal:
        return group
    views = group.allgather(tuple(sorted(proposal)))
    agreed = frozenset().union(
        *(frozenset(v) for v in views if v is not None)
    )
    if agreed != frozenset(proposal):
        raise MPIError(
            f"epoch {epoch} agreement diverged: proposed {sorted(proposal)}, "
            f"union {sorted(agreed)}"
        )
    return group
