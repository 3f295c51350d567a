"""Count-based scaling guard for the dispatcher.

Wall-clock time is too noisy to gate in tier-1; the engine's own
counters are exact.  The body is n-step collectives only (dissemination
barrier, pairwise ``alltoall``, ring ``allgather``), so its message count
is known in closed form, and the event-driven dispatcher's contract is
that predicate evaluations are bounded by the *messages* — one at each
blocking receive, one per enqueue that finds the destination blocked —
not by ``decisions x ranks`` as the polling dispatcher's were (~15 per
decision at 64 ranks, growing with n).  Makespans are pinned to the
values the polling dispatcher produced.
"""

from __future__ import annotations

import pytest

from repro.mpi import Communicator
from repro.sim import Simulator


def _body(alltoall: bool):
    def main(ctx):
        comm = Communicator(ctx)
        comm.barrier()
        if alltoall:
            got = comm.alltoall([comm.rank * comm.size + d for d in range(comm.size)])
            assert got == [s * comm.size + comm.rank for s in range(comm.size)]
        assert comm.allgather(comm.rank) == list(range(comm.size))
        comm.barrier()

    return main


def _messages(n: int, alltoall: bool) -> int:
    barrier = n * (n - 1).bit_length()
    return 2 * barrier + n * (n - 1) * (2 if alltoall else 1)


def _run(n: int, alltoall: bool) -> Simulator:
    sim = Simulator(n)
    sim.run(_body(alltoall))
    messages = _messages(n, alltoall)
    assert sim.wakeups == messages  # every receive blocked exactly once
    assert sim.predicate_evals <= 2 * messages + 4 * n
    assert sim.decisions <= 2 * messages + 2 * n
    assert sim.timed_fires == 0
    return sim


@pytest.mark.parametrize(
    "n, makespan", [(64, 0.007874739124644915), (256, 0.030017372647371632)]
)
def test_predicate_evals_bounded_by_messages(n, makespan):
    assert _run(n, alltoall=True).makespan == makespan


@pytest.mark.slow
def test_1024_ranks_complete():
    """~1M messages through 1024 rank threads (CI: ``scale-smoke``)."""
    assert _run(1024, alltoall=False).makespan == 0.05952195336914245
