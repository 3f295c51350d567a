"""Count-based scaling guard for the dispatcher.

Wall-clock time is too noisy to gate in tier-1; the engine's own
counters are exact.  The body is collectives only (dissemination
barrier, pairwise ``alltoall``, Bruck ``allgather``), so its message
count is known in closed form, and the event-driven dispatcher's
contract is that predicate evaluations are bounded by the *messages* —
one at each blocking receive, one per enqueue that finds the
destination blocked — not by ``decisions x ranks`` as the polling
dispatcher's were (~15 per decision at 64 ranks, growing with n).  Makespans are pinned; they
were re-captured once, when ``allgather`` went from the ring to Bruck's
algorithm (64 ranks: 7.87 -> 4.63 ms, 256: 30.0 -> 15.9 ms, 1024
without the ``alltoall``: 59.5 -> 1.78 ms).
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.hpio.patterns import HPIOPattern
from repro.hpio.verify import apply_view, verify_write, write_pattern
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
    log_depth = n * (n - 1).bit_length()  # one barrier, or the allgather
    return 3 * log_depth + (n * (n - 1) if alltoall else 0)


def _run(n: int, alltoall: bool) -> Simulator:
    sim = Simulator(n)
    sim.run(_body(alltoall))
    messages = _messages(n, alltoall)
    assert sim.wakeups == messages  # every receive blocked exactly once
    assert sim.predicate_evals <= 2 * messages + 4 * n
    assert sim.decisions <= 2 * messages + 2 * n
    assert sim.timed_fires == 0
    return sim


_MAKESPANS = {64: 0.0046261552734374965, 256: 0.015938927512428955}


@pytest.mark.parametrize("n", sorted(_MAKESPANS))
def test_predicate_evals_bounded_by_messages(n):
    assert _run(n, alltoall=True).makespan == _MAKESPANS[n]


def test_1024_ranks_complete():
    """30 720 messages through 1024 rank threads, a few seconds: the
    ROADMAP's "1024-rank barrier + allgather" target, in tier-1 since
    ``allgather`` is log-depth (the ring made it ~1M messages)."""
    assert _run(1024, alltoall=False).makespan == 0.001781646950461648


@pytest.mark.slow
def test_1024_rank_collective_write():
    """CI ``scale-smoke``: one byte-verified ``write_all`` at 1024 ranks
    (8 B x 16 regions each, 16 aggregators).  ``exchange=nonblocking``
    posts only the non-empty pairs; ``alltoallw`` would still post a
    ``sendrecv`` to every one of the 1023 peers (~1M empty messages)."""
    pattern = HPIOPattern(1024, 8, 16, region_spacing=0, mem_contig=True)
    s = Session("/scale", nprocs=1024, hints={"exchange": "nonblocking", "cb_nodes": 16})

    def body(ctx, comm, f):
        apply_view(f, pattern, comm.rank)
        write_pattern(f, pattern, comm.rank)

    s.run(body)
    assert verify_write(s.fs, s.path, pattern)
