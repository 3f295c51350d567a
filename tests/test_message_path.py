"""What one point-to-point message costs the host, and where it is seen.

A message takes one post path under ``Communicator.send``/``isend`` and
one receive path under ``recv``/``irecv``/``sendrecv``, which waits
through ``RankContext.block`` (docs/architecture.md "What a message
costs the host").  These tests hold the path's Python-call count per
message, the boundaries the measurement spine wraps (its ``mpi.msgs``
and ``sim.sched_s`` attribution count on every message crossing them),
and the blocked-on text a deadlock dump prints.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro.mpi
import repro.sim
from repro.config import CostModel
from repro.core.exchange import exchange_data
from repro.datatypes.segments import SegmentBatch
from repro.errors import MissedWakeup, SimDeadlock
from repro.mpi import ANY_SOURCE, ANY_TAG, Communicator
from repro.obs.metrics import metrics_registry
from repro.sim import Signal, Simulator
from repro.sim.engine import RankContext

_MPI_SIM = tuple(str(Path(m.__file__).parent) for m in (repro.mpi, repro.sim))


def _python_calls(fn) -> int:
    """Python functions of ``repro.mpi`` / ``repro.sim`` entered while
    ``fn`` runs, on every thread."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls  # one engine thread runs at a time
        if event == "call" and frame.f_code.co_filename.startswith(_MPI_SIM):
            calls += 1

    outer = sys.getprofile(), threading.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(outer[0])
        threading.setprofile(outer[1])
    return calls


def _empty_sendrecv_loop(n: int) -> None:
    def main(ctx):
        comm = Communicator(ctx)
        peer = 1 - ctx.rank
        for _ in range(n):
            comm.sendrecv(None, peer, peer, 5, 5)

    Simulator(2).run(main)


def test_empty_sendrecv_costs_at_most_18_python_calls():
    """Per message (each of the two ranks' sendrecv sends one and
    receives one), set-up and teardown subtracted out."""
    n = 200
    _empty_sendrecv_loop(n)  # warm imports and caches
    per_message = (_python_calls(lambda: _empty_sendrecv_loop(n)) - _python_calls(
        lambda: _empty_sendrecv_loop(0)
    )) / (2 * n)
    assert per_message <= 18, per_message


def _counting(counts: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_probed_boundaries_see_every_message(monkeypatch):
    """Counters where the spine puts its probes, on a 16-rank barrier +
    allgather + ``exchange=alltoallw`` round whose exchange is sparse
    (only rank 0 gets bytes): sends entered = messages the network
    counted = the closed form, and every one of them was received
    through exactly one ``RankContext.block``."""
    counts: Counter = Counter()
    for owner, name in ((Communicator, "send"), (Communicator, "isend"), (RankContext, "block")):
        monkeypatch.setattr(owner, name, _counting(counts, name, vars(owner)[name]))
    n, piece = 16, 8
    cost = CostModel(procs_per_node=4)  # arms the net.* wire counters
    sim = Simulator(n)

    def main(ctx):
        comm = Communicator(ctx, cost)
        comm.barrier()
        gathered = comm.allgather(comm.rank)
        send = [None] * n
        send[0] = SegmentBatch(np.array([0]), np.array([piece]), np.array([0]))
        recv, recvbuf = [None] * n, None
        if comm.rank == 0:
            recv = [SegmentBatch(np.array([s * piece]), np.array([piece]), np.array([0])) for s in range(n)]
            recvbuf = np.zeros(n * piece, dtype=np.uint8)
        exchange_data(
            comm, cost, "alltoallw", np.full(piece, comm.rank, dtype=np.uint8), send, recvbuf, recv
        )
        return gathered, recvbuf

    results = sim.run(main)
    assert all(g == list(range(n)) for g, _ in results)
    assert np.array_equal(results[0][1], np.repeat(np.arange(n, dtype=np.uint8), piece))

    rounds = (n - 1).bit_length()
    # Dissemination, Bruck, then one message per non-empty exchange leg:
    # every rank but 0 sends its piece to rank 0 (rank 0's own is local).
    legs = n - 1
    messages = n * rounds + n * rounds + legs
    assert counts["send"] + counts["isend"] == messages
    assert metrics_registry(sim.shared).value("net.msgs") == messages
    assert counts["block"] == messages


def test_blocked_on_text_is_what_dumps_always_printed():
    """The receive path hands the engine its reason unformatted; the
    dump prints the text an eagerly formatted reason gives."""

    def main(ctx):
        comm = Communicator(ctx)
        sub = comm.split(0)
        if ctx.rank == 0:
            comm.recv(1, 9)
        elif ctx.rank == 1:
            comm.irecv(ANY_SOURCE, 4).wait()
        else:
            sub.recv(ANY_SOURCE, ANY_TAG)

    with pytest.raises(SimDeadlock) as ei:
        Simulator(3).run(main)
    assert str(ei.value) == (
        "all live ranks are blocked: "
        "rank 0: blocked on recv(src=1, tag=9, comm=world) at t=0.000115; "
        "rank 1: blocked on irecv(src=-1, tag=4, comm=world) at t=0.000115; "
        "rank 2: blocked on recv(src=-1, tag=-1, comm=world/split0:c0) at t=0.000115"
    )


def test_missed_wakeup_formats_a_tuple_reason():
    box = []

    def main(ctx):
        if ctx.rank == 0:
            ctx.advance(1e-3)
            box.append("x")  # no notify
            return
        ctx.block(lambda: box[0] if box else None, ("{}<{}>", "box", 7), on=Signal())

    with pytest.raises(MissedWakeup) as ei:
        Simulator(2).run(main)
    assert ei.value.reason == "box<7>"
