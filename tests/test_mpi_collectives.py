"""Tests for the collective algorithms."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import BYTE, contiguous
from repro.datatypes.segments import SegmentBatch, data_to_file_segments
from repro.config import DEFAULT_COST_MODEL
from repro.errors import MPIError
from repro.mpi import AliveGroup, Communicator
from repro.mpi.collectives import _TAG_ALLGATHER
from repro.mpi.topology import NodeTopology
from repro.obs.metrics import metrics_registry
from repro.sim import Simulator


def run(nprocs, fn):
    return Simulator(nprocs).run(lambda ctx: fn(Communicator(ctx)))


SIZES = [1, 2, 3, 4, 5, 8]


class TestBarrier:
    @pytest.mark.parametrize("size", SIZES)
    def test_synchronizes_clocks(self, size):
        def main(ctx):
            comm = Communicator(ctx)
            ctx.advance(1e-3 * ctx.rank)  # skewed arrival
            comm.barrier()
            return ctx.now

        times = Simulator(size).run(main)
        # After a barrier nobody can be earlier than the latest arrival.
        assert min(times) >= 1e-3 * (size - 1)

    def test_repeated_barriers(self):
        def main(comm):
            for _ in range(3):
                comm.barrier()
            return True

        assert all(run(4, main))


class TestBcast:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("root", [0, "last"])
    def test_all_receive(self, size, root):
        r = size - 1 if root == "last" else 0

        def main(comm):
            obj = {"data": list(range(5))} if comm.rank == r else None
            return comm.bcast(obj, root=r)

        results = run(size, main)
        assert all(v == {"data": [0, 1, 2, 3, 4]} for v in results)

    def test_bad_root(self):
        def main(comm):
            with pytest.raises(MPIError):
                comm.bcast(1, root=9)

        run(2, main)


class TestReduceAllreduce:
    @pytest.mark.parametrize("size", SIZES)
    def test_reduce_sum(self, size):
        def main(comm):
            return comm.reduce(comm.rank + 1)

        results = run(size, main)
        assert results[0] == size * (size + 1) // 2
        assert all(v is None for v in results[1:])

    def test_reduce_nonzero_root(self):
        def main(comm):
            return comm.reduce(comm.rank, root=2)

        results = run(4, main)
        assert results[2] == 6

    @pytest.mark.parametrize("size", SIZES)
    def test_allreduce_max(self, size):
        def main(comm):
            return comm.allreduce(comm.rank * 2, op=max)

        assert run(size, main) == [(size - 1) * 2] * size

    def test_allreduce_min_max_pair(self):
        def main(comm):
            lo, hi = comm.allreduce(
                (comm.rank, comm.rank),
                op=lambda a, b: (min(a[0], b[0]), max(a[1], b[1])),
            )
            return (lo, hi)

        assert run(5, main) == [(0, 4)] * 5


class TestGatherScatter:
    @pytest.mark.parametrize("size", SIZES)
    def test_gather(self, size):
        def main(comm):
            return comm.gather(comm.rank**2)

        results = run(size, main)
        assert results[0] == [r**2 for r in range(size)]

    @pytest.mark.parametrize("size", SIZES)
    def test_allgather(self, size):
        def main(comm):
            return comm.allgather(chr(ord("a") + comm.rank))

        expected = [chr(ord("a") + r) for r in range(size)]
        assert run(size, main) == [expected] * size

    @pytest.mark.parametrize("size", SIZES)
    def test_scatter(self, size):
        def main(comm):
            objs = [f"item{i}" for i in range(size)] if comm.rank == 0 else None
            return comm.scatter(objs)

        assert run(size, main) == [f"item{i}" for i in range(size)]

    def test_scatter_wrong_length(self):
        def main(comm):
            if comm.rank == 0:
                with pytest.raises(MPIError):
                    comm.scatter([1])
            comm.barrier()

        # Only rank 0 validates; keep the others in step with a barrier.
        def guarded(comm):
            if comm.rank == 0:
                with pytest.raises(MPIError):
                    comm.scatter([1])
            return True

        assert all(run(2, guarded))


#: One payload per kind the drivers pass through ``allgather`` (request
#: bounds are tuples, plan-cache digests ``bytes``, service times floats
#: in tuples, dead sets tuples), each a function of the *world* rank.
PAYLOADS = {
    "none": lambda r: None,
    "int": lambda r: 7 * r + 1,
    "nested-tuple": lambda r: (r, (str(r), (r + 0.5, None))),
    "bytes": lambda r: bytes([r]) * (r % 3 + 1),
    "ndarray": lambda r: np.arange(r % 4 + 1, dtype=np.int64) + r,
    "list": lambda r: [r, [r] * (r % 3)],
}


def _same(got, want) -> bool:
    """``==`` that also compares ndarrays inside lists and tuples."""
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and got.dtype == want.dtype and np.array_equal(got, want)
    if isinstance(want, (list, tuple)):
        return (
            type(got) is type(want)
            and len(got) == len(want)
            and all(_same(g, w) for g, w in zip(got, want))
        )
    return got == want and type(got) is type(want)


def ring_allgather(comm, obj):
    """The allgather this package shipped before Bruck's: P-1 steps, each
    passing one block to the right.  Kept here only, as the reference
    the virtual-time table of docs/cost_model.md is measured against."""
    size, rank = comm.size, comm.rank
    out = [None] * size
    out[rank] = obj
    cur = rank
    for _ in range(size - 1):
        req = comm.isend(out[cur], (rank + 1) % size, _TAG_ALLGATHER)
        prev = (cur - 1) % size
        out[prev] = comm.recv((rank - 1) % size, _TAG_ALLGATHER)
        req.wait()
        cur = prev
    return out


def _rounds(n: int) -> int:
    return (n - 1).bit_length()  # ceil(log2 n)


class TestAllgather:
    """Bruck's ragged last round is where allgathers break: every size,
    payload kind and communicator shape the drivers use."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_rank_ordered_on_every_communicator_shape(self, n):
        ppn = 3
        # One and two dead ranks, wherever that leaves a survivor.
        dead_sets = [dead for dead in ({n // 2}, {0, n - 1}) if len(dead) < n]

        def main(ctx):
            world = Communicator(ctx)
            # Odd/even halves, each in *descending* world-rank order.
            half = world.split(world.rank % 2, key=-world.rank)
            node = world.node_subcomm(NodeTopology(ppn))
            groups = {
                i: AliveGroup(world, frozenset(dead), epoch=i)
                for i, dead in enumerate(dead_sets)
                if world.rank not in dead
            }
            got = {}
            for kind, make in PAYLOADS.items():
                mine = make(world.rank)
                got[kind, "world"] = world.allgather(mine)
                got[kind, "half"] = half.allgather(mine)
                got[kind, "node"] = node.allgather(mine)
                for i, group in groups.items():
                    got[kind, "alive", i] = group.allgather(mine)
            return got

        for rank, got in enumerate(Simulator(n).run(main)):
            half = [r for r in reversed(range(n)) if r % 2 == rank % 2]
            node = [r for r in range(n) if r // ppn == rank // ppn]
            for kind, make in PAYLOADS.items():
                assert _same(got[kind, "world"], [make(r) for r in range(n)]), (kind, rank)
                assert _same(got[kind, "half"], [make(r) for r in half]), (kind, rank)
                assert _same(got[kind, "node"], [make(r) for r in node]), (kind, rank)
                for i, dead in enumerate(dead_sets):
                    want = [None if r in dead else make(r) for r in range(n)]
                    if rank not in dead:
                        assert _same(got[kind, "alive", i], want), (kind, rank, dead)

    def test_no_cross_rank_aliasing(self):
        """A received block belongs to its receiver: every rank adds its
        own mark to every array it gathered (blocks forwarded in a later
        round included), and nobody sees anybody else's mark."""
        n = 7

        def main(ctx):
            comm = Communicator(ctx)
            mine = np.full(4, ctx.rank, dtype=np.int64)
            got = comm.allgather(mine)
            comm.barrier()
            for block in got:
                block += 1000 * (ctx.rank + 1)
            comm.barrier()
            return got

        for rank, got in enumerate(Simulator(n).run(main)):
            for src, block in enumerate(got):
                assert block.tolist() == [src + 1000 * (rank + 1)] * 4, (rank, src)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_message_count_and_wire_bytes(self, n):
        """n * ceil(log2 n) messages; each rank ships n-1 blocks in all,
        plus one 8-byte list header (and one envelope) per message."""
        cost = dataclasses.replace(DEFAULT_COST_MODEL, procs_per_node=2)
        sim = Simulator(n)

        def main(ctx):
            return Communicator(ctx, cost).allgather(ctx.rank)

        assert sim.run(main) == [list(range(n))] * n
        reg = metrics_registry(sim.shared)
        block = 8  # payload_nbytes of an int
        assert reg.total("net.msgs") == n * _rounds(n)
        assert reg.total("net.bytes") == n * (
            (n - 1) * block + _rounds(n) * (8 + cost.net_envelope_bytes)
        )

    @pytest.mark.parametrize("n", [3, 16, 64, 100])
    @pytest.mark.parametrize("nbytes", [8, 1 << 10, 1 << 16, 1 << 20])
    def test_virtual_time_against_the_ring(self, n, nbytes):
        """The table of docs/cost_model.md: a message costs overhead +
        bytes x byte-time with no shared-link term, both algorithms move
        n-1 blocks per rank, so Bruck is the ring minus
        ``n - 1 - ceil(log2 n)`` message overheads plus one 8-byte list
        header per round — ahead at every payload size once n >= 4, and
        behind by exactly the headers (0.14 us) at n = 3, where the two
        send the same number of messages."""

        def finish(algorithm) -> float:
            def main(ctx):
                comm = Communicator(ctx)
                got = algorithm(comm, bytes([ctx.rank]) * nbytes)
                assert [len(b) for b in got] == [nbytes] * n
                assert [b[0] for b in got] == list(range(n))
                return ctx.now

            return max(Simulator(n).run(main))

        ring, bruck = finish(ring_allgather), finish(Communicator.allgather)
        cost = DEFAULT_COST_MODEL
        headers = _rounds(n) * 8 * cost.net_byte_time
        saved = (n - 1 - _rounds(n)) * (cost.net_post_overhead + cost.net_latency)
        assert bruck == pytest.approx(ring - saved + headers, rel=1e-9)
        if n >= 4:
            assert bruck < ring


class TestAlltoall:
    @pytest.mark.parametrize("size", SIZES)
    def test_transpose(self, size):
        def main(comm):
            objs = [(comm.rank, dst) for dst in range(size)]
            return comm.alltoall(objs)

        results = run(size, main)
        for r, got in enumerate(results):
            assert got == [(src, r) for src in range(size)]

    def test_none_entries_allowed(self):
        def main(comm):
            objs = [None] * comm.size
            objs[(comm.rank + 1) % comm.size] = comm.rank
            return comm.alltoall(objs)

        results = run(3, main)
        for r, got in enumerate(results):
            expect = [None] * 3
            expect[(r - 1) % 3] = (r - 1) % 3
            assert got == expect

    def test_wrong_length_rejected(self):
        def main(comm):
            with pytest.raises(MPIError):
                comm.alltoall([None])
            return True

        assert all(run(2, main))


class TestAlltoallw:
    def test_block_rotation(self):
        """Each rank sends byte block i of its buffer to rank i."""
        size = 4
        block = 8

        def main(comm):
            sendbuf = np.full(size * block, comm.rank * 10, dtype=np.uint8)
            for i in range(size):
                sendbuf[i * block : (i + 1) * block] += i
            recvbuf = np.zeros(size * block, dtype=np.uint8)
            flat = contiguous(block, BYTE).flatten()
            send_batches = [
                data_to_file_segments(flat, i * block, 0, block) for i in range(size)
            ]
            recv_batches = [
                data_to_file_segments(flat, i * block, 0, block) for i in range(size)
            ]
            comm.alltoallw(sendbuf, send_batches, recvbuf, recv_batches)
            return recvbuf.copy()

        results = run(size, main)
        for r, buf in enumerate(results):
            for src in range(size):
                seg = buf[src * block : (src + 1) * block]
                assert (seg == src * 10 + r).all(), (r, src, seg)

    def test_mismatched_bytes_rejected(self):
        def main(comm):
            sendbuf = np.zeros(8, dtype=np.uint8)
            recvbuf = np.zeros(8, dtype=np.uint8)
            flat4 = contiguous(4, BYTE).flatten()
            flat2 = contiguous(2, BYTE).flatten()
            send = [data_to_file_segments(flat4, 0, 0, 4)] * comm.size
            recv = [data_to_file_segments(flat2, 0, 0, 2)] * comm.size
            with pytest.raises(MPIError):
                comm.alltoallw(sendbuf, send, recvbuf, recv)
            return True

        # size=1: the failure happens on the self-exchange, every rank raises.
        assert all(run(1, main))

    def test_empty_batches_ok(self):
        def main(comm):
            batches = [None] * comm.size
            comm.alltoallw(None, batches, None, batches)
            return True

        assert all(run(3, main))


@given(st.integers(2, 6), st.data())
@settings(max_examples=25, deadline=None)
def test_allreduce_matches_python_sum(size, data):
    values = data.draw(
        st.lists(st.integers(-100, 100), min_size=size, max_size=size)
    )

    def main(ctx):
        comm = Communicator(ctx)
        return comm.allreduce(values[ctx.rank])

    results = Simulator(size).run(main)
    assert results == [sum(values)] * size


@given(st.integers(2, 6))
@settings(max_examples=20, deadline=None)
def test_alltoall_is_transpose_property(size):
    def main(ctx):
        comm = Communicator(ctx)
        return comm.alltoall([ctx.rank * size + dst for dst in range(size)])

    results = Simulator(size).run(main)
    for r in range(size):
        assert results[r] == [src * size + r for src in range(size)]
