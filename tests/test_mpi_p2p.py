"""Tests for point-to-point messaging on the simulated MPI layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MPIError, SimDeadlock
from repro.mpi import ANY_SOURCE, ANY_TAG, Communicator, payload_nbytes
from repro.mpi.request import Request, waitall
from repro.sim import Simulator


def run(nprocs, fn):
    return Simulator(nprocs).run(lambda ctx: fn(Communicator(ctx)))


def _set_all(arrays, value):
    for a in arrays:
        a[:] = value


#: kind -> (build the payload, change it in place, its value as plain data).
_MUTABLE = {
    "ndarray": (
        lambda: np.arange(4, dtype=np.uint8),
        lambda p: _set_all([p], 0),
        lambda v: v.tolist(),
    ),
    "list": (
        lambda: [1, 2, [3]],
        lambda p: (p.append(9), p[2].append(4)),
        lambda v: v,
    ),
    "flat-list": (
        lambda: [1, None, "a", b"b"],
        lambda p: (p.__setitem__(0, 9), p.append(9)),
        lambda v: v,
    ),
    "dict": (
        lambda: {"a": [1], "b": 2},
        lambda p: (p["a"].append(5), p.update(c=3)),
        lambda v: v,
    ),
    "bytearray": (
        lambda: bytearray(b"abcd"),
        lambda p: p.__setitem__(0, ord("z")),
        bytes,
    ),
    "memoryview": (
        lambda: memoryview(bytearray(b"abcd")),
        lambda p: p.__setitem__(0, ord("z")),
        bytes,
    ),
    "tuple-of-array": (
        lambda: (1, np.arange(3)),
        lambda p: _set_all([p[1]], 0),
        lambda v: (v[0], v[1].tolist()),
    ),
    "nested-arrays": (
        lambda: [[np.arange(2)], [np.arange(3), np.arange(1)]],
        lambda p: (_set_all([p[0][0], p[1][1]], 9), p[1].append(np.arange(4))),
        lambda v: [[a.tolist() for a in inner] for inner in v],
    ),
}


class TestSendRecv:
    def test_simple_pair(self):
        def main(comm):
            if comm.rank == 0:
                comm.send({"a": 7}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        assert run(2, main)[1] == {"a": 7}

    @pytest.mark.parametrize("how", ["send", "isend", "sendrecv"])
    @pytest.mark.parametrize("kind", sorted(_MUTABLE))
    def test_payload_copied_on_send(self, kind, how):
        """Copy-on-send: the sender changes the payload after the call
        returns (and keeps it until the run ends); the receiver still
        holds the send-time value."""
        make, mutate, plain = _MUTABLE[kind]

        def main(comm):
            if comm.rank == 1:
                got = comm.sendrecv(None, 0, 0) if how == "sendrecv" else comm.recv(source=0)
                return plain(got)
            payload = make()
            if how == "sendrecv":
                comm.sendrecv(payload, 1, 1)
            else:
                getattr(comm, how)(payload, dest=1)
            mutate(payload)
            return payload

        assert run(2, main)[1] == plain(make())

    @pytest.mark.parametrize("how", ["send", "isend", "sendrecv"])
    @pytest.mark.parametrize(
        "payload", [None, 7, 2.5, True, np.int32(3), "s", b"xy", (1, "a", b"b", None)],
        ids=lambda p: type(p).__name__,
    )
    def test_immutable_payload_travels_uncopied(self, payload, how):
        def main(comm):
            if comm.rank == 1:
                return comm.sendrecv(None, 0, 0) if how == "sendrecv" else comm.recv(source=0)
            if how == "sendrecv":
                comm.sendrecv(payload, 1, 1)
            else:
                getattr(comm, how)(payload, dest=1)

        assert run(2, main)[1] is payload

    def test_memoryview_payload_arrives_as_its_bytes(self):
        """A memoryview is priced by its bytes and travels as them: it
        cannot be deep-copied, and its bytes are what the wire carries."""
        base = np.arange(6, dtype=np.uint16)

        def main(comm):
            if comm.rank == 0:
                comm.send(memoryview(base), dest=1)
                return None
            return comm.recv(source=0)

        got = run(2, main)[1]
        assert type(got) is bytes and got == base.tobytes()
        assert payload_nbytes(memoryview(base)) == 12

    def test_fifo_order_same_envelope(self):
        def main(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=3)
                return None
            return [comm.recv(source=0, tag=3) for _ in range(5)]

        assert run(2, main)[1] == [0, 1, 2, 3, 4]

    def test_tag_selectivity(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        assert run(2, main)[1] == ("a", "b")

    def test_any_source_any_tag(self):
        def main(comm):
            if comm.rank == 2:
                got = sorted(comm.recv(ANY_SOURCE, ANY_TAG) for _ in range(2))
                return got
            comm.send(comm.rank, dest=2, tag=comm.rank)
            return None

        assert run(3, main)[2] == [0, 1]

    def test_recv_advances_virtual_time(self):
        times = {}

        def main(ctx):
            comm = Communicator(ctx)
            if comm.rank == 0:
                ctx.advance(1.0)  # make the sender late
                comm.send(b"x" * 1024, dest=1)
            else:
                comm.recv(source=0)
                times["recv_done"] = ctx.now

        Simulator(2).run(main)
        assert times["recv_done"] > 1.0  # receiver waited for the sender

    def test_bad_peer_rejected(self):
        def main(comm):
            with pytest.raises(MPIError):
                comm.send(1, dest=5)
            with pytest.raises(MPIError):
                comm.recv(source=-3)

        run(1, main)

    def test_unmatched_recv_deadlocks_cleanly(self):
        def main(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=9)

        with pytest.raises(SimDeadlock):
            run(2, main)


class TestNonblocking:
    def test_isend_irecv(self):
        def main(comm):
            if comm.rank == 0:
                req = comm.isend([1, 2, 3], dest=1)
                req.wait()
                return None
            req = comm.irecv(source=0)
            return req.wait()

        assert run(2, main)[1] == [1, 2, 3]

    def test_irecv_test_polls(self):
        def main(ctx):
            comm = Communicator(ctx)
            if comm.rank == 0:
                req = comm.irecv(source=1)
                done, _ = req.test()
                assert not done  # nothing sent yet
                ctx.advance(1e-3)  # let rank 1 run
                done, value = req.test()
                assert done and value == "late"
                return value
            comm.send("late", dest=0)
            return None

        assert Simulator(2).run(main)[0] == "late"

    def test_waitall(self):
        def main(comm):
            if comm.rank == 0:
                reqs = [comm.isend(i, dest=1, tag=i) for i in range(3)]
                waitall(reqs)
                return None
            reqs = [comm.irecv(source=0, tag=i) for i in range(3)]
            return waitall(reqs)

        assert run(2, main)[1] == [0, 1, 2]

    def test_wait_idempotent(self):
        req = Request.completed("v")
        assert req.wait() == "v"
        assert req.wait() == "v"
        assert req.done


class TestSendrecvAndSplit:
    def test_sendrecv_ring(self):
        def main(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            return comm.sendrecv(comm.rank, right, left)

        assert run(4, main) == [3, 0, 1, 2]

    def test_split_halves(self):
        def main(comm):
            color = comm.rank % 2
            sub = comm.split(color)
            return (sub.rank, sub.size, sub.members)

        results = run(4, main)
        assert results[0] == (0, 2, (0, 2))
        assert results[2] == (1, 2, (0, 2))
        assert results[1] == (0, 2, (1, 3))

    def test_split_undefined_color(self):
        def main(comm):
            sub = comm.split(-1 if comm.rank == 0 else 0)
            return None if sub is None else sub.size

        assert run(3, main) == [None, 2, 2]

    def test_subcomm_isolated_from_world(self):
        def main(comm):
            sub = comm.split(0)
            if comm.rank == 0:
                sub.send("subm", dest=1, tag=5)
                comm.send("worldm", dest=1, tag=5)
                return None
            world_msg = comm.recv(source=0, tag=5)
            sub_msg = sub.recv(source=0, tag=5)
            return (world_msg, sub_msg)

        assert run(2, main)[1] == ("worldm", "subm")

    def test_dup_is_congruent(self):
        def main(comm):
            d = comm.dup()
            return (d.rank, d.size)

        assert run(3, main) == [(0, 3), (1, 3), (2, 3)]


class TestPayloadNbytes:
    def test_arrays_exact(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_bytes_exact(self):
        assert payload_nbytes(b"abcd") == 4

    def test_scalars(self):
        assert payload_nbytes(3) == 8
        assert payload_nbytes(2.5) == 8
        assert payload_nbytes(None) == 0

    @pytest.mark.parametrize(
        "scalar",
        [True, np.bool_(True), np.int8(1), np.uint64(1), np.float32(1), np.float64(1)],
        ids=lambda s: type(s).__name__,
    )
    def test_every_scalar_is_8(self, scalar):
        """``np.bool_`` included: not priced by its 110-byte pickle."""
        assert payload_nbytes(scalar) == 8
        assert payload_nbytes([scalar, scalar]) == 8 + 16

    def test_containers_recursive(self):
        assert payload_nbytes([b"ab", b"cd"]) == 8 + 4

    def test_string(self):
        assert payload_nbytes("héllo") == len("héllo".encode()) == 6

    def test_dict_exact_and_insertion_order_independent(self):
        import itertools

        items = [("x", b"ab"), ("y", 1), ("zz", b"c")]
        expect = 8 + (1 + 2) + (1 + 8) + (2 + 1)
        for perm in itertools.permutations(items):
            assert payload_nbytes(dict(perm)) == expect

    def test_set_exact_and_insertion_order_independent(self):
        import itertools

        elems = ["a", "bb", "ccc"]
        expect = 8 + 1 + 2 + 3
        for perm in itertools.permutations(elems):
            built = set()
            for e in perm:
                built.add(e)
            assert payload_nbytes(built) == expect
        assert payload_nbytes(frozenset(elems)) == expect

    def test_nested_container_order_independence(self):
        a = {"meta": {"b": 2, "a": 1}, "ids": {3, 1, 2}}
        b = {"ids": {2, 3, 1}, "meta": {"a": 1, "b": 2}}
        assert payload_nbytes(a) == payload_nbytes(b)
