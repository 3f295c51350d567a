"""Collective operations, implemented as distributed algorithms.

All collectives are built from the point-to-point layer, so their
virtual-time cost emerges from the message structure:

* ``barrier`` — dissemination, ceil(log2 P) rounds;
* ``bcast`` — binomial tree;
* ``reduce``/``allreduce`` — binomial reduction (+ broadcast);
* ``gather``/``gatherv`` — linear into the root (root cost scales with
  P, as a real implementation's does for variable-size payloads);
* ``allgather`` — Bruck's concatenation, ceil(log2 P) rounds of
  doubling block lists (P ceil(log2 P) messages for every P);
* ``scatter`` — linear from the root;
* ``alltoall`` — pairwise exchange, P-1 rounds of sendrecv;
* ``alltoallw`` — pairwise exchange of non-contiguous regions gathered
  and scattered directly from/to the supplied buffers (Section 5.4's
  zero-extra-copy data exchange; the gather/scatter byte-touch cost is
  charged, but no intermediate pack buffer copy is).

Internal tags live in a reserved space (>= 2**20) so user traffic can
never cross-match collective traffic.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.errors import MPIError
from repro.datatypes.packing import gather_segments, scatter_segments
from repro.datatypes.segments import SegmentBatch

__all__ = ["CollectiveMixin"]

_TAG_BARRIER = 1 << 20
_TAG_BCAST = (1 << 20) + 1
_TAG_REDUCE = (1 << 20) + 2
_TAG_GATHER = (1 << 20) + 3
_TAG_ALLGATHER = (1 << 20) + 4
_TAG_SCATTER = (1 << 20) + 5
_TAG_ALLTOALL = (1 << 20) + 6
_TAG_ALLTOALLW = (1 << 20) + 7


class CollectiveMixin:
    """Collective algorithms; mixed into ``Communicator``.

    Relies on the host class providing ``rank``, ``size``, ``ctx``,
    ``cost``, ``send``, ``recv``, ``isend``, ``sendrecv``.
    """

    # These attributes/methods come from Communicator.
    rank: int
    size: int

    # -- barrier -----------------------------------------------------------
    def barrier(self) -> None:
        """Dissemination barrier: log2(P) rounds of token exchange."""
        size, rank = self.size, self.rank
        mask = 1
        while mask < size:
            dst = (rank + mask) % size
            src = (rank - mask) % size
            self.sendrecv(None, dst, src, _TAG_BARRIER, _TAG_BARRIER)
            mask <<= 1

    # -- broadcast -----------------------------------------------------------
    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        """Binomial-tree broadcast; returns the object on every rank."""
        self._check_root(root)
        size, rank = self.size, self.rank
        vrank = (rank - root) % size
        mask = 1
        while mask < size:
            if vrank & mask:
                src = ((vrank - mask) + root) % size
                obj = self.recv(src, _TAG_BCAST)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if vrank + mask < size:
                dst = ((vrank + mask) + root) % size
                self.send(obj, dst, _TAG_BCAST)
            mask >>= 1
        return obj

    # -- reductions ------------------------------------------------------------
    def reduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] = lambda a, b: a + b,
        root: int = 0,
    ) -> Any:
        """Binomial-tree reduction; result valid only at ``root``.

        ``op`` must be associative and commutative (the tree reorders
        operands)."""
        self._check_root(root)
        size, rank = self.size, self.rank
        vrank = (rank - root) % size
        mask = 1
        while mask < size:
            if vrank & mask:
                dst = ((vrank & ~mask) + root) % size
                self.send(value, dst, _TAG_REDUCE)
                return None
            partner_v = vrank | mask
            if partner_v < size:
                other = self.recv(((partner_v) + root) % size, _TAG_REDUCE)
                value = op(value, other)
            mask <<= 1
        return value

    def allreduce(
        self, value: Any, op: Callable[[Any, Any], Any] = lambda a, b: a + b
    ) -> Any:
        """Reduce to rank 0, then broadcast the result."""
        return self.bcast(self.reduce(value, op, root=0), root=0)

    # -- gathers ----------------------------------------------------------------
    def gather(self, obj: Any, root: int = 0) -> Optional[list]:
        """Linear gather; returns the rank-ordered list at root."""
        self._check_root(root)
        if self.rank != root:
            self.send(obj, root, _TAG_GATHER)
            return None
        out: list = [None] * self.size
        out[root] = obj
        for src in range(self.size):
            if src != root:
                out[src] = self.recv(src, _TAG_GATHER)
        return out

    def allgather(self, obj: Any) -> list:
        """Bruck's concatenation allgather: ceil(log2 P) rounds.

        ``blocks[j]`` is the object of rank ``rank + j``.  In the round
        at distance ``dist`` every rank passes its first
        ``min(dist, P - dist)`` blocks to ``rank - dist`` and appends
        what ``rank + dist`` passes it, so the list doubles until the
        last round, whose ragged length is what covers a ``P`` that is
        not a power of two.  Each rank still receives ``P - 1`` blocks
        in all — the ring's volume in ``P * ceil(log2 P)`` messages
        instead of ``P * (P - 1)`` (docs/cost_model.md has why no
        payload size brings the ring back under this network model)."""
        size, rank = self.size, self.rank
        blocks: list = [obj]
        dist = 1
        while dist < size:
            blocks.extend(
                self.sendrecv(
                    blocks[: min(dist, size - dist)],
                    (rank - dist) % size,
                    (rank + dist) % size,
                    _TAG_ALLGATHER,
                    _TAG_ALLGATHER,
                )
            )
            dist <<= 1
        out: list = [None] * size
        for j, block in enumerate(blocks):
            out[(rank + j) % size] = block
        return out

    # -- scatters ---------------------------------------------------------------
    def scatter(self, objs: Optional[Sequence[Any]] = None, root: int = 0) -> Any:
        """Linear scatter from root; returns this rank's element."""
        self._check_root(root)
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise MPIError(
                    f"scatter root needs a sequence of {self.size} elements"
                )
            for dst in range(self.size):
                if dst != root:
                    self.send(objs[dst], dst, _TAG_SCATTER)
            return objs[root]
        return self.recv(root, _TAG_SCATTER)

    # -- all-to-all ----------------------------------------------------------------
    def alltoall(self, objs: Sequence[Any]) -> list:
        """Pairwise-exchange all-to-all of arbitrary per-peer objects.

        ``objs[i]`` goes to rank ``i``; returns the list received.  Use
        ``None`` entries for peers with nothing to say (still
        exchanged, so the rounds stay matched)."""
        size, rank = self.size, self.rank
        if len(objs) != size:
            raise MPIError(f"alltoall needs {size} entries, got {len(objs)}")
        out: list = [None] * size
        out[rank] = objs[rank]
        for step in range(1, size):
            dst = (rank + step) % size
            src = (rank - step) % size
            out[src] = self.sendrecv(objs[dst], dst, src, _TAG_ALLTOALL, _TAG_ALLTOALL)
        return out

    alltoallv = alltoall  # same generic payload mechanism

    def alltoallw(
        self,
        sendbuf: Optional[np.ndarray],
        send_batches: Sequence[Optional[SegmentBatch]],
        recvbuf: Optional[np.ndarray],
        recv_batches: Sequence[Optional[SegmentBatch]],
        skip: frozenset = frozenset(),
    ) -> None:
        """Exchange non-contiguous regions directly between buffers.

        For each peer ``i``, the bytes of ``send_batches[i]`` (addresses
        into ``sendbuf``) are delivered into the addresses of
        ``recv_batches[i]`` (into ``recvbuf``).  Byte counts must agree
        pairwise.  This models MPI_Alltoallw driven by derived
        datatypes: the datatype engine touches each byte
        (``cpu_per_byte_touch``) but no intermediate pack buffer exists,
        so no ``cpu_per_byte_copy`` is charged — the Section 5.4
        optimization.

        ``skip`` names ranks excluded from the exchange (liveness:
        suspects being completed *around*).  Every participating rank
        must pass the same set — a skipped peer gets no send and is
        expected to send nothing, keeping the pairwise rounds matched;
        a rank that is itself in ``skip`` does nothing at all.
        """
        size, rank = self.size, self.rank
        if len(send_batches) != size or len(recv_batches) != size:
            raise MPIError("alltoallw needs one batch (or None) per peer")
        if rank in skip:
            return
        touch = self.cost.cpu_per_byte_touch  # type: ignore[attr-defined]
        ctx = self.ctx  # type: ignore[attr-defined]
        # An empty batch is None from here on: one emptiness test per peer.
        sends = [None if b is None or b.empty else b for b in send_batches]
        recvs = [None if b is None or b.empty else b for b in recv_batches]

        def pull(batch: Optional[SegmentBatch]) -> Optional[np.ndarray]:
            if batch is None:
                return None
            if sendbuf is None:
                raise MPIError("alltoallw: non-empty send batch but no send buffer")
            ctx.charge(batch.total_bytes * touch)
            return gather_segments(sendbuf, batch)

        def push(batch: Optional[SegmentBatch], data: Optional[np.ndarray]) -> None:
            nbytes = 0 if data is None else int(data.size)
            expect = 0 if batch is None else batch.total_bytes
            if nbytes != expect:
                raise MPIError(
                    f"alltoallw: peer sent {nbytes} bytes, local batch expects {expect}"
                )
            if expect == 0:
                return
            if recvbuf is None:
                raise MPIError("alltoallw: non-empty recv batch but no recv buffer")
            ctx.charge(expect * touch)
            assert batch is not None and data is not None
            scatter_segments(recvbuf, batch, data)

        # Self-exchange first, then pairwise rounds.
        push(recvs[rank], pull(sends[rank]))
        for step in range(1, size):
            dst = (rank + step) % size
            src = (rank - step) % size
            if skip:
                # Keep legs matched without ever touching a skipped
                # peer: a skipped dst receives nothing from us, a
                # skipped src sends nothing to us.
                if dst not in skip:
                    self.isend(pull(sends[dst]), dst, _TAG_ALLTOALLW)
                if src not in skip:
                    push(recvs[src], self.recv(src, _TAG_ALLTOALLW))
                continue
            if sends[dst] is None and recvs[src] is None:
                # A leg empty on both sides (most of them under few
                # aggregators) still runs, so the rounds stay matched
                # and a peer sending bytes nobody expects is caught.
                received = self.sendrecv(None, dst, src, _TAG_ALLTOALLW, _TAG_ALLTOALLW)
                if received is not None:
                    push(None, received)
                continue
            received = self.sendrecv(
                pull(sends[dst]), dst, src, _TAG_ALLTOALLW, _TAG_ALLTOALLW
            )
            push(recvs[src], received)

    # -- helpers --------------------------------------------------------------
    def _check_root(self, root: int) -> None:
        if not (0 <= root < self.size):
            raise MPIError(f"root {root} out of range for size {self.size}")

    # Provided by Communicator; declared for type checkers.
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:  # pragma: no cover
        raise NotImplementedError

    def recv(self, source: int = -1, tag: int = -1) -> Any:  # pragma: no cover
        raise NotImplementedError

    def isend(self, obj: Any, dest: int, tag: int = 0):  # pragma: no cover
        raise NotImplementedError

    def sendrecv(self, sendobj, dest, source, sendtag=0, recvtag=-1):  # pragma: no cover
        raise NotImplementedError
