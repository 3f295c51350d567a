"""Communicators and point-to-point messaging.

Message-matching semantics follow MPI: envelopes are (source, tag,
communicator); matching is FIFO per envelope (enforced globally with a
sequence number, which is deterministic under the engine's virtual-time
scheduling).  ``ANY_SOURCE``/``ANY_TAG`` wildcards select the earliest
matching message.  Each destination's mailbox is indexed by envelope,
so an exact-envelope receive is a dictionary lookup however many
messages are queued, and carries the :class:`~repro.sim.engine.Signal`
that ``_enqueue`` notifies to wake the destination's blocked receives.

Sends are buffered (they complete locally): the payload is copied on
enqueue, so sender reuse of a numpy buffer cannot corrupt data in
flight — the same guarantee a real MPI eager/rendezvous protocol gives.
"""

from __future__ import annotations

import copy as _copy
from collections import deque
from typing import Any, Optional

import numpy as np

from repro.config import CostModel, DEFAULT_COST_MODEL
from repro.errors import DeadlineExceeded, MPIError, TransientNetworkError
from repro.faults.plan import FAULTS_KEY
from repro.liveness import LIVENESS_KEY
from repro.integrity import (
    INTEGRITY_KEY,
    IntegrityConfig,
    corruptible,
    flip_payload_bit,
    payload_crc,
)
from repro.io.retry import RetryPolicy
from repro.mpi.collectives import CollectiveMixin
from repro.mpi.network import Network, payload_nbytes
from repro.mpi.request import Request
from repro.mpi.topology import NodeTopology
from repro.obs.metrics import metrics_registry
from repro.sim.engine import BLOCK_TIMEOUT, RankContext, Signal

__all__ = ["ANY_SOURCE", "ANY_TAG", "Communicator"]

ANY_SOURCE = -1
ANY_TAG = -1

_SHARED_KEY = "mpi-state"

#: Tags at or above this value belong to collective algorithms; their
#: per-message overheads are scaled by ``CostModel.net_collective_factor``
#: (the §5.4 "specialized collective network" knob).
COLLECTIVE_TAG_BASE = 1 << 20


class _Message:
    __slots__ = ("src", "dst", "tag", "payload", "t_avail", "seq", "crc", "pristine")

    def __init__(
        self,
        src: int,
        dst: int,
        tag: int,
        payload: Any,
        t_avail: float,
        seq: int,
        crc: Optional[int] = None,
        pristine: Any = None,
    ):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.payload = payload
        self.t_avail = t_avail
        self.seq = seq
        #: Frame checksum computed at send time (``integrity_network``
        #: armed and the payload is a data frame), else ``None``.
        self.crc = crc
        #: The uncorrupted payload copy when a bit flip was injected in
        #: flight — the sender's send buffer, which a re-request
        #: retransmits from.  ``None`` for clean messages.
        self.pristine = pristine


class _Mailbox:
    """One destination's queued messages, indexed by envelope.

    ``by_envelope[(src, tag)]`` is that envelope's FIFO (a key exists
    only while its deque is non-empty), so the head of a deque is the
    envelope's earliest message by ``seq``; a wildcard receive compares
    the heads of the envelopes it admits."""

    __slots__ = ("by_envelope", "signal")

    def __init__(self) -> None:
        self.by_envelope: dict[tuple[int, int], deque[_Message]] = {}
        #: Notified on every enqueue; receives on this mailbox block on it.
        self.signal = Signal()

    def put(self, msg: _Message) -> None:
        key = (msg.src, msg.tag)
        fifo = self.by_envelope.get(key)
        if fifo is None:
            self.by_envelope[key] = deque((msg,))
        else:
            fifo.append(msg)
        self.signal.notify()

    def match(self, source: int, tag: int) -> Optional[_Message]:
        """Earliest (by seq) queued message matching the envelope."""
        if source != ANY_SOURCE and tag != ANY_TAG:
            fifo = self.by_envelope.get((source, tag))
            return fifo[0] if fifo is not None else None
        best: Optional[_Message] = None
        for (src, t), fifo in self.by_envelope.items():
            if (source == ANY_SOURCE or src == source) and (tag == ANY_TAG or t == tag):
                if best is None or fifo[0].seq < best.seq:
                    best = fifo[0]
        return best

    def take(self, msg: _Message) -> None:
        key = (msg.src, msg.tag)
        fifo = self.by_envelope[key]
        if fifo[0] is msg:
            fifo.popleft()
        else:
            fifo.remove(msg)
        if not fifo:
            del self.by_envelope[key]


class _CommState:
    """Shared (simulator-wide) state of one communicator."""

    __slots__ = ("mailboxes", "next_seq")

    def __init__(self, size: int) -> None:
        self.mailboxes = [_Mailbox() for _ in range(size)]
        self.next_seq = 0


def _copy_payload(obj: Any) -> Any:
    """Snapshot a payload so in-flight data is immune to sender reuse."""
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, np.ndarray):
        return obj.copy()
    return _copy.deepcopy(obj)


class Communicator(CollectiveMixin):
    """An MPI-style communicator bound to one rank's context.

    Every rank constructs its own ``Communicator(ctx)`` for the world;
    shared matching state is interned in the simulator's ``shared``
    dictionary keyed by the communicator id, so all ranks' instances
    address the same queues.
    """

    def __init__(
        self,
        ctx: RankContext,
        cost: CostModel = DEFAULT_COST_MODEL,
        *,
        _comm_id: str = "world",
        _rank: Optional[int] = None,
        _members: Optional[tuple[int, ...]] = None,
    ) -> None:
        self.ctx = ctx
        self.cost = cost
        self.net = Network(cost)
        # Fault injection (delayed/dropped messages), when a plan is
        # installed on this simulator.
        self.net.faults = ctx.shared.get(FAULTS_KEY)
        self.comm_id = _comm_id
        #: World ranks of the members, indexed by communicator rank.
        self.members = _members if _members is not None else tuple(range(ctx.nprocs))
        self.rank = _rank if _rank is not None else ctx.rank
        self.size = len(self.members)
        registry = ctx.shared.setdefault(_SHARED_KEY, {})
        if _comm_id not in registry:
            registry[_comm_id] = _CommState(self.size)
        self._state: _CommState = registry[_comm_id]
        if len(self._state.mailboxes) != self.size:
            raise MPIError(
                f"communicator {_comm_id!r} size mismatch across ranks"
            )
        self._mailbox = self._state.mailboxes[self.rank]
        # Session-level state (integrity, liveness) is installed in
        # ``shared`` when the file opens — after this constructor — so
        # it is looked up per use, but through the mapping bound once.
        self._shared = ctx.shared
        self._collective_factor = cost.net_collective_factor
        # Collective split/dup sequence number.  Per-rank, not shared:
        # split is collective, so every member makes the same sequence of
        # calls and derives the same child communicator id.
        self._split_count = 0
        # Two-tier topology (CostModel.procs_per_node > 1): node id per
        # communicator rank, plus the run's wire-traffic counters.  Flat
        # clusters keep all three None — the send/recv fast path tests
        # one attribute and pays nothing else.
        self.topology: Optional[NodeTopology] = None
        #: Per communicator rank: does it share a node with me?
        self._intra_with: Optional[tuple[bool, ...]] = None
        #: Indexed by ``intra``: that tier's (msgs, bytes) counters, then
        #: the two totals.
        self._wire = None
        if cost.procs_per_node > 1:
            self.topology = NodeTopology(cost.procs_per_node)
            nodes = [self.topology.node_of(w) for w in self.members]
            self._intra_with = tuple(n == nodes[self.rank] for n in nodes)
            reg = metrics_registry(ctx.shared)
            totals = (reg.counter("net.msgs"), reg.counter("net.bytes"))
            self._wire = (
                (reg.counter("net.inter.msgs"), reg.counter("net.inter.bytes"), *totals),
                (reg.counter("net.intra.msgs"), reg.counter("net.intra.bytes"), *totals),
            )
        #: Cached per-node subcommunicators keyed by procs_per_node.
        self._node_comms: dict[int, "Communicator"] = {}

    # -- point-to-point ----------------------------------------------------
    def _check_peer(self, peer: int, what: str) -> None:
        if not (0 <= peer < self.size):
            raise MPIError(f"{what} rank {peer} out of range for size {self.size}")

    def _enqueue(self, dest: int, tag: int, obj: Any, t_avail: float) -> None:
        state = self._state
        payload = _copy_payload(obj)
        crc = None
        pristine = None
        if corruptible(payload):
            # Data frame (raw bytes on the wire).  Control messages are
            # tuples/scalars and are out of the corruption model — the
            # protection boundary and the threat model coincide.
            cfg = self._shared.get(INTEGRITY_KEY)
            if cfg is not None and cfg.network:
                crc = payload_crc(payload)
                self.ctx.charge(payload_nbytes(payload) * self.cost.crc_byte_time)
            faults = self.net.faults
            if faults is not None:
                draw = faults.corrupt_net(self.rank, dest, self.ctx.now)
                if draw is not None:
                    pristine = payload  # the sender's intact buffer
                    payload = flip_payload_bit(payload, draw)
        msg = _Message(
            self.rank, dest, tag, payload, t_avail, state.next_seq, crc, pristine
        )
        state.next_seq += 1
        state.mailboxes[dest].put(msg)

    def _note_wire(self, nbytes: int, intra: bool) -> None:
        """Count one message on its tier and in the totals.  Wire bytes
        include the envelope: that is what makes "fewer, larger messages
        across nodes" measurable when the payload volume is conserved.
        ``net.intra.bytes + net.inter.bytes == net.bytes`` always."""
        wire = nbytes + self.cost.net_envelope_bytes
        tier_msgs, tier_bytes, all_msgs, all_bytes = self._wire[intra]
        tier_msgs.value += 1
        tier_bytes.value += wire
        all_msgs.value += 1
        all_bytes.value += wire

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking (buffered) send: completes after the sender overhead."""
        self._check_peer(dest, "destination")
        nbytes = payload_nbytes(obj)
        factor = self._collective_factor if tag >= COLLECTIVE_TAG_BASE else 1.0
        intra_with = self._intra_with
        intra = intra_with is not None and intra_with[dest]
        self.ctx.charge(self.net.send_overhead(intra) * factor)
        delay = self.net.delivery_delay(
            nbytes, self.rank, dest, self.ctx.now, factor, intra
        )
        if self._wire is not None:
            self._note_wire(nbytes, intra)
        self._enqueue(dest, tag, obj, self.ctx.now + delay)
        self.ctx.yield_now()

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send; buffered, so the request is already complete."""
        self._check_peer(dest, "destination")
        nbytes = payload_nbytes(obj)
        factor = self._collective_factor if tag >= COLLECTIVE_TAG_BASE else 1.0
        intra_with = self._intra_with
        intra = intra_with is not None and intra_with[dest]
        self.ctx.charge(self.net.post_overhead(intra) * factor)
        delay = self.net.delivery_delay(
            nbytes, self.rank, dest, self.ctx.now, factor, intra
        )
        if self._wire is not None:
            self._note_wire(nbytes, intra)
        self._enqueue(dest, tag, obj, self.ctx.now + delay)
        return Request.completed()

    def _complete_recv(self, msg: _Message) -> Any:
        self._mailbox.take(msg)
        self.ctx.charge_to(msg.t_avail)
        factor = self._collective_factor if msg.tag >= COLLECTIVE_TAG_BASE else 1.0
        intra_with = self._intra_with
        intra = intra_with is not None and intra_with[msg.src]
        self.ctx.charge(self.net.recv_overhead(intra) * factor)
        if msg.crc is None:
            # Unprotected: a corrupted frame is delivered as-is — the
            # silent wrong answer the integrity_network hint exists to
            # prevent.
            return msg.payload
        nbytes = payload_nbytes(msg.payload)
        self.ctx.charge(nbytes * self.cost.crc_byte_time)
        if payload_crc(msg.payload) == msg.crc:
            return msg.payload
        return self._redeliver(msg, factor, nbytes, intra)

    def _redeliver(self, msg: _Message, factor: float, nbytes: int, intra: bool) -> Any:
        """Bounded re-request of a frame whose checksum failed.

        Corruption on the wire is transient — the sender's buffered
        copy is intact — so the receiver NACKs and the sender
        retransmits, under the same retry/backoff machinery the I/O
        stack uses (each re-request can itself be corrupted and is
        redrawn from the fault plan).  Exhaustion surfaces as
        :class:`~repro.errors.RetryExhausted` from site ``net-frame``."""
        faults = self.net.faults
        if faults is not None:
            faults.note_net_corruption_detected()
        good = msg.pristine if msg.pristine is not None else msg.payload

        def attempt() -> Any:
            # One NACK to the sender plus a fresh transit of the frame;
            # advance (not charge) so the wait is scheduler-visible.
            self.ctx.advance(
                self.net.send_overhead(intra) * factor
                + self.net.delivery_delay(
                    nbytes, msg.src, self.rank, self.ctx.now, factor, intra
                )
            )
            payload = good
            if faults is not None:
                draw = faults.corrupt_net(msg.src, self.rank, self.ctx.now)
                if draw is not None:
                    payload = flip_payload_bit(good, draw)
            self.ctx.charge(nbytes * self.cost.crc_byte_time)
            if payload_crc(payload) != msg.crc:
                if faults is not None:
                    faults.note_net_corruption_detected()
                raise TransientNetworkError("net-frame", self.rank)
            if faults is not None:
                faults.note_net_redelivery()
            return payload

        cfg = self._shared.get(INTEGRITY_KEY) or IntegrityConfig(network=True)
        policy = RetryPolicy(
            retries=cfg.net_retries,
            backoff=cfg.net_backoff,
            backoff_max=cfg.net_backoff_max,
        )
        return policy.run(self.ctx, attempt)

    def _blocking_recv(self, source: int, tag: int, site: str) -> Any:
        """The shared blocking path of recv/irecv-wait.

        With an armed per-collective deadline (the ``coll_deadline``
        hint, installed as :data:`~repro.liveness.LIVENESS_KEY` state),
        the wait is timed: if no matching message can arrive within the
        budget, a typed :class:`~repro.errors.DeadlineExceeded` is
        raised instead of blocking forever on a stalled peer.  A
        message *queued* but only available past the deadline counts as
        missed too (it is the same hang, just scheduled).  Unarmed, the
        path is byte-identical to the untimed block."""
        reason = f"{site}(src={source}, tag={tag}, comm={self.comm_id})"
        mailbox = self._mailbox
        liv = self._shared.get(LIVENESS_KEY)
        deadline = liv.deadline_for(self.ctx.rank) if liv is not None else None
        msg = self.ctx.block(
            lambda: mailbox.match(source, tag),
            reason=reason,
            timeout_at=deadline,
            on=mailbox.signal,
        )
        if deadline is not None and (msg is BLOCK_TIMEOUT or msg.t_avail > deadline):
            self.ctx.charge_to(deadline)
            faults = self._shared.get(FAULTS_KEY)
            if faults is not None:
                faults.note_deadline_exceeded()
            raise DeadlineExceeded(
                f"{site}(src={source}, tag={tag})",
                self.ctx.rank,
                liv.phase_of(self.ctx.rank),
                liv.config.deadline,
            )
        return self._complete_recv(msg)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive; returns the payload."""
        if source != ANY_SOURCE:
            self._check_peer(source, "source")
        return self._blocking_recv(source, tag, "recv")

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; ``wait()`` yields the payload."""
        if source != ANY_SOURCE:
            self._check_peer(source, "source")

        def wait_fn() -> Any:
            return self._blocking_recv(source, tag, "irecv")

        def test_fn() -> tuple[bool, Any]:
            msg = self._mailbox.match(source, tag)
            if msg is None:
                return False, None
            return True, self._complete_recv(msg)

        return Request(wait_fn=wait_fn, test_fn=test_fn)

    def sendrecv(
        self,
        sendobj: Any,
        dest: int,
        source: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Any:
        """Combined send+receive (deadlock-free with buffered sends)."""
        req = self.isend(sendobj, dest, sendtag)
        value = self.recv(source, recvtag)
        req.wait()
        return value

    # -- communicator management ---------------------------------------------
    def dup(self) -> "Communicator":
        """A congruent communicator with an isolated message space."""
        return self.split(color=0, key=self.rank, _label="dup")

    def split(self, color: int, key: Optional[int] = None, _label: str = "split") -> Optional["Communicator"]:
        """Collective split (MPI_Comm_split semantics).

        Returns the new communicator, or ``None`` for ``color < 0``
        (MPI_UNDEFINED).  New ranks order members by (key, old rank).
        """
        if key is None:
            key = self.rank
        # Every member learns everyone's (color, key); allgather keeps
        # this collective and deterministic.
        entries = self.allgather((color, key))
        sub_index = self._split_count
        self._split_count += 1
        if color < 0:
            return None
        group = sorted(
            (k, r) for r, (c, k) in enumerate(entries) if c == color
        )
        ranks = tuple(r for _, r in group)
        my_new_rank = ranks.index(self.rank)
        members = tuple(self.members[r] for r in ranks)
        comm_id = f"{self.comm_id}/{_label}{sub_index}:c{color}"
        return Communicator(
            self.ctx,
            self.cost,
            _comm_id=comm_id,
            _rank=my_new_rank,
            _members=members,
        )

    def node_subcomm(self, topology: Optional[NodeTopology] = None) -> "Communicator":
        """The per-node subcommunicator carving this communicator by node.

        Collective (built on :meth:`split`) and cached per
        ``procs_per_node``: the first two-layer exchange carves the
        node groups, later calls reuse them.  Node rank 0 — the lowest
        communicator rank on the node — is the deterministic node
        leader.  Falls back to the communicator's own topology when
        none is given; a flat cluster (no topology anywhere) degrades
        to one node per rank.
        """
        topo = topology if topology is not None else self.topology
        ppn = topo.procs_per_node if topo is not None else 1
        cached = self._node_comms.get(ppn)
        if cached is not None:
            return cached
        color = topo.node_of(self.members[self.rank]) if topo is not None else self.rank
        sub = self.split(color, _label="node")
        assert sub is not None  # color is never negative here
        self._node_comms[ppn] = sub
        return sub

    def __repr__(self) -> str:
        return f"<Communicator {self.comm_id!r} rank={self.rank}/{self.size}>"
