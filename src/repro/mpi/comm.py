"""Communicators and point-to-point messaging.

Message-matching semantics follow MPI: envelopes are (source, tag,
communicator); matching is FIFO per envelope (enforced globally with a
sequence number, which is deterministic under the engine's virtual-time
scheduling).  ``ANY_SOURCE``/``ANY_TAG`` wildcards select the earliest
matching message.  Each destination's mailbox is indexed by envelope,
so an exact-envelope receive is a dictionary lookup however many
messages are queued, and carries the :class:`~repro.sim.engine.Signal`
that the post path notifies to wake the destination's blocked receives.

Sends are buffered (they complete locally): the payload is copied on
enqueue, so sender reuse of a numpy buffer cannot corrupt data in
flight — the same guarantee a real MPI eager/rendezvous protocol gives.

Every message takes one post path (``_post``, under ``send`` and
``isend``) and one receive path (``_recv``, under ``recv``, ``irecv``'s
wait and ``sendrecv``); docs/architecture.md "What a message costs the
host" lists both in call order.
"""

from __future__ import annotations

import copy as _copy
from collections import deque
from functools import partial
from typing import Any, NamedTuple, Optional

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
from repro.mpi.network import SCALAR_TYPES, Network, payload_nbytes
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

#: What a blocked receive is reported as waiting for (formatted only
#: when a deadlock dump or ``MissedWakeup`` prints it).
_RECV_REASON = "{}(src={}, tag={}, comm={})"

#: Payload types a sender cannot change after the call: they travel as
#: the same object.  A tuple of them, or of such tuples, does too; a
#: list of them is copied shallow.
_IMMUTABLE = SCALAR_TYPES | {type(None), str, bytes}

#: The request every buffered send returns: already complete, value
#: ``None`` — and shared, since ``wait``/``test`` never change a done
#: request.
_SENT = Request.completed()


class _Message:
    __slots__ = ("src", "tag", "payload", "t_avail", "seq", "crc", "pristine")

    def __init__(
        self,
        src: int,
        tag: int,
        payload: Any,
        t_avail: float,
        seq: int,
        crc: Optional[int],
        pristine: Any,
    ):
        self.src = src
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
    the heads of the envelopes it admits.  A receive's predicate returns
    the FIFO whose head it will take."""

    __slots__ = ("by_envelope", "signal")

    def __init__(self) -> None:
        self.by_envelope: dict[tuple[int, int], deque[_Message]] = {}
        #: Notified on every enqueue; receives on this mailbox block on it.
        self.signal = Signal()

    def match(self, source: int, tag: int) -> Optional[deque]:
        """The FIFO headed by the earliest (by seq) queued message
        matching the envelope, or ``None``."""
        if source != ANY_SOURCE and tag != ANY_TAG:
            return self.by_envelope.get((source, tag))
        best: Optional[deque] = None
        for (src, t), fifo in self.by_envelope.items():
            if (source == ANY_SOURCE or src == source) and (tag == ANY_TAG or t == tag):
                if best is None or fifo[0].seq < best[0].seq:
                    best = fifo
        return best


class _CommState:
    """Shared (simulator-wide) state of one communicator."""

    __slots__ = ("mailboxes", "next_seq")

    def __init__(self, size: int) -> None:
        self.mailboxes = [_Mailbox() for _ in range(size)]
        self.next_seq = 0


class _Link(NamedTuple):
    """What a message to or from one peer costs under the model, fixed
    when the communicator is built (all peers share one record on a flat
    cluster, one per tier under a topology)."""

    send: float  # sender overhead of a blocking send
    post: float  # sender overhead of a posted (nonblocking) send
    recv: float  # receiver overhead of completing a receive
    byte_time: float  # fault-free transit seconds per payload byte
    #: The tier's (msgs, bytes) counters then the two totals, or ``None``
    #: when no topology is armed.
    wire: Optional[tuple]

    @classmethod
    def of(cls, net: Network, intra: bool, wire: Optional[tuple]) -> "_Link":
        return cls(
            net.send_overhead(intra),
            net.post_overhead(intra),
            net.recv_overhead(intra),
            net.byte_time(intra),
            wire,
        )


def _wire_form(obj: Any) -> tuple[int, Any, bool]:
    """Size, send-time snapshot and data-frame-ness of a payload.

    Dispatches on exact type.  An ndarray is copied and is a frame when
    non-empty; immutable payloads (scalars, ``str``, ``bytes``, tuples
    of them) travel as the same object and only non-empty ``bytes`` is
    a frame; a list of them, or of such tuples (an allgather's
    ``[None, (lo, hi), ...]`` blocks), needs only a copy of itself; a
    ``memoryview`` travels as its bytes, which is what the wire carries;
    anything else is deep-copied and asks
    :func:`~repro.integrity.corruptible`."""
    cls = type(obj)
    if cls is np.ndarray:
        return int(obj.nbytes), obj.copy(), obj.size > 0
    nbytes = payload_nbytes(obj)
    if cls in _IMMUTABLE:
        return nbytes, obj, cls is bytes and nbytes > 0
    if cls is tuple or cls is list:
        kinds = set(map(type, obj))
        if tuple in kinds:
            kinds = (kinds - {tuple}).union(*[map(type, x) for x in obj if type(x) is tuple])
        if _IMMUTABLE.issuperset(kinds):
            return nbytes, obj if cls is tuple else obj.copy(), False
    payload = obj.tobytes() if cls is memoryview else _copy.deepcopy(obj)
    return nbytes, payload, corruptible(payload)


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
        # Fault injection (delayed/dropped/corrupted messages), when a
        # plan is installed on this simulator.
        self._faults = ctx.shared.get(FAULTS_KEY)
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
        # Two-tier topology (CostModel.procs_per_node > 1): each peer's
        # link is its tier's, carrying that tier's wire-traffic counters.
        # A flat cluster has one link for every peer and no counters.
        self.topology: Optional[NodeTopology] = None
        if cost.procs_per_node > 1:
            self.topology = NodeTopology(cost.procs_per_node)
            nodes = [self.topology.node_of(w) for w in self.members]
            reg = metrics_registry(ctx.shared)
            totals = (reg.counter("net.msgs"), reg.counter("net.bytes"))
            inter = _Link.of(
                self.net, False,
                (reg.counter("net.inter.msgs"), reg.counter("net.inter.bytes"), *totals),
            )
            intra = _Link.of(
                self.net, True,
                (reg.counter("net.intra.msgs"), reg.counter("net.intra.bytes"), *totals),
            )
            self._links = tuple(intra if n == nodes[self.rank] else inter for n in nodes)
        else:
            self._links = (_Link.of(self.net, False, None),) * self.size
        #: Cached per-node subcommunicators keyed by procs_per_node.
        self._node_comms: dict[int, "Communicator"] = {}

    # -- point-to-point ----------------------------------------------------
    def _peer_error(self, peer: int, what: str) -> MPIError:
        return MPIError(f"{what} rank {peer} out of range for size {self.size}")

    def _note_wire(self, nbytes: int, wire: tuple) -> None:
        """Count one message on its tier and in the totals.  Wire bytes
        include the envelope: that is what makes "fewer, larger messages
        across nodes" measurable when the payload volume is conserved.
        ``net.intra.bytes + net.inter.bytes == net.bytes`` always."""
        size = nbytes + self.cost.net_envelope_bytes
        tier_msgs, tier_bytes, all_msgs, all_bytes = wire
        tier_msgs.value += 1
        tier_bytes.value += size
        all_msgs.value += 1
        all_bytes.value += size

    def _post(self, obj: Any, dest: int, tag: int, posted: bool) -> None:
        """The one post path: price, snapshot and enqueue one message
        (``posted`` is the nonblocking overhead)."""
        if not 0 <= dest < self.size:
            raise self._peer_error(dest, "destination")
        if obj is None:  # barrier tokens, empty exchange legs
            nbytes, payload, frame = 0, None, False
        else:
            nbytes, payload, frame = _wire_form(obj)
        link = self._links[dest]
        factor = self._collective_factor if tag >= COLLECTIVE_TAG_BASE else 1.0
        ctx = self.ctx
        now = ctx.charge((link.post if posted else link.send) * factor)
        delay = nbytes * link.byte_time * factor
        faults = self._faults
        if faults is not None:
            delay += faults.net_penalty(self.rank, dest, now, delay)
        t_avail = now + delay
        if link.wire is not None:
            self._note_wire(nbytes, link.wire)
        crc = pristine = None
        if frame:
            # Data frame (raw bytes on the wire).  Control messages are
            # tuples/scalars and are out of the corruption model — the
            # protection boundary and the threat model coincide.
            cfg = self._shared.get(INTEGRITY_KEY)
            if cfg is not None and cfg.network:
                crc = payload_crc(payload)
                now = ctx.charge(nbytes * self.cost.crc_byte_time)
            if faults is not None:
                draw = faults.corrupt_net(self.rank, dest, now)
                if draw is not None:
                    pristine = payload  # the sender's intact buffer
                    payload = flip_payload_bit(payload, draw)
        state = self._state
        msg = _Message(self.rank, tag, payload, t_avail, state.next_seq, crc, pristine)
        state.next_seq += 1
        mailbox = state.mailboxes[dest]
        fifo = mailbox.by_envelope.get((self.rank, tag))
        if fifo is None:
            mailbox.by_envelope[self.rank, tag] = deque((msg,))
        else:
            fifo.append(msg)
        mailbox.signal.notify()

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking (buffered) send: completes after the sender overhead."""
        self._post(obj, dest, tag, False)
        self.ctx.yield_now()

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send; buffered, so the request is already complete."""
        self._post(obj, dest, tag, True)
        return _SENT

    def _complete_recv(self, fifo: deque) -> Any:
        """Take the head of a matched envelope's FIFO and pay for it."""
        msg = fifo.popleft()
        if not fifo:
            del self._mailbox.by_envelope[msg.src, msg.tag]
        ctx = self.ctx
        ctx.charge_to(msg.t_avail)
        factor = self._collective_factor if msg.tag >= COLLECTIVE_TAG_BASE else 1.0
        link = self._links[msg.src]
        ctx.charge(link.recv * factor)
        if msg.crc is None:
            # Unprotected: a corrupted frame is delivered as-is — the
            # silent wrong answer the integrity_network hint exists to
            # prevent.
            return msg.payload
        nbytes = payload_nbytes(msg.payload)
        ctx.charge(nbytes * self.cost.crc_byte_time)
        if payload_crc(msg.payload) == msg.crc:
            return msg.payload
        return self._redeliver(msg, factor, nbytes, link)

    def _redeliver(self, msg: _Message, factor: float, nbytes: int, link: _Link) -> Any:
        """Bounded re-request of a frame whose checksum failed.

        Corruption on the wire is transient — the sender's buffered
        copy is intact — so the receiver NACKs and the sender
        retransmits, under the same retry/backoff machinery the I/O
        stack uses (each re-request can itself be corrupted and is
        redrawn from the fault plan).  Exhaustion surfaces as
        :class:`~repro.errors.RetryExhausted` from site ``net-frame``."""
        faults = self._faults
        if faults is not None:
            faults.note_net_corruption_detected()
        good = msg.pristine if msg.pristine is not None else msg.payload

        def attempt() -> Any:
            # One NACK to the sender plus a fresh transit of the frame;
            # advance (not charge) so the wait is scheduler-visible.
            transit = nbytes * link.byte_time * factor
            if faults is not None:
                transit += faults.net_penalty(msg.src, self.rank, self.ctx.now, transit)
            self.ctx.advance(link.send * factor + transit)
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
        return RetryPolicy(retries=cfg.net_retries).run(self.ctx, attempt)

    def _recv(self, source: int, tag: int, site: str) -> Any:
        """The one receive path, under recv, irecv's wait and sendrecv.

        An exact envelope's predicate is one dictionary lookup (no
        Python frame); a wildcard's compares the heads of the envelopes
        it admits.  With an armed per-collective deadline (the
        ``coll_deadline`` hint, installed as
        :data:`~repro.liveness.LIVENESS_KEY` state), the wait is timed:
        if no matching message can arrive within the budget, a typed
        :class:`~repro.errors.DeadlineExceeded` is raised instead of
        blocking forever on a stalled peer.  A message *queued* but only
        available past the deadline counts as missed too (it is the same
        hang, just scheduled).  Unarmed, the path is byte-identical to
        the untimed block."""
        mailbox = self._mailbox
        if source != ANY_SOURCE and tag != ANY_TAG:
            check = partial(mailbox.by_envelope.get, (source, tag))
        else:
            check = partial(mailbox.match, source, tag)
        ctx = self.ctx
        liv = self._shared.get(LIVENESS_KEY)
        deadline = liv.deadline_for(ctx.rank) if liv is not None else None
        fifo = ctx.block(
            check,
            reason=(_RECV_REASON, site, source, tag, self.comm_id),
            timeout_at=deadline,
            on=mailbox.signal,
        )
        if deadline is not None and (fifo is BLOCK_TIMEOUT or fifo[0].t_avail > deadline):
            ctx.charge_to(deadline)
            faults = self._shared.get(FAULTS_KEY)
            if faults is not None:
                faults.note_deadline_exceeded()
            raise DeadlineExceeded(
                f"{site}(src={source}, tag={tag})",
                ctx.rank,
                liv.phase_of(ctx.rank),
                liv.deadline,
            )
        return self._complete_recv(fifo)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive; returns the payload."""
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise self._peer_error(source, "source")
        return self._recv(source, tag, "recv")

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; ``wait()`` yields the payload."""
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise self._peer_error(source, "source")

        def test_fn() -> tuple[bool, Any]:
            fifo = self._mailbox.match(source, tag)
            if fifo is None:
                return False, None
            return True, self._complete_recv(fifo)

        return Request(wait_fn=partial(self._recv, source, tag, "irecv"), test_fn=test_fn)

    def sendrecv(
        self,
        sendobj: Any,
        dest: int,
        source: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Any:
        """Combined send+receive (deadlock-free with buffered sends)."""
        self.isend(sendobj, dest, sendtag)  # buffered: complete on return
        return self.recv(source, recvtag)

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
