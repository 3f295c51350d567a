"""Data-exchange phase backends (§5.4).

Two interchangeable implementations of "move these byte ranges between
every client's buffer and every aggregator's collective buffer":

* ``alltoallw`` — drives :meth:`Communicator.alltoallw`: non-contiguous
  regions move straight between the user/collective buffers with no
  intermediate pack buffer (the datatype engine's per-byte touch is the
  only CPU cost).  This is the path that benefits machines with
  collective-optimized networks (BG/L's dedicated collective network in
  the paper's discussion).
* ``nonblocking`` — isend/irecv per peer with explicit pack/unpack
  buffers; a fraction of the pack cost is hidden by overlapping
  communication with the address computation
  (``CostModel.net_overlap_factor`` is the fraction still charged).
* ``two_layer`` — topology-aware intra-node aggregation (Kang et al.):
  each rank packs and coalesces its per-peer segments, the node's
  elected leader gathers them over the cheap intra-node tier, leaders
  exchange the combined frames pairwise over the inter-node tier, and
  the mirrored scatter delivers each frame to its destination rank.
  Same bytes in the same order as the flat modes — only *who carries
  them across nodes* changes, which is what cuts inter-node message
  count and envelope traffic.

All modes move identical bytes; only the cost structure differs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import CostModel
from repro.datatypes.packing import gather_segments, scatter_segments
from repro.datatypes.segments import SegmentBatch
from repro.errors import CollectiveIOError
from repro.mpi.comm import Communicator
from repro.mpi.request import waitall
from repro.mpi.topology import NodeTopology
from repro.obs.metrics import metrics_registry

__all__ = ["exchange_data", "EXCHANGE_MODES"]

EXCHANGE_MODES = ("alltoallw", "nonblocking", "two_layer")

_TAG_DATA = (1 << 19) + 3  # library p2p range: below COLLECTIVE_TAG_BASE
#: Leader↔leader frame exchange: collective range, so the inter-node
#: tier of the two-layer exchange rides the collective-network factor
#: exactly like the alltoallw it replaces.  The routing header and the
#: combined data frame travel on separate tags.
_TAG_TWO_LAYER = (1 << 20) + 8
_TAG_TWO_LAYER_DATA = (1 << 20) + 9

_EMPTY_FRAME = np.empty(0, dtype=np.uint8)


def exchange_data(
    comm: Communicator,
    cost: CostModel,
    mode: str,
    sendbuf: Optional[np.ndarray],
    send_batches: Sequence[Optional[SegmentBatch]],
    recvbuf: Optional[np.ndarray],
    recv_batches: Sequence[Optional[SegmentBatch]],
    skip: frozenset = frozenset(),
    topology: Optional[NodeTopology] = None,
) -> int:
    """Run one exchange round; returns bytes this rank sent.

    ``send_batches[p]`` addresses bytes of ``sendbuf`` destined for peer
    ``p``; ``recv_batches[p]`` addresses where peer ``p``'s bytes land
    in ``recvbuf``.  Batches must agree pairwise on byte counts (their
    data_offsets are order keys; both sides order by the client's
    monotonic file order).  Every rank must call this, every round.

    ``skip`` names ranks excluded from the exchange (their batches
    must already be None/empty).  The alltoallw backend needs the set
    explicitly to keep its pairwise rounds matched; the nonblocking
    backend only posts non-empty batches, so empty batches exclude a
    rank automatically.  The two_layer backend cannot route around a
    missing leader: the round loop gives such a round to alltoallw
    (rule ``suspects.two_layer``), and asking for it here is an error.

    ``topology`` selects the node grouping for ``two_layer`` (defaults
    to the communicator's cost-model topology; a flat cluster degrades
    to per-rank leaders, which is still correct, just not cheaper)."""
    if mode not in EXCHANGE_MODES:
        raise CollectiveIOError(f"unknown exchange mode {mode!r}; options {EXCHANGE_MODES}")
    sent = sum(b.total_bytes for b in send_batches if b is not None)
    if mode == "alltoallw":
        comm.alltoallw(sendbuf, list(send_batches), recvbuf, list(recv_batches), skip=skip)
        return sent
    if mode == "two_layer":
        if skip:
            raise CollectiveIOError(
                f"two_layer exchange cannot skip ranks {sorted(skip)}"
            )
        _two_layer(comm, cost, sendbuf, send_batches, recvbuf, recv_batches, topology)
        return sent
    _nonblocking(comm, cost, sendbuf, send_batches, recvbuf, recv_batches)
    return sent


def _nonblocking(
    comm: Communicator,
    cost: CostModel,
    sendbuf: Optional[np.ndarray],
    send_batches: Sequence[Optional[SegmentBatch]],
    recvbuf: Optional[np.ndarray],
    recv_batches: Sequence[Optional[SegmentBatch]],
) -> None:
    ctx = comm.ctx
    rank = comm.rank
    pack_rate = cost.cpu_per_byte_touch + cost.cpu_per_byte_copy * cost.net_overlap_factor

    def pack(batch: SegmentBatch) -> np.ndarray:
        if sendbuf is None:
            raise CollectiveIOError("nonblocking exchange: send batch without a buffer")
        ctx.charge(batch.total_bytes * pack_rate)
        return gather_segments(sendbuf, batch)

    def unpack(batch: SegmentBatch, data: np.ndarray) -> None:
        if data.size != batch.total_bytes:
            raise CollectiveIOError(
                f"nonblocking exchange: got {data.size} bytes, expected {batch.total_bytes}"
            )
        if recvbuf is None:
            raise CollectiveIOError("nonblocking exchange: recv batch without a buffer")
        ctx.charge(batch.total_bytes * pack_rate)
        scatter_segments(recvbuf, batch, data)

    # Local transfer needs no messages.
    my_send = send_batches[rank]
    my_recv = recv_batches[rank]
    if my_send is not None and not my_send.empty:
        if my_recv is None or my_recv.total_bytes != my_send.total_bytes:
            raise CollectiveIOError("self-exchange batches disagree")
        unpack(my_recv, pack(my_send))

    # Post everything, then wait — the old code's structure, kept here
    # because the nonblocking backend serves both implementations.
    recv_reqs = []
    for peer in range(comm.size):
        b = recv_batches[peer]
        if peer != rank and b is not None and not b.empty:
            recv_reqs.append((peer, b, comm.irecv(peer, _TAG_DATA)))
    send_reqs = []
    for peer in range(comm.size):
        b = send_batches[peer]
        if peer != rank and b is not None and not b.empty:
            send_reqs.append(comm.isend(pack(b), peer, _TAG_DATA))
    for peer, b, req in recv_reqs:
        unpack(b, req.wait())
    waitall(send_reqs)


def _two_layer(
    comm: Communicator,
    cost: CostModel,
    sendbuf: Optional[np.ndarray],
    send_batches: Sequence[Optional[SegmentBatch]],
    recvbuf: Optional[np.ndarray],
    recv_batches: Sequence[Optional[SegmentBatch]],
    topology: Optional[NodeTopology],
) -> None:
    """Three-phase topology-aware exchange.

    A. every rank coalesces + packs one frame per destination and the
       node leader gathers them (intra-node tier);
    B. leaders route frames by destination *node* and exchange the
       per-node bundles pairwise (inter-node tier; every leader pair
       exchanges every round — empty bundles travel as ``None`` — so
       the legs stay matched without any advance agreement on who has
       data for whom);
    C. the destination leader splits its inbound bundle per member and
       scatters (intra-node tier); each member unpacks per source.

    Frames are kept per (source, destination) pair end to end: the two
    sides of a pairing agree on byte order only through their own
    data_offsets keys, which are not comparable *across* pairings, so
    merging frames from different sources would be unsound.  What the
    leader does merge is the message count — and coalescing shrinks the
    per-frame bookkeeping — which is exactly the inter-node saving.
    """
    ctx = comm.ctx
    rank = comm.rank
    reg = metrics_registry(ctx.shared)
    reg.counter("exchange.two_layer.rounds").inc()
    # offset/length runs entering / leaving phase A's per-frame coalescing.
    runs_in = reg.counter("exchange.coalesce.runs_in")
    runs_out = reg.counter("exchange.coalesce.runs_out")
    pack_rate = cost.cpu_per_byte_touch + cost.cpu_per_byte_copy * cost.net_overlap_factor

    topo = topology if topology is not None else comm.topology
    layered = topo is not None and topo.procs_per_node > 1
    if layered:
        node_of = [topo.node_of(w) for w in comm.members]
    else:
        # Flat cluster: every rank leads its own one-member node.
        node_of = list(range(comm.size))
    groups: dict = {}
    for cr in range(comm.size):
        groups.setdefault(node_of[cr], []).append(cr)
    node_ids = sorted(groups)
    leaders = {nid: groups[nid][0] for nid in node_ids}
    my_node = node_of[rank]
    node_ranks = groups[my_node]

    # -- phase A: coalesce, pack, gather to the node leader ---------------
    frames: List[Tuple[int, np.ndarray]] = []
    for dst in range(comm.size):
        b = send_batches[dst]
        if b is None or b.empty:
            continue
        if sendbuf is None:
            raise CollectiveIOError("two_layer exchange: send batch without a buffer")
        cb = b.coalesce()
        runs_in.inc(b.num_segments)
        runs_out.inc(cb.num_segments)
        # One pass over the runs to merge them, then the pack itself.
        ctx.charge(b.num_segments * cost.cpu_per_flat_pair)
        ctx.charge(cb.total_bytes * pack_rate)
        frames.append((dst, gather_segments(sendbuf, cb)))
    if layered:
        node_comm = comm.node_subcomm(topo)
        gathered = node_comm.gather(frames, root=0)
        is_leader = node_comm.rank == 0
    else:
        node_comm = None
        gathered = [frames]
        is_leader = True

    # -- phase B: leaders bundle by destination node, pairwise exchange ---
    inbound: List[Tuple[int, int, np.ndarray]] = []
    if is_leader:
        by_node: dict = {nid: [] for nid in node_ids}
        for local_i, member_frames in enumerate(gathered):
            src = node_ranks[local_i]
            for dst, blob in member_frames:
                # Leader-side routing bookkeeping, one record per frame.
                ctx.charge(cost.cpu_heap_op)
                by_node[node_of[dst]].append((dst, src, blob))
        inbound.extend(by_node[my_node])
        my_li = node_ids.index(my_node)
        nleaders = len(node_ids)
        for step in range(1, nleaders):
            dst_nid = node_ids[(my_li + step) % nleaders]
            src_nid = node_ids[(my_li - step) % nleaders]
            outbound = by_node[dst_nid]
            # The routing header is a control message; the payload
            # travels as ONE raw combined frame per leader pair, so the
            # wire corruption model (and the ``integrity_network`` frame
            # checksums) cover the two-layer path exactly like the flat
            # modes' packed sends.  The data leg always runs — an empty
            # frame when there is nothing to say — keeping the pairwise
            # legs matched with no advance agreement.
            header = [(dst, src, blob.size) for dst, src, blob in outbound] or None
            if outbound:
                cat = np.concatenate([blob for _, _, blob in outbound])
                ctx.charge(cat.nbytes * cost.cpu_per_byte_copy)
            else:
                cat = _EMPTY_FRAME
            data_req = comm.isend(cat, leaders[dst_nid], _TAG_TWO_LAYER_DATA)
            got = comm.sendrecv(
                header,
                leaders[dst_nid],
                leaders[src_nid],
                _TAG_TWO_LAYER,
                _TAG_TWO_LAYER,
            )
            got_cat = comm.recv(leaders[src_nid], _TAG_TWO_LAYER_DATA)
            data_req.wait()
            if got:
                pos = 0
                for dst, src, size in got:
                    inbound.append((dst, src, got_cat[pos : pos + size]))
                    pos += size
                if pos != got_cat.size:
                    raise CollectiveIOError(
                        f"two_layer exchange: leader frame size mismatch "
                        f"({got_cat.size} bytes for a {pos}-byte header)"
                    )

    # -- phase C: scatter per member, unpack per source -------------------
    if node_comm is not None:
        if is_leader:
            per_member: dict = {cr: [] for cr in node_ranks}
            for dst, src, blob in inbound:
                per_member[dst].append((src, blob))
            objs: Optional[list] = [
                sorted(per_member[cr], key=lambda t: t[0]) for cr in node_ranks
            ]
        else:
            objs = None
        mine = node_comm.scatter(objs, root=0)
    else:
        mine = sorted(((src, blob) for _, src, blob in inbound), key=lambda t: t[0])

    expected = {
        src
        for src in range(comm.size)
        if recv_batches[src] is not None and not recv_batches[src].empty
    }
    delivered = set()
    for src, blob in mine:
        b = recv_batches[src]
        if b is None or b.empty:
            raise CollectiveIOError(
                f"two_layer exchange: unexpected data from rank {src}"
            )
        if recvbuf is None:
            raise CollectiveIOError("two_layer exchange: recv batch without a buffer")
        cb = b.coalesce()
        if blob.size != cb.total_bytes:
            raise CollectiveIOError(
                f"two_layer exchange: got {blob.size} bytes from rank {src}, "
                f"expected {cb.total_bytes}"
            )
        ctx.charge(b.num_segments * cost.cpu_per_flat_pair)
        ctx.charge(cb.total_bytes * pack_rate)
        scatter_segments(recvbuf, cb, blob)
        delivered.add(src)
    missing = expected - delivered
    if missing:
        raise CollectiveIOError(
            f"two_layer exchange: no data arrived from ranks {sorted(missing)}"
        )
