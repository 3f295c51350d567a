"""Node topology: which ranks share a node.

The simulated cluster is flat by default (``CostModel.procs_per_node ==
1``: every rank is its own node).  Arming ``procs_per_node > 1`` groups
*world* ranks into nodes — node of world rank ``r`` is
``r // procs_per_node`` — which gives the network two tiers: messages
between ranks sharing a node use the cheap intra-node parameters
(``net_intra_latency``/``net_intra_byte_time``), everything else pays
the flat inter-node cost.  The two-layer exchange
(:mod:`repro.core.exchange`) uses the same grouping to elect per-node
leaders.

Wire traffic split by tier is counted where it is sent
(:class:`~repro.mpi.comm.Communicator`, the ``net.*`` series).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["NodeTopology", "resolve_topology"]


@dataclass(frozen=True)
class NodeTopology:
    """Immutable rank→node mapping (pure function of ``procs_per_node``).

    All grouping is in terms of *world* ranks, so every communicator —
    the world, a per-node subcommunicator, a split — agrees on who
    shares a node with whom.
    """

    procs_per_node: int

    def node_of(self, world_rank: int) -> int:
        return world_rank // self.procs_per_node

    def same_node(self, world_a: int, world_b: int) -> bool:
        return self.node_of(world_a) == self.node_of(world_b)

    def groups(self, members: tuple) -> Dict[int, List[int]]:
        """Communicator ranks grouped by node id, each group ascending.

        ``members[i]`` is the world rank of communicator rank ``i`` (the
        :class:`~repro.mpi.comm.Communicator` convention); the returned
        dict maps node id → ascending communicator ranks, so
        ``groups[nid][0]`` is the deterministic node leader (lowest
        communicator rank on the node).
        """
        out: Dict[int, List[int]] = {}
        for comm_rank, world_rank in enumerate(members):
            out.setdefault(self.node_of(world_rank), []).append(comm_rank)
        return out


def resolve_topology(hints, cost) -> Optional[NodeTopology]:
    """Effective node topology for one collective file.

    The ``procs_per_node`` hint (when positive) overrides the cost
    model's value, so tests and experiments can vary the *grouping*
    without re-pricing the network; ``0`` inherits
    ``CostModel.procs_per_node``.  Returns ``None`` when the effective
    value is 1 — flat cluster, no topology machinery.
    """
    ppn = int(hints["procs_per_node"]) if hints is not None else 0
    if ppn <= 0:
        ppn = cost.procs_per_node
    if ppn <= 1:
        return None
    return NodeTopology(ppn)
