"""I/O aggregator selection.

Which processes act as aggregators is "left up to the implementation,
which in turn may choose to defer to the user" — here the ``cb_nodes``
hint.  Aggregators are spread evenly across the rank space (the ROMIO
default when one process per node is chosen), which keeps them spread
across the machine's nodes in the common block rank-placement.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CollectiveIOError
from repro.mpi.topology import NodeTopology

__all__ = ["select_aggregators"]


def select_aggregators(
    size: int, cb_nodes: int, topology: Optional[NodeTopology] = None
) -> list[int]:
    """Ranks acting as aggregators.

    ``cb_nodes == 0`` (the hint default) means every process
    aggregates; otherwise ``cb_nodes`` ranks evenly spaced across the
    rank space (ROMIO's default choice of one process per node under
    block placement).

    With an armed node ``topology`` the spread becomes *leader-aware*:
    aggregators land on node leaders first (lowest rank per node, nodes
    evenly spaced), so the two-layer exchange's leader↔aggregator hop
    is free whenever an aggregator count up to the node count allows
    it.  Beyond one per node, additional aggregators fill nodes
    round-robin.
    """
    if size <= 0:
        raise CollectiveIOError(f"communicator size must be positive, got {size}")
    if cb_nodes < 0:
        raise CollectiveIOError(f"cb_nodes must be non-negative, got {cb_nodes}")
    naggs = size if cb_nodes == 0 else min(cb_nodes, size)
    if naggs == size:
        return list(range(size))
    if topology is not None and topology.procs_per_node > 1:
        return _spread_on_leaders(size, naggs, topology)
    return sorted({(i * size) // naggs for i in range(naggs)})


def _spread_on_leaders(size: int, naggs: int, topology: NodeTopology) -> list[int]:
    """Leader-first spread: one aggregator per evenly spaced node, then
    fill nodes round-robin with their next-lowest ranks."""
    groups = topology.groups(tuple(range(size)))
    node_ids = sorted(groups)
    nnodes = len(node_ids)
    if naggs <= nnodes:
        chosen_nodes = sorted({(i * nnodes) // naggs for i in range(naggs)})
        picked = [groups[node_ids[n]][0] for n in chosen_nodes]
        # Spacing collisions can under-fill; take remaining leaders in order.
        if len(picked) < naggs:
            for nid in node_ids:
                leader = groups[nid][0]
                if leader not in picked:
                    picked.append(leader)
                if len(picked) == naggs:
                    break
        return sorted(picked)
    picked = [groups[nid][0] for nid in node_ids]
    depth = 1
    while len(picked) < naggs:
        progressed = False
        for nid in node_ids:
            members = groups[nid]
            if depth < len(members):
                picked.append(members[depth])
                progressed = True
                if len(picked) == naggs:
                    break
        if not progressed:
            break
        depth += 1
    return sorted(picked[:naggs])
