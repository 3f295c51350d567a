"""Network cost model and payload sizing.

The model is LogP-flavoured: the sender pays a fixed overhead, the
message spends ``bytes * net_byte_time`` in transit, and the receiver
pays a fixed overhead on completion.  All parameters come from
:class:`repro.config.CostModel` so experiments can vary the network
without touching communication code.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.config import CostModel, DEFAULT_COST_MODEL

__all__ = ["payload_nbytes", "Network"]

#: The exact scalar types, Python's and numpy's (``np.bool_`` included):
#: immutable, and 8 bytes on the wire.
SCALAR_TYPES = frozenset({bool, int, float}) | frozenset(
    t for t in set(np.sctypeDict.values()) if issubclass(t, (np.bool_, np.integer, np.floating))
)

#: Exact types priced without inspection: ``None`` is free.
_FIXED_NBYTES = {type(None): 0, **dict.fromkeys(SCALAR_TYPES, 8)}


def payload_nbytes(obj: object) -> int:
    """Deterministic wire size of a message payload in bytes.

    numpy arrays, byte strings and memoryviews are exact; scalars are 8;
    containers sum their elements plus a small per-element header;
    anything else falls back to its pickle length.

    Containers are sized independently of iteration order: dict items
    and set elements are visited in sorted-key order, so two logically
    equal payloads built in different insertion orders (or under
    different ``PYTHONHASHSEED``) always price identically — a payload
    whose cost depended on hash order would silently break run-to-run
    determinism of every virtual timestamp downstream of the message.
    """
    fixed = _FIXED_NBYTES.get(type(obj))
    if fixed is not None:
        return fixed
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        total = 8
        for x in obj:
            fixed = _FIXED_NBYTES.get(type(x))
            total += fixed if fixed is not None else payload_nbytes(x)
        return total
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, memoryview):
        return obj.nbytes
    if isinstance(obj, (bool, int, float, np.bool_, np.integer, np.floating)):
        return 8
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: repr(kv[0]))
        return 8 + sum(payload_nbytes(k) + payload_nbytes(v) for k, v in items)
    if isinstance(obj, (set, frozenset)):
        return 8 + sum(payload_nbytes(x) for x in sorted(obj, key=repr))
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class Network:
    """Prices message events in virtual time, per tier.

    A :class:`~repro.mpi.comm.Communicator` reads these once, when it is
    built, into a per-peer table; a message then costs its overheads
    plus ``nbytes * byte_time(intra) * factor`` of transit, plus any
    delay an installed fault plan injects.  Per-OST-style queuing is not
    modelled for the network (the paper's interconnect was far from
    saturated — the file system was the bottleneck)."""

    __slots__ = ("cost",)

    def __init__(self, cost: CostModel = DEFAULT_COST_MODEL) -> None:
        self.cost = cost

    def send_overhead(self, intra: bool = False) -> float:
        """Sender-side fixed cost of a blocking send.

        ``intra`` selects the intra-node tier (both peers share a node
        under an armed topology): shared-memory transport overhead
        instead of the NIC/TCP path."""
        return self.cost.net_intra_latency if intra else self.cost.net_latency

    def post_overhead(self, intra: bool = False) -> float:
        """Sender-side fixed cost of posting a nonblocking operation."""
        if intra:
            # Posting through shared memory is the transport overhead
            # itself — there is no cheaper deferred path to set up.
            return self.cost.net_intra_latency
        return self.cost.net_post_overhead

    def byte_time(self, intra: bool = False) -> float:
        """Fault-free seconds one payload byte spends on the wire."""
        return self.cost.net_intra_byte_time if intra else self.cost.net_byte_time

    def transit_time(self, nbytes: int, intra: bool = False) -> float:
        """Fault-free time the payload spends on the wire."""
        return nbytes * self.byte_time(intra)

    def recv_overhead(self, intra: bool = False) -> float:
        """Receiver-side fixed cost of completing a receive."""
        return self.cost.net_intra_latency if intra else self.cost.net_latency
