"""Simulated MPI subset.

An MPI-shaped message-passing layer running on the deterministic
virtual-time engine.  Point-to-point operations follow a LogP-style
cost model (sender overhead, per-byte transit, receiver overhead);
collectives are implemented as genuine distributed algorithms on top of
point-to-point (binomial broadcast/reduce, dissemination barrier, Bruck
allgather, pairwise-exchange alltoall), so their cost scaling emerges
from the algorithms rather than from closed-form formulas
(docs/cost_model.md tabulates messages, depth and bytes per collective).

Entry point: create a :class:`~repro.mpi.comm.Communicator` inside a
rank's main function::

    def main(ctx):
        comm = Communicator(ctx)
        comm.barrier()
"""

from repro.mpi.agreement import AliveGroup, agree_dead_set
from repro.mpi.comm import ANY_SOURCE, ANY_TAG, Communicator
from repro.mpi.hints import Hints
from repro.mpi.network import Network, payload_nbytes
from repro.mpi.request import Request

__all__ = [
    "Communicator",
    "ANY_SOURCE",
    "ANY_TAG",
    "Request",
    "Hints",
    "Network",
    "payload_nbytes",
    "AliveGroup",
    "agree_dead_set",
]
