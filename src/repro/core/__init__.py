"""The paper's contribution: flexible two-phase collective I/O.

Public surface:

* :class:`~repro.core.file_view.FileView` — MPI_File_set_view analogue;
* :class:`~repro.core.file_handle.CollectiveFile` — open/set_view/
  write_all/read_all/sync/close;
* :mod:`~repro.core.realms` — datatype-described file realms and the
  assignment strategies (even / aligned / balanced / persistent);
* :mod:`~repro.core.rounds` — the one round loop every collective call
  runs (plan-cache hit or cold plan, per-call brackets, write-order and
  read-order rounds), parameterised by a planner and a buffer method:
* :mod:`~repro.core.two_phase_new` — the new flexible implementation
  (planner: flattened-filetype exchange, per-aggregator cursors with
  tile skipping, pluggable realms, failover; buffer method: layered
  I/O with a per-flush method choice; alltoallw, nonblocking or
  two-layer exchange);
* :mod:`~repro.core.two_phase_old` — the ROMIO-style baseline
  (planner: flatten-everything offset/length exchange over even realms;
  buffer method: integrated data sieving).
"""

from repro.core.aggregation import select_aggregators
from repro.core.file_handle import CollectiveFile
from repro.core.file_view import FileView
from repro.core.realms import (
    AlignedPartition,
    BalancedPartition,
    EvenPartition,
    FileRealm,
    RealmStrategy,
    resolve_strategy,
)

__all__ = [
    "CollectiveFile",
    "FileView",
    "FileRealm",
    "RealmStrategy",
    "EvenPartition",
    "AlignedPartition",
    "BalancedPartition",
    "resolve_strategy",
    "select_aggregators",
]
