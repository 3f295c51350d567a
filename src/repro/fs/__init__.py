"""Simulated Lustre-like parallel file system.

Components:

* :mod:`~repro.fs.store` — the authoritative server-side file
  contents: plain, replicated and journaled stores behind one batch
  protocol;
* :mod:`~repro.fs.locks` — extent lock manager with configurable
  granularity and transfer (revocation) costs;
* :mod:`~repro.fs.filesystem` — :class:`SimFileSystem`: files striped
  over OSTs whose service queues model contention, page-granular
  read-modify-write penalties, and the server entry points;
* :mod:`~repro.fs.cache` — per-client page cache (write-back /
  write-through / off) with read-allocate for partial pages;
* :mod:`~repro.fs.client` — :class:`FSClient` / :class:`LocalFile`, the
  per-rank handle every higher layer talks to;
* :mod:`~repro.fs.ostfault` — per-OST health (``ost_crash`` /
  ``ost_slow`` / ``ost_flap`` fault kinds), circuit breakers, and the
  storage trace lanes (docs/storage_faults.md).

Data correctness is real (bytes live in numpy pages); *time* comes from
the :class:`repro.config.CostModel`.
"""

from repro.fs.client import FSClient, LocalFile
from repro.fs.filesystem import SimFileSystem
from repro.fs.locks import ExtentLockManager
from repro.fs.ostfault import BreakerPolicy, CircuitBreaker, health_lanes, ost_state
from repro.fs.schedule import FIFOScheduler, FairShareScheduler, OSTScheduler, make_scheduler
from repro.fs.store import PageStore, ReplicatedStore

__all__ = [
    "SimFileSystem",
    "FSClient",
    "LocalFile",
    "ExtentLockManager",
    "PageStore",
    "ReplicatedStore",
    "OSTScheduler",
    "FIFOScheduler",
    "FairShareScheduler",
    "make_scheduler",
    "BreakerPolicy",
    "CircuitBreaker",
    "health_lanes",
    "ost_state",
]
