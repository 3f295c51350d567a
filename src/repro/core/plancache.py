"""Persistent collective plans: cache the schedule, replay the call.

The paper's MPE analysis (§6) attributes the new implementation's CPU
overhead to repeated datatype processing: a time-step loop re-flattens
the same filetype, re-intersects the same access with the same realm
windows, and re-derives the same exchange schedule on every call.
:class:`PlanCache` pays that cost once.  The first call of a given
shape *builds* (and records) the full per-round schedule — client send
batches, aggregator windows, per-client receive batches, merged flush
extents — and every later call of the identical shape *replays* it:
zero offset/length pairs evaluated, no metadata exchange, no AAR
allreduce, no bounds allgather.  Only the data moves.

Correctness before speed (docs/plan_cache.md):

* **Keying.**  The cache key is the allgathered tuple of every rank's
  local access digest — view (disp, etype, flattened filetype), memory
  flat type, byte count, data offset, the full hint set, the resolved
  node topology, the communicator's membership, and the known fail-stop
  dead set.  A plan is a function of *everyone's* access, so a
  rank-local key would alias two different collectives that happen to
  look the same from one rank; the allgather makes the key global and
  — because it is a collective — makes the hit/miss decision identical
  on every rank by construction.  One small control collective per
  call buys the removal of the planning collectives on every hit.
* **Invalidation.**  ``set_view`` drops every entry (the MPI view
  epoch); hint, topology, membership (tenant), and dead-set changes
  change the key itself, so stale entries can never be looked up.
* **Bypass.**  While a boundary fault kind is armed the cache stands
  down entirely (rule ``recarve.plan_cache``, docs/compatibility.md):
  the round loop never calls :meth:`PlanCache.begin`, only
  :meth:`PlanCache.note_bypass`.

Counters (``coll.plan.hits`` / ``misses`` / ``invalidations`` /
``bypass``) report per rank into the session metrics registry, and the
engines wrap every replay and store in ``plan:replay`` / ``plan:store``
trace spans carrying the entry's key digest.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, List, Optional, Tuple

from repro.datatypes.flatten import FlatType
from repro.datatypes.segments import SegmentBatch
from repro.liveness import find_crash_state
from repro.mpi.topology import resolve_topology
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (env -> plancache)
    from repro.core.env import CollEnv

__all__ = ["PlanCache", "PlanEntry", "RoundPlan", "PlanRecorder"]


@dataclass
class RoundPlan:
    """One round of the exchange schedule (this rank's view): what a
    round source routes, and what the recorder keeps for replay.

    ``send`` are the client-side memory batches (per peer), ``recv``
    the aggregator-side collective-buffer batches (per client); on the
    read path the round loop swaps the two.  ``window`` is the
    aggregator's :class:`~repro.core.realms.Window` (one interval under
    the old implementation), ``None`` when it has none this round;
    ``merged`` is the ``(offsets, lengths)`` flush extent pair."""

    send: List[Optional[SegmentBatch]]
    window: object
    recv: List[Optional[SegmentBatch]]
    merged: Tuple


@dataclass
class PlanEntry:
    """A complete cached plan: everything a replay needs, nothing a
    replay computes."""

    impl: str
    key_id: str
    nrounds: int
    aggs: List[int]
    rounds: List[RoundPlan]
    ft_extent: int = 0
    topology: object = None
    realm_bytes: List[int] = field(default_factory=list)


@dataclass
class PlanRecorder:
    """Accumulates one cold call's rounds for :meth:`PlanCache.commit`.

    A recorded schedule is the executed one: no recorder exists while a
    boundary fault kind is armed (rule ``recarve.plan_cache``), so no
    failover, suspect or re-carve can make the two diverge."""

    key: Tuple
    key_id: str
    impl: str
    rounds: List[RoundPlan] = field(default_factory=list)


def _digest_flat(h, tag: str, flat: FlatType) -> None:
    h.update(tag.encode())
    h.update(repr((int(flat.extent), int(flat.size))).encode())
    h.update(flat.offsets.tobytes())
    h.update(flat.lengths.tobytes())


class PlanCache:
    """Per-handle persistent plan store (one per rank per open file).

    The store itself is rank-local, but every mutation happens at a
    collective boundary in identical program order on every rank, and
    lookups are keyed by a collectively-agreed global digest — so the
    per-rank stores stay aligned and a split hit/miss decision (which
    would deadlock the skipped planning collectives) cannot happen."""

    #: Entries kept per handle (LRU).  Eviction order is identical on
    #: every rank because insertions happen in collective program order.
    capacity = 8

    def __init__(self, registry: Optional[MetricsRegistry] = None, rank: Hashable = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.rank = rank
        self._entries: "OrderedDict[Tuple, PlanEntry]" = OrderedDict()
        self._hits = self.registry.counter("coll.plan.hits", rank)
        self._misses = self.registry.counter("coll.plan.misses", rank)
        self._invalidations = self.registry.counter("coll.plan.invalidations", rank)
        self._bypasses = self.registry.counter("coll.plan.bypass", rank)
        self._size = self.registry.gauge("coll.plan.entries", rank)
        self._pending: Optional[Tuple] = None
        self._pending_id = ""

    # -- observability --------------------------------------------------------
    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def invalidations(self) -> int:
        return self._invalidations.value

    @property
    def bypasses(self) -> int:
        return self._bypasses.value

    def __len__(self) -> int:
        return len(self._entries)

    def note_bypass(self) -> None:
        """Count one call that planned cold because the cache stood down."""
        self._bypasses.inc()

    # -- keying ---------------------------------------------------------------
    @staticmethod
    def _local_signature(
        env: "CollEnv", memflat: FlatType, total_bytes: int, data_lo: int, impl: str
    ) -> str:
        """128-bit digest of everything rank-local that shapes the plan."""
        h = hashlib.blake2b(digest_size=16)
        view = env.view
        h.update(repr((impl, view.disp, view.etype.size)).encode())
        _digest_flat(h, "ft", view.flat)
        _digest_flat(h, "mem", memflat)
        h.update(repr((int(total_bytes), int(data_lo))).encode())
        # The full hint set: any hint change is a new key, which is the
        # conservative reading of "invalidate on hint changes".
        h.update(repr(tuple((k, env.hints[k]) for k in env.hints)).encode())
        topo = resolve_topology(env.hints, env.cost)
        h.update(repr(topo.procs_per_node if topo is not None else 0).encode())
        # Membership scopes the key per communicator — and therefore per
        # tenant: a tenant sub-communicator can never alias the key of
        # another tenant's identical-looking access.
        comm = env.comm
        h.update(repr((comm.rank, comm.size, tuple(comm.members))).encode())
        # Fail-stop epoch: any agreed death re-keys every later call.
        crash = find_crash_state(env.ctx.shared)
        dead = tuple(sorted(crash.dead)) if crash is not None else ()
        h.update(repr(dead).encode())
        return h.hexdigest()

    # -- the collective lookup -------------------------------------------------
    def begin(
        self,
        env: "CollEnv",
        memflat: FlatType,
        total_bytes: int,
        data_lo: int,
        impl: str,
    ) -> Optional[PlanEntry]:
        """Collective hit/miss agreement for one call.

        Every rank of the communicator must call this (``run_collective``
        does, at the top of every collective op).  Returns the entry to
        replay, or ``None`` — plan cold.  After a miss,
        :meth:`recording` hands out the recorder for :meth:`commit`."""
        self._pending = None
        self._pending_id = ""
        local = self._local_signature(env, memflat, total_bytes, data_lo, impl)
        # The one control collective of the cached path: the key is the
        # tuple of every rank's digest, identical everywhere, so every
        # rank reaches the same hit/miss verdict with no further talk.
        key = tuple(env.comm.allgather(local))
        key_id = hashlib.blake2b(
            "".join(key).encode(), digest_size=6
        ).hexdigest()
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._hits.inc()
            return entry
        self._misses.inc()
        self._pending = key
        self._pending_id = key_id
        return None

    def recording(self, impl: str) -> Optional[PlanRecorder]:
        """Recorder for the cold call after a miss."""
        if self._pending is None:
            return None
        return PlanRecorder(key=self._pending, key_id=self._pending_id, impl=impl)

    def commit(
        self,
        rec: PlanRecorder,
        *,
        nrounds: int,
        aggs: List[int],
        ft_extent: int = 0,
        topology: object = None,
        realm_bytes: Optional[List[int]] = None,
    ) -> PlanEntry:
        """Store a recording."""
        entry = PlanEntry(
            impl=rec.impl,
            key_id=rec.key_id,
            nrounds=nrounds,
            aggs=list(aggs),
            rounds=rec.rounds,
            ft_extent=ft_extent,
            topology=topology,
            realm_bytes=list(realm_bytes or []),
        )
        self._entries[rec.key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        self._size.set(len(self._entries))
        return entry

    # -- invalidation ----------------------------------------------------------
    def invalidate(self, reason: str = "") -> int:
        """Drop every entry (``set_view`` and friends); returns the
        number dropped.  Counts one invalidation event regardless, so
        the counters prove the epoch bump even on an empty cache."""
        dropped = len(self._entries)
        self._entries.clear()
        self._invalidations.inc()
        self._size.set(0)
        return dropped
