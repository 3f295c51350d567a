"""The original ROMIO-style two-phase implementation (the baseline).

Structural differences from the new code, per the paper:

* the client flattens its **entire access** into M offset/length pairs
  up front, partitions them by realm, and ships each aggregator its
  m_i pairs — O(M) computation, memory, and network;
* realms are always the even partition of the aggregate access region
  (no datatypes, no alignment, no persistence, no load balancing);
* the exchange is always the post-everything-then-wait nonblocking
  pattern (no alltoallw, no overlap);
* data sieving is **integrated**: the collective buffer is the sieve
  buffer.  The aggregator pre-reads the window span when holes exist,
  receives client data straight into that buffer, and writes the span
  back — one less buffer copy than the layered design, but only one
  I/O method, fused into the collective path.

The first two are :class:`_OldPlan`, the last two
:class:`IntegratedSieve`; the round loop is :mod:`repro.core.rounds`.

The model charges the baseline's per-call work — a client's M pairs
twice (flatten, partition), an aggregator's received pairs once — and
nothing per round.  The host routes a round as the new planner does:
a client through one :class:`~repro.datatypes.segments.FanCursor` pass
over every aggregator's window, an aggregator through one
:class:`~repro.datatypes.segments.FunnelCursor` pass over every
client's received list (a one-tile enumerated description: all a
"flattened access" is).  The routers' counts are not charged.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.aggregation import select_aggregators
from repro.core.env import CollEnv
from repro.core.plan import clip_to_range, compute_aar, merge_extents, subtract_intervals
from repro.core.plancache import PlanRecorder, RoundPlan
from repro.core.realms import EvenPartition, clipped_domains, realm_domains
from repro.core.rounds import CONTINUE, RESTART, RoundSource
from repro.datatypes.flatten import FlatType
from repro.datatypes.segments import FanCursor, FunnelCursor, SegmentBatch

__all__ = ["IntegratedSieve"]


class _OldPlan(RoundSource):
    """The original planner: ships flattened accesses over even realms."""

    def __init__(
        self,
        env: CollEnv,
        memflat: FlatType,
        total_bytes: int,
        data_lo: int = 0,
        rec: Optional[PlanRecorder] = None,
    ) -> None:
        super().__init__(env, rec)
        self.memflat = memflat
        self.total_bytes = total_bytes
        self.data_lo = data_lo
        #: File intervals already written back when a fail-stop death
        #: forced a re-plan, sorted by start; survivors only
        #: re-partition the remainder.
        self._covered: List[tuple] = []
        self._plan()

    def _plan(self) -> None:
        """Flatten, partition by realm, exchange requests, clip windows.

        Runs again, in place, after a fail-stop death: the call ordinal,
        boundary counter, agreed dead set and survivor group carry over;
        everything derived from the access is recomputed without the
        ``_covered`` intervals and the corpses' requests."""
        env, total_bytes, data_lo = self.env, self.total_bytes, self.data_lo
        ctx, comm, cost, hints = env.ctx, env.comm, env.cost, env.hints
        coll = self.coll
        client_pairs = env.metrics.counter("coll.client.pairs")

        # Flatten the whole access: M pairs, charged per pair.  A
        # re-plan subtracts the already-written file intervals, so
        # survivors only re-partition the remainder.
        self.router: Optional[FanCursor] = None
        my_access = SegmentBatch.empty_batch()
        if total_bytes > 0:
            cursor = env.view.cursor(data_lo + total_bytes, data_lo)
            my_access = cursor.all_segments()
            ctx.charge(my_access.pairs_evaluated * cost.cpu_per_flat_pair)
            client_pairs.inc(my_access.pairs_evaluated)
            if self._covered:
                my_access = subtract_intervals(my_access, self._covered)
        lo = hi = 0
        if not my_access.empty:
            lo, hi = int(my_access.file_offsets[0]), int((my_access.file_offsets + my_access.lengths).max())
        self.aar_lo, self.aar_hi = compute_aar(coll, lo, hi, not my_access.empty)
        self.aggs = self._live_aggregators(
            select_aggregators(comm.size, hints["cb_nodes"])
        )
        self.my_agg_index = self.aggs.index(comm.rank) if comm.rank in self.aggs else -1
        naggs = len(self.aggs)
        # The even realms, their clipped domains and the round windows
        # are derived once per communicator (comm.host): every rank
        # agreed on their inputs.
        lo, hi = self.aar_lo, self.aar_hi
        self.domains = comm.host.get(  # one interval or none each
            ("even", lo, hi, tuple(self.aggs)),
            lambda: realm_domains(EvenPartition().assign(lo, hi, naggs), lo, hi),
        )

        # Partition my M pairs by realm (one more O(M) pass) and ship
        # each aggregator its offset/length lists.
        send_objs: List[Optional[object]] = [None] * comm.size
        for a, dom in zip(self.aggs, self.domains):
            if dom.starts.size == 0:
                continue
            part = clip_to_range(my_access, int(dom.starts[0]), int(dom.ends[0]))
            if part.empty:
                continue
            wire = np.stack([part.file_offsets, part.lengths], axis=1)
            send_objs[a] = wire
            if a != comm.rank:
                env.metrics.counter("coll.meta.bytes").inc(wire.nbytes)
        if total_bytes > 0:
            ctx.charge(my_access.num_segments * cost.cpu_per_flat_pair)
            client_pairs.inc(my_access.num_segments)
            self.router = FanCursor(cursor, naggs, self.memflat)

        # The request exchange is an all-to-all of per-aggregator lists
        # (over the survivor group when crashes are armed: a corpse
        # would deadlock the full-membership alltoall, and its slots
        # come back None so its requests drop out of the aggregation).
        # Each received list is a one-tile enumerated description, its
        # pieces kept exactly as shipped.
        received = coll.alltoall(send_objs)
        self.funnel: Optional[FunnelCursor] = None
        mine = None
        if self.my_agg_index >= 0:
            self.funnel = FunnelCursor(comm.size)
            for c, wire in enumerate(received):
                if wire is None:
                    continue
                offs = wire[:, 0].astype(np.int64)
                lens = wire[:, 1].astype(np.int64)
                ctx.charge(offs.size * cost.cpu_per_flat_pair)
                env.metrics.counter("coll.agg.pairs").inc(int(offs.size))
                end = int(offs[-1] + lens[-1])
                self.funnel.add(c, c, FlatType.canonical(offs, lens, end), 0, int(lens.sum()))
            # My received requests' min/max offsets (ROMIO's
            # st_loc/end_loc) ...
            first, last = self.funnel.spans()
            if first.size:
                mine = (int(first.min()), int(last.max()))

        # ... clip each aggregator's iteration space, shared via
        # allgather so clients slice windows identically.  Rounds cover
        # the requested *span* (not its data volume) — the original
        # code slices the region, holes and all.
        gathered = coll.allgather(mine)
        self.cb = hints["cb_buffer_size"]
        self.domains, self.nrounds, self.windows = clipped_domains(
            comm.host, self.domains, [gathered[a] for a in self.aggs], self.cb
        )

    def _gone(self, r, buf, write, roles, suspects, crashed, reporter) -> int:
        """After a fail-stop death survivors **re-plan**: the first ``r``
        rounds of every realm are already written back (this path
        writes its span each round), so they subtract that covered
        region from their access and re-partition the remainder among
        the surviving aggregators — the dead rank's requests drop out
        with it.  Roles are never lost and nobody is suspected here
        (rules ``old.agg_crash`` / ``old.suspects``)."""
        if not crashed:
            return CONTINUE
        for a, dom in zip(self.aggs, self.domains):
            done = dom.slice_linear(0, r * self.cb)
            self._covered += zip(done.starts.tolist(), done.ends.tolist())
            if a in crashed and self.env.comm.rank == reporter:
                self._injector.note_failover(a, dom.total_bytes - done.total_bytes)
        self._covered.sort()
        with self.env.ctx.trace("tp:failover", round=r):
            self._plan()
        return RESTART

    def _route(self, r: int) -> RoundPlan:
        """Round ``r``: my memory batches per aggregator, then my
        aggregator window, per-client buffer batches and merged extents
        (``None`` and empties when I aggregate nothing this round)."""
        size = self.env.comm.size
        send: List[Optional[SegmentBatch]] = [None] * size
        if self.router is not None:
            windows = self.windows[r]
            if self._covered:
                windows = _uncovered(windows, self._covered)
            for a, got in zip(self.aggs, self.router.route(windows)):
                if got is not None:
                    send[a] = got[2]
        recv: List[Optional[SegmentBatch]] = [None] * size
        window = None
        if self.funnel is not None:
            window = self.domains[self.my_agg_index].window(r, self.cb)
        if window is None or window.empty:
            return RoundPlan(send, None, recv, (None, None))
        _, batches, offs, lens = self.funnel.route(window.intervals, window.to_buffer)
        for c, batch in batches.items():
            recv[c] = batch
        return RoundPlan(send, window, recv, merge_extents([offs], [lens]))


def _uncovered(windows, covered):
    """``windows`` (as :func:`~repro.core.realms.round_windows` gives
    them) without the ``covered`` file intervals (sorted by start): a
    re-planned client's access has gaps there, so its windows do too."""
    out = []
    for intervals in windows:
        if intervals is not None:
            keep = []
            for lo, hi in intervals:
                for c_lo, c_hi in covered:
                    if c_lo >= hi:
                        break
                    if c_hi > lo:
                        if c_lo > lo:
                            keep.append((lo, c_lo))
                        lo = c_hi
                if lo < hi:
                    keep.append((lo, hi))
            intervals = keep
        out.append(intervals)
    return out


def _sieve_span(rp: RoundPlan):
    """``(lo, hi)`` file bounds of the round's merged extents."""
    m_offs, m_lens = rp.merged
    return int(m_offs[0]), int((m_offs + m_lens).max())


def _window_with(rp: RoundPlan, at: int, span: np.ndarray) -> np.ndarray:
    """Round ``rp``'s zeroed collective buffer holding ``span`` at byte
    ``at``, allocated only after the read that filled ``span`` returned:
    the read yields, and no rank should hold a zeroed window while the
    others run."""
    cbuf = np.zeros(rp.window.total_bytes, dtype=np.uint8)
    cbuf[at : at + span.size] = span
    return cbuf


class IntegratedSieve:
    """Integrated data sieving (what §5.1 replaces): the collective
    buffer *is* the sieve buffer, one contiguous read or write of the
    round's merged span per aggregator."""

    impl = "old"
    planner = _OldPlan

    @staticmethod
    def active(rp: RoundPlan) -> bool:
        m_offs = rp.merged[0]
        return rp.window is not None and m_offs is not None and m_offs.size > 0

    @classmethod
    def stage(cls, env: CollEnv, src, rp: RoundPlan, r: int) -> Optional[np.ndarray]:
        with env.ctx.trace("tp:io", round=r):
            if not cls.active(rp):
                return None
            w_lo = int(rp.window.starts[0])
            lo, hi = _sieve_span(rp)
            if int(rp.merged[1].sum()) < hi - lo:
                # Holes: pre-read so the span write-back preserves the
                # gap bytes (integrated data sieving's RMW).
                return _window_with(rp, lo - w_lo, env.adio.read_contig(lo, hi - lo))
            return np.zeros(rp.window.total_bytes, dtype=np.uint8)

    @staticmethod
    def flush(env: CollEnv, src, rp: RoundPlan, cbuf: np.ndarray) -> None:
        w_lo = int(rp.window.starts[0])
        lo, hi = _sieve_span(rp)
        env.metrics.counter("coll.flush.datasieve-integrated").inc()
        env.adio.write_contig(lo, cbuf[lo - w_lo : hi - w_lo])
        if src.group is not None:
            # Crash-armed runs make each round durable: a later death
            # must not take already-written rounds down with the
            # corpse's cache (the re-plan treats them as covered).
            env.adio.retry.run(env.ctx, env.adio.local.sync)

    @staticmethod
    def fill(env: CollEnv, src, rp: RoundPlan) -> np.ndarray:
        w_lo = int(rp.window.starts[0])
        lo, hi = _sieve_span(rp)
        env.metrics.counter("coll.flush.datasieve-integrated").inc()
        return _window_with(rp, lo - w_lo, env.adio.read_contig(lo, hi - lo))
