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
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.aggregation import select_aggregators
from repro.core.env import CollEnv
from repro.core.plan import (
    clip_to_range,
    compute_aar,
    mem_batch_for,
    merge_extents,
    subtract_intervals,
)
from repro.core.plancache import PlanRecorder, RoundPlan
from repro.core.realms import EvenPartition
from repro.core.rounds import CONTINUE, RESTART, RoundSource
from repro.datatypes.flatten import FlatType
from repro.datatypes.segments import SegmentBatch

__all__ = ["IntegratedSieve"]

_TAG_REQS = (1 << 19) + 2  # library p2p range: below COLLECTIVE_TAG_BASE


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
        #: forced a re-plan; survivors only re-partition the remainder.
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
        view = env.view
        coll = self.coll
        client_pairs = env.metrics.counter("coll.client.pairs")

        # Flatten the whole access: M pairs, charged per pair.  A
        # re-plan subtracts the already-written file intervals, so
        # survivors only re-partition the remainder.
        if total_bytes > 0:
            cursor = view.cursor(data_lo + total_bytes, data_lo)
            self.my_access = cursor.all_segments()
            ctx.charge(self.my_access.pairs_evaluated * cost.cpu_per_flat_pair)
            client_pairs.inc(self.my_access.pairs_evaluated)
            if self._covered:
                self.my_access = subtract_intervals(self.my_access, self._covered)
        else:
            self.my_access = SegmentBatch.empty_batch()
        if self.my_access.empty:
            lo = hi = 0
        else:
            lo, hi = int(self.my_access.file_offsets[0]), int(
                (self.my_access.file_offsets + self.my_access.lengths).max()
            )
        self.aar_lo, self.aar_hi = compute_aar(
            coll, lo, hi, not self.my_access.empty
        )
        self.aggs = self._live_aggregators(
            select_aggregators(comm.size, hints["cb_nodes"], hints["cb_layout"])
        )
        self.my_agg_index = self.aggs.index(comm.rank) if comm.rank in self.aggs else -1
        naggs = len(self.aggs)

        realms = EvenPartition().assign(self.aar_lo, self.aar_hi, naggs)
        self.bounds: List[tuple[int, int]] = []
        for realm in realms:
            dom = realm.domain(self.aar_lo, self.aar_hi)
            if dom.starts.size:
                self.bounds.append((int(dom.starts[0]), int(dom.ends[-1])))
            else:
                self.bounds.append((self.aar_hi, self.aar_hi))

        # Partition my M pairs by realm (one more O(M) pass) and ship
        # each aggregator its offset/length lists.
        self.my_parts: List[SegmentBatch] = []
        send_objs: List[Optional[object]] = [None] * comm.size
        for ai, a in enumerate(self.aggs):
            r_lo, r_hi = self.bounds[ai]
            part = clip_to_range(self.my_access, r_lo, r_hi)
            self.my_parts.append(part)
            if part.empty:
                continue
            wire = np.stack([part.file_offsets, part.lengths], axis=1)
            send_objs[a] = wire
            if a != comm.rank:
                env.metrics.counter("coll.meta.bytes").inc(wire.nbytes)
        if total_bytes > 0:
            ctx.charge(self.my_access.num_segments * cost.cpu_per_flat_pair)
            client_pairs.inc(self.my_access.num_segments)

        # The request exchange is an all-to-all of per-aggregator lists
        # (over the survivor group when crashes are armed: a corpse
        # would deadlock the full-membership alltoall, and its slots
        # come back None so its requests drop out of the aggregation).
        received = coll.alltoall(send_objs)
        self.client_reqs: List[Optional[SegmentBatch]] = [None] * comm.size
        if self.my_agg_index >= 0:
            for c, wire in enumerate(received):
                if wire is None:
                    continue
                offs = wire[:, 0].astype(np.int64)
                lens = wire[:, 1].astype(np.int64)
                ctx.charge(offs.size * cost.cpu_per_flat_pair)
                env.metrics.counter("coll.agg.pairs").inc(int(offs.size))
                dp = np.zeros(offs.size, dtype=np.int64)
                np.cumsum(lens[:-1], out=dp[1:])
                self.client_reqs[c] = SegmentBatch(offs, lens, dp)

        # Clip each aggregator's iteration space to its received
        # requests' min/max offsets (ROMIO's st_loc/end_loc), shared via
        # allgather so clients slice windows identically.
        if self.my_agg_index >= 0:
            req_lo: Optional[int] = None
            req_hi: Optional[int] = None
            for reqs in self.client_reqs:
                if reqs is None or reqs.empty:
                    continue
                lo_ = int(reqs.file_offsets[0])
                hi_ = int((reqs.file_offsets + reqs.lengths).max())
                req_lo = lo_ if req_lo is None else min(req_lo, lo_)
                req_hi = hi_ if req_hi is None else max(req_hi, hi_)
            mine = (req_lo, req_hi) if req_lo is not None else None
        else:
            mine = None
        gathered = coll.allgather(mine)
        self.win_bounds: List[tuple[int, int]] = []
        for ai, a in enumerate(self.aggs):
            b = gathered[a]
            self.win_bounds.append((b[0], b[1]) if b is not None else (0, 0))

        cb = hints["cb_buffer_size"]
        self.cb = cb
        # Rounds cover each aggregator's requested *span* (not its data
        # volume) — the original code slices the region, holes and all.
        spans = [max(hi_ - lo_, 0) for lo_, hi_ in self.win_bounds]
        self.nrounds = max((-(-s // cb) for s in spans if s), default=0)

    def my_window(self, ai: int, r: int) -> tuple[int, int]:
        lo, hi = self.win_bounds[ai]
        w_lo = lo + r * self.cb
        w_hi = min(w_lo + self.cb, hi)
        return w_lo, max(w_hi, w_lo)

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
        for ai, a in enumerate(self.aggs):
            lo, hi = self.win_bounds[ai]
            done_hi = min(lo + r * self.cb, hi)
            if done_hi > lo:
                self._covered.append((lo, done_hi))
            if a in crashed and self.env.comm.rank == reporter:
                self._injector.note_failover(a, max(hi - done_hi, 0))
        with self.env.ctx.trace("tp:failover", round=r):
            self._plan()
        return RESTART

    def _route(self, r: int) -> RoundPlan:
        send = self._client_plan(r)
        span, recv, merged = self._agg_layout(r)
        return RoundPlan(send, span, recv, merged)

    def _client_plan(self, r: int) -> List[Optional[SegmentBatch]]:
        """Memory batches this client contributes to each aggregator."""
        out: List[Optional[SegmentBatch]] = [None] * self.env.comm.size
        if self.total_bytes == 0:
            return out
        for ai, a in enumerate(self.aggs):
            w_lo, w_hi = self.my_window(ai, r)
            if w_hi <= w_lo:
                continue
            part = clip_to_range(self.my_parts[ai], w_lo, w_hi)
            if part.empty:
                continue
            out[a] = mem_batch_for(
                self.memflat, part.data_offsets - self.data_lo, part.lengths
            )
        return out

    def _agg_layout(self, r: int):
        """(window span, per-client buffer batches, merged extents)."""
        size = self.env.comm.size
        if self.my_agg_index < 0:
            return None, [None] * size, (None, None)
        w_lo, w_hi = self.my_window(self.my_agg_index, r)
        if w_hi <= w_lo:
            return None, [None] * size, (None, None)
        per_client: List[Optional[SegmentBatch]] = [None] * size
        ext_offs, ext_lens = [], []
        for c in range(size):
            reqs = self.client_reqs[c]
            if reqs is None:
                continue
            part = clip_to_range(reqs, w_lo, w_hi)
            if part.empty:
                continue
            bufpos = part.file_offsets - w_lo
            per_client[c] = SegmentBatch(bufpos, part.lengths, part.file_offsets)
            ext_offs.append(part.file_offsets)
            ext_lens.append(part.lengths)
        merged = merge_extents(ext_offs, ext_lens)
        return (w_lo, w_hi), per_client, merged


def _sieve_span(rp: RoundPlan):
    """``(lo, hi)`` file bounds of the round's merged extents."""
    m_offs, m_lens = rp.merged
    return int(m_offs[0]), int((m_offs + m_lens).max())


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
            w_lo, w_hi = rp.window
            cbuf = np.zeros(w_hi - w_lo, dtype=np.uint8)
            lo, hi = _sieve_span(rp)
            if int(rp.merged[1].sum()) < hi - lo:
                # Holes: pre-read so the span write-back preserves the
                # gap bytes (integrated data sieving's RMW).
                cbuf[lo - w_lo : hi - w_lo] = env.adio.read_contig(lo, hi - lo)
            return cbuf

    @staticmethod
    def flush(env: CollEnv, src, rp: RoundPlan, cbuf: np.ndarray) -> None:
        w_lo = rp.window[0]
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
        w_lo, w_hi = rp.window
        lo, hi = _sieve_span(rp)
        cbuf = np.zeros(w_hi - w_lo, dtype=np.uint8)
        env.metrics.counter("coll.flush.datasieve-integrated").inc()
        cbuf[lo - w_lo : hi - w_lo] = env.adio.read_contig(lo, hi - lo)
        return cbuf

