"""The new flexible two-phase implementation (§5).

Write path, per collective call:

1. every rank computes its access span; the aggregate access region is
   an allreduce;
2. realms are assigned by the pluggable strategy (or taken from the
   file's persistent-realm state) — a pure function of AAR + hints, so
   every rank derives them without extra communication;
3. every client ships its **flattened filetype** (D pairs + header) to
   every aggregator; aggregators rebuild a scan cursor per client
   (§5.3's representation trade: O(D·A) metadata instead of O(M), paid
   back with O(M·A) pair evaluations — unless whole-tile skipping
   applies);
4. rounds: each aggregator walks its realm domain in collective-buffer
   sized windows.  Clients intersect their access with every
   aggregator's window (per-aggregator cursors, binary-heap progress
   tracking); aggregators intersect every client's filetype with their
   own window;
5. data moves via alltoallw or nonblocking exchange into the collective
   buffer, which is flushed through the independent I/O layer with a
   per-flush method choice (conditional data sieving et al.).

The read path runs the phases in the opposite order.  Steps 1-4 are
the planner :class:`_Plan`, step 5's buffer handling is
:class:`Layered`; the loop that runs them is :mod:`repro.core.rounds`.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.core.aggregation import select_aggregators
from repro.core.env import CollEnv
from repro.core.plan import (
    access_histogram,
    compute_aar,
    concat_batches,
    mem_batch_for,
    merge_extents,
)
from repro.core.plancache import PlanRecorder, RoundPlan
from repro.core.realms import FileRealm, RealmDomain, resolve_strategy
from repro.core.rounds import CONTINUE, RESTART, STOP, RoundSource
from repro.datatypes.flatten import FlatType
from repro.datatypes.packing import gather_segments, scatter_segments
from repro.datatypes.segments import FlatCursor, SegmentBatch
from repro.datatypes.serialize import decode_flat, encode_flat
from repro.errors import AggregatorLost
from repro.io.selection import choose_method
from repro.mpi.topology import resolve_topology

__all__ = ["Layered"]

_TAG_META = (1 << 19) + 1  # library p2p range: below COLLECTIVE_TAG_BASE
_EMPTY64 = np.empty(0, dtype=np.int64)


class _Plan(RoundSource):
    """The new implementation's planner (§5.2/§5.3): ships flattened
    filetypes, assigns pluggable realms, and re-carves them around lost
    aggregators and suspects.

    ``total_bytes`` is the number of data bytes carried; ``data_lo`` is
    the access's starting position in the view's data stream (the
    individual file pointer / explicit offset), so the touched stream
    range is [data_lo, data_lo + total_bytes)."""

    #: Feeds the balanced strategy's straggler-aware weights on the
    #: *next* call.
    service_feedback = True

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
        self.data_hi = data_lo + total_bytes
        comm, hints = env.comm, env.hints
        view = env.view

        # Role-loss and liveness state: which aggregators have already
        # been failed over, and whether I am a suspect myself (the
        # base keeps the boundary counter and the suspect set).
        self._dead: set[int] = set()
        self.i_am_suspect = False
        self._suspect_tails: Optional[List[RealmDomain]] = None
        # Bound once per call and indexed by ``agg_side``: they are
        # bumped per window intersection.
        m = env.metrics
        self._pairs = (m.counter("coll.client.pairs"), m.counter("coll.agg.pairs"))
        self._tiles = (
            m.counter("coll.client.tiles_skipped"),
            m.counter("coll.agg.tiles_skipped"),
        )
        coll = self.coll

        lo, hi = view.access_span(self.data_hi, data_lo)
        self.aar_lo, self.aar_hi = compute_aar(coll, lo, hi, total_bytes > 0)
        # Node topology for this call: leader-aware aggregator placement
        # and the two_layer exchange's grouping.  None on flat clusters,
        # so the default path is untouched.
        self.topology = resolve_topology(hints, env.cost)
        self.aggs = self._live_aggregators(
            select_aggregators(
                comm.size, hints["cb_nodes"], hints["cb_layout"], topology=self.topology
            )
        )
        if self._injector is not None:
            # Aggregators whose role died in *earlier* collective calls
            # never regain it: drop them before realm assignment so
            # survivors partition the AAR among themselves.
            gone = self._injector.dead_aggregators(self.call_index, -1)
            if gone:
                alive = [a for a in self.aggs if a not in gone]
                if len(alive) != len(self.aggs):
                    if not hints["failover"]:
                        raise AggregatorLost(min(set(self.aggs) & gone))
                    if not alive:
                        raise AggregatorLost(self.aggs[0])
                    self.aggs = alive
        self.my_agg_index = self.aggs.index(comm.rank) if comm.rank in self.aggs else -1
        self.realms = self._assign_realms()
        self.domains: List[RealmDomain] = [
            r.domain(self.aar_lo, self.aar_hi) for r in self.realms
        ]
        # Assigned (pre-clip) per-aggregator realm bytes: what the
        # strategy decided, before request bounds shrink the iteration
        # space.
        env.pfr.last_realm_bytes = [int(d.total_bytes) for d in self.domains]
        cb = hints["cb_buffer_size"]
        self.cb = cb
        # The conditional-sieving metric: the largest filetype extent in
        # play (identical on all ranks for uniform views).
        my_ext = view.flat.extent if total_bytes > 0 else 0
        self.ft_extent = coll.allreduce(my_ext, op=max)

        # Client-side per-aggregator cursors over my own access.
        self.client_cursors: Optional[List[FlatCursor]] = None
        if total_bytes > 0:
            self.client_cursors = [
                view.cursor(self.data_hi, data_lo) for _ in self.aggs
            ]

        # Access-description exchange: flattened filetypes to aggregators.
        self.agg_cursors: Optional[List[Optional[FlatCursor]]] = None
        self._exchange_access_descriptions()

        # Clip every aggregator's iteration space to the bounds of the
        # requests it actually received (ROMIO's st_loc/end_loc): sparse
        # clusters must not inflate the round count with empty windows.
        # One allgather keeps clients and aggregators agreeing on the
        # window geometry.
        bounds = coll.allgather(self._request_bounds())
        for ai, a in enumerate(self.aggs):
            b = bounds[a]
            if b is None:
                self.domains[ai] = self.domains[ai].clip(0, 0)
            else:
                self.domains[ai] = self.domains[ai].clip(b[0], b[1])
        self.nrounds = max((d.nrounds(cb) for d in self.domains), default=0)

    # -- realms ---------------------------------------------------------------
    def _assign_realms(self) -> List[FileRealm]:
        env = self.env
        hints = env.hints
        naggs = len(self.aggs)
        if env.eff.pfr:
            # Rule pfr.strategy: the persistent realms win.
            return env.pfr.realms_for(
                self.aar_lo, self.aar_hi, naggs, hints["realm_alignment"]
            )
        strategy = resolve_strategy(hints)
        histogram = None
        weights = None
        if strategy.needs_histogram:
            local = access_histogram(
                (lambda: env.view.cursor(self.data_hi, self.data_lo))
                if self.total_bytes > 0
                else (lambda: _NullCursor()),
                self.aar_lo,
                self.aar_hi,
            )
            histogram = self.coll.allreduce(local, op=lambda a, b: a + b)
            # Straggler-aware rebalancing: feed each aggregator's
            # observed service time from the *previous* collective call
            # back as an inverse weight, so a slow aggregator's realm
            # shrinks.  One allgather, paid only on the balanced path.
            times = self.coll.allgather(
                env.metrics.value("coll.agg.last_service_seconds")
            )
            per_agg = [float(times[a]) for a in self.aggs]
            if any(t > 0.0 for t in per_agg):
                known = [1.0 / t for t in per_agg if t > 0.0]
                fresh = sum(known) / len(known)  # no history = average share
                weights = [1.0 / t if t > 0.0 else fresh for t in per_agg]
        return strategy.assign(
            self.aar_lo, self.aar_hi, naggs, histogram=histogram, weights=weights
        )

    # -- metadata exchange -------------------------------------------------------
    def _exchange_access_descriptions(self) -> None:
        env = self.env
        comm, ctx, cost = env.comm, env.ctx, env.cost
        flat = env.view.flat
        payload = (
            (encode_flat(flat), env.view.disp, self.data_hi, self.data_lo)
            if self.total_bytes > 0
            else None
        )
        # Flattening cost on the client: one pass over the D pairs.
        if payload is not None:
            ctx.charge(flat.num_segments * cost.cpu_per_flat_pair)
            env.metrics.counter("coll.meta.bytes").inc(
                len(payload[0]) * sum(1 for a in self.aggs if a != comm.rank)
            )
        for a in self.aggs:
            if a != comm.rank:
                comm.isend(payload, a, _TAG_META)
        if self.my_agg_index < 0:
            return
        cursors: List[Optional[FlatCursor]] = [None] * comm.size
        for c in range(comm.size):
            if c in self._known_dead:
                continue
            got = payload if c == comm.rank else comm.recv(c, _TAG_META)
            if got is None:
                continue
            blob, disp, d_hi, d_lo = got
            client_flat = decode_flat(blob)
            # Aggregator-side processing of the received description.
            ctx.charge(client_flat.num_segments * cost.cpu_per_flat_pair)
            cursors[c] = FlatCursor(client_flat, disp, d_hi, d_lo)
        self.agg_cursors = cursors

    def _request_bounds(self) -> Optional[tuple[int, int]]:
        """[min, max) file offsets of the requests inside my realm, or
        None when I am not an aggregator / received nothing.

        Span-based (each client's first..last byte intersected with my
        domain intervals): cheap, and exact at the outer edges, which is
        all the round clipping needs."""
        if self.my_agg_index < 0 or self.agg_cursors is None:
            return None
        dom = self.domains[self.my_agg_index]
        if dom.starts.size == 0:
            return None
        lo: Optional[int] = None
        hi: Optional[int] = None
        for cur in self.agg_cursors:
            if cur is None or cur.tiles == 0:
                continue
            c_lo, c_hi = cur.first_byte, cur.last_byte
            if c_hi <= c_lo:
                continue
            # First domain byte inside [c_lo, c_hi).
            i = int(np.searchsorted(dom.ends, c_lo, side="right"))
            if i < dom.starts.size and dom.starts[i] < c_hi:
                cand = max(int(dom.starts[i]), c_lo)
                lo = cand if lo is None else min(lo, cand)
            # Last domain byte inside [c_lo, c_hi).
            j = int(np.searchsorted(dom.starts, c_hi, side="left")) - 1
            if j >= 0 and dom.ends[j] > c_lo:
                cand = min(int(dom.ends[j]), c_hi)
                hi = cand if hi is None else max(hi, cand)
        if lo is None or hi is None or hi <= lo:
            return None
        return (lo, hi)

    # -- per-round routing ------------------------------------------------------
    def _charge_batch(self, batch: SegmentBatch, *, agg_side: bool) -> None:
        env = self.env
        cost = env.cost
        env.ctx.charge(
            batch.pairs_evaluated * cost.cpu_per_flat_pair
            + batch.tiles_skipped * cost.cpu_tile_skip
        )
        self._pairs[agg_side].inc(batch.pairs_evaluated)
        self._tiles[agg_side].inc(batch.tiles_skipped)

    def _intersect_window(
        self, cursor: FlatCursor, window, *, agg_side: bool
    ) -> SegmentBatch:
        parts = []
        pairs = 0
        tiles = 0
        for w_lo, w_hi in window.intervals:
            b = cursor.intersect(w_lo, w_hi)
            pairs += b.pairs_evaluated
            tiles += b.tiles_skipped
            if not b.empty:
                parts.append(b)
        merged = concat_batches(parts)
        merged.pairs_evaluated = pairs
        merged.tiles_skipped = tiles
        self._charge_batch(merged, agg_side=agg_side)
        return merged

    def client_send_plan(self, r: int) -> List[Optional[SegmentBatch]]:
        """What my data contributes to each aggregator's round-r window,
        as memory-address batches."""
        env = self.env
        comm, cost, hints = env.comm, env.cost, env.hints
        plan: List[Optional[SegmentBatch]] = [None] * comm.size
        if self.client_cursors is None:
            return plan
        use_heap = hints["use_heap"]
        naggs = len(self.aggs)
        heap_cost = cost.cpu_heap_op * (1 + math.log2(naggs)) if use_heap else 0.0
        for ai, a in enumerate(self.aggs):
            window = self.domains[ai].window(r, self.cb)
            if window.empty:
                continue
            if use_heap:
                env.ctx.charge(heap_cost)
            batch = self._intersect_window(
                self.client_cursors[ai], window, agg_side=False
            )
            if batch.empty:
                continue
            plan[a] = mem_batch_for(
                self.memflat, batch.data_offsets - self.data_lo, batch.lengths
            )
        if not use_heap:
            # Without progress tracking the client rescans its access
            # from the start for every aggregator on the next round.
            for cur in self.client_cursors:
                cur.reset()
        return plan

    def agg_recv_layout(self, r: int):
        """(window, per-client buffer batches, merged write extents) for
        my aggregator role this round, or (None, ..., ...)."""
        env = self.env
        comm = env.comm
        if self.my_agg_index < 0 or self.agg_cursors is None:
            return None, [None] * comm.size, (None, None)
        window = self.domains[self.my_agg_index].window(r, self.cb)
        if window.empty:
            return None, [None] * comm.size, (None, None)
        per_client: List[Optional[SegmentBatch]] = [None] * comm.size
        ext_offs = []
        ext_lens = []
        for c in range(comm.size):
            cur = self.agg_cursors[c]
            if cur is None:
                continue
            batch = self._intersect_window(cur, window, agg_side=True)
            if batch.empty:
                continue
            bufpos = window.to_buffer(batch.file_offsets)
            # data_offsets keep file order (== the client's data order
            # for a monotonic view), which is the exchange's order key.
            per_client[c] = SegmentBatch(bufpos, batch.lengths, batch.file_offsets)
            ext_offs.append(batch.file_offsets)
            ext_lens.append(batch.lengths)
        merged = merge_extents(ext_offs, ext_lens)
        return window, per_client, merged

    def _route(self, r: int) -> RoundPlan:
        send = self.client_send_plan(r)
        t0 = self.env.ctx.now
        window, recv, merged = self.agg_recv_layout(r)
        if window is not None:
            self.service_seconds += self.env.ctx.now - t0
        return RoundPlan(send, window, recv, merged)

    # -- aggregator failover ------------------------------------------------
    @property
    def excluded(self) -> frozenset:
        return frozenset(self._dead | self._suspects | self._known_dead)

    def _gone(self, r, buf, write, roles, suspects, crashed, reporter) -> int:
        """Fail lost aggregator roles over, complete around suspects,
        re-carve without fail-stop corpses.

        ``r * cb`` linear bytes of every domain are already flushed.  A
        lost aggregator's realm merges into the survivors; a suspect's
        already-exchanged access description is dropped from the
        aggregation and its own remaining access becomes independent
        tail I/O (:meth:`run_suspect_tail`).  ``RESTART`` when realms
        were rebalanced (``nrounds`` has been recomputed for the new
        domains); ``STOP`` for the suspect itself, once its tail is
        written or read."""
        env = self.env
        inj, liv, rank = self._injector, self._liveness, env.comm.rank
        newly_dead = [a for a in self.aggs if a in roles and a not in self._dead]
        # Survivors stop expecting the corpses' data.
        if self.agg_cursors is not None:
            for c in crashed:
                self.agg_cursors[c] = None
        crash_lost = [a for a in self.aggs if a in crashed]

        if not newly_dead and not suspects and not crash_lost:
            # Pure-client deaths leave the window geometry untouched:
            # survivors carry on at the same round, minus the corpses.
            return CONTINUE
        if newly_dead and not env.hints["failover"]:
            raise AggregatorLost(newly_dead[0])
        with env.ctx.trace("tp:failover", round=r):
            lost_ranks = set(newly_dead) | set(suspects) | set(crash_lost)
            gone = (
                self._dead | set(roles) | self._suspects | lost_ranks
                | self._known_dead
            )
            survivors = [ai for ai, a in enumerate(self.aggs) if a not in gone]
            if not survivors:
                raise AggregatorLost(min(lost_ranks))
            consumed = r * self.cb
            # Everyone's remaining work is its linear tail; a lost
            # aggregator's tail is carved evenly across the survivors.
            # Every aggregator already holds every client's filetype cursor
            # (the metadata exchange is all-to-all-aggregators), so
            # adopting file ranges needs no new communication.
            tails = [d.slice_linear(consumed, d.total_bytes) for d in self.domains]
            if rank in suspects:
                # The union of these tails is exactly the un-flushed file
                # region; my remaining access inside it is mine to carry.
                self.i_am_suspect = True
                self._suspect_tails = list(tails)
            shares: List[List[RealmDomain]] = [[] for _ in self.aggs]
            for ai in survivors:
                shares[ai].append(tails[ai])
            nsurv = len(survivors)
            dead_set = set(newly_dead) | set(crash_lost)
            for ai, a in enumerate(self.aggs):
                if a not in lost_ranks:
                    continue
                tail = tails[ai]
                total = tail.total_bytes
                if env.comm.rank == reporter and a in dead_set:
                    inj.note_failover(a, total)
                chunk = -(-total // nsurv) if total else 0
                for k, si in enumerate(survivors):
                    shares[si].append(tail.slice_linear(k * chunk, (k + 1) * chunk))
            empty = RealmDomain(_EMPTY64, _EMPTY64)
            surv = set(survivors)
            self.domains = [
                RealmDomain.merge(shares[ai]) if ai in surv else empty
                for ai in range(len(self.aggs))
            ]
            self._dead.update(newly_dead)
            self._dead.update(crash_lost)
            for s in suspects:
                self._suspects.add(s)
                if liv is not None and liv.mark_suspect(s):
                    inj.note_suspect()
                # Survivors stop expecting the suspect's data: its access
                # description simply drops out of the aggregation.
                if self.agg_cursors is not None:
                    self.agg_cursors[s] = None
            self.skip = frozenset(self._suspects | self._known_dead)
            # Adopted intervals may precede a cursor's current position:
            # every monotonic scan restarts from the top.
            if self.client_cursors is not None:
                for cur in self.client_cursors:
                    cur.reset()
            if self.agg_cursors is not None:
                for cur in self.agg_cursors:
                    if cur is not None:
                        cur.reset()
            self.nrounds = max((d.nrounds(self.cb) for d in self.domains), default=0)
        if self.i_am_suspect:
            self.run_suspect_tail(buf, write=write)
            return STOP
        return RESTART

    # -- epoch commits --------------------------------------------------------
    def commit_epoch(self, r: int) -> None:
        """Make round ``r`` durable and cut its epoch commit record.

        Only runs with fail-stop crashes armed — the fault-free path
        pays nothing.  Durability first: each live aggregator flushes
        its client cache, so the round's bytes are on the server before
        any record claims them (journaled writes skip the flush — their
        durability point is the transaction commit, and their records
        stage inside the transaction until then).  Then one recorder —
        the first live aggregator — appends the record: the round's
        file intervals plus the ranks whose data entered the round.
        :meth:`Session.rejoin <repro.obs.session.Session.rejoin>`
        replays these records to rewrite only uncommitted bytes."""
        if self._crash is None:
            return
        env = self.env
        rank = env.comm.rank
        journaled = env.eff.journal
        excluded = self._known_dead | self._suspects
        if not journaled and self.my_agg_index >= 0 and rank not in excluded:
            t0 = env.ctx.now
            env.adio.retry.run(env.ctx, env.adio.local.sync)
            self.service_seconds += env.ctx.now - t0
        recorder = next((a for a in self.aggs if a not in excluded), None)
        if recorder != rank:
            return
        intervals: List[tuple] = []
        for d in self.domains:
            w = d.window(r, self.cb)
            if not w.empty:
                intervals.extend(w.intervals)
        if not intervals:
            return
        local = env.adio.local
        local.fs.journal_record_epoch(
            local.path,
            call_index=self.call_index,
            epoch=self._boundary - 1,
            participants=[c for c in range(env.comm.size) if c not in excluded],
            intervals=intervals,
            journaled=journaled,
        )

    # -- suspect tail I/O ----------------------------------------------------
    def run_suspect_tail(self, buf: np.ndarray, *, write: bool) -> None:
        """Independent I/O for my remaining access after being declared
        suspect.

        The collective completes around a suspect: aggregators dropped
        my access description, so the bytes they will no longer move
        are mine to carry through the independent layer (on the write
        path this runs inside the call's journal, so crash consistency
        is preserved).  The remaining file region is the union of every
        domain's un-flushed linear tail, frozen at the boundary where I
        was suspected."""
        env = self.env
        if self._suspect_tails is None or self.total_bytes == 0:
            return
        remaining = RealmDomain.merge(self._suspect_tails)
        cur = env.view.cursor(self.data_hi, self.data_lo)
        parts: List[SegmentBatch] = []
        pairs = 0
        tiles = 0
        with env.ctx.trace("tp:suspect-tail"):
            for lo, hi in zip(remaining.starts.tolist(), remaining.ends.tolist()):
                b = cur.intersect(int(lo), int(hi))
                pairs += b.pairs_evaluated
                tiles += b.tiles_skipped
                if not b.empty:
                    parts.append(b)
            env.ctx.charge(
                pairs * env.cost.cpu_per_flat_pair + tiles * env.cost.cpu_tile_skip
            )
            self._pairs[False].inc(pairs)
            self._tiles[False].inc(tiles)
            batch = concat_batches(parts)
            if batch.empty:
                return
            # File batch with *dense* data offsets: the strided layer
            # expects data_offsets to index the packed stream it is
            # handed, and gather/scatter produce exactly that stream.
            dense = np.zeros(batch.lengths.size, dtype=np.int64)
            np.cumsum(batch.lengths[:-1], out=dense[1:])
            fbatch = SegmentBatch(batch.file_offsets, batch.lengths.copy(), dense)
            membatch = mem_batch_for(
                self.memflat, batch.data_offsets - self.data_lo, batch.lengths
            )
            method = choose_method(env.hints, self.ft_extent, fbatch)
            env.metrics.counter(f"coll.flush.{method}").inc()
            total = int(batch.total_bytes)
            env.ctx.charge(total * env.cost.cpu_per_byte_touch)
            if write:
                env.adio.write_strided(fbatch, gather_segments(buf, membatch), method)
            else:
                data = env.adio.read_strided(fbatch, method)
                scatter_segments(buf, membatch, data[:total])


class _NullCursor:
    """Cursor stand-in for ranks with no data (histogram path)."""

    def intersect(self, lo: int, hi: int) -> SegmentBatch:
        return SegmentBatch.empty_batch()


def _merged_batch(rp: RoundPlan) -> Optional[SegmentBatch]:
    """Round ``rp``'s merged file extents addressed into the collective
    buffer, or None when no client touches my window."""
    offs, lens = rp.merged
    if offs is None or offs.size == 0:
        return None
    return SegmentBatch(offs, lens.copy(), rp.window.to_buffer(offs))


class Layered:
    """Layered I/O (§5.1): the collective buffer goes through the
    independent-I/O layer, which picks a method per flush (conditional
    data sieving et al.)."""

    impl = "new"
    planner = _Plan

    @staticmethod
    def active(rp: RoundPlan) -> bool:
        return rp.window is not None

    @staticmethod
    def stage(env: CollEnv, src, rp: RoundPlan, r: int) -> Optional[np.ndarray]:
        if rp.window is None:
            return None
        return np.zeros(rp.window.total_bytes, dtype=np.uint8)

    @staticmethod
    def flush(env: CollEnv, src, rp: RoundPlan, cbuf: np.ndarray) -> None:
        wbatch = _merged_batch(rp)
        if wbatch is None:
            return
        method = choose_method(env.hints, src.ft_extent, wbatch)
        env.metrics.counter(f"coll.flush.{method}").inc()
        env.adio.write_strided(wbatch, cbuf, method)

    @staticmethod
    def fill(env: CollEnv, src, rp: RoundPlan) -> Optional[np.ndarray]:
        if src.dying:
            # On its way to its crash site a rank reads nothing it will
            # never hand out.
            return None
        cbuf = np.zeros(rp.window.total_bytes, dtype=np.uint8)
        rbatch = _merged_batch(rp)
        if rbatch is None:
            return cbuf
        method = choose_method(env.hints, src.ft_extent, rbatch)
        env.metrics.counter(f"coll.flush.{method}").inc()
        data = env.adio.read_strided(rbatch, method)
        cbuf[: data.size] = data
        return cbuf

