"""The new flexible two-phase implementation (§5).

Write path, per collective call:

1. every rank computes its access span; the aggregate access region is
   an allreduce;
2. realms are assigned by the pluggable strategy (or taken from the
   file's persistent-realm state) — a pure function of AAR + hints, so
   every rank derives them without extra communication (on the host
   the first rank derives them and the others reuse them,
   ``Communicator.host``);
3. every client ships its **flattened filetype** (D pairs + header) to
   every aggregator; aggregators rebuild a scan cursor per client
   (§5.3's representation trade: O(D·A) metadata instead of O(M), paid
   back with O(M·A) pair evaluations — unless whole-tile skipping
   applies).  The model charges every client's description to the
   aggregator; the host decodes each distinct one once per call for
   every aggregator, and clients sharing a description, size and data
   window share one cursor
   (:class:`~repro.datatypes.segments.FunnelCursor`);
4. rounds: each aggregator walks its realm domain in collective-buffer
   sized windows.  Clients intersect their access with every
   aggregator's window; aggregators intersect every client's filetype
   with their own window.  On the host either side routes a round in
   one pass: a client over all windows
   (:class:`~repro.datatypes.segments.FanCursor`: one scan position per
   aggregator, one materialise / clip / memory map / split for every
   window), an aggregator over all clients (``FunnelCursor``: one scan
   position per client, one materialise / clip for every client's
   ranges, one buffer map, one split, one extent merge).  The paper's
   per-pair walks and the client's binary-heap progress tracking are
   what the cost model charges — per aggregator on the client, per
   client on the aggregator, the pairs and tiles its own walk would
   evaluate and skip;
5. data moves via alltoallw or nonblocking exchange into the collective
   buffer, which is flushed through the independent I/O layer with a
   per-flush method choice (conditional data sieving et al.).

The read path runs the phases in the opposite order.  Steps 1-4 are
the planner :class:`_Plan`, step 5's buffer handling is
:class:`Layered`; the loop that runs them is :mod:`repro.core.rounds`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

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
from repro.core.realms import (
    RealmDomain,
    all_round_windows,
    clipped_domains,
    realm_domains,
    resolve_strategy,
)
from repro.core.rounds import CONTINUE, RESTART, STOP, RoundSource
from repro.datatypes.flatten import FlatType
from repro.datatypes.packing import gather_segments, scatter_segments
from repro.datatypes.segments import FanCursor, FunnelCursor, SegmentBatch
from repro.datatypes.serialize import decode_flat, encode_flat
from repro.errors import AggregatorLost
from repro.io.selection import choose_method
from repro.mpi.topology import resolve_topology

__all__ = ["Layered", "independent_io", "strided_io"]

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
        # Bound once per call, (client side, aggregator side): they are
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
            select_aggregators(comm.size, hints["cb_nodes"], topology=self.topology)
        )
        if self._injector is not None:
            # Aggregators whose role died in *earlier* collective calls
            # never regain it: drop them before realm assignment so
            # survivors partition the AAR among themselves.
            gone = self._injector.dead_aggregators(self.call_index, -1)
            if gone:
                alive = [a for a in self.aggs if a not in gone]
                if len(alive) != len(self.aggs):
                    if not alive:
                        raise AggregatorLost(self.aggs[0])
                    self.aggs = alive
        self.my_agg_index = self.aggs.index(comm.rank) if comm.rank in self.aggs else -1
        # Realms, domains and round windows are pure functions of agreed
        # inputs: the first rank derives them, the others reuse them
        # (comm.host, docs/architecture.md "What ranks share on the host").
        self.domains: Sequence[RealmDomain] = self._assigned_domains()
        # Assigned (pre-clip) per-aggregator realm bytes: what the
        # strategy decided, before request bounds shrink the iteration
        # space.
        env.pfr.last_realm_bytes = [int(d.total_bytes) for d in self.domains]
        self.cb = hints["cb_buffer_size"]
        # The conditional-sieving metric: the largest filetype extent in
        # play (identical on all ranks for uniform views).
        my_ext = view.flat.extent if total_bytes > 0 else 0
        self.ft_extent = coll.allreduce(my_ext, op=max)

        # Client side: my access against every aggregator's windows, one
        # scan position per aggregator.
        self.router: Optional[FanCursor] = None
        if total_bytes > 0:
            self.router = FanCursor(view.cursor(self.data_hi, data_lo), len(self.aggs), memflat)

        # Access-description exchange: flattened filetypes to aggregators,
        # every client's access against my window on my aggregator side.
        self.funnel: Optional[FunnelCursor] = None
        self._exchange_access_descriptions()

        # Clip every aggregator's iteration space to the bounds of the
        # requests it actually received (ROMIO's st_loc/end_loc): sparse
        # clusters must not inflate the round count with empty windows.
        # One allgather keeps clients and aggregators agreeing on the
        # window geometry.
        bounds = coll.allgather(self._request_bounds())
        self.domains, self.nrounds, self.windows = clipped_domains(
            comm.host, self.domains, [bounds[a] for a in self.aggs], self.cb
        )

    # -- realms ---------------------------------------------------------------
    def _assigned_domains(self) -> Tuple[RealmDomain, ...]:
        """Every aggregator's realm clipped to the AAR, in aggregator
        order (shared by every rank: see :func:`clipped_domains`)."""
        env = self.env
        hints = env.hints
        lo, hi = self.aar_lo, self.aar_hi
        naggs = len(self.aggs)
        if env.eff.pfr:
            # Rule pfr.strategy: the persistent realms win.  Every rank
            # asks its own handle (the first call fixes them there); the
            # block size and the count are all the cyclic realms read.
            realms = env.pfr.realms_for(lo, hi, naggs, hints["realm_alignment"])
            key = ("pfr", env.pfr.block, lo, hi, tuple(self.aggs))
            return env.comm.host.get(key, realm_domains, realms, lo, hi)
        strategy = resolve_strategy(hints)
        histogram = None
        weights = None
        if strategy.needs_histogram:
            access = (
                env.view.cursor(self.data_hi, self.data_lo).all_segments()
                if self.total_bytes > 0
                else SegmentBatch.empty_batch()
            )
            local = access_histogram(access, self.aar_lo, self.aar_hi)
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
                weights = tuple(1.0 / t if t > 0.0 else fresh for t in per_agg)
        key = (
            "realms", hints["realm_strategy"], hints["realm_alignment"], lo, hi, tuple(self.aggs),
            None if histogram is None else histogram.tobytes(), weights,
        )
        return env.comm.host.get(
            key,
            lambda: realm_domains(
                strategy.assign(lo, hi, naggs, histogram=histogram, weights=weights), lo, hi
            ),
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
        funnel = FunnelCursor(comm.size)
        # Each distinct description is decoded once per communicator
        # (every aggregator reuses it); every client is still charged
        # for its own, and validated as its own cursor.
        host = comm.host
        for c in range(comm.size):
            if c in self._known_dead:
                continue
            got = payload if c == comm.rank else comm.recv(c, _TAG_META)
            if got is None:
                continue
            blob, disp, d_hi, d_lo = got
            client_flat = host.get(("flat", blob), decode_flat, blob)
            # Aggregator-side processing of the received description.
            ctx.charge(client_flat.num_segments * cost.cpu_per_flat_pair)
            funnel.add(c, blob, client_flat, disp, d_hi, d_lo)
        self.funnel = funnel

    def _request_bounds(self) -> Optional[tuple[int, int]]:
        """[min, max) file offsets of the requests inside my realm, or
        None when I am not an aggregator / received nothing.

        Span-based (each client's first..last byte intersected with my
        domain intervals, all clients at once): cheap, and exact at the
        outer edges, which is all the round clipping needs."""
        if self.my_agg_index < 0 or self.funnel is None:
            return None
        dom = self.domains[self.my_agg_index]
        if dom.starts.size == 0:
            return None
        c_lo, c_hi = self.funnel.spans()
        keep = c_hi > c_lo  # an access of no tiles spans nothing
        c_lo, c_hi = c_lo[keep], c_hi[keep]
        starts, ends = dom.starts, dom.ends
        # First domain byte inside each [c_lo, c_hi).
        i = ends.searchsorted(c_lo, side="right")
        first = starts[np.minimum(i, starts.size - 1)]
        ok = (i < starts.size) & (first < c_hi)
        # Last domain byte inside each [c_lo, c_hi).
        j = starts.searchsorted(c_hi, side="left") - 1
        last = ends[np.maximum(j, 0)]
        ok_hi = (j >= 0) & (last > c_lo)
        if not ok.any() or not ok_hi.any():
            return None
        lo = int(np.maximum(first[ok], c_lo[ok]).min())
        hi = int(np.minimum(last[ok_hi], c_hi[ok_hi]).max())
        if hi <= lo:
            return None
        return (lo, hi)

    # -- per-round routing ------------------------------------------------------
    def client_send_plan(self, r: int) -> List[Optional[SegmentBatch]]:
        """What my data contributes to each aggregator's round-r window,
        as memory-address batches.

        The host routes every window in one pass (:meth:`FanCursor.route
        <repro.datatypes.segments.FanCursor.route>`); the model charges
        the paper's per-aggregator walk (§5.3).  Per aggregator with a
        non-empty window, in aggregator order: one progress-heap
        operation when ``use_heap`` is on, then one charge for the pairs
        its scan evaluated and the tiles it skipped, then the two
        ``coll.client.*`` counts — the same charges, in the same order
        and number, as one scan per aggregator (the straggler model
        perturbs each ``ctx.charge`` call)."""
        env = self.env
        comm, cost, hints = env.comm, env.cost, env.hints
        plan: List[Optional[SegmentBatch]] = [None] * comm.size
        if self.router is None:
            return plan
        use_heap = hints["use_heap"]
        heap_cost = cost.cpu_heap_op * (1 + math.log2(len(self.aggs))) if use_heap else 0.0
        charge = env.ctx.charge
        pair_cost, tile_cost = cost.cpu_per_flat_pair, cost.cpu_tile_skip
        pairs_n, tiles_n = self._pairs[False], self._tiles[False]
        routed = self.router.route(self.windows[r])
        for a, got in zip(self.aggs, routed):
            if got is None:
                continue
            pairs, tiles, plan[a] = got
            if use_heap:
                charge(heap_cost)
            charge(pairs * pair_cost + tiles * tile_cost)
            pairs_n.inc(pairs)
            tiles_n.inc(tiles)
        if not use_heap:
            # Without progress tracking the client rescans its access
            # from the start for every aggregator on the next round.
            self.router.reset()
        return plan

    def agg_recv_layout(self, r: int):
        """(window, per-client buffer batches, merged write extents) for
        my aggregator role this round, or (None, ..., ...).

        The host routes every client in one pass (:meth:`FunnelCursor.route
        <repro.datatypes.segments.FunnelCursor.route>`); the model charges
        the paper's per-client intersection (§5.3): per live client, in
        client order, one charge for the pairs its scan evaluated and the
        tiles it skipped, then the two ``coll.agg.*`` counts — the same
        charges, in the same order and number, as one cursor per client.
        ``per_client[c]`` addresses client ``c``'s segments in the
        collective buffer; its ``data_offsets`` keep file order (== the
        client's data order for a monotonic view), the exchange's order
        key."""
        env = self.env
        comm = env.comm
        if self.my_agg_index < 0 or self.funnel is None:
            return None, [None] * comm.size, (None, None)
        window = self.domains[self.my_agg_index].window(r, self.cb)
        if window.empty:
            return None, [None] * comm.size, (None, None)
        cost = env.cost
        charge = env.ctx.charge
        pair_cost, tile_cost = cost.cpu_per_flat_pair, cost.cpu_tile_skip
        pairs_n, tiles_n = self._pairs[True], self._tiles[True]
        counted, batches, offs, lens = self.funnel.route(window.intervals, window.to_buffer)
        for got in counted:
            if got is not None:
                pairs, tiles = got
                charge(pairs * pair_cost + tiles * tile_cost)
                pairs_n.inc(pairs)
                tiles_n.inc(tiles)
        per_client: List[Optional[SegmentBatch]] = [None] * comm.size
        for c, batch in batches.items():
            per_client[c] = batch
        return window, per_client, merge_extents([offs], [lens])

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
        if self.funnel is not None:
            for c in crashed:
                self.funnel.drop(c)
        crash_lost = [a for a in self.aggs if a in crashed]

        if not newly_dead and not suspects and not crash_lost:
            # Pure-client deaths leave the window geometry untouched:
            # survivors carry on at the same round, minus the corpses.
            return CONTINUE
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
            self.domains = tuple(
                RealmDomain.merge(shares[ai]) if ai in surv else empty
                for ai in range(len(self.aggs))
            )
            self._dead.update(newly_dead)
            self._dead.update(crash_lost)
            for s in suspects:
                self._suspects.add(s)
                if liv is not None and liv.mark_suspect(s):
                    inj.note_suspect()
                # Survivors stop expecting the suspect's data: its access
                # description simply drops out of the aggregation.
                if self.funnel is not None:
                    self.funnel.drop(s)
            # Adopted intervals may precede a cursor's current position:
            # every monotonic scan restarts from the top.
            if self.router is not None:
                self.router.reset()
            if self.funnel is not None:
                self.funnel.reset()
            self.nrounds = max((d.nrounds(self.cb) for d in self.domains), default=0)
            self.windows = all_round_windows(self.domains, self.nrounds, self.cb)
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
            cost = env.cost
            env.ctx.charge(pairs * cost.cpu_per_flat_pair + tiles * cost.cpu_tile_skip)
            self._pairs[False].inc(pairs)
            self._tiles[False].inc(tiles)
            batch = concat_batches(parts)
            if not batch.empty:
                independent_io(
                    env, buf, self.memflat, batch, self.data_lo, self.ft_extent, write=write
                )


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
        if wbatch is not None:
            strided_io(env, wbatch, src.ft_extent, cbuf)

    @staticmethod
    def fill(env: CollEnv, src, rp: RoundPlan) -> Optional[np.ndarray]:
        if src.dying:
            # On its way to its crash site a rank reads nothing it will
            # never hand out.
            return None
        # The read's own array is the collective buffer: it is indexed
        # by the batch's buffer offsets and ends at the last merged
        # byte, and the exchange gathers only inside merged extents.
        rbatch = _merged_batch(rp)
        if rbatch is None:
            return np.empty(0, dtype=np.uint8)
        return strided_io(env, rbatch, src.ft_extent)


def strided_io(
    env: CollEnv, batch: SegmentBatch, ft_extent: int, data: Optional[np.ndarray] = None
) -> Optional[np.ndarray]:
    """One flush (``data`` given) or fill through the independent layer:
    pick the method for ``batch`` against the filetype extent
    ``ft_extent`` (conditional data sieving et al.), count it under
    ``coll.flush.<method>`` and move the bytes.  A fill returns them,
    indexed by ``batch.data_offsets``."""
    method = choose_method(env.hints, ft_extent, batch)
    env.metrics.counter(f"coll.flush.{method}").inc()
    if data is None:
        return env.adio.read_strided(batch, method)
    env.adio.write_strided(batch, data, method)
    return None


def independent_io(
    env: CollEnv,
    buf: np.ndarray,
    memflat: FlatType,
    batch: SegmentBatch,
    data_lo: int,
    ft_extent: int,
    *,
    write: bool,
) -> None:
    """Move this rank's own segments between ``buf`` and the file
    through the independent layer — ``write_ind`` / ``read_ind``, the
    suspect tail and the rejoin resume all come here.

    ``batch`` holds file offsets in ascending stream order and data
    offsets into the view's data stream, whose byte ``data_lo`` is
    ``buf``'s first (through ``memflat``).  The byte touch is charged
    once, before the I/O, in both directions."""
    # File batch with *dense* data offsets: the strided layer expects
    # data_offsets to index the packed stream it is handed, and
    # gather/scatter produce exactly that stream.
    dense = np.zeros(batch.lengths.size, dtype=np.int64)
    np.cumsum(batch.lengths[:-1], out=dense[1:])
    fbatch = SegmentBatch(batch.file_offsets, batch.lengths.copy(), dense)
    membatch = mem_batch_for(memflat, batch.data_offsets - data_lo, batch.lengths)
    total = int(batch.total_bytes)
    env.ctx.charge(total * env.cost.cpu_per_byte_touch)
    if write:
        strided_io(env, fbatch, ft_extent, gather_segments(buf, membatch))
    else:
        scatter_segments(buf, membatch, strided_io(env, fbatch, ft_extent)[:total])
