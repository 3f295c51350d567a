"""The baseline planner on the shared routers.

* ``two_phase_old._OldPlan`` — a client round through one
  :class:`FanCursor` pass over every aggregator's window, an aggregator
  round through one :class:`FunnelCursor` pass over the received
  offset/length lists (each a one-tile enumerated description), even
  realms as one-interval domains clipped to the request bounds — against
  the per-aggregator and per-client loops it replaced, kept here as the
  reference (:class:`RefOldPlan`: ``my_parts`` / ``client_reqs`` /
  ``win_bounds``, ``clip_to_range`` + ``mem_batch_for`` per aggregator,
  ``clip_to_range`` per client, the request-bounds loop, the re-plan's
  ``win_bounds`` arithmetic).  Both planners run whole on every rank of
  an in-process cluster: one thread per rank, collectives in lock step.
  Drawn over succinct and enumerated views, ``data_lo > 0``, partial
  last tiles, contiguous and strided memory, ranks without data,
  aggregator counts and layouts, buffer sizes from one byte (many
  rounds, empty windows) up, and covered gaps — drawn, or left by a
  fail-stop re-plan at a drawn round — that leave a client's window
  fully covered, partly covered or cut in two.  Every round's send and
  receive batches (values and dtypes), window span, merged extents,
  request bounds and round count, every charge and counter, and the
  bytes a re-plan reports failed over must agree;
* ``_uncovered`` on the shapes a covered gap gives a window;
* host cost: the Python functions of ``repro.core`` and
  ``repro.datatypes`` one round enters, less its scans, do not grow
  with the aggregator and client count; an aggregator scans each client
  with requests at most once; a fault-free round enters no covered cut.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
from pathlib import Path
from types import SimpleNamespace
from typing import List, Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core
import repro.datatypes
from repro.config import DEFAULT_COST_MODEL
from repro.core.aggregation import select_aggregators
from repro.core.plan import clip_to_range, compute_aar, mem_batch_for, merge_extents, subtract_intervals
from repro.core.plancache import RoundPlan
from repro.core.realms import EvenPartition, Window
from repro.core.rounds import CONTINUE, RESTART, RoundSource
from repro.core.two_phase_old import _OldPlan, _uncovered
from repro.datatypes import BYTE, contiguous, resized
from repro.datatypes.segments import FlatCursor, SegmentBatch
from repro.mpi.comm import HostTable
from test_client_routing import accesses

COST = DEFAULT_COST_MODEL


# -- the parent's planner ----------------------------------------------------------------------
class RefOldPlan(RoundSource):
    """``_OldPlan`` as it was: window tuples, per-aggregator parts,
    per-client request batches."""

    def __init__(self, env, memflat, total_bytes, data_lo=0):
        super().__init__(env)
        self.memflat, self.total_bytes, self.data_lo = memflat, total_bytes, data_lo
        self._covered: List[tuple] = []
        self._plan()

    def _plan(self):
        env, total_bytes, data_lo = self.env, self.total_bytes, self.data_lo
        ctx, comm, cost, hints = env.ctx, env.comm, env.cost, env.hints
        coll = self.coll
        client_pairs = env.metrics.counter("coll.client.pairs")
        if total_bytes > 0:
            cursor = env.view.cursor(data_lo + total_bytes, data_lo)
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
            lo = int(self.my_access.file_offsets[0])
            hi = int((self.my_access.file_offsets + self.my_access.lengths).max())
        self.aar_lo, self.aar_hi = compute_aar(coll, lo, hi, not self.my_access.empty)
        self.aggs = self._live_aggregators(
            select_aggregators(comm.size, hints["cb_nodes"])
        )
        self.my_agg_index = self.aggs.index(comm.rank) if comm.rank in self.aggs else -1
        realms = EvenPartition().assign(self.aar_lo, self.aar_hi, len(self.aggs))
        self.bounds = []
        for realm in realms:
            dom = realm.domain(self.aar_lo, self.aar_hi)
            if dom.starts.size:
                self.bounds.append((int(dom.starts[0]), int(dom.ends[-1])))
            else:
                self.bounds.append((self.aar_hi, self.aar_hi))
        self.my_parts = []
        send_objs: List[Optional[object]] = [None] * comm.size
        for ai, a in enumerate(self.aggs):
            part = clip_to_range(self.my_access, *self.bounds[ai])
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
        mine = None
        if self.my_agg_index >= 0:
            req_lo = req_hi = None
            for reqs in self.client_reqs:
                if reqs is None or reqs.empty:
                    continue
                lo_ = int(reqs.file_offsets[0])
                hi_ = int((reqs.file_offsets + reqs.lengths).max())
                req_lo = lo_ if req_lo is None else min(req_lo, lo_)
                req_hi = hi_ if req_hi is None else max(req_hi, hi_)
            mine = (req_lo, req_hi) if req_lo is not None else None
        gathered = coll.allgather(mine)
        self.win_bounds = [
            (gathered[a][0], gathered[a][1]) if gathered[a] is not None else (0, 0) for a in self.aggs
        ]
        self.cb = cb = hints["cb_buffer_size"]
        spans = [max(hi_ - lo_, 0) for lo_, hi_ in self.win_bounds]
        self.nrounds = max((-(-s // cb) for s in spans if s), default=0)

    def my_window(self, ai, r):
        lo, hi = self.win_bounds[ai]
        w_lo = lo + r * self.cb
        w_hi = min(w_lo + self.cb, hi)
        return w_lo, max(w_hi, w_lo)

    def _gone(self, r, buf, write, roles, suspects, crashed, reporter):
        if not crashed:
            return CONTINUE
        for ai, a in enumerate(self.aggs):
            lo, hi = self.win_bounds[ai]
            done_hi = min(lo + r * self.cb, hi)
            if done_hi > lo:
                self._covered.append((lo, done_hi))
            if a in crashed and self.env.comm.rank == reporter:
                self._injector.note_failover(a, max(hi - done_hi, 0))
        self._plan()
        return RESTART

    def _route(self, r):
        send: List[Optional[SegmentBatch]] = [None] * self.env.comm.size
        if self.total_bytes:
            for ai, a in enumerate(self.aggs):
                w_lo, w_hi = self.my_window(ai, r)
                if w_hi <= w_lo:
                    continue
                part = clip_to_range(self.my_parts[ai], w_lo, w_hi)
                if not part.empty:
                    send[a] = mem_batch_for(self.memflat, part.data_offsets - self.data_lo, part.lengths)
        size = self.env.comm.size
        if self.my_agg_index < 0:
            return RoundPlan(send, None, [None] * size, (None, None))
        w_lo, w_hi = self.my_window(self.my_agg_index, r)
        if w_hi <= w_lo:
            return RoundPlan(send, None, [None] * size, (None, None))
        per_client: List[Optional[SegmentBatch]] = [None] * size
        ext_offs, ext_lens = [], []
        for c in range(size):
            reqs = self.client_reqs[c]
            if reqs is None:
                continue
            part = clip_to_range(reqs, w_lo, w_hi)
            if part.empty:
                continue
            per_client[c] = SegmentBatch(part.file_offsets - w_lo, part.lengths, part.file_offsets)
            ext_offs.append(part.file_offsets)
            ext_lens.append(part.lengths)
        return RoundPlan(send, (w_lo, w_hi), per_client, merge_extents(ext_offs, ext_lens))


# -- an in-process cluster ---------------------------------------------------------------------
class _Lockstep:
    """Every rank's value of one collective, once all have arrived."""

    def __init__(self, size: int) -> None:
        self.slots: List[object] = [None] * size
        self.barrier = threading.Barrier(size, timeout=60)

    def swap(self, rank: int, obj):
        self.slots[rank] = obj
        self.barrier.wait()
        got = list(self.slots)
        self.barrier.wait()
        return got


class _Comm:
    def __init__(self, rank: int, size: int, step: _Lockstep) -> None:
        self.rank, self.size, self.step = rank, size, step
        # These threads run at once, not one at a time as the engine's
        # ranks do, so each keeps its own table of shared results.
        self.host = HostTable(size)

    def allgather(self, obj):
        return self.step.swap(self.rank, obj)

    def allreduce(self, obj, op):
        return functools.reduce(op, self.step.swap(self.rank, obj))

    def alltoall(self, objs):
        return [row[self.rank] for row in self.step.swap(self.rank, objs)]


class _Log:
    def __init__(self):
        self.log = []

    def inc(self, n=1):
        self.log.append(n)

    def charge(self, dt):
        self.log.append(dt)

    @staticmethod
    def trace(*args, **kwargs):
        return contextlib.nullcontext()


def _env(comm, hints, access):
    counters = {}
    ctx = _Log()
    ctx.shared = {}
    flat, disp = (access[0], access[1]) if access else (None, 0)
    return SimpleNamespace(
        comm=comm,
        ctx=ctx,
        cost=COST,
        hints=hints,
        eff=SimpleNamespace(boundary_kinds=()),
        metrics=SimpleNamespace(counter=lambda name: counters.setdefault(name, _Log()), counters=counters),
        view=SimpleNamespace(cursor=lambda hi, lo: FlatCursor(flat, disp, hi, lo)),
    )


def run_cluster(body, size: int):
    """``body(rank, comm)`` on ``size`` threads; the results by rank."""
    step = _Lockstep(size)
    out: List[object] = [None] * size
    errors: List[BaseException] = []

    def run(rank):
        try:
            out[rank] = body(rank, _Comm(rank, size, step))
        except Exception as exc:  # re-raised below
            errors.append(exc)
            step.barrier.abort()

    threads = [threading.Thread(target=run, args=(rank,)) for rank in range(size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "a rank never finished"
    real = [e for e in errors if not isinstance(e, threading.BrokenBarrierError)]
    if errors:
        raise (real or errors)[0]
    return out


def _planners(rank, comm, accesses_, hints):
    """Rank ``rank``'s reference and new planner over one access."""
    access = accesses_[rank]
    memflat, total, data_lo = (access[4], access[3] - access[2], access[2]) if access else (None, 0, 0)
    ref = RefOldPlan(_env(comm, hints, access), memflat, total, data_lo)
    new = _OldPlan(_env(comm, hints, access), memflat, total, data_lo)
    return ref, new


# -- comparing ---------------------------------------------------------------------------------
def _same_batches(got, want, where):
    assert len(got) == len(want)
    for p, (g, w) in enumerate(zip(got, want)):
        assert (g is None) == (w is None), (where, p)
        if w is None:
            continue
        for name in ("file_offsets", "lengths", "data_offsets"):
            x, y = getattr(g, name), getattr(w, name)
            assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y), (where, p, name)


def _same_round(got: RoundPlan, want: RoundPlan, where):
    _same_batches(got.send, want.send, (*where, "send"))
    _same_batches(got.recv, want.recv, (*where, "recv"))
    if want.window is None:
        assert got.window is None and got.merged == (None, None), where
        return
    assert isinstance(got.window, Window) and got.window.starts.size == 1, where
    assert (int(got.window.starts[0]), int(got.window.ends[0])) == want.window, where
    assert got.window.total_bytes == want.window[1] - want.window[0]
    for x, y in zip(got.merged, want.merged):
        assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y), where


def _same_plan(new, ref, where):
    """Request bounds, round count and every charge and count so far."""
    assert new.nrounds == ref.nrounds, where
    for ai, dom in enumerate(new.domains):
        lo, hi = ref.win_bounds[ai]
        span = [(int(s), int(e)) for s, e in zip(dom.starts, dom.ends)]
        assert span == ([(lo, hi)] if hi > lo else []), (where, ai)
    assert new.env.ctx.log == ref.env.ctx.log, where
    got, want = new.env.metrics.counters, ref.env.metrics.counters
    assert {k: v.log for k, v in got.items()} == {k: v.log for k, v in want.items()}, where


# -- the differential --------------------------------------------------------------------------
@st.composite
def clusters(draw):
    """Per rank ``None`` (no data) or an access, plus the hints."""
    size = draw(st.integers(1, 6))
    pool = draw(st.lists(accesses(), min_size=1, max_size=3))
    if draw(st.booleans()):
        # Whole tiles that abut: the shipped lists hold one piece per
        # tile, which a coalescing description would merge.
        flat, disp, _, _, memflat = pool[0]
        pool.append((contiguous(flat.size, BYTE).flatten(), disp, 0, flat.size * draw(st.integers(2, 12)), memflat))
    ranks = []
    for _ in range(size):
        if draw(st.integers(0, 5)) == 0:
            ranks.append(None)
            continue
        flat, disp, data_lo, data_hi, memflat = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            disp = draw(st.integers(0, 120))
        ranks.append((flat, disp, data_lo, data_hi, memflat))
    hints = {
        "cb_nodes": draw(st.integers(0, size)),
        "cb_buffer_size": draw(st.sampled_from([1, 7, 16, 50, 200, 1 << 20])),
    }
    return ranks, hints


@st.composite
def gaps(draw, lo, hi):
    """Covered intervals inside [lo, hi), sorted by start, possibly
    overlapping (successive re-plans cover what they cover)."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.integers(lo, max(hi - 1, lo)))
        out.append((a, a + draw(st.integers(1, 60))))
    return sorted(out)


@given(cluster=clusters(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_shared_routers_match_the_parents_loops(cluster, data):
    ranks, hints = cluster
    size = len(ranks)
    spans = [FlatCursor(a[0], a[1], a[3], a[2]) for a in ranks if a]
    lo = min((c.first_byte for c in spans), default=0)
    hi = max((c.last_byte for c in spans), default=1)
    # A re-plan: drawn covered gaps, or a fail-stop death at a round.
    replan = data.draw(st.sampled_from(["none", "gaps", "death"]))
    covered = data.draw(gaps(lo, hi)) if replan == "gaps" else []
    at = data.draw(st.integers(0, 3))

    def body(rank, comm):
        ref, new = _planners(rank, comm, ranks, hints)
        _same_plan(new, ref, (rank, "plan"))
        r, replanned = 0, replan == "none"
        # Every rank agrees on the round count, so every rank reaches the
        # re-plan's collectives together.
        while True:
            if not replanned and r == min(at, ref.nrounds):
                replanned = True
                if covered:
                    ref._covered, new._covered = list(covered), list(covered)
                    ref._plan()
                    new._plan()
                else:
                    # Rank 0 reports the first aggregator's death.
                    notes = []
                    for plan in (ref, new):
                        plan._injector = SimpleNamespace(note_failover=lambda *a: notes.append(a))
                        assert plan._gone(r, None, True, [], [], [ref.aggs[0]], 0) == RESTART
                    assert new._covered == sorted(ref._covered)
                    assert notes[: len(notes) // 2] == notes[len(notes) // 2 :], notes
                _same_plan(new, ref, (rank, "replan"))
                r = 0
            if r >= ref.nrounds:
                break
            _same_round(new._route(r), ref._route(r), (rank, r))
            r += 1
        _same_plan(new, ref, (rank, "end"))

    run_cluster(body, size)


# -- the covered cut ---------------------------------------------------------------------------
def test_uncovered_cuts_windows_around_covered_gaps():
    covered = [(10, 20), (15, 30), (40, 50)]
    windows = [None, [(10, 30)], [(0, 12)], [(5, 45)], [(30, 40)], [(35, 60), (70, 80)], []]
    assert _uncovered(windows, covered) == [
        None,
        [],  # fully covered, by two overlapping gaps
        [(0, 10)],  # partly covered
        [(5, 10), (30, 40)],  # cut in two
        [(30, 40)],  # between gaps
        [(35, 40), (50, 60), (70, 80)],
        [],
    ]


# -- host cost ---------------------------------------------------------------------------------
_LAYERS = tuple(str(Path(m.__file__).parent) for m in (repro.core, repro.datatypes))
_SCAN = FlatCursor.scan.__code__
_CUT = _uncovered.__code__


def _round_calls(n: int):
    """Python functions of ``repro.core`` + ``repro.datatypes`` that rank
    0's round 0 enters on ``n`` ranks, every one an aggregator, each
    writing 64 64-byte regions interleaved with every other rank's
    (Fig. 4's geometry): ``(calls, scans, in_scans, cuts)`` — all calls,
    ``FlatCursor.scan`` calls, calls in or under a scan, covered cuts."""
    flat = resized(contiguous(64, BYTE), 0, 64 * n).flatten()
    memflat = contiguous(1, BYTE).flatten()
    total = 64 * 64
    ranks = [(flat, 64 * c, 0, total, memflat) for c in range(n)]
    hints = {"cb_nodes": n, "cb_buffer_size": 1 << 22}
    plan = run_cluster(lambda rank, comm: _planners(rank, comm, ranks, hints)[1], n)[0]
    calls = scans = in_scans = cuts = depth = 0

    def profile(frame, event, arg):
        nonlocal calls, scans, in_scans, cuts, depth
        code = frame.f_code
        if event == "return" and code is _SCAN:
            depth -= 1
        if event != "call" or not code.co_filename.startswith(_LAYERS):
            return
        calls += 1
        cuts += code is _CUT
        if code is _SCAN:
            scans += 1
            depth += 1
        in_scans += depth > 0

    outer = sys.getprofile(), threading.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        rp = plan._route(0)
    finally:
        sys.setprofile(outer[0])
        threading.setprofile(outer[1])
    assert sum(b.total_bytes for b in rp.send if b is not None) == total
    assert sum(b is not None for b in rp.recv) == n  # every client has requests here
    assert rp.window.total_bytes == 64 * 64
    return calls, scans, in_scans, cuts


def test_a_round_enters_the_same_python_calls_at_any_aggregator_count():
    """4, 16 and 64 ranks, each a client and an aggregator: outside its
    scans a round enters one count of calls, at most 28 (26 on Python
    3.11; in all 36 / 60 / 156, and 42 / 66 / 162 while every client leg
    was materialised, where the parent's loops entered 41 / 149 / 581);
    it scans once as a client and at most once per client with requests
    as an aggregator, each scan entering at most one call more; it cuts
    nothing."""
    _round_calls(4)  # warm imports
    got = {n: _round_calls(n) for n in (4, 16, 64)}
    assert len({calls - in_scans for calls, _, in_scans, _ in got.values()}) == 1, got
    for n, (_, scans, in_scans, cuts) in got.items():
        assert scans <= 1 + n and in_scans <= 2 * scans and cuts == 0, got
    assert got[4][0] - got[4][2] <= 28, got
