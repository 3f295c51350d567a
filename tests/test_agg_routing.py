"""One routing pass per round on the aggregator side.

* ``_Plan``'s aggregator half — ``_exchange_access_descriptions`` (each
  distinct description decoded once, clients grouped around shared
  cursors), ``_request_bounds``, ``agg_recv_layout`` (one
  :class:`FunnelCursor` pass) and the drops and rewinds of ``_gone`` —
  against the per-client loop it replaced, kept here as the reference:
  one cursor per client with the per-tile / linear-scan bodies of
  ``FlatCursor``, one intersection per window interval, one
  ``to_buffer`` per client, the old ``merge_extents`` body.  Drawn over
  shared and distinct descriptions, succinct and enumerated types,
  per-client ``disp``, ``data_lo > 0``, a partial last tile, realm
  strategies whose windows hold several intervals (persistent cyclic
  realms), empty windows, many rounds, and clients crashed, suspected
  or failed over mid-call.  Per-client batches (values and dtypes),
  merged extents, request bounds, every ``ctx.charge`` value in order,
  the ``coll.agg.*`` increments and every scan position must agree
  after every round;
* one host-cost bound: the Python functions of ``repro.core`` and
  ``repro.datatypes`` one aggregator round enters do not grow with the
  client count;
* a client whose ``disp`` or data window is bad still raises its own
  ``DatatypeError`` when it shares its description with valid clients;
* ``merge_extents`` against its old ``np.maximum.at`` body.
"""

from __future__ import annotations

import contextlib
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core
import repro.datatypes
from repro.config import DEFAULT_COST_MODEL
from repro.core.plan import concat_batches, merge_extents
from repro.core.realms import EvenPartition, RealmDomain
from repro.core.rounds import CONTINUE, RESTART
from repro.core.two_phase_new import _Plan
from repro.datatypes import BYTE, contiguous, resized
from repro.datatypes.segments import FlatCursor, SegmentBatch
from repro.datatypes.serialize import encode_flat
from repro.errors import DatatypeError
from repro.mpi.comm import HostTable
from test_client_routing import RefCursor, accesses, layouts

COST = DEFAULT_COST_MODEL
NPROCS = 8


# -- the parent's per-client loop ------------------------------------------------------------
def ref_merge_extents(offset_arrays, length_arrays):
    """``merge_extents`` as it was: run ends through ``np.maximum.at``."""
    empty = np.empty(0, dtype=np.int64)
    if not offset_arrays:
        return empty, empty
    offs = np.concatenate(list(offset_arrays))
    lens = np.concatenate(list(length_arrays))
    if offs.size == 0:
        return empty, empty
    order = np.argsort(offs, kind="stable")
    offs = offs[order]
    ends = offs + lens[order]
    run_end = np.maximum.accumulate(ends)
    new_run = np.empty(offs.size, dtype=bool)
    new_run[0] = True
    np.greater(offs[1:], run_end[:-1], out=new_run[1:])
    run_ids = np.cumsum(new_run) - 1
    out_offs = offs[new_run]
    out_ends = np.zeros(out_offs.size, dtype=np.int64)
    np.maximum.at(out_ends, run_ids, ends)
    return out_offs, out_ends - out_offs


class RefAgg:
    """The parent's aggregator side: one cursor per client."""

    def __init__(self, payloads):
        self.cursors = [None if p is None else RefCursor(p[0], p[1], p[2], p[3]) for p in payloads]
        self.live = [p is not None for p in payloads]
        self.charges, self.pairs, self.tiles = [], [], []

    def drop(self, c):
        self.live[c] = False

    @property
    def positions(self):
        return [None if cur is None else cur.position for cur in self.cursors]

    def reset(self):
        for cur in self.cursors:
            if cur is not None:
                cur.reset()

    def bounds(self, dom):
        """The parent's ``_request_bounds`` loop."""
        if dom.starts.size == 0:
            return None
        lo = hi = None
        for cur, live in zip(self.cursors, self.live):
            if not live or cur.tiles == 0:
                continue
            c_lo, c_hi = cur.first_byte, cur.last_byte
            if c_hi <= c_lo:
                continue
            i = int(np.searchsorted(dom.ends, c_lo, side="right"))
            if i < dom.starts.size and dom.starts[i] < c_hi:
                cand = max(int(dom.starts[i]), c_lo)
                lo = cand if lo is None else min(lo, cand)
            j = int(np.searchsorted(dom.starts, c_hi, side="left")) - 1
            if j >= 0 and dom.ends[j] > c_lo:
                cand = min(int(dom.ends[j]), c_hi)
                hi = cand if hi is None else max(hi, cand)
        if lo is None or hi is None or hi <= lo:
            return None
        return (lo, hi)

    def layout(self, window):
        """The parent's ``agg_recv_layout`` body (``_intersect_window``
        per client)."""
        per_client = [None] * len(self.cursors)
        ext_offs, ext_lens = [], []
        for c, cur in enumerate(self.cursors):
            if not self.live[c]:
                continue
            parts, pairs, tiles = [], 0, 0
            for w_lo, w_hi in window.intervals:
                b = cur.intersect(w_lo, w_hi)
                pairs += b.pairs_evaluated
                tiles += b.tiles_skipped
                if not b.empty:
                    parts.append(b)
            self.charges.append(pairs * COST.cpu_per_flat_pair + tiles * COST.cpu_tile_skip)
            self.pairs.append(pairs)
            self.tiles.append(tiles)
            batch = concat_batches(parts)
            if batch.empty:
                continue
            per_client[c] = SegmentBatch(window.to_buffer(batch.file_offsets), batch.lengths, batch.file_offsets)
            ext_offs.append(batch.file_offsets)
            ext_lens.append(batch.lengths)
        return per_client, ref_merge_extents(ext_offs, ext_lens)


# -- the planner under test, without a cluster ------------------------------------------------
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


def planner(payloads, me, aggs, domains, cb, exchange=True):
    """A ``_Plan`` on rank ``me`` holding exactly what its aggregator half
    reads; ``payloads[c]`` is client ``c``'s ``(flat, disp, data_hi,
    data_lo)`` or ``None``.  Runs the real description exchange unless
    ``exchange`` is false."""
    plan = object.__new__(_Plan)
    own = payloads[me]
    comm = SimpleNamespace(
        rank=me,
        size=len(payloads),
        host=HostTable(len(payloads)),
        isend=lambda obj, dest, tag: None,
        recv=lambda src, tag: None if payloads[src] is None else (encode_flat(payloads[src][0]), *payloads[src][1:]),
    )
    counters = {}
    plan.env = SimpleNamespace(
        comm=comm,
        ctx=_Log(),
        cost=COST,
        hints={},
        metrics=SimpleNamespace(counter=lambda name: counters.setdefault(name, _Log())),
        view=SimpleNamespace(flat=own[0] if own else None, disp=own[1] if own else 0),
    )
    plan.data_lo, plan.data_hi = (own[3], own[2]) if own else (0, 0)
    plan.total_bytes = plan.data_hi - plan.data_lo
    plan.aggs, plan.my_agg_index = aggs, aggs.index(me)
    plan.domains, plan.cb = domains, cb
    plan._known_dead, plan._suspects, plan._dead = set(), set(), set()
    plan._injector = plan._liveness = None
    plan.router = None
    plan.i_am_suspect = False
    plan._pairs = (_Log(), _Log())
    plan._tiles = (_Log(), _Log())
    if exchange:
        plan._exchange_access_descriptions()
    return plan


def _same_layout(got, want):
    (g_per, g_merged), (w_per, w_merged) = got, want
    assert len(g_per) == len(w_per)
    for c, (g, w) in enumerate(zip(g_per, w_per)):
        assert (g is None) == (w is None), c
        if w is None:
            continue
        for name in ("file_offsets", "lengths", "data_offsets"):
            x, y = getattr(g, name), getattr(w, name)
            assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y), (c, name)
        assert (g.pairs_evaluated, g.tiles_skipped) == (0, 0)
    for x, y in zip(g_merged, w_merged):
        assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y)


# -- the draws --------------------------------------------------------------------------------
@st.composite
def clients(draw):
    """Per rank ``None`` or ``(flat, disp, data_hi, data_lo)``: a few
    descriptions shared among the ranks, each rank with its own
    ``disp`` and sometimes its own size or data window."""
    pool = draw(st.lists(accesses(), min_size=1, max_size=3))
    out = []
    for _ in range(NPROCS):
        if draw(st.integers(0, 5)) == 0:
            out.append(None)
            continue
        flat, disp, data_lo, data_hi, _ = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            disp = draw(st.integers(0, 60))
        if draw(st.integers(0, 3)) == 0:
            data_hi = draw(st.integers(data_lo + 1, data_hi))
        if draw(st.integers(0, 3)) == 0:  # the same size, another data window
            data_lo = draw(st.integers(0, data_hi - 1)) if draw(st.booleans()) else 0
        out.append((flat, disp, data_hi, data_lo))
    return out


@given(payloads=clients(), data=st.data(), cb=st.integers(1, 200))
@settings(max_examples=200, deadline=None)
def test_one_pass_matches_the_per_client_loop(payloads, data, cb):
    if all(p is None for p in payloads):
        payloads[0] = (resized(contiguous(4, BYTE), 0, 16).flatten(), 0, 40, 0)
    probes = [FlatCursor(*p) for p in payloads if p is not None]
    domains = data.draw(layouts(min(p.first_byte for p in probes), max(p.last_byte for p in probes)))
    naggs = len(domains)
    aggs = sorted(data.draw(st.lists(st.integers(0, NPROCS - 1), min_size=naggs, max_size=naggs, unique=True)))
    me = data.draw(st.sampled_from(aggs))
    ref = RefAgg(payloads)
    plan = planner(payloads, me, aggs, domains, cb)

    # The description exchange: my flattening, then one charge per client.
    own = [payloads[me][0].num_segments * COST.cpu_per_flat_pair] if payloads[me] else []
    want = own + [p[0].num_segments * COST.cpu_per_flat_pair for p in payloads if p is not None]
    assert plan.env.ctx.log == want
    del plan.env.ctx.log[:]

    ai = aggs.index(me)
    b = plan._request_bounds()
    assert b == ref.bounds(domains[ai])
    plan.domains[ai] = domains[ai].clip(*b) if b else domains[ai].clip(0, 0)
    plan.nrounds = max(d.nrounds(cb) for d in plan.domains)
    assert plan.funnel.positions == ref.positions

    # Mid-call events, each at a drawn boundary: a client crashes, a
    # client is suspected, an aggregator role is lost.
    others = [c for c in range(NPROCS) if c != me]
    events = {}
    for kind in ("crashed", "suspects", "roles"):
        if data.draw(st.booleans()):
            pick = [a for a in aggs if a != me] if kind == "roles" else others
            if pick:
                events[data.draw(st.integers(0, 4))] = (kind, data.draw(st.sampled_from(pick)))
    r = rounds = 0
    while r < plan.nrounds and rounds < 60:
        event = events.pop(rounds, None)
        if event is not None:
            kind, who = event
            args = {"roles": [], "suspects": [], "crashed": []}
            args[kind] = [who]
            verdict = plan._gone(r, None, True, args["roles"], args["suspects"], args["crashed"], -1)
            if kind != "roles":
                ref.drop(who)
            if verdict == RESTART:
                ref.reset()
                r = 0
            else:
                assert verdict == CONTINUE
            if r >= plan.nrounds:
                break
        window, per_client, merged = plan.agg_recv_layout(r)
        w = plan.domains[ai].window(r, cb)
        if w.empty:
            assert window is None and per_client == [None] * NPROCS and merged == (None, None)
        else:
            _same_layout((per_client, merged), ref.layout(w))
        assert plan.env.ctx.log == ref.charges
        assert (plan._pairs[1].log, plan._tiles[1].log) == (ref.pairs, ref.tiles)
        assert not (plan._pairs[0].log or plan._tiles[0].log)
        assert plan.funnel.positions == ref.positions
        r += 1
        rounds += 1


@pytest.mark.parametrize("first, last", [(10, 25), (5, 20), (10, 20), (0, 30), (12, 18)])
def test_request_bounds_at_domain_interval_edges(first, last):
    """A client starting where a domain interval ends, or ending where
    the next one starts."""
    payloads = [(contiguous(last - first, BYTE).flatten(), first, last - first, 0), None, None]
    dom = RealmDomain(np.array([0, 20], dtype=np.int64), np.array([10, 30], dtype=np.int64))
    plan = planner(payloads, 0, [0], [dom], 64)
    assert plan._request_bounds() == RefAgg(payloads).bounds(dom)


# -- bad clients sharing a description ----------------------------------------------------------
@pytest.mark.parametrize(
    "bad, message",
    [((-8, 256, 0), "view displacement must be non-negative, got -8"), ((64, 100, 200), r"data window \[200, 100\)")],
    ids=["negative-disp", "bad-data-window"],
)
def test_a_bad_client_sharing_a_description_raises_its_own_error(bad, message):
    flat = resized(contiguous(16, BYTE), 0, 64).flatten()
    payloads = [(flat, 16 * c, 256, 0) for c in range(4)]
    payloads[2] = (flat, *bad)
    domains = [d.domain(0, 1024) for d in EvenPartition().assign(0, 1024, 1)]
    with pytest.raises(DatatypeError, match=message):
        planner(payloads, 0, [0], domains, 128)


def test_a_bad_client_is_charged_like_the_per_client_loop():
    """Clients before it and itself are charged, none after."""
    flat = resized(contiguous(16, BYTE), 0, 64).flatten()
    payloads = [(flat, 16 * c, 256, 0) for c in range(4)]
    payloads[2] = (flat, -8, 256, 0)
    domains = [d.domain(0, 1024) for d in EvenPartition().assign(0, 1024, 1)]
    plan = planner(payloads, 0, [0], domains, 128, exchange=False)
    with pytest.raises(DatatypeError):
        plan._exchange_access_descriptions()
    assert plan.env.ctx.log == [COST.cpu_per_flat_pair] * 4  # mine, then clients 0, 1, 2


# -- host cost: one pass, whatever the client count --------------------------------------------
_LAYERS = tuple(str(Path(m.__file__).parent) for m in (repro.core, repro.datatypes))


def _round_calls(nclients: int) -> int:
    """Python functions of ``repro.core`` + ``repro.datatypes`` entered
    by one ``agg_recv_layout`` round of aggregator 0 of 4 over a Fig. 4
    access (succinct 64 B regions), every client shipping the same
    description."""
    flat = resized(contiguous(64, BYTE), 0, 64 * nclients).flatten()
    total = 64 * 1024
    payloads = [(flat, 64 * c, total, 0) for c in range(nclients)]
    last = 64 * nclients * 1024
    domains = [r.domain(0, last) for r in EvenPartition().assign(0, last, 4)]
    plan = planner(payloads, 0, [0, 1, 2, 3], domains, 1 << 22)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_LAYERS):
            calls += 1

    outer = sys.getprofile(), threading.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        window, per_client, merged = plan.agg_recv_layout(0)
    finally:
        sys.setprofile(outer[0])
        threading.setprofile(outer[1])
    assert sum(b.total_bytes for b in per_client if b is not None) == window.total_bytes == last // 4
    assert merged[0].tolist() == [0]
    return calls


def test_a_round_enters_the_same_python_calls_at_any_client_count():
    """4, 16 and 64 clients sharing one description: one count, at most
    25 (22 on Python 3.11; the per-client loop entered 64 / 232 / 904)."""
    _round_calls(4)  # warm imports
    calls = {n: _round_calls(n) for n in (4, 16, 64)}
    assert len(set(calls.values())) == 1, calls
    assert calls[4] <= 25, calls


# -- merge_extents ------------------------------------------------------------------------------
@given(
    parts=st.lists(
        st.lists(st.tuples(st.integers(0, 200), st.integers(0, 40)), max_size=12), max_size=5
    )
)
@settings(max_examples=300, deadline=None)
def test_merge_extents_matches_its_old_body(parts):
    """Overlapping, adjacent, nested and zero-length extents."""
    offs = [np.array([o for o, _ in p], dtype=np.int64) for p in parts]
    lens = [np.array([n for _, n in p], dtype=np.int64) for p in parts]
    got, want = merge_extents(offs, lens), ref_merge_extents(offs, lens)
    for x, y in zip(got, want):
        assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y)
