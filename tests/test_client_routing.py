"""One routing pass per round on the client side.

* ``_Plan.client_send_plan`` (one :class:`FanCursor` pass over every
  aggregator's window) against the per-aggregator loop it replaced,
  kept here as the reference: one cursor per aggregator with the
  per-tile / linear-scan bodies of ``FlatCursor``, one intersection per
  window interval, one ``mem_batch_for`` per aggregator.  Drawn over
  realm strategies (even / aligned / balanced and persistent cyclic
  realms, whose windows hold several intervals), succinct and
  enumerated filetypes, ``data_lo > 0``, a partial last tile, several
  rounds, empty windows, ``use_heap`` on and off and a failover re-carve.
  Batches (values and dtypes), per-aggregator pairs and tiles, every
  ``ctx.charge`` value in order and every scan position must agree
  after every round;
* one host-cost bound: the Python functions of ``repro.core`` and
  ``repro.datatypes`` one round enters do not grow with the aggregator
  count;
* the wire form: ``decode_flat(encode_flat(f)) == f``, and a payload
  with a bad header or a non-positive length still raises.
"""

from __future__ import annotations

import math
import struct
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
from repro.core.plan import concat_batches
from repro.core.realms import (
    AlignedPartition,
    BalancedPartition,
    EvenPartition,
    RealmDomain,
    make_cyclic_realms,
)
from repro.core.two_phase_new import _Plan
from repro.datatypes import BYTE, contiguous, hvector, resized
from repro.datatypes.flatten import FlatType
from repro.datatypes.segments import FanCursor, FlatCursor, SegmentBatch, _tiled_pairs
from repro.datatypes.serialize import HEADER_BYTES, decode_flat, encode_flat
from repro.errors import DatatypeError
from test_datatypes_blockwise import ref_data_to_file_segments

COST = DEFAULT_COST_MODEL


# -- the parent's per-aggregator loop -------------------------------------------------
def ref_clip(file_start, length, data_off, lo, hi, total_bytes, data_lo):
    front = np.maximum(lo - file_start, 0)
    if data_lo:
        front = np.maximum(front, data_lo - data_off)
    file_start, data_off, length = file_start + front, data_off + front, length - front
    length = length - np.maximum(file_start + length - hi, 0)
    length = np.minimum(length, total_bytes - data_off)
    keep = length > 0
    return file_start[keep], length[keep], data_off[keep]


class RefCursor(FlatCursor):
    """``FlatCursor`` with the bodies it had before the counting rules
    moved into :meth:`FlatCursor.scan`."""

    __slots__ = ()

    def intersect(self, lo, hi):
        flat = self.flat
        if hi <= lo or self.tiles == 0 or flat.num_segments == 0 or self.data_lo >= self.total_bytes:
            return SegmentBatch.empty_batch()
        if not self.multi_tile:
            idx_lo = int(np.searchsorted(flat.ends, lo - self.disp, side="right"))
            idx_hi = int(np.searchsorted(flat.offsets, hi - self.disp, side="left"))
            evaluated = max(0, idx_hi - self.position)
            self.position = max(self.position, idx_hi)
            if idx_lo >= idx_hi:
                return SegmentBatch.empty_batch(pairs_evaluated=evaluated)
            fs, ln, do = ref_clip(
                self.disp + flat.offsets[idx_lo:idx_hi], flat.lengths[idx_lo:idx_hi],
                flat.data_prefix[idx_lo:idx_hi], lo, hi, self.total_bytes, self.data_lo,
            )
            return SegmentBatch(fs, ln, do, pairs_evaluated=evaluated)
        ext, D = flat.extent, flat.num_segments
        t_first = max(int((lo - self.disp - flat.span_hi) // ext + 1), 0)
        t_last = min(int(-((-(hi - self.disp - flat.span_lo)) // ext) - 1), self.tiles - 1)
        skipped = max(0, t_first - self.position)
        if t_first > t_last:
            self.position = max(self.position, t_first)
            return SegmentBatch.empty_batch(tiles_skipped=skipped)
        evaluated = (t_last - t_first + 1) * D
        self.position = max(self.position, t_last + 1)
        k0 = int(flat.ends.searchsorted(lo - (self.disp + t_first * ext), side="right"))
        k1 = int(flat.offsets.searchsorted(hi - (self.disp + t_last * ext), side="left"))
        g_lo, g_hi = t_first * D + k0, t_last * D + k1
        if g_lo >= g_hi:
            return SegmentBatch.empty_batch(evaluated, skipped)
        fs, ln, do = _tiled_pairs(flat, self.disp, np.arange(g_lo, g_hi, dtype=np.int64))
        fs, ln, do = ref_clip(fs, ln, do, lo, hi, self.total_bytes, self.data_lo)
        return SegmentBatch(fs, ln, do, pairs_evaluated=evaluated, tiles_skipped=skipped)


def ref_mem_batch_for(memflat, data_offsets, lengths):
    """``mem_batch_for`` as it was: one mapping call per merged run (here
    the pair-by-pair walk)."""
    if memflat.is_contiguous:
        return SegmentBatch(data_offsets.copy(), lengths.copy(), data_offsets.copy())
    ends = data_offsets + lengths
    new_run = np.empty(data_offsets.size, dtype=bool)
    new_run[0] = True
    np.not_equal(data_offsets[1:], ends[:-1], out=new_run[1:])
    run_starts = data_offsets[new_run]
    run_lens = np.zeros(run_starts.size, dtype=np.int64)
    np.add.at(run_lens, np.cumsum(new_run) - 1, lengths)
    return concat_batches([
        ref_data_to_file_segments(memflat, 0, lo, lo + ln)
        for lo, ln in zip(run_starts.tolist(), run_lens.tolist())
    ])


class RefClient:
    """The parent's ``client_send_plan``: one cursor and one pass per
    aggregator."""

    def __init__(self, view, disp, data_lo, data_hi, memflat, aggs, nprocs, cb, use_heap):
        self.cursors = [RefCursor(view, disp, data_hi, data_lo) for _ in aggs]
        self.memflat, self.data_lo = memflat, data_lo
        self.aggs, self.nprocs, self.cb, self.use_heap = aggs, nprocs, cb, use_heap
        self.charges, self.pairs, self.tiles = [], [], []

    def send_plan(self, domains, r):
        plan = [None] * self.nprocs
        heap_cost = COST.cpu_heap_op * (1 + math.log2(len(self.aggs)))
        for ai, a in enumerate(self.aggs):
            window = domains[ai].window(r, self.cb)
            if window.empty:
                continue
            if self.use_heap:
                self.charges.append(heap_cost)
            parts, pairs, tiles = [], 0, 0
            for w_lo, w_hi in window.intervals:
                b = self.cursors[ai].intersect(w_lo, w_hi)
                pairs += b.pairs_evaluated
                tiles += b.tiles_skipped
                if not b.empty:
                    parts.append(b)
            self.charges.append(pairs * COST.cpu_per_flat_pair + tiles * COST.cpu_tile_skip)
            self.pairs.append(pairs)
            self.tiles.append(tiles)
            batch = concat_batches(parts)
            if not batch.empty:
                plan[a] = ref_mem_batch_for(self.memflat, batch.data_offsets - self.data_lo, batch.lengths)
        if not self.use_heap:
            for cur in self.cursors:
                cur.reset()
        return plan

    def reset(self):
        for cur in self.cursors:
            cur.reset()

    @property
    def positions(self):
        return [cur.position for cur in self.cursors]


# -- the planner under test, without a cluster ----------------------------------------------
class _Log:
    def __init__(self):
        self.log = []

    def inc(self, n=1):
        self.log.append(n)

    def charge(self, dt):
        self.log.append(dt)


def planner(view, disp, data_lo, data_hi, memflat, aggs, nprocs, cb, use_heap, domains):
    """A ``_Plan`` holding exactly what ``client_send_plan`` reads."""
    plan = object.__new__(_Plan)
    plan.env = SimpleNamespace(
        comm=SimpleNamespace(size=nprocs), cost=COST, hints={"use_heap": use_heap}, ctx=_Log()
    )
    plan.aggs, plan.domains, plan.cb = aggs, domains, cb
    plan.router = FanCursor(FlatCursor(view, disp, data_hi, data_lo), len(aggs), memflat)
    plan._pairs = (_Log(), _Log())
    plan._tiles = (_Log(), _Log())
    return plan


def _same_plan(got, want):
    assert len(got) == len(want)
    for a, (g, w) in enumerate(zip(got, want)):
        assert (g is None) == (w is None), a
        if w is None:
            continue
        for name in ("file_offsets", "lengths", "data_offsets"):
            x, y = getattr(g, name), getattr(w, name)
            assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y), (a, name)
        assert (g.pairs_evaluated, g.tiles_skipped) == (0, 0)


# -- the draws --------------------------------------------------------------------------------
@st.composite
def accesses(draw):
    """(view flat, disp, data_lo, data_hi, memflat): a monotonic filetype
    tiled or enumerated into one tile, an optional data offset and a
    partial last tile, and a contiguous or strided memory type."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(1, 12)), min_size=1, max_size=5))
    offs, lens, pos = [], [], draw(st.integers(0, 5))
    for gap, ln in pairs:
        pos += gap
        offs.append(pos)
        lens.append(ln)
        pos += ln
    flat = FlatType(offs, lens, pos - offs[0] + draw(st.integers(0, 20)))
    tiles = draw(st.integers(1, 24))
    if draw(st.booleans()):  # enumerated: the same pattern as one tile
        flat, tiles = flat.replicate(tiles), 1
    data_hi = max(flat.size * tiles - draw(st.integers(0, flat.size - 1)), 1)
    data_lo = draw(st.integers(0, data_hi - 1)) if draw(st.booleans()) else 0
    mem = draw(st.sampled_from(["contiguous", "strided", "ragged"]))
    memflat = {
        "contiguous": contiguous(1, BYTE).flatten(),
        "strided": hvector(3, 5, 9, BYTE).flatten(),
        "ragged": FlatType([0, 7, 11], [3, 1, 6], 25),
    }[mem]
    return flat, draw(st.integers(0, 50)), data_lo, data_hi, memflat


@st.composite
def layouts(draw, first, last):
    """Domains over the aggregate access region (widened, as other ranks'
    accesses would) from one strategy, some clipped like request bounds."""
    naggs = draw(st.integers(1, 6))
    aar_lo = max(first - draw(st.integers(0, 40)), 0)
    aar_hi = last + draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["even", "aligned", "balanced", "pfr"]))
    if kind == "pfr":
        realms = make_cyclic_realms(naggs, draw(st.integers(1, 40)))
    elif kind == "balanced":
        hist = np.array(draw(st.lists(st.integers(0, 9), min_size=8, max_size=8)), dtype=np.int64)
        realms = BalancedPartition(draw(st.integers(0, 16))).assign(aar_lo, aar_hi, naggs, histogram=hist)
    elif kind == "aligned":
        realms = AlignedPartition(draw(st.integers(1, 64))).assign(aar_lo, aar_hi, naggs)
    else:
        realms = EvenPartition().assign(aar_lo, aar_hi, naggs)
    domains = [r.domain(aar_lo, aar_hi) for r in realms]
    for ai in range(naggs):
        if draw(st.integers(0, 3)) == 0:
            lo = draw(st.integers(aar_lo, aar_hi))
            domains[ai] = domains[ai].clip(lo, draw(st.integers(lo, aar_hi)))
    return domains


def recarve(domains, consumed, lost):
    """``_Plan._gone``'s re-carve: every tail from ``consumed`` linear
    bytes on; the lost aggregator's tail split evenly over the rest."""
    tails = [d.slice_linear(consumed, d.total_bytes) for d in domains]
    survivors = [ai for ai in range(len(domains)) if ai != lost]
    shares = {ai: [tails[ai]] for ai in survivors}
    total = tails[lost].total_bytes
    chunk = -(-total // len(survivors)) if total else 0
    for k, si in enumerate(survivors):
        shares[si].append(tails[lost].slice_linear(k * chunk, (k + 1) * chunk))
    empty = RealmDomain(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    return [RealmDomain.merge(shares[ai]) if ai in shares else empty for ai in range(len(domains))]


@given(
    access=accesses(),
    data=st.data(),
    cb=st.integers(1, 200),
    use_heap=st.booleans(),
    failover=st.integers(0, 4),
)
@settings(max_examples=200, deadline=None)
def test_one_pass_matches_the_per_aggregator_loop(access, data, cb, use_heap, failover):
    view, disp, data_lo, data_hi, memflat = access
    probe = FlatCursor(view, disp, data_hi, data_lo)
    domains = data.draw(layouts(probe.first_byte, probe.last_byte))
    naggs = len(domains)
    aggs = sorted(data.draw(st.lists(st.integers(0, 7), min_size=naggs, max_size=naggs, unique=True)))
    args = (view, disp, data_lo, data_hi, memflat, aggs, 8, cb, use_heap)
    ref, new = RefClient(*args), planner(*args, domains)
    assert new.router.positions == ref.positions
    lost = failover - 1 if 0 < failover <= naggs and naggs > 1 else None
    fail_at = data.draw(st.integers(0, 3))
    r = 0
    while r < max((d.nrounds(cb) for d in domains), default=0):
        got = new.client_send_plan(r)
        want = ref.send_plan(domains, r)
        _same_plan(got, want)
        assert new.env.ctx.log == ref.charges
        assert (new._pairs[0].log, new._tiles[0].log) == (ref.pairs, ref.tiles)
        assert not (new._pairs[1].log or new._tiles[1].log)
        assert new.router.positions == ref.positions
        r += 1
        if lost is not None and r == fail_at + 1:
            # Failover: re-carve, rewind every scan, restart the rounds.
            domains = new.domains = recarve(domains, r * cb, lost)
            new.router.reset()
            ref.reset()
            lost, r = None, 0


# -- host cost: one pass, whatever the aggregator count --------------------------------------
_LAYERS = tuple(str(Path(m.__file__).parent) for m in (repro.core, repro.datatypes))


def _round_calls(naggs: int) -> int:
    """Python functions of ``repro.core`` + ``repro.datatypes`` entered
    by one ``client_send_plan`` round of a Fig. 4 client (succinct
    64 B regions, 16 ranks, strided memory) over ``naggs`` even realms."""
    view = resized(contiguous(64, BYTE), 0, 64 * 16).flatten()
    memflat = resized(contiguous(64, BYTE), 0, 192).flatten()
    total = 64 * 4096
    probe = FlatCursor(view, 320, total)
    realms = EvenPartition().assign(probe.first_byte, probe.last_byte, naggs)
    domains = [r.domain(probe.first_byte, probe.last_byte) for r in realms]
    plan = planner(view, 320, 0, total, memflat, list(range(naggs)), naggs, 1 << 22, True, domains)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_LAYERS):
            calls += 1

    outer = sys.getprofile(), threading.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        sent = plan.client_send_plan(0)
    finally:
        sys.setprofile(outer[0])
        threading.setprofile(outer[1])
    assert sum(b.total_bytes for b in sent if b is not None) == total
    return calls


def test_a_round_enters_the_same_python_calls_at_any_aggregator_count():
    """4, 16 and 64 aggregators: one count, at most 22 (20 on Python
    3.11; the per-aggregator loop entered 129 / 513 / 2 049)."""
    _round_calls(4)  # warm imports
    calls = {naggs: _round_calls(naggs) for naggs in (4, 16, 64)}
    assert len(set(calls.values())) == 1, calls
    assert calls[4] <= 22, calls


# -- the wire form ----------------------------------------------------------------------------
@st.composite
def flats(draw):
    pairs = draw(st.lists(st.tuples(st.integers(-20, 40), st.integers(0, 12)), max_size=8))
    return FlatType([o for o, _ in pairs], [n for _, n in pairs], draw(st.integers(0, 200)))


@given(flat=flats())
@settings(max_examples=200, deadline=None)
def test_decode_inverts_encode(flat):
    got = decode_flat(encode_flat(flat))
    assert got == flat
    for name in ("offsets", "lengths", "ends", "data_prefix"):
        assert np.array_equal(getattr(got, name), getattr(flat, name)), name
        assert getattr(got, name).dtype == np.int64
    assert (got.size, got.extent, got.span_lo, got.span_hi) == (flat.size, flat.extent, flat.span_lo, flat.span_hi)
    assert got.is_monotonic == flat.is_monotonic


def _payload(extent, pairs, magic=0x464C4154, count=None):
    body = np.array(pairs, dtype="<i8").reshape(-1, 2).tobytes()
    return struct.pack("<qqq", magic, extent, len(pairs) if count is None else count) + body


@pytest.mark.parametrize(
    "payload",
    [
        _payload(64, [(0, 8), (16, -4)]),  # negative length
        _payload(64, [(0, 8), (16, 0)]),  # zero length: never encoded
        _payload(-1, [(0, 8)]),  # negative extent
        _payload(64, [(0, 8)], magic=0),  # bad magic
        _payload(64, [(0, 8)], count=2),  # count beyond the body
        _payload(64, [(0, 8)], count=-1),
        _payload(64, [(0, 8)])[: HEADER_BYTES - 1],  # short header
        _payload(64, [(0, 8)]) + b"\0",  # trailing byte
    ],
    ids=["negative-length", "zero-length", "negative-extent", "magic", "count-over", "count-negative",
         "short", "trailing"],
)
def test_decode_refuses_bad_payloads(payload):
    with pytest.raises(DatatypeError):
        decode_flat(payload)
