"""Block-granular ``datatypes``: golden replay, differentials, bounds.

* the seeded cells of ``datatypes_golden.py`` must reproduce the digests
  recorded on the commit before type commit, segment copies and the
  tiled intersection became proportional to blocks;
* hypothesis differentials against the implementations that commit had,
  kept here as references: the copy kernel vs a per-segment slice loop
  (and gather/scatter vs the old index-or-loop pair), the placement
  helper vs instance-by-instance placement, the global-index
  ``_intersect_tiled`` / ``data_to_file_segments`` vs the per-tile
  ``parts`` bodies;
* what the kernel's shared validation fixed: a segment outside its
  buffer raises :class:`DatatypeError` on every path;
* one host-independent cost bound: committing the Fig. 4 memory type
  allocates per block, not per byte.
"""

from __future__ import annotations

import itertools
import json
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datatypes_golden import GOLDEN, cells
from repro.datatypes import (
    BYTE,
    DISTRIBUTE_BLOCK,
    DISTRIBUTE_CYCLIC,
    INT,
    SHORT,
    contiguous,
    darray,
    hindexed,
    hvector,
    indexed,
    indexed_block,
    resized,
    struct,
    subarray,
    vector,
)
from repro.datatypes import packing
from repro.datatypes.flatten import FlatType
from repro.datatypes.packing import copy_segments, gather_segments, scatter_segments
from repro.datatypes.segments import FlatCursor, SegmentBatch, data_to_file_segments
from repro.errors import DatatypeError
from repro.fs import FSClient, SimFileSystem
from repro.io.datasieve import datasieve_read, datasieve_write
from repro.io.listio import listio_write
from repro.sim import Simulator

CELLS = cells()


# -- golden replay ------------------------------------------------------------
@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_golden_replay(golden, name):
    """Flattened types, intersection batches with both cost counters,
    packed streams, scattered buffers, file images and virtual clocks,
    as recorded on the per-instance / per-byte implementation."""
    assert CELLS[name]()[:32] == golden[name]


# -- the copy kernel vs a per-segment slice loop ----------------------------------
def ref_copy(dst, dst_starts, src, src_starts, lengths) -> None:
    for d, s, ln in zip(dst_starts.tolist(), src_starts.tolist(), lengths.tolist()):
        dst[d : d + ln] = src[s : s + ln]


def ref_expand_indices(starts, lengths):
    keep = lengths > 0
    starts, lengths = starts[keep], lengths[keep]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(int(lengths.sum()), dtype=np.int64)
    out[0] = starts[0]
    if starts.size > 1:
        out[np.cumsum(lengths)[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return np.cumsum(out)


def ref_gather(buf, batch):
    """``gather_segments`` as it was: one index array or a slice loop."""
    order = np.argsort(batch.data_offsets, kind="stable")
    starts, lens = batch.file_offsets[order], batch.lengths[order]
    total = int(lens.sum())
    if total and total // batch.num_segments < 512:
        return buf[ref_expand_indices(starts, lens)]
    out = np.empty(total, dtype=np.uint8)
    ref_copy(out, np.cumsum(lens) - lens, buf, starts, lens)
    return out


def ref_scatter(buf, batch, data) -> None:
    order = np.argsort(batch.data_offsets, kind="stable")
    starts, lens = batch.file_offsets[order], batch.lengths[order]
    total = int(lens.sum())
    if total and total // batch.num_segments < 512:
        buf[ref_expand_indices(starts, lens)] = data
    else:
        ref_copy(buf, starts, data, np.cumsum(lens) - lens, lens)


@contextmanager
def periodic_gates(value):
    """Run with the kernel's size gates at ``value`` (None: as shipped), so
    small examples reach the strided path too."""
    saved = packing._PERIODIC_MIN_BYTES, packing._PERIODIC_MIN_COPIES
    if value is not None:
        packing._PERIODIC_MIN_BYTES = packing._PERIODIC_MIN_COPIES = value
    try:
        yield
    finally:
        packing._PERIODIC_MIN_BYTES, packing._PERIODIC_MIN_COPIES = saved


LENGTH_SHAPES = ("const", "ragged", "two_level", "irregular", "zeros", "single", "big")
SIDE_LAYOUTS = (
    "packed", "stride==length", "strided", "overlap", "two_level", "two_level_overlap", "irregular", "shuffled",
)


def _lengths(rng, shape: str, n: int, L: int, D: int) -> np.ndarray:
    if shape == "single":
        return np.array([L], dtype=np.int64)
    if shape == "const":
        return np.full(n, L, dtype=np.int64)
    if shape == "big":  # mean >= 512: the slice-loop side of the rule
        return np.full(n, 512 + L, dtype=np.int64)
    if shape == "ragged":
        out = np.full(n, L, dtype=np.int64)
        out[0], out[-1] = rng.integers(1, L + 1, size=2)
        return out
    if shape == "two_level":
        out = np.resize(rng.integers(1, L + 1, size=D), n).astype(np.int64)
        out[0] = rng.integers(1, out[0] + 1)
        return out
    out = rng.integers(0, 2 * L, size=n).astype(np.int64)
    if shape == "zeros":
        out[rng.random(n) < 0.4] = 0
    return out


def _starts(rng, layout: str, lengths: np.ndarray, gap: int, D: int) -> np.ndarray:
    """One side's segment starts: every layout the ladder tells apart."""
    n = lengths.size
    packed = np.cumsum(lengths) - lengths
    base = int(rng.integers(0, 9))
    L = max(int(lengths.max()), 1)
    k = np.arange(n, dtype=np.int64)
    if layout == "packed" or n == 1:
        return packed + base
    if layout in ("stride==length", "strided", "overlap"):
        stride = {"stride==length": L, "strided": L + 1 + gap, "overlap": max(L - 1 - gap % L, 0)}[layout]
        starts = base + k * stride
        starts[0] += L - lengths[0]  # a cut first region keeps its tail
        return starts
    if layout.startswith("two_level"):
        # D slots per tile, evenly spaced (what the rung detects) or not.
        slots = L + (gap if rng.random() < 0.7 else rng.integers(0, gap + 2, size=D))
        inner = np.cumsum(np.broadcast_to(slots, D)) - slots
        # Tiles clear each other, or each one's last pair reaches into the next.
        tile = int(inner[-1]) + (1 if layout.endswith("overlap") else L + int(rng.integers(0, gap + 2)))
        phase = int(rng.integers(0, D))  # a window that opens mid-tile
        return base + ((k + phase) // D) * tile + inner[(k + phase) % D]
    starts = packed + base + np.cumsum(rng.integers(0, gap + 2, size=n))
    if layout == "shuffled":
        rng.shuffle(starts)
    return starts


def _cases(shapes, layouts, segments):
    return st.tuples(
        st.sampled_from(shapes),
        st.sampled_from(layouts),
        st.sampled_from(layouts),
        segments,
        st.integers(1, 70),  # (largest) length
        st.integers(0, 40),  # gap
        st.integers(2, 7),  # period of the two-level layouts
        st.integers(0, 2**32 - 1),
    )


segment_lists = st.one_of(
    _cases(LENGTH_SHAPES, SIDE_LAYOUTS, st.one_of(st.integers(2, 12), st.integers(30, 300))),
    # Half the draws where the periodic rung has something to find.
    _cases(
        ("const", "ragged", "two_level"),
        ("packed", "strided", "two_level", "two_level_overlap"),
        st.integers(30, 300),
    ),
)


def _draw(case):
    shape, dst_layout, src_layout, n, L, gap, D, seed = case
    rng = np.random.default_rng(seed)
    lengths = _lengths(rng, shape, n, L, D)
    dst_starts = _starts(rng, dst_layout, lengths, gap, D)
    src_starts = _starts(rng, src_layout, lengths, gap, D)
    ends = lambda starts: int((starts + lengths).max()) + int(rng.integers(0, 5))  # noqa: E731
    dst = rng.integers(0, 256, size=ends(dst_starts), dtype=np.uint8)
    src = rng.integers(0, 256, size=ends(src_starts), dtype=np.uint8)
    return dst, dst_starts, src, src_starts, lengths


@pytest.mark.parametrize("gate", [None, 0])
@given(case=segment_lists)
@settings(max_examples=300, deadline=None)
def test_copy_segments_matches_slice_loop(gate, case):
    """Contiguous, regular, ragged ends, two-level periodic, irregular,
    zero-length, single, unsorted, stride == length and overlapping
    (stride < length: must fall back) — on either side, independently."""
    dst, dst_starts, src, src_starts, lengths = _draw(case)
    want = dst.copy()
    ref_copy(want, dst_starts, src, src_starts, lengths)
    with periodic_gates(gate):
        copy_segments(dst, dst_starts, src, src_starts, lengths)
    assert np.array_equal(dst, want)


@pytest.mark.parametrize("gate", [None, 0])
@given(case=segment_lists, unsorted=st.booleans())
@settings(max_examples=200, deadline=None)
def test_gather_scatter_match_the_old_pair(gate, case, unsorted):
    """Both copy directions through the public pair, against the parent's
    bodies — including batches whose data offsets are not in order."""
    dst, starts, src, _, lengths = _draw(case)
    data_offsets = np.cumsum(lengths) - lengths
    if unsorted:
        perm = np.random.default_rng(case[-1]).permutation(lengths.size)
        starts, lengths, data_offsets = starts[perm], lengths[perm], data_offsets[perm]
    batch = SegmentBatch(starts, lengths, data_offsets)
    with periodic_gates(gate):
        packed = gather_segments(dst, batch)
        assert np.array_equal(packed, ref_gather(dst, batch))
        data = src[: packed.size] if src.size >= packed.size else np.resize(src, packed.size)
        want = dst.copy()
        ref_scatter(want, batch, data)
        scatter_segments(dst, batch, data)
    assert np.array_equal(dst, want)


class TestKernelPreconditions:
    """What the strided path must not do silently."""

    batch = data_to_file_segments(hvector(300, 64, 192, BYTE).flatten(), 0, 0, 300 * 64)

    def test_the_regular_batch_takes_the_strided_path(self, monkeypatch):
        monkeypatch.setattr(packing, "expand_indices", None)  # the fallback would call it
        buf = np.arange(self.batch.file_offsets[-1] + 64, dtype=np.int64).astype(np.uint8)
        assert gather_segments(buf, self.batch).size == 300 * 64

    def test_read_only_destination_still_raises(self):
        buf = np.zeros(300 * 192, dtype=np.uint8)
        buf.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            scatter_segments(buf, self.batch, np.ones(300 * 64, dtype=np.uint8))
        assert not buf.any()

    def test_strided_buffers_fall_back_and_match(self):
        wide = (np.arange(2 * 300 * 192) % 251).astype(np.uint8)
        buf = wide[::2]  # 1-D uint8, but not contiguous
        assert np.array_equal(gather_segments(buf, self.batch), ref_gather(buf, self.batch))
        out = np.zeros_like(wide)
        scatter_segments(out[::2], self.batch, gather_segments(buf, self.batch))
        idx = ref_expand_indices(self.batch.file_offsets, self.batch.lengths)
        assert np.array_equal(out[::2][idx], buf[idx]) and not out[1::2].any()


# -- out-of-range segments: one typed error on every path -----------------------------
def _batch(starts, lens):
    lens = np.asarray(lens, dtype=np.int64)
    return SegmentBatch(np.asarray(starts, dtype=np.int64), lens, np.cumsum(lens) - lens)


#: (starts, lengths) reaching outside a 100 000-byte buffer, one per path
#: the parent had: index array (wrapped silently / IndexError), slice
#: loop (ValueError), plus the new strided path.
OUT_OF_RANGE = {
    "index-negative": ([-4, 10], [2, 2]),
    "index-too-large": ([10, 99_999], [2, 2]),
    "loop-too-large": ([0, 99_000], [600, 1200]),
    "loop-negative": ([-600, 2000], [600, 600]),
    "strided-last-row": (np.arange(300) * 400, [64] * 300),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
class TestOutOfRangeSegments:
    def test_gather(self, case):
        batch = _batch(*OUT_OF_RANGE[case])
        with pytest.raises(DatatypeError, match=r"segment \d+ .* outside the 100000-byte source"):
            gather_segments(np.zeros(100_000, dtype=np.uint8), batch)

    def test_scatter(self, case):
        batch = _batch(*OUT_OF_RANGE[case])
        buf = np.zeros(100_000, dtype=np.uint8)
        with pytest.raises(DatatypeError, match=r"segment \d+ .* outside the 100000-byte destination"):
            scatter_segments(buf, batch, np.ones(batch.total_bytes, dtype=np.uint8))
        assert not buf.any()  # nothing was written before the check

    def test_sieve_and_listio(self, case):
        """The flush's data offsets index the collective buffer: one that
        points outside it is the same error, before any file byte moves."""
        starts, lens = OUT_OF_RANGE[case]
        lens = np.asarray(lens, dtype=np.int64)
        batch = SegmentBatch(np.cumsum(lens + 7), lens, np.asarray(starts, dtype=np.int64))
        fs = SimFileSystem()

        def main(ctx):
            local = FSClient(fs, ctx).open("/f", cache_mode="off")
            for write in (
                lambda data: datasieve_write(local, batch, data, buffer_size=1 << 16),
                lambda data: listio_write(local, batch, data),
            ):
                with pytest.raises(DatatypeError, match="outside the 100000-byte source"):
                    write(np.ones(100_000, dtype=np.uint8))

        Simulator(1).run(main)
        assert fs.file_size("/f") == 0


def test_first_offender_is_named_and_empty_segments_are_exempt():
    buf = np.arange(100, dtype=np.uint8)
    assert gather_segments(buf, _batch([500, 3, -9], [0, 2, 0])).tolist() == [3, 4]
    with pytest.raises(DatatypeError, match=r"segment 2 \[98, 101\) reaches outside the 100-byte source"):
        gather_segments(buf, _batch([500, 3, 98, 99], [0, 2, 3, 5]))


def test_sieve_read_lands_at_data_offsets():
    """The read side's destination starts are the data offsets, not a
    running position: gaps in the data stream stay zero."""
    k = np.arange(200, dtype=np.int64)
    batch = SegmentBatch(k * 96 + 5, np.full(200, 32, dtype=np.int64), k * 40 + 3)
    image = (np.arange(200 * 96 + 64) % 251).astype(np.uint8)
    fs = SimFileSystem()
    fs.raw_write("/f", 0, image)

    def main(ctx):
        return datasieve_read(FSClient(fs, ctx).open("/f", cache_mode="off"), batch, buffer_size=4096)

    got = Simulator(1).run(main)[0]
    want = np.zeros(199 * 40 + 3 + 32, dtype=np.uint8)
    ref_copy(want, batch.data_offsets, image, batch.file_offsets, batch.lengths)
    assert np.array_equal(got, want)


# -- placement: per block vs instance by instance --------------------------------------
def ref_place(child: FlatType, displs, blocklens):
    """Every child instance of every block placed one by one."""
    offs, lens = [], []
    for d, b in zip(displs, blocklens):
        for j in range(b):
            offs += (d + j * child.extent + child.offsets).tolist()
            lens += child.lengths.tolist()
    return offs, lens


CHILDREN = {
    "contiguous": contiguous(6, BYTE),
    "primitive": INT,
    "gapped": vector(3, 1, 2, SHORT),
    "extent>size": resized(contiguous(3, SHORT), 0, 16),
    "non-monotonic": hindexed([1, 2], [12, 0], INT),
}

small = st.integers(0, 5)
blocks = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 30)), max_size=6)


@pytest.mark.parametrize("child_name", sorted(CHILDREN))
@given(count=small, blocklength=small, stride=st.integers(0, 9), blocks=blocks, dims=st.data())
@settings(max_examples=60, deadline=None)
def test_constructors_match_per_instance_placement(child_name, count, blocklength, stride, blocks, dims):
    child = CHILDREN[child_name]
    cf, ext = child.flatten(), child.extent
    blens, displs = [b for b, _ in blocks], [d for _, d in blocks]
    built = {
        "contiguous": (contiguous(count, child), [0], [count]),
        "vector": (
            vector(count, blocklength, stride, child),
            [i * stride * ext for i in range(count)], [blocklength] * count,
        ),
        "hvector": (
            hvector(count, blocklength, stride * 5, child),
            [i * stride * 5 for i in range(count)], [blocklength] * count,
        ),
        "indexed": (indexed(blens, displs, child), [d * ext for d in displs], blens),
        "hindexed": (hindexed(blens, displs, child), displs, blens),
        "indexed_block": (
            indexed_block(blocklength, displs, child), [d * ext for d in displs], [blocklength] * len(displs),
        ),
        "resized": (resized(hindexed(blens, displs, child), 0, 999), displs, blens),
    }
    for name, (dtype, ref_displs, ref_blens) in built.items():
        flat = dtype.flatten()
        assert flat == FlatType(*ref_place(cf, ref_displs, ref_blens), flat.extent), name

    # struct: every block its own child.
    kids = list(CHILDREN.values())
    types = [kids[(i + count) % len(kids)] for i in range(len(blocks))]
    offs, lens = [], []
    for b, d, t in zip(blens, displs, types):
        o, ln = ref_place(t.flatten(), [d], [b])
        offs += o
        lens += ln
    flat = struct(blens, displs, types).flatten()
    assert flat == FlatType(offs, lens, flat.extent)

    # subarray / darray: C-order element walk, one child instance each.
    sizes = dims.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    subsizes = [dims.draw(st.integers(0, s)) for s in sizes]
    starts = [dims.draw(st.integers(0, s - sub)) for s, sub in zip(sizes, subsizes)]
    strides = [int(np.prod(sizes[d + 1 :])) for d in range(len(sizes))]
    elems = [
        sum((o + i) * s for o, i, s in zip(starts, idx, strides)) * ext
        for idx in itertools.product(*(range(s) for s in subsizes))
    ]
    flat = subarray(sizes, subsizes, starts, child).flatten()
    assert flat == FlatType(*ref_place(cf, elems, [1] * len(elems)), flat.extent)

    psizes = [dims.draw(st.integers(1, 2)) for _ in sizes]
    rank = dims.draw(st.integers(0, int(np.prod(psizes)) - 1))
    dist = [dims.draw(st.sampled_from([DISTRIBUTE_BLOCK, DISTRIBUTE_CYCLIC])) for _ in sizes]
    dtype = darray(sizes, dist, [0] * len(sizes), psizes, rank, child)
    elems = [
        sum(int(i) * s for i, s in zip(idx, strides)) * ext
        for idx in itertools.product(*dtype._indices)
    ]
    flat = dtype.flatten()
    assert flat == FlatType(*ref_place(cf, elems, [1] * len(elems)), flat.extent)


def test_commit_allocates_per_block_not_per_byte():
    """``hvector(4096, 64, 192, BYTE)`` is 4 096 pairs; placing its
    262 144 one-byte instances first peaked at 11.6 MiB."""
    tracemalloc.start()
    try:
        flat = hvector(4096, 64, 192, BYTE).flatten()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flat.num_segments == 4096 and flat.size == 4096 * 64
    assert peak <= 1 << 20


def test_is_monotonic_is_evaluated_once_per_instance():
    flat = vector(5, 2, 3, INT).flatten()
    assert flat._monotonic is None
    assert flat.is_monotonic and flat._monotonic is True
    flat.offsets[:] = flat.offsets[::-1].copy()  # what a re-evaluation would see
    assert flat.is_monotonic
    assert not hindexed([1, 1], [4, 0], BYTE).flatten().is_monotonic


# -- intersection: global pair index vs per-tile parts ------------------------------------
def ref_clip(file_start, length, data_off, lo, hi, total_bytes, data_lo=0):
    front = np.maximum(lo - file_start, 0)
    if data_lo:
        front = np.maximum(front, data_lo - data_off)
    file_start, data_off, length = file_start + front, data_off + front, length - front
    length = length - np.maximum(file_start + length - hi, 0)
    length = np.minimum(length, total_bytes - data_off)
    keep = length > 0
    return file_start[keep], length[keep], data_off[keep]


def ref_intersect_tiled(cur: FlatCursor, lo: int, hi: int) -> SegmentBatch:
    """``FlatCursor._intersect_tiled`` as it was: first tile, interior
    tiles, last tile as separate parts, then a vector clip of everything."""
    flat, ext, D = cur.flat, cur.flat.extent, cur.flat.num_segments
    t_first = max(int((lo - cur.disp - flat.span_hi) // ext + 1), 0)
    t_last = min(int(-((-(hi - cur.disp - flat.span_lo)) // ext) - 1), cur.tiles - 1)
    skipped = max(0, t_first - cur._cur_tile)
    if t_first > t_last:
        cur._cur_tile = max(cur._cur_tile, t_first)
        return SegmentBatch.empty_batch(tiles_skipped=skipped)
    evaluated = (t_last - t_first + 1) * D
    cur._cur_tile = max(cur._cur_tile, t_last + 1)
    size, dp, ends = flat.size, flat.data_prefix[:-1], flat.offsets + flat.lengths
    parts = []

    def tile_part(t, k0, k1):
        if k0 < k1:
            sel = slice(k0, k1)
            parts.append(
                (cur.disp + t * ext + flat.offsets[sel], flat.lengths[sel].copy(), t * size + dp[sel])
            )

    k0 = int(np.searchsorted(ends, lo - (cur.disp + t_first * ext), side="right"))
    k1 = int(np.searchsorted(flat.offsets, hi - (cur.disp + t_last * ext), side="left"))
    if t_first == t_last:
        tile_part(t_first, k0, k1)
    else:
        tile_part(t_first, k0, D)
        for t in range(t_first + 1, t_last):
            tile_part(t, 0, D)
        tile_part(t_last, 0, k1)
    if not parts:
        return SegmentBatch.empty_batch(evaluated, skipped)
    fs, ln, do = (np.concatenate([p[i] for p in parts]) for i in range(3))
    fs, ln, do = ref_clip(fs, ln, do, lo, hi, cur.total_bytes, cur.data_lo)
    return SegmentBatch(fs, ln, do, pairs_evaluated=evaluated, tiles_skipped=skipped)


def ref_data_to_file_segments(flat, disp, data_lo, data_hi) -> SegmentBatch:
    """The data-stream slice walked pair by pair."""
    fs, ln, do = [], [], []
    for t in range(data_lo // flat.size, (data_hi - 1) // flat.size + 1):
        for k in range(flat.num_segments):
            seg_lo = t * flat.size + int(flat.data_prefix[k])
            a, b = max(seg_lo, data_lo), min(seg_lo + int(flat.lengths[k]), data_hi)
            if a < b:
                fs.append(disp + t * flat.extent + int(flat.offsets[k]) + a - seg_lo)
                ln.append(b - a)
                do.append(a)
    i64 = lambda xs: np.array(xs, dtype=np.int64)  # noqa: E731
    return SegmentBatch(i64(fs), i64(ln), i64(do))


@st.composite
def monotonic_flats(draw):
    pairs = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(1, 12)), min_size=1, max_size=7))
    offs, lens, pos = [], [], draw(st.integers(0, 5))
    for gap, ln in pairs:
        pos += gap
        offs.append(pos)
        lens.append(ln)
        pos += ln
    return FlatType(offs, lens, pos - offs[0] + draw(st.integers(0, 20)))


def _assert_same_batch(got: SegmentBatch, want: SegmentBatch) -> None:
    for name in ("file_offsets", "lengths", "data_offsets"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == np.int64 and np.array_equal(a, b), name
    assert (got.pairs_evaluated, got.tiles_skipped) == (want.pairs_evaluated, want.tiles_skipped)


@given(
    flat=monotonic_flats(),
    disp=st.integers(0, 50),
    tiles=st.integers(2, 30),
    short=st.integers(0, 11),
    data_lo=st.integers(0, 400),
    cuts=st.lists(st.integers(0, 1500), min_size=2, max_size=24),
)
@settings(max_examples=300, deadline=None)
def test_intersect_tiled_matches_per_tile_parts(flat, disp, tiles, short, data_lo, cuts):
    """Random (flat, disp, total_bytes, data_lo) and a monotone window
    sequence: the three arrays, both counters and the scan position
    after every query."""
    total = max(flat.size * tiles - short % flat.size, flat.size + 1)
    data_lo = data_lo % total if data_lo % 3 else 0
    new, ref = FlatCursor(flat, disp, total, data_lo), FlatCursor(flat, disp, total, data_lo)
    assert new.multi_tile
    cuts = sorted(cuts)
    for lo, hi in zip(cuts, cuts[1:]):
        got = new.intersect(lo, hi)
        want = ref_intersect_tiled(ref, lo, hi) if hi > lo else SegmentBatch.empty_batch()
        _assert_same_batch(got, want)
        assert new._cur_tile == ref._cur_tile
        # Callers own what they get: fresh, writable, C-contiguous, never
        # a view of the type's arrays.
        for arr in (got.file_offsets, got.lengths, got.data_offsets):
            if arr.size:
                assert arr.flags.c_contiguous and arr.flags.writeable
                assert not any(
                    np.shares_memory(arr, own) for own in (flat.offsets, flat.lengths, flat.data_prefix)
                )


@given(
    flat=st.one_of(
        monotonic_flats(),
        st.builds(
            lambda lens, perm: FlatType([8 * p for p in perm[: len(lens)]], lens, 8 * 8),
            st.lists(st.integers(1, 8), min_size=1, max_size=8),
            st.permutations(range(8)),
        ),
    ),
    disp=st.integers(0, 50),
    window=st.tuples(st.integers(0, 600), st.integers(0, 600)),
)
@settings(max_examples=300, deadline=None)
def test_data_to_file_segments_matches_pair_walk(flat, disp, window):
    """Monotonic and non-monotonic memory types alike: the data prefix
    always is."""
    data_lo, data_hi = min(window), max(window)
    got = data_to_file_segments(flat, disp, data_lo, data_hi)
    if data_hi == data_lo:
        assert got.empty
        return
    _assert_same_batch(got, ref_data_to_file_segments(flat, disp, data_lo, data_hi))
