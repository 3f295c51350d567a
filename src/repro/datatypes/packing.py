"""Gather/scatter between user buffers and the data-order byte stream.

The two-phase exchange moves *data-order* byte ranges between clients
and aggregators; this module converts between those ranges and the
(possibly non-contiguous) layout described by a memory datatype over a
numpy ``uint8`` buffer.

Every byte that moves by segment list — pack, unpack, the sieve buffer,
list I/O's wire format — moves through :func:`copy_segments` or, for an
exchange leg, :func:`gather_segments` / :func:`scatter_segments`, which
treat a flattened regular pattern as the (count, blocklength, stride)
vector it is (Thakur et al., *Optimizing Noncontiguous Accesses in
MPI-IO*).  Their decision ladder looks only at the batch in hand:

0. **given period** — a leg a router built carries its period
   (:class:`~repro.datatypes.segments.SegmentBatch`): D strided blocks
   between the ends (one slice when D = 0) are built from D + 2 of its
   segments — its ``ends`` when the router built it from them, so its
   arrays are never made — whatever its size, with no order test and no
   detection.  At D = 1 a first and a last segment of the body's length,
   one stride before and after it, fold into the body: one block of all
   the segments (every spine leg moves as one 2-D copy);
1. **validate** both sides once, before anything is written: every
   non-empty segment lies inside its buffer (per block on rungs 0 and 2,
   per segment otherwise).  A *precondition* of the strided rungs, whose
   views check nothing themselves; a block that fails it drops to rung
   1's per-segment check, which names the segment;
2. **periodic** — a batch nobody built (the sieve buffer, list I/O,
   ``hpio.verify``, coalesced ``two_layer`` frames): behind a first and
   a last segment of any length (realm edges cut regions), lengths and
   both sides' starts repeat with period D at constant tile strides:
   D strided 2-D block copies (D = 1 is the plain vector, folding whole
   ends as rung 0 does; D > 1 a tiled D-pair filetype).  Detected only on
   batches big enough that rung 3
   would cost more than the test (the size gates);
3. **irregular** — many tiny segments through one flat index array
   (:func:`expand_indices`; a side whose segments lie back to back is a
   slice instead, so a contiguous user buffer is one ``memcpy``), few
   large ones through a slice-copy loop.

All rungs produce identical results; only wall-clock speed differs.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.errors import DatatypeError
from repro.datatypes.flatten import FlatType
from repro.datatypes.segments import _MIN_TILES, SegmentBatch, data_to_file_segments, expand_indices

__all__ = [
    "expand_indices",
    "copy_segments",
    "stream_order",
    "gather_bytes",
    "scatter_bytes",
    "gather_segments",
    "scatter_segments",
]

#: Mean segment length below which fancy indexing beats a slice loop.
_FANCY_THRESHOLD = 512
#: What rung 3 must have to move before rung 2's test (about 20 us,
#: whatever it finds) is cheaper than just moving it: bytes through an
#: index array, slice copies through the loop.  From the micro rows.
#: Detection only: a given period (rung 0) needs no test.
_PERIODIC_MIN_BYTES = 8192
_PERIODIC_MIN_COPIES = 48


def _check_buf(buf: np.ndarray) -> np.ndarray:
    arr = np.asarray(buf)
    if arr.dtype != np.uint8 or arr.ndim != 1:
        raise DatatypeError("buffers must be 1-D numpy uint8 arrays")
    return arr


def _check_bounds(side: str, size: int, starts: np.ndarray, lengths: np.ndarray) -> None:
    """Raise unless every non-empty segment lies inside ``size`` bytes."""
    if starts.min() >= 0 and (starts + lengths).max() <= size:
        return
    bad = np.flatnonzero(((starts < 0) | (starts + lengths > size)) & (lengths > 0))
    if bad.size:
        i = int(bad[0])
        lo, hi = int(starts[i]), int(starts[i] + lengths[i])
        raise DatatypeError(f"segment {i} [{lo}, {hi}) reaches outside the {size}-byte {side} buffer")


def _index(starts: np.ndarray, lengths: np.ndarray):
    """What selects the segments' bytes: a slice when they lie back to
    back (a packed stream; first pair tried before the vector compare),
    else their expanded indices."""
    if starts[1] == starts[0] + lengths[0] and (starts[1:] == starts[:-1] + lengths[:-1]).all():
        return slice(int(starts[0]), int(starts[-1] + lengths[-1]))
    return expand_indices(starts, lengths)


def copy_segments(
    dst: np.ndarray,
    dst_starts: np.ndarray,
    src: np.ndarray,
    src_starts: np.ndarray,
    lengths: np.ndarray,
) -> None:
    """``dst[dst_starts[i] : +lengths[i]] = src[src_starts[i] : +lengths[i]]``
    for every i, in order — the one place bytes move by segment list.

    Buffers are 1-D ``uint8`` arrays; the three int64 arrays are parallel.
    A non-empty segment outside either buffer raises :class:`DatatypeError`
    before anything is written (see the module docstring for the rungs).
    """
    if dst.dtype != np.uint8 or src.dtype != np.uint8 or dst.ndim != 1 or src.ndim != 1:
        raise DatatypeError("buffers must be 1-D numpy uint8 arrays")
    n = lengths.size
    if n == 0:
        return
    total = int(lengths.sum())
    tiny = n > 1 and total // n < _FANCY_THRESHOLD
    if (
        (total >= _PERIODIC_MIN_BYTES if tiny else n >= _PERIODIC_MIN_COPIES)
        and dst.flags.c_contiguous
        and src.flags.c_contiguous
        and _moved(dst, src, _period(dst_starts, src_starts, lengths))
    ):
        return
    _check_bounds("destination", dst.size, dst_starts, lengths)
    _check_bounds("source", src.size, src_starts, lengths)
    if tiny:
        dst[_index(dst_starts, lengths)] = src[_index(src_starts, lengths)]
        return
    for d, s, ln in zip(dst_starts.tolist(), src_starts.tolist(), lengths.tolist()):
        dst[d : d + ln] = src[s : s + ln]


def _moved(dst: np.ndarray, src: np.ndarray, blocks: list) -> bool:
    """Run the block copies ``(dst_start, src_start, length, rows,
    dst_stride, src_stride)`` if every one lies inside both (C-contiguous)
    buffers — the strided views check nothing themselves — and say
    whether they ran.  False (nothing written) leaves it to the full
    per-segment check, which names an offending segment."""
    if not blocks:
        return False
    for d, s, ln, rows, d_stride, s_stride in blocks:
        if d < 0 or s < 0 or d + (rows - 1) * d_stride + ln > dst.size or s + (rows - 1) * s_stride + ln > src.size:
            return False
    for d, s, ln, rows, d_stride, s_stride in blocks:
        if rows == 1:
            dst[d : d + ln] = src[s : s + ln]
        else:
            # Views over exactly the bytes the (checked) rows span, so numpy
            # refuses a shape they do not back.
            d_end, s_end = d + (rows - 1) * d_stride + ln, s + (rows - 1) * s_stride + ln
            np.ndarray((rows, ln), np.uint8, dst[d:d_end], 0, (d_stride, 1))[...] = np.ndarray(
                (rows, ln), np.uint8, src[s:s_end], 0, (s_stride, 1)
            )
    return True


def _blocks(D: int, heads: list, last: tuple, m: int, d_stride: int, s_stride: int) -> list:
    """The block copies moving ``m + 2`` segments that repeat with period
    ``D`` behind the first and the last: ``heads`` holds segments ``0 ..
    D`` and ``last`` the last one, each ``(dst_start, src_start,
    length)``.  The two ends are one-row blocks around D strided ones;
    empty segments move nothing.  When ``D == 1`` and both ends are
    whole and in phase — the body's length, one stride before and one
    after it on both sides — all ``m + 2`` move as one block."""
    first = heads[0]
    if D == 1:
        d, s, ln = heads[1]
        if ln > 0 and first == (d - d_stride, s - s_stride, ln) and last == (d + m * d_stride, s + m * s_stride, ln):
            return [(*first, m + 2, d_stride, s_stride)]
    return (
        ([(*first, 1, d_stride, s_stride)] if first[2] > 0 else [])
        + [(d, s, ln, (m - i) // D + 1, d_stride, s_stride) for i, (d, s, ln) in enumerate(heads[1:], 1) if ln > 0]
        + ([(*last, 1, d_stride, s_stride)] if last[2] > 0 else [])
    )


def _period(dst_starts: np.ndarray, src_starts: np.ndarray, lengths: np.ndarray) -> list:
    """If, behind the first and the last segment, the segments repeat with
    period D — ``lengths[i+D] == lengths[i]`` and both sides' starts advance
    by one constant per D segments — and never overlap on the written
    side, the block copies that move everything, in order (see
    :func:`_blocks`).  Empty when they do not repeat (or too few tiles do
    to pay)."""
    m = lengths.size - 2
    if m < _MIN_TILES:
        return []
    step = dst_starts[2:-1] - dst_starts[1:-2]
    src_step = src_starts[2:-1] - src_starts[1:-2]
    # Inside a tile both sides keep their first stride; tile edges are D apart.
    breaks = np.flatnonzero((step != step[0]) | (src_step != src_step[0]))
    if breaks.size == 0:
        D = 1
    elif breaks.size > 1 and breaks[1] - breaks[0] > 1:
        D = int(breaks[1] - breaks[0])
    else:
        return []
    d_stride = int(dst_starts[1 + D] - dst_starts[1])
    s_stride = int(src_starts[1 + D] - src_starts[1])
    if not (
        m >= _MIN_TILES * D
        and d_stride > 0
        and s_stride >= 0
        and (step >= lengths[1:-2]).all()  # written segments ascend, disjoint
        and (lengths[1 + D : -1] == lengths[1 : -1 - D]).all()
        and (D == 1 or (dst_starts[1 + D : -1] - dst_starts[1 : -1 - D] == d_stride).all())
        and (D == 1 or (src_starts[1 + D : -1] - src_starts[1 : -1 - D] == s_stride).all())
    ):
        return []
    heads = list(zip(dst_starts[: D + 1].tolist(), src_starts[: D + 1].tolist(), lengths[: D + 1].tolist()))
    last = (int(dst_starts[-1]), int(src_starts[-1]), int(lengths[-1]))
    return _blocks(D, heads, last, m, d_stride, s_stride)


def _leg_blocks(batch: SegmentBatch, gather: bool) -> list:
    """The block copies of a routed leg, built from its ``period`` (see
    :class:`~repro.datatypes.segments.SegmentBatch`) and ``D + 2`` of its
    segments — its ``ends`` when it was built from them — between its
    file side and its packed stream, the stream the destination when
    ``gather``."""
    D, stride, packed, nbytes = batch.period
    if batch.ends is None:
        fo, ln = batch.file_offsets, batch.lengths
        count, starts, lens = ln.size, fo[: D + 1].tolist(), ln[: D + 1].tolist()
        starts.append(int(fo[-1]))
        lens.append(int(ln[-1]))
    else:
        count, starts, lens, _ = batch.ends
    if D == 0:  # one slice
        return [(0, starts[0], nbytes, 1, 0, 0) if gather else (starts[0], 0, nbytes, 1, 0, 0)]
    start, ln = starts[-1], lens[-1]
    pos = list(accumulate(lens[:D], initial=0))  # segments 0 .. D in the packed stream
    if gather:
        return _blocks(D, list(zip(pos, starts, lens)), (nbytes - ln, start, ln), count - 2, packed, stride)
    return _blocks(D, list(zip(starts, pos, lens)), (start, nbytes - ln, ln), count - 2, stride, packed)


def stream_order(batch: SegmentBatch) -> tuple[np.ndarray | slice, np.ndarray, np.ndarray]:
    """What puts ``batch`` in data order, its lengths in that order, and
    where each segment starts in the packed stream.

    The order is a permutation, or the whole slice when the data offsets
    already ascend (a stable argsort of an ascending array is the
    identity) — every batch the planners build does — so indexing with
    it is a view, not a copy."""
    d = batch.data_offsets
    order = slice(None) if (d[1:] >= d[:-1]).all() else np.argsort(d, kind="stable")
    lens = batch.lengths[order]
    return order, lens, np.cumsum(lens) - lens


def gather_segments(buf: np.ndarray, batch: SegmentBatch) -> np.ndarray:
    """Collect the bytes of ``batch``'s address ranges from ``buf`` into
    a contiguous array ordered by the batch's data offsets."""
    buf = _check_buf(buf)
    if batch.period is not None and buf.flags.c_contiguous:
        out = np.empty(batch.period[3], dtype=np.uint8)
        if _moved(out, buf, _leg_blocks(batch, True)):
            return out
    if batch.num_segments == 0:
        return np.empty(0, dtype=np.uint8)
    order, lens, pos = stream_order(batch)
    out = np.empty(int(pos[-1] + lens[-1]), dtype=np.uint8)
    copy_segments(out, pos, buf, batch.file_offsets[order], lens)
    return out


def scatter_segments(buf: np.ndarray, batch: SegmentBatch, data: np.ndarray) -> None:
    """Inverse of :func:`gather_segments`: spread ``data`` (contiguous,
    in data order) into ``buf`` at the batch's address ranges."""
    buf = _check_buf(buf)
    data = _check_buf(data)
    if batch.num_segments == 0:
        if data.size:
            raise DatatypeError("scatter_segments: data supplied for an empty batch")
        return
    if (
        batch.period is not None
        and data.size == batch.period[3]
        and buf.flags.c_contiguous
        and data.flags.c_contiguous
        and _moved(buf, data, _leg_blocks(batch, False))
    ):
        return
    order, lens, pos = stream_order(batch)
    total = int(pos[-1] + lens[-1])
    if data.size != total:
        raise DatatypeError(
            f"scatter_segments: data has {data.size} bytes, batch needs {total}"
        )
    copy_segments(buf, batch.file_offsets[order], data, pos, lens)


def gather_bytes(
    buf: np.ndarray, memflat: FlatType, data_lo: int, data_hi: int
) -> np.ndarray:
    """Gather data bytes [data_lo, data_hi) of the access described by
    ``memflat`` (tiled over ``buf`` from address 0)."""
    batch = data_to_file_segments(memflat, 0, data_lo, data_hi)
    return gather_segments(buf, batch)


def scatter_bytes(
    buf: np.ndarray, memflat: FlatType, data_lo: int, data_hi: int, data: np.ndarray
) -> None:
    """Scatter contiguous ``data`` into the access's bytes [data_lo, data_hi)."""
    batch = data_to_file_segments(memflat, 0, data_lo, data_hi)
    scatter_segments(buf, batch, data)
