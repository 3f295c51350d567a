"""Shared planning helpers for both two-phase implementations."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.datatypes.flatten import FlatType
from repro.datatypes.segments import SegmentBatch, map_stream
from repro.mpi.comm import Communicator

__all__ = [
    "compute_aar",
    "mem_batch_for",
    "merge_extents",
    "concat_batches",
    "clip_to_range",
    "subtract_intervals",
    "access_histogram",
]

_EMPTY = np.empty(0, dtype=np.int64)
_INF = np.iinfo(np.int64).max


def compute_aar(
    comm: Communicator, lo: int, hi: int, has_data: bool
) -> Tuple[int, int]:
    """Allreduce the aggregate access region across the communicator.

    Ranks without data contribute the identity.  Returns (lo, hi);
    (0, 0) when nobody has data."""
    local = (lo, hi) if has_data else (_INF, -1)
    g_lo, g_hi = comm.allreduce(
        local, op=lambda a, b: (min(a[0], b[0]), max(a[1], b[1]))
    )
    if g_hi < 0:
        return (0, 0)
    return (int(g_lo), int(g_hi))


def mem_batch_for(
    memflat: FlatType, data_offsets: np.ndarray, lengths: np.ndarray
) -> SegmentBatch:
    """Memory-address segments carrying the given data-stream ranges.

    ``data_offsets`` must be ascending and disjoint (they come from a
    monotonic file view).  The returned batch's ``file_offsets`` are
    addresses into the user buffer; ``data_offsets`` keep the global
    stream positions as ordering keys."""
    if data_offsets.size == 0:
        return SegmentBatch.empty_batch()
    # Identity for a contiguous buffer (copied: the caller keeps its
    # arrays), else one mapping pass over the merged stream runs.
    fo, ln, do, _ = map_stream(memflat, data_offsets, lengths)
    if fo is data_offsets:
        return SegmentBatch(fo.copy(), ln.copy(), do.copy())
    return SegmentBatch(fo, ln, do)


def concat_batches(parts: Sequence[SegmentBatch]) -> SegmentBatch:
    """Concatenate batches (summing their cost counters)."""
    parts = [p for p in parts if not p.empty]
    if not parts:
        return SegmentBatch.empty_batch()
    if len(parts) == 1:
        return parts[0]
    return SegmentBatch(
        np.concatenate([p.file_offsets for p in parts]),
        np.concatenate([p.lengths for p in parts]),
        np.concatenate([p.data_offsets for p in parts]),
        pairs_evaluated=sum(p.pairs_evaluated for p in parts),
        tiles_skipped=sum(p.tiles_skipped for p in parts),
    )


def merge_extents(
    offset_arrays: Sequence[np.ndarray], length_arrays: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Union of extents: sorted by offset, adjacent/overlapping merged."""
    if not offset_arrays:
        return _EMPTY, _EMPTY
    offs = np.concatenate(list(offset_arrays))
    lens = np.concatenate(list(length_arrays))
    if offs.size == 0:
        return _EMPTY, _EMPTY
    order = np.argsort(offs, kind="stable")
    offs = offs[order]
    ends = offs + lens[order]
    # Merge runs where the next extent starts at or before the running end.
    run_end = np.maximum.accumulate(ends)
    new_run = np.empty(offs.size, dtype=bool)
    new_run[0] = True
    np.greater(offs[1:], run_end[:-1], out=new_run[1:])
    heads = np.flatnonzero(new_run)
    out_offs = offs[heads]
    return out_offs, np.maximum.reduceat(ends, heads) - out_offs


def clip_to_range(batch: SegmentBatch, lo: int, hi: int) -> SegmentBatch:
    """Pieces of ``batch`` inside file range [lo, hi), data offsets
    shifted consistently.  Assumes file offsets ascending."""
    fo, ln, do = batch.file_offsets, batch.lengths, batch.data_offsets
    if fo.size == 0 or hi <= lo:
        return SegmentBatch.empty_batch()
    ends = fo + ln
    i0 = int(np.searchsorted(ends, lo, side="right"))
    i1 = int(np.searchsorted(fo, hi, side="left"))
    if i0 >= i1:
        return SegmentBatch.empty_batch()
    f = fo[i0:i1].copy()
    l = ln[i0:i1].copy()
    d = do[i0:i1].copy()
    front = max(lo - int(f[0]), 0)
    f[0] += front
    d[0] += front
    l[0] -= front
    over = max(int(f[-1] + l[-1]) - hi, 0)
    l[-1] -= over
    keep = l > 0
    if not keep.all():
        f, l, d = f[keep], l[keep], d[keep]
    return SegmentBatch(f, l, d)


def subtract_intervals(batch: SegmentBatch, covered) -> SegmentBatch:
    """The pieces of ``batch`` outside the ``covered`` file intervals.

    ``covered`` is an iterable of (lo, hi) byte ranges, in any order,
    possibly overlapping; it is normalized first.  The remainder is
    assembled by clipping to the complement intervals, so data offsets
    stay consistent with the original access.  Crash recovery uses this
    twice: the old two-phase path subtracts already-written rounds on a
    mid-call re-plan, and rejoin-time resume subtracts the epoch
    records' committed intervals (docs/crash_recovery.md)."""
    spans = sorted((int(lo), int(hi)) for lo, hi in covered if int(hi) > int(lo))
    if batch.empty or not spans:
        return batch
    merged: list = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    far = 1 << 62
    parts = []
    prev = -far
    for lo, hi in merged:
        parts.append(clip_to_range(batch, prev, lo))
        prev = hi
    parts.append(clip_to_range(batch, prev, far))
    return concat_batches(parts)


def access_histogram(
    access: SegmentBatch,
    aar_lo: int,
    aar_hi: int,
    nbins: int = 256,
) -> np.ndarray:
    """Bytes accessed per equal-width bin over the AAR (local view).

    ``access`` is the local access flattened (ascending, disjoint file
    segments, e.g. ``FlatCursor.all_segments()``).  Used by the
    balanced realm strategy."""
    span = aar_hi - aar_lo
    if span <= 0:
        return np.zeros(nbins, dtype=np.int64)
    edges = aar_lo + (np.arange(nbins + 1, dtype=np.int64) * span) // nbins
    offs, lens = access.file_offsets, access.lengths
    prefix = np.zeros(offs.size + 1, dtype=np.int64)
    np.cumsum(lens, out=prefix[1:])
    # Bytes below each edge: those of the segments starting before it,
    # less what the last of them reaches past it.
    k = offs.searchsorted(edges)
    below = prefix[k]
    last = k > 0
    below[last] -= np.maximum(offs[k[last] - 1] + lens[k[last] - 1] - edges[last], 0)
    return np.diff(below)
