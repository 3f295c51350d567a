"""Data sieving: strided I/O through a contiguous sieve-buffer window.

Writes are read-modify-write: read the window span, scatter the new
bytes into it, write the whole span back.  Holes between segments are
carried by the pre-read, so the write-back is always one contiguous
extent — few large file-system calls instead of many small ones.  The
span write implicitly requires the extent lock on the window, which the
file-system layer charges.
"""

from __future__ import annotations

import numpy as np

from repro.datatypes.packing import copy_segments
from repro.datatypes.segments import SegmentBatch
from repro.errors import CollectiveIOError
from repro.fs.client import LocalFile

__all__ = ["datasieve_write", "datasieve_read"]


def _windows(lo: int, hi: int, size: int):
    pos = lo
    while pos < hi:
        yield pos, min(pos + size, hi)
        pos = min(pos + size, hi)


def _clip_batch(batch: SegmentBatch, lo: int, hi: int):
    """Segment pieces of ``batch`` inside [lo, hi): (file_off, len, data_off)."""
    fo, ln, do = batch.file_offsets, batch.lengths, batch.data_offsets
    ends = fo + ln
    sel = (ends > lo) & (fo < hi)
    if not sel.any():
        return None
    f = fo[sel].copy()
    l = ln[sel].copy()
    d = do[sel].copy()
    front = np.maximum(lo - f, 0)
    f += front
    d += front
    l -= front
    over = np.maximum((f + l) - hi, 0)
    l -= over
    keep = l > 0
    return f[keep], l[keep], d[keep]


def _abut(f: np.ndarray, l: np.ndarray) -> bool:
    """True when the pieces, in file order, each start where the one
    before ended."""
    if not (f[1:] >= f[:-1]).all():
        order = np.argsort(f, kind="stable")
        f, l = f[order], l[order]
    return bool((f[1:] == f[:-1] + l[:-1]).all())


def datasieve_write(
    local: LocalFile,
    batch: SegmentBatch,
    data: np.ndarray,
    *,
    buffer_size: int,
) -> None:
    """Write ``batch``'s segments (bytes in ``data``, data order) using
    sieve windows of at most ``buffer_size`` bytes."""
    if batch.empty:
        return
    if buffer_size <= 0:
        raise CollectiveIOError(f"sieve buffer size must be positive, got {buffer_size}")
    cost = local.fs.cost
    ctx = local.ctx
    lo = int(batch.file_offsets.min())
    hi = int((batch.file_offsets + batch.lengths).max())
    data = np.asarray(data, dtype=np.uint8)
    for w_lo, w_hi in _windows(lo, hi, buffer_size):
        clipped = _clip_batch(batch, w_lo, w_hi)
        if clipped is None:
            continue
        f, l, d = clipped
        span_lo = int(f.min())
        span_hi = int((f + l).max())
        span = span_hi - span_lo
        covered = int(l.sum())
        if covered != span or not _abut(f, l):
            # Holes exist: pre-read the span so the write-back preserves
            # the gap bytes (the defining RMW of data sieving).  Pieces
            # that overlap can cover ``span`` bytes and still leave one.
            sieve = local.read(span_lo, span)
        else:
            sieve = np.empty(span, dtype=np.uint8)
        # Collective buffer -> sieve buffer copy (the double-buffer
        # cost the old integrated implementation avoids).
        ctx.charge(covered * cost.cpu_per_byte_copy)
        ctx.charge(covered * cost.cpu_per_byte_touch)
        copy_segments(sieve, f - span_lo, data, d, l)
        local.write(span_lo, sieve)


def datasieve_read(
    local: LocalFile,
    batch: SegmentBatch,
    *,
    buffer_size: int,
) -> np.ndarray:
    """Read ``batch``'s segments via sieve windows; returns data-order bytes."""
    if batch.empty:
        return np.empty(0, dtype=np.uint8)
    if buffer_size <= 0:
        raise CollectiveIOError(f"sieve buffer size must be positive, got {buffer_size}")
    cost = local.fs.cost
    ctx = local.ctx
    out = np.zeros(int((batch.data_offsets + batch.lengths).max()), dtype=np.uint8)
    lo = int(batch.file_offsets.min())
    hi = int((batch.file_offsets + batch.lengths).max())
    for w_lo, w_hi in _windows(lo, hi, buffer_size):
        clipped = _clip_batch(batch, w_lo, w_hi)
        if clipped is None:
            continue
        f, l, d = clipped
        span_lo = int(f.min())
        span = int((f + l).max()) - span_lo
        sieve = local.read(span_lo, span)
        covered = int(l.sum())
        ctx.charge(covered * cost.cpu_per_byte_copy)
        ctx.charge(covered * cost.cpu_per_byte_touch)
        copy_segments(out, d, sieve, f - span_lo, l)
    return out
