"""Tiled range intersection over flattened datatypes.

This module is the computational heart of the reproduction.  The new
collective I/O implementation ships *flattened filetypes* (D pairs) and
both clients and aggregators repeatedly intersect the tiled pattern with
byte ranges (an aggregator's file realm clipped to the current
collective-buffer chunk).  :class:`FlatCursor` performs those
intersections vectorized with numpy while counting what the paper's C
implementation would have paid for them:

* ``pairs_evaluated`` — offset/length pairs examined.  A single-tile
  ("explicitly enumerated") type is scanned linearly from the cursor's
  last position, so walking the whole pattern once per aggregator costs
  O(M·A) pair evaluations, exactly the regression Figure 4 shows for
  ``new+vect``.
* ``tiles_skipped`` — whole filetype instances stepped over without
  looking inside, the succinct-datatype optimization that makes
  ``new+struct`` cheap ("an internal optimization allows processes to
  skip full datatypes").

The counters are consumed by the cost model; the *results* (segment
arrays) are exact and independent of the counting mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatatypeError
from repro.datatypes.flatten import FlatType

__all__ = ["SegmentBatch", "FlatCursor", "data_to_file_segments"]

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class SegmentBatch:
    """Result of one intersection: parallel arrays plus cost counters.

    ``file_offsets[k]``/``lengths[k]`` is a contiguous byte range in the
    file; ``data_offsets[k]`` is its position in the access's data
    stream (the concatenation of the datatype's bytes in data order).
    """

    file_offsets: np.ndarray
    lengths: np.ndarray
    data_offsets: np.ndarray
    pairs_evaluated: int = 0
    tiles_skipped: int = 0

    @property
    def total_bytes(self) -> int:
        return int(self.lengths.sum())

    @property
    def num_segments(self) -> int:
        return int(self.lengths.size)

    @property
    def empty(self) -> bool:
        return self.lengths.size == 0

    @staticmethod
    def empty_batch(pairs_evaluated: int = 0, tiles_skipped: int = 0) -> "SegmentBatch":
        return SegmentBatch(_EMPTY, _EMPTY, _EMPTY, pairs_evaluated, tiles_skipped)

    def coalesce(self) -> "SegmentBatch":
        """Merge runs adjacent in both file and data space.

        Segments are first ordered by ``data_offsets`` — the order
        :func:`~repro.datatypes.packing.gather_segments` packs them in —
        then consecutive segments that continue each other in *both*
        address spaces collapse into one run.  The packed byte stream of
        the result is identical to the original's (same bytes, same
        order), so a coalesced batch can replace the original on either
        side of an exchange; only the per-segment bookkeeping shrinks.
        Cost counters carry over unchanged.
        """
        n = self.lengths.size
        if n <= 1:
            return self
        order = np.argsort(self.data_offsets, kind="stable")
        fo = self.file_offsets[order]
        ln = self.lengths[order]
        do = self.data_offsets[order]
        contiguous = (do[1:] == do[:-1] + ln[:-1]) & (fo[1:] == fo[:-1] + ln[:-1])
        new_run = np.empty(n, dtype=bool)
        new_run[0] = True
        np.logical_not(contiguous, out=new_run[1:])
        ids = np.cumsum(new_run) - 1
        out_ln = np.zeros(int(ids[-1]) + 1, dtype=ln.dtype)
        np.add.at(out_ln, ids, ln)
        return SegmentBatch(
            fo[new_run].copy(),
            out_ln,
            do[new_run].copy(),
            self.pairs_evaluated,
            self.tiles_skipped,
        )


def _clip(
    file_start: np.ndarray,
    length: np.ndarray,
    data_off: np.ndarray,
    lo: int,
    hi: int,
    total_bytes: int,
    data_lo: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clip candidate segments to the file range [lo, hi) and to the
    data stream [data_lo, total_bytes); drop empties."""
    front = lo - file_start
    np.maximum(front, 0, out=front)
    if data_lo:
        # The data window may clip further than the file window.
        np.maximum(front, data_lo - data_off, out=front)
    file_start = file_start + front
    data_off = data_off + front
    length = length - front
    over = (file_start + length) - hi
    np.maximum(over, 0, out=over)
    length = length - over
    avail = total_bytes - data_off
    np.minimum(length, avail, out=length)
    keep = length > 0
    if keep.all():
        return file_start, length, data_off
    return file_start[keep], length[keep], data_off[keep]


def _tiled_pairs(
    flat: FlatType, disp: int, g_lo: int, g_hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs ``g_lo <= g < g_hi`` of ``flat`` tiled from ``disp``, pair
    ``g`` being pair ``g % D`` of tile ``g // D``: fresh, unclipped
    (file_start, length, data_off) arrays."""
    g = np.arange(g_lo, g_hi, dtype=np.int64)
    if flat.num_segments == 1:
        return (
            g * flat.extent + (disp + int(flat.offsets[0])),
            np.full(g.size, flat.lengths[0], dtype=np.int64),
            g * flat.size,
        )
    t, k = np.divmod(g, flat.num_segments)
    return (
        t * flat.extent + flat.offsets[k] + disp,
        flat.lengths[k],
        t * flat.size + flat.data_prefix[k],
    )


class FlatCursor:
    """Stateful intersector over a tiled flattened filetype.

    Parameters
    ----------
    flat:
        The flattened filetype (must be monotonic — a file-view
        requirement the paper's implementation shares).
    disp:
        Byte displacement of tile 0 in the file (the view's ``disp``).
    total_bytes:
        One past the last data byte of the access; the tiling is
        truncated there (the last tile may be partial).
    data_lo:
        First data byte of the access (default 0).  A non-zero value
        models an access starting at an individual-file-pointer /
        explicit-offset position: only data bytes in
        [data_lo, total_bytes) are emitted.

    Queries are expected to be non-decreasing in file offset per cursor
    (each aggregator/client pairing advances monotonically through the
    collective's rounds), matching the linear-scan cost semantics.
    """

    __slots__ = (
        "flat",
        "disp",
        "total_bytes",
        "data_lo",
        "tiles",
        "_cur_tile",
        "_cur_idx",
        "multi_tile",
    )

    def __init__(
        self, flat: FlatType, disp: int, total_bytes: int, data_lo: int = 0
    ) -> None:
        if disp < 0:
            raise DatatypeError(f"view displacement must be non-negative, got {disp}")
        if not flat.is_monotonic:
            raise DatatypeError("file views require monotonic non-overlapping filetypes")
        if data_lo < 0 or data_lo > total_bytes:
            raise DatatypeError(
                f"data window [{data_lo}, {total_bytes}) is invalid"
            )
        self.flat = flat
        self.disp = int(disp)
        self.total_bytes = int(total_bytes)
        self.data_lo = int(data_lo)
        self.tiles = flat.tile_count(total_bytes)
        if self.tiles > 1 and flat.extent <= 0:
            raise DatatypeError("multi-tile access requires a positive extent")
        self.multi_tile = self.tiles > 1
        self._cur_tile = 0
        self._cur_idx = 0
        self.reset()

    def _file_pos_of_data(self, data: int) -> int:
        """File offset of data byte ``data`` (data < total_bytes)."""
        size = self.flat.size
        tile, rem = divmod(data, size)
        dp = self.flat.data_prefix
        k = int(np.searchsorted(dp, rem, side="right")) - 1
        base = self.disp + tile * self.flat.extent
        return base + int(self.flat.offsets[k]) + (rem - int(dp[k]))

    # -- geometry ---------------------------------------------------------
    @property
    def first_byte(self) -> int:
        """Smallest file offset touched (valid when non-empty)."""
        if self.data_lo == 0:
            return self.disp + self.flat.span_lo
        if self.data_lo >= self.total_bytes:
            return self.disp + self.flat.span_lo
        return self._file_pos_of_data(self.data_lo)

    @property
    def last_byte(self) -> int:
        """One past the largest file offset touched."""
        if self.tiles == 0:
            return self.first_byte
        last_tile = self.tiles - 1
        base = self.disp + last_tile * self.flat.extent
        rem = self.total_bytes - last_tile * self.flat.size
        if rem >= self.flat.size:
            return base + self.flat.span_hi
        # Partial last tile: find the end of the last byte carried.
        dp = self.flat.data_prefix
        k = int(np.searchsorted(dp, rem, side="left"))
        if k > 0 and dp[k] != rem:
            k -= 1
            extra = rem - int(dp[k])
            return base + int(self.flat.offsets[k]) + extra
        if k == 0:
            return base + int(self.flat.offsets[0])
        return base + int(self.flat.offsets[k - 1] + self.flat.lengths[k - 1])

    def reset(self) -> None:
        """Rewind the scan position (new collective call, same view).

        The scan starts at the data window's first tile/pair, so
        tiles before ``data_lo`` are never counted as skipped."""
        if self.flat.size > 0:
            self._cur_tile = self.data_lo // self.flat.size
        else:
            self._cur_tile = 0
        self._cur_idx = 0

    # -- the core query ------------------------------------------------------
    def intersect(self, lo: int, hi: int) -> SegmentBatch:
        """Segments of the tiled access inside file range [lo, hi)."""
        flat = self.flat
        if (
            hi <= lo
            or self.tiles == 0
            or flat.num_segments == 0
            or self.data_lo >= self.total_bytes
        ):
            return SegmentBatch.empty_batch()
        if self.multi_tile:
            return self._intersect_tiled(lo, hi)
        return self._intersect_single(lo, hi)

    def all_segments(self) -> SegmentBatch:
        """The entire access flattened out — what the *old* implementation
        materializes up front (M pairs)."""
        if self.tiles == 0 or self.flat.num_segments == 0:
            return SegmentBatch.empty_batch()
        return self.intersect(self.first_byte, self.last_byte)

    # -- single-tile: linear scan ----------------------------------------------
    def _intersect_single(self, lo: int, hi: int) -> SegmentBatch:
        flat = self.flat
        rel_lo = lo - self.disp
        rel_hi = hi - self.disp
        idx_lo = int(np.searchsorted(flat.ends, rel_lo, side="right"))
        idx_hi = int(np.searchsorted(flat.offsets, rel_hi, side="left"))
        evaluated = max(0, idx_hi - self._cur_idx)
        self._cur_idx = max(self._cur_idx, idx_hi)
        if idx_lo >= idx_hi:
            return SegmentBatch.empty_batch(pairs_evaluated=evaluated)
        sel = slice(idx_lo, idx_hi)
        file_start = self.disp + flat.offsets[sel].copy()
        length = flat.lengths[sel].copy()
        data_off = flat.data_prefix[idx_lo:idx_hi].copy()
        fs, ln, do = _clip(
            file_start, length, data_off, lo, hi, self.total_bytes, self.data_lo
        )
        return SegmentBatch(fs, ln, do, pairs_evaluated=evaluated)

    # -- multi-tile: whole-tile skipping -----------------------------------------
    def _intersect_tiled(self, lo: int, hi: int) -> SegmentBatch:
        flat = self.flat
        ext = flat.extent
        D = flat.num_segments
        span_lo, span_hi = flat.span_lo, flat.span_hi
        # Tile t intersects [lo, hi) iff
        #   disp + t*ext + span_lo < hi  and  disp + t*ext + span_hi > lo.
        t_first = (lo - self.disp - span_hi) // ext + 1  # smallest t with end > lo
        t_last = -((-(hi - self.disp - span_lo)) // ext) - 1  # ceil(x) - 1: t < x
        t_first = max(int(t_first), 0)
        t_last = min(int(t_last), self.tiles - 1)
        # _cur_tile is the next tile the scan has not yet examined; tiles
        # strictly before t_first are stepped over without being opened.
        skipped = max(0, t_first - self._cur_tile)
        if t_first > t_last:
            self._cur_tile = max(self._cur_tile, t_first)
            return SegmentBatch.empty_batch(tiles_skipped=skipped)
        evaluated = (t_last - t_first + 1) * D
        self._cur_tile = max(self._cur_tile, t_last + 1)

        # The pairs inside [lo, hi) are one range of the global pair
        # index g = t*D + k: from the first pair of t_first ending past
        # lo to the last pair of t_last starting before hi.
        k0 = int(flat.ends.searchsorted(lo - (self.disp + t_first * ext), side="right"))
        k1 = int(flat.offsets.searchsorted(hi - (self.disp + t_last * ext), side="left"))
        g_lo, g_hi = t_first * D + k0, t_last * D + k1
        if g_lo >= g_hi:
            return SegmentBatch.empty_batch(evaluated, skipped)
        fs, ln, do = _tiled_pairs(flat, self.disp, g_lo, g_hi)
        if self.data_lo == 0 and t_last * flat.size + int(flat.data_prefix[k1]) <= self.total_bytes:
            # The data window cuts nothing, and of a monotonic pattern
            # only the first pair can start before lo, only the last end
            # past hi: clip those two as scalars.
            front = max(lo - int(fs[0]), 0)
            fs[0] += front
            do[0] += front
            ln[0] -= front
            ln[-1] -= max(int(fs[-1]) + int(ln[-1]) - hi, 0)
        else:
            # Whole pairs before data_lo drop, a partial last tile truncates.
            fs, ln, do = _clip(fs, ln, do, lo, hi, self.total_bytes, self.data_lo)
        return SegmentBatch(fs, ln, do, pairs_evaluated=evaluated, tiles_skipped=skipped)


def data_to_file_segments(
    flat: FlatType, disp: int, data_lo: int, data_hi: int, *, total_bytes: int | None = None
) -> SegmentBatch:
    """Map a data-stream interval [data_lo, data_hi) to file segments.

    Used on the memory side (where "file offsets" are buffer addresses)
    and to slice an access stream into collective-buffer rounds.  The
    pattern need not be monotonic — the data prefix always is.
    """
    if data_lo < 0 or data_hi < data_lo:
        raise DatatypeError(f"invalid data range [{data_lo}, {data_hi})")
    if total_bytes is not None:
        data_hi = min(data_hi, total_bytes)
    if data_hi <= data_lo or flat.size == 0 or flat.num_segments == 0:
        return SegmentBatch.empty_batch()
    size = flat.size
    D = flat.num_segments
    dp = flat.data_prefix
    t0 = data_lo // size
    t1 = (data_hi - 1) // size
    # One range of the global pair index: from the pair holding data
    # byte data_lo to the last pair starting before data_hi.
    k0 = int(dp.searchsorted(data_lo - t0 * size, side="right")) - 1
    k1 = int(dp.searchsorted(data_hi - t1 * size, side="left"))
    fs, ln, do = _tiled_pairs(flat, disp, t0 * D + k0, t1 * D + k1)
    # Only the two end pairs can straddle the data window.
    front = data_lo - int(do[0])
    fs[0] += front
    do[0] += front
    ln[0] -= front
    ln[-1] -= int(do[-1]) + int(ln[-1]) - data_hi
    return SegmentBatch(fs, ln, do)
