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

:class:`FanCursor` is the client side of a round in one pass: the same
access scanned against every aggregator's window, with one scan
position per aggregator, so the counts are the per-aggregator walk's
while the host builds every leg that has a period from the two ends of
its scan range, and materialises, clips and maps the others' segments,
each with one set of array operations.

:class:`FunnelCursor` is its dual, the aggregator side: every client's
access scanned against one window.  Clients shipping the same
description share one cursor tiled from 0 (a member's window is the
aggregator's shifted by its own ``disp``), each keeps its own scan
position, and one materialise and one clip cover every client's
segments.  Both sides clip through :func:`_materialise` and split by
target through :func:`_split`, which also gives a leg built from its
ends its period.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DatatypeError
from repro.datatypes.flatten import FlatType

__all__ = [
    "SegmentBatch",
    "FlatCursor",
    "FanCursor",
    "FunnelCursor",
    "data_to_file_segments",
    "expand_indices",
    "map_stream",
]

_EMPTY = np.empty(0, dtype=np.int64)
#: A range's first and last pair (``g_hi`` is one past it), as columns.
_FIRST_LAST = np.array([0, 1], dtype=np.int64)
#: Fewest tiles of a period worth a strided view per pair: a leg the
#: routers build carries its period only past this many, and the copy
#: kernel's detection asks the same of a batch nobody built.
_MIN_TILES = 4


def expand_indices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Expand (start, length) runs into one flat index array.

    ``expand_indices([3, 10], [2, 3]) == [3, 4, 10, 11, 12]``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    keep = lengths > 0
    if not keep.all():
        starts, lengths = starts[keep], lengths[keep]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    # Every index is its position in the output plus its run's shift.
    out = np.repeat(starts - (ends - lengths), lengths)
    out += np.arange(int(ends[-1]), dtype=np.int64)
    return out


@dataclass
class SegmentBatch:
    """Result of one intersection: parallel arrays plus cost counters.

    ``file_offsets[k]``/``lengths[k]`` is a contiguous byte range in the
    file; ``data_offsets[k]`` is its position in the access's data
    stream (the concatenation of the datatype's bytes in data order).

    ``period`` is set only by the router that built the batch as one
    exchange leg (:class:`FanCursor`, :class:`FunnelCursor`), where it
    holds by construction: ``(D, stride, packed_stride, nbytes)``.  Such
    a batch has ascending data offsets, ``nbytes`` bytes, and file side
    ascending and disjoint.  ``D == 0``: the segments lie back to back
    on both sides (one slice).  Otherwise, behind the first and the
    last segment, segment ``i + D`` has segment ``i``'s length and
    starts ``stride`` bytes later in the file and ``packed_stride``
    later in the packed stream, over at least ``_MIN_TILES`` periods.
    Nothing derived from a batch inherits it, and it takes no part in
    equality.

    A leg :class:`FanCursor` builds from the two ends of its scan range
    also holds ``ends = (segments, starts, lengths, build)``: its
    segment count, the starts and lengths of segments ``0 .. D`` and of
    the last one, and a callable returning its three arrays.  Those
    arrays do not exist until something reads one; ``build`` then makes
    them, element for element the arrays of a leg routed with them.
    ``num_segments``, ``empty``, ``total_bytes`` and ``period`` answer
    from the ends, and the copy kernel moves the leg from them
    (:func:`~repro.datatypes.packing.gather_segments`).
    """

    file_offsets: np.ndarray
    lengths: np.ndarray
    data_offsets: np.ndarray
    pairs_evaluated: int = 0
    tiles_skipped: int = 0
    period: Optional[Tuple[int, int, int, int]] = field(default=None, compare=False, repr=False)
    #: Set on a leg built from its ends (not a field: no arrays yet).
    ends = None

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: the arrays of
        # a leg built from its ends, on their first read.
        if self.ends is None or name not in ("file_offsets", "lengths", "data_offsets"):
            raise AttributeError(name)
        self.file_offsets, self.lengths, self.data_offsets = self.ends[3]()
        return self.__dict__[name]

    @property
    def total_bytes(self) -> int:
        if self.period is not None:
            return self.period[3]
        return int(self.lengths.sum())

    @property
    def num_segments(self) -> int:
        if self.ends is not None:
            return self.ends[0]
        return int(self.lengths.size)

    @property
    def empty(self) -> bool:
        if self.ends is not None:
            return self.ends[0] == 0
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
    lo,
    hi,
    total_bytes: int,
    data_lo: int = 0,
    *extra: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Clip candidate segments to the file range [lo, hi) and to the
    data stream [data_lo, total_bytes); drop empties.

    ``lo``/``hi``, ``total_bytes`` and ``data_lo`` are scalars or one
    value per segment; ``extra`` arrays parallel to the segments are
    returned filtered alongside them."""
    front = lo - file_start
    np.maximum(front, 0, out=front)
    if isinstance(data_lo, np.ndarray) or data_lo:
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
        return (file_start, length, data_off, *extra)
    return tuple(a[keep] for a in (file_start, length, data_off, *extra))


def _tiled_pairs(
    flat: FlatType, disp: int, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs ``g`` (an int64 index array) of ``flat`` tiled from
    ``disp``, pair ``g`` being pair ``g % D`` of tile ``g // D``: fresh,
    unclipped (file_start, length, data_off) arrays."""
    if flat.num_segments == 1:
        lengths = np.empty(g.shape, dtype=np.int64)
        lengths.fill(flat.size)  # (np.full: twice the cost on a round's few pairs)
        return g * flat.extent + (disp + int(flat.offsets[0])), lengths, g * flat.size
    t, k = np.divmod(g, flat.num_segments)
    return (
        t * flat.extent + flat.offsets[k] + disp,
        flat.lengths[k],
        t * flat.size + flat.data_prefix[k],
    )


class _Pairs:
    """The pair tables of one or more flattened types.  Several are
    stacked end to end (pair ``k`` of type ``j`` is row ``base[j] + k``);
    one is used as it is, through :func:`_tiled_pairs`."""

    __slots__ = ("flats", "offsets", "lengths", "data_prefix", "base", "count", "extent", "size")

    def __init__(self, flats: List[FlatType]) -> None:
        self.flats = flats
        if len(self.flats) > 1:
            self.offsets = np.concatenate([f.offsets for f in self.flats])
            self.lengths = np.concatenate([f.lengths for f in self.flats])
            # data_prefix has D + 1 entries: the last is the size.
            self.data_prefix = np.concatenate([f.data_prefix[:-1] for f in self.flats])
            self.count = np.array([f.offsets.size for f in self.flats], dtype=np.int64)
            self.extent = np.array([f.extent for f in self.flats], dtype=np.int64)
            self.size = np.array([f.size for f in self.flats], dtype=np.int64)
            self.base = np.cumsum(self.count) - self.count

    def tiled(self, kind: np.ndarray, g: np.ndarray, disp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`_tiled_pairs` over several types: pair ``g[i]`` of type
        ``kind[i]`` tiled from ``disp`` (per pair or once)."""
        t, k = np.divmod(g, self.count[kind])
        row = self.base[kind] + k
        return (
            t * self.extent[kind] + self.offsets[row] + disp,
            self.lengths[row],
            t * self.size[kind] + self.data_prefix[row],
        )


def _materialise(
    pairs: _Pairs, ranges: Sequence[Tuple[int, int, int, int, int]], disp, total_bytes, data_lo, kind=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every scan range's pairs at once — ``(g_lo, g_hi, lo, hi,
    target)`` rows as :meth:`FlatCursor.scan` returns them, ``lo``/``hi``
    in file coordinates — clipped to its interval and to the data
    window: ``(file_start, length, data_off, target)`` in range order,
    empty pieces dropped.

    ``disp``, ``total_bytes``, ``data_lo`` and ``kind`` (a type of
    ``pairs``) are one value for every target, or arrays indexed by
    target id."""
    g_lo, g_hi, lo, hi, tid = np.asarray(ranges, dtype=np.int64).T
    n = g_hi - g_lo
    tid = np.repeat(tid, n)
    g = expand_indices(g_lo, n)
    # Per-target columns to per-pair ones (inline: this runs every round).
    if isinstance(disp, np.ndarray):
        disp = disp[tid]
    if isinstance(total_bytes, np.ndarray):
        total_bytes = total_bytes[tid]
    if isinstance(data_lo, np.ndarray):
        data_lo = data_lo[tid]
    if len(pairs.flats) == 1:
        fs, ln, do = _tiled_pairs(pairs.flats[0], disp, g)
    else:
        fs, ln, do = pairs.tiled(kind[tid], g, disp)
    return _clip(fs, ln, do, np.repeat(lo, n), np.repeat(hi, n), total_bytes, data_lo, tid)


def _leg_tiling(flat: FlatType, one_tile: bool) -> Tuple[int, int, int]:
    """What a run of consecutive pairs of ``flat`` (monotonic, tiled, or
    used for ``one_tile`` only) repeats by, as ``(D, stride,
    packed_stride)``: pair by pair when every pair has the first one's
    length and starts one stride after the one before, tile edges
    included (an ``hvector`` however it was flattened); else tile by
    tile."""
    D = flat.num_segments
    if D > 1:
        offsets, lengths = flat.offsets, flat.lengths
        stride = int(offsets[1] - offsets[0])
        if (
            (one_tile or flat.extent == D * stride)
            and (lengths == lengths[0]).all()
            and (offsets[2:] - offsets[1:-1] == stride).all()
        ):
            return (1, stride, int(lengths[0]))
    return (D, flat.extent, flat.size)


@lru_cache(maxsize=16)
def _leg_heads(D: int) -> Tuple[np.ndarray, np.ndarray]:
    """Which of :meth:`FanCursor._ends`' two columns (the memory pairs of
    a leg's first and last byte), plus what, give the leg's pairs
    ``0 .. D`` and its last: read-only, shared by every router."""
    cols = np.array([0] * (D + 1) + [1], dtype=np.intp)
    offs = np.array([*range(D + 1), 0], dtype=np.int64)
    cols.setflags(write=False)
    offs.setflags(write=False)
    return cols, offs


def _whole(
    ranges: Sequence[Tuple[int, int, int, int, int]],
    tid: np.ndarray,
    tilings: Sequence[Optional[Tuple[int, int, int]]],
) -> Dict[int, Tuple[int, int, int]]:
    """``tilings[t]`` for every target ``t`` whose pieces are every pair
    of exactly one scan range: consecutive pairs of the type, only the
    first and the last clipped, one run of the data stream.  (A pair can
    only drop at the data window's edges; one count covers the round
    when none did.)"""
    count: Dict[int, int] = {}
    kept = tid.size
    for g_lo, g_hi, _, _, t in ranges:
        count[t] = -1 if t in count else g_hi - g_lo
        kept -= g_hi - g_lo
    got = np.bincount(tid, minlength=len(tilings)).tolist() if kept else None
    out: Dict[int, Tuple[int, int, int]] = {}
    for t, n in count.items():
        if n > 0 and (got is None or got[t] == n) and tilings[t] is not None:
            out[t] = tilings[t]
    return out


def _split(
    tid: np.ndarray,
    file_offsets,
    lengths,
    data_offsets,
    tilings: Dict[int, Tuple[int, int, int]],
    ends: Sequence[Tuple[int, Tuple[int, int, int, int], tuple]] = (),
) -> Dict[int, SegmentBatch]:
    """One batch per run of equal target ids (each target's segments
    consecutive): target -> its segments.

    ``tilings[t] = (D, stride, packed_stride)`` is what target ``t``'s
    segments repeat by (``D == 0``: one slice); its batch carries that
    as its ``period``, with its byte total, when it spans enough
    periods to pay (see :class:`SegmentBatch`).

    ``ends`` holds ``(t, period, record)`` per leg known by its two ends
    (:meth:`FanCursor.route`): target ``t`` gets a batch carrying that
    period with ``record`` as its ``ends``, and no arrays until one is
    read.  No other function sets a period."""
    out: Dict[int, SegmentBatch] = {}
    if tid.size:
        cuts = (np.flatnonzero(tid[1:] != tid[:-1]) + 1).tolist()
        starts, stops = [0, *cuts], [*cuts, int(tid.size)]
        out = {
            t: SegmentBatch(file_offsets[a:b], lengths[a:b], data_offsets[a:b])
            for t, a, b in zip(tid[starts].tolist(), starts, stops)
        }
        if tilings:
            for t, nbytes in zip(out, np.add.reduceat(lengths, starts).tolist()):
                if t in tilings:
                    D = tilings[t][0]
                    if D == 0 or out[t].lengths.size - 2 >= _MIN_TILES * D:
                        out[t].period = (*tilings[t], nbytes)
    for t, period, record in ends:
        out[t] = leg = object.__new__(SegmentBatch)  # its arrays come on first read
        leg.period, leg.ends = period, record
    return out


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
        "position",
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
        #: The scan position :meth:`scan` advances: the next tile not yet
        #: examined (multi-tile) or the next pair not yet evaluated.
        self.position = 0
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
        self.position = self.data_lo // self.flat.size if self.multi_tile else 0

    # -- the core query ------------------------------------------------------
    def scan(
        self,
        windows: Sequence[Optional[Sequence[Tuple[int, int]]]],
        positions: List[int],
    ) -> Tuple[List[Optional[Tuple[int, int]]], List[Tuple[int, int, int, int, int]]]:
        """The counting rules — the one copy :meth:`intersect`,
        :meth:`FanCursor.route` and :meth:`FunnelCursor.route` charge
        by — over a whole round.

        Every quantity depends on ``lo - disp`` and ``hi - disp`` only,
        so a cursor tiled from 0 scanning ``(lo - d, hi - d)`` counts
        exactly what one tiled from ``d`` counts scanning ``(lo, hi)``.

        ``windows[i]`` is target ``i``'s ascending file intervals (or
        ``None``: not scanned), queried in order from scan position
        ``positions[i]``, which is advanced in place.  Returns per
        target ``None`` or ``(pairs_evaluated, tiles_skipped)``, and the
        pairs that may meet each interval as ranges ``(g_lo, g_hi, lo,
        hi, i)`` of the global pair index (pair ``g`` is pair ``g % D``
        of tile ``g // D``), non-empty ones only.

        * A single-tile ("explicitly enumerated") type is scanned
          linearly: the position is the next pair not yet evaluated, and
          every pair from it to the last one starting before ``hi`` is.
        * A multi-tile type skips whole tiles: the position is the next
          tile not yet examined; tiles from it up to the first one
          reaching past ``lo`` are stepped over unopened, and every pair
          of each tile meeting [lo, hi) is evaluated.
        """
        flat, disp, last_tile = self.flat, self.disp, self.tiles - 1
        ends, offsets = flat.ends, flat.offsets
        ext, D, span_lo, span_hi = flat.extent, flat.num_segments, flat.span_lo, flat.span_hi
        multi = self.multi_tile
        live = self.tiles > 0 and D > 0 and self.data_lo < self.total_bytes
        counts: List[Optional[Tuple[int, int]]] = [None] * len(windows)
        ranges: List[Tuple[int, int, int, int, int]] = []
        for i, intervals in enumerate(windows):
            if intervals is None:
                continue
            pos = positions[i]
            pairs = skipped = 0
            for lo, hi in intervals:
                if hi <= lo or not live:
                    continue
                if not multi:
                    g_lo = int(ends.searchsorted(lo - disp, side="right"))
                    g_hi = int(offsets.searchsorted(hi - disp, side="left"))
                    # (Comparisons, not max/min: this runs per target per
                    # interval on both sides of every round.)
                    if g_hi > pos:
                        pairs += g_hi - pos
                        pos = g_hi
                else:
                    # Tile t meets [lo, hi) iff
                    #   disp + t*ext + span_lo < hi  and  disp + t*ext + span_hi > lo.
                    t_first = int((lo - disp - span_hi) // ext + 1)  # end > lo
                    if t_first < 0:
                        t_first = 0
                    t_last = int(-((-(hi - disp - span_lo)) // ext) - 1)
                    if t_last > last_tile:
                        t_last = last_tile
                    if t_first > pos:
                        skipped += t_first - pos
                        pos = t_first
                    if t_first > t_last:
                        continue
                    pairs += (t_last - t_first + 1) * D
                    if t_last >= pos:
                        pos = t_last + 1
                    # From the first pair of t_first ending past lo to the
                    # last pair of t_last starting before hi.
                    g_lo = t_first * D + int(ends.searchsorted(lo - (disp + t_first * ext), side="right"))
                    g_hi = t_last * D + int(offsets.searchsorted(hi - (disp + t_last * ext), side="left"))
                if g_lo < g_hi:
                    ranges.append((g_lo, g_hi, lo, hi, i))
            positions[i] = pos
            counts[i] = (pairs, skipped)
        return counts, ranges

    def intersect(self, lo: int, hi: int) -> SegmentBatch:
        """Segments of the tiled access inside file range [lo, hi)."""
        pos = [self.position]
        counts, ranges = self.scan([((lo, hi),)], pos)
        self.position = pos[0]
        if not ranges:
            return SegmentBatch.empty_batch(*counts[0])
        pairs, skipped = counts[0]
        g_lo, g_hi = ranges[0][:2]
        fs, ln, do = _tiled_pairs(self.flat, self.disp, np.arange(g_lo, g_hi, dtype=np.int64))
        if self.data_lo == 0 and int(do[-1]) + int(ln[-1]) <= self.total_bytes:
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
        return SegmentBatch(fs, ln, do, pairs_evaluated=pairs, tiles_skipped=skipped)

    def all_segments(self) -> SegmentBatch:
        """The entire access flattened out — what the *old* implementation
        materializes up front (M pairs)."""
        if self.tiles == 0 or self.flat.num_segments == 0:
            return SegmentBatch.empty_batch()
        return self.intersect(self.first_byte, self.last_byte)


class FanCursor:
    """One access scanned against many targets' windows in one pass.

    The client side of a two-phase round.  The paper's client walks its
    access once per aggregator, each walk with its own progress; here
    every target keeps its own scan position and :meth:`FlatCursor.scan`
    counts every window interval, so pairs evaluated, tiles skipped and
    positions evolve exactly as with one :class:`FlatCursor` per target.
    What the host runs is one pass (:meth:`route`): a leg that carries a
    period is built from the two ends of its scan range, every target's
    at once (:meth:`_ends`), and makes its arrays only when something
    reads them; the segments of every other leg are materialised,
    clipped, mapped to memory and split by target with one set of array
    operations.

    ``cursor`` carries the access (its own position is not used);
    ``memflat``, tiled from address 0, is the memory side, data byte
    ``cursor.data_lo`` at address 0.
    """

    __slots__ = ("cursor", "memflat", "positions", "_start", "_pairs", "_tiling")

    def __init__(self, cursor: FlatCursor, targets: int, memflat: FlatType) -> None:
        cursor.reset()
        self.cursor = cursor
        self.memflat = memflat
        self._pairs = _Pairs([cursor.flat])
        self._start = cursor.position
        self.positions: List[int] = [self._start] * targets
        # What a leg of one data run repeats by: ``memflat`` tiled over
        # it, or one slice.  None for a memory type a leg may not be
        # scattered into block by block (not monotonic).
        self._tiling = None
        if memflat.is_contiguous:
            self._tiling = (0, 0, 0)
        elif memflat.is_monotonic:
            self._tiling = _leg_tiling(memflat, cursor.total_bytes - cursor.data_lo <= memflat.size)

    def reset(self) -> None:
        """Rewind every target's scan."""
        self.positions = [self._start] * len(self.positions)

    def route(
        self, windows: Sequence[Optional[Sequence[Tuple[int, int]]]]
    ) -> List[Optional[Tuple[int, int, Optional[SegmentBatch]]]]:
        """Scan each target's window — ``windows[i]``, ascending file
        intervals, or ``None`` to skip target ``i`` — and return per
        target ``None`` for a skipped one, else ``(pairs_evaluated,
        tiles_skipped, batch)``: the memory segments carrying the
        window's data (``None`` when there is none), their
        ``data_offsets`` the ascending stream positions from
        ``data_lo``.  A batch whose window met the access in one scan
        range with no pair dropped is one run of the data stream, so it
        carries the period of ``memflat`` tiled over it when that spans
        enough periods (see :class:`SegmentBatch`); it is built from
        its ends."""
        cur = self.cursor
        counts, ranges = cur.scan(windows, self.positions)
        batches: Dict[int, SegmentBatch] = {}
        if ranges:
            rows = np.array(ranges, dtype=np.int64)
            ends: list = []
            if self._tiling is not None:
                ends, rows = self._ends(ranges, rows)
            tid = fo = ln = do = _EMPTY
            if rows.size:
                # The other ranges' pairs at once, clipped, mapped to memory
                # (runs never merge across targets) and split by target.
                _, ln, do, tid = _materialise(self._pairs, rows, cur.disp, cur.total_bytes, cur.data_lo)
                if tid.size:
                    fo, ln, do, src = map_stream(self.memflat, do - cur.data_lo, ln, tid[1:] != tid[:-1])
                    tid = tid[src]
            batches = _split(tid, fo, ln, do, {}, ends)
        return [c if c is None else (*c, batches.get(i)) for i, c in enumerate(counts)]

    def _ends(self, ranges: list, rows: np.ndarray) -> Tuple[list, np.ndarray]:
        """The legs of this round's scan ``ranges`` (``rows``: the same
        as an array) that carry a period, each known by its two ends:
        ``(t, period, ends)`` per leg (see :class:`SegmentBatch`), and
        the rows of every other target.

        A target scanned in one range whose first and last pairs keep
        bytes once clipped (a pair can only drop at the data window's
        edges) carries one run [d0, d1) of the data stream, as
        :func:`_whole` asks.  Its leg is ``memflat`` tiled over that run
        (the range's pieces, one slice, when ``memflat`` is contiguous),
        which has a period over at least ``_MIN_TILES`` of them.  One set
        of array operations over the targets clips the first and last
        pairs as :func:`_clip` would, maps d0 and d1 through the tiling,
        and gives each leg's segment count, segments ``0 .. D`` and its
        last one."""
        cur, memflat = self.cursor, self.memflat
        D, stride, packed = self._tiling
        k = rows.shape[0]
        lo, hi, tid = rows[:, 2:3], rows[:, 3:4], rows[:, 4]
        # Every range's first and last pair as columns, clipped as _clip
        # clips them (file byte x of a pair is data byte x - shift): data
        # bytes [start, end), kept when non-empty.
        f, ln, start = _tiled_pairs(cur.flat, cur.disp, rows[:, :2] - _FIRST_LAST)
        shift = f - start
        end = start + ln
        np.maximum(start, lo - shift, out=start)
        if cur.data_lo:
            np.maximum(start, cur.data_lo, out=start)
        np.minimum(end, hi - shift, out=end)
        np.minimum(end, cur.total_bytes, out=end)
        kept = end > start
        whole = kept[:, 0] & kept[:, 1]
        same = tid[1:] == tid[:-1]
        if same.any():  # targets scanned in several ranges
            whole[1:] &= ~same
            whole[:-1] &= ~same
        # The run [d0, d1), in the memory type's stream.
        run = start - cur.data_lo
        run[:, 1] = end[:, 1] - cur.data_lo
        if D == 0:
            n = rows[:, 1] - rows[:, 0]
            starts, lens = start - cur.data_lo, end - start
        else:
            # The memory pairs holding bytes d0 and d1 - 1, and the leg's
            # pairs 0 .. D and its last, the ends clipped to the run.
            q = run - _FIRST_LAST
            if D == 1:  # pair p: ``packed`` bytes, ``stride`` after pair p - 1
                p = q // packed
            else:
                t, r = np.divmod(q, memflat.size)
                p = t * D + memflat.data_prefix.searchsorted(r, side="right") - 1
            n = p[:, 1] - p[:, 0] + 1
            whole &= n >= _MIN_TILES * D + 2
            cols, offs = _leg_heads(D)
            g = p[:, cols] + offs
            if D == 1:  # as _tiled_pairs tiles one pair
                lens = np.empty(g.shape, dtype=np.int64)
                lens.fill(packed)
                starts, data = g * stride + int(memflat.offsets[0]), g * packed
            else:
                starts, lens, data = _tiled_pairs(memflat, 0, g)
            front = run[:, 0] - data[:, 0]
            starts[:, 0] += front
            lens[:, 0] -= front
            lens[:, -1] = run[:, 1] - data[:, -1]
        rest = rows[:0]
        if not whole.all():
            pick = whole.nonzero()[0]
            if pick.size == 0:
                return [], rows
            n, run, starts, lens = n[pick], run[pick], starts[pick], lens[pick]
            ranges = [ranges[i] for i in pick.tolist()]
            rest = rows[~whole]
        build = self._segments
        legs = [
            (row[4], (D, stride, packed, nbytes), (count, st, ls, partial(build, row)))
            for row, count, nbytes, st, ls in zip(
                ranges, n.tolist(), (run[:, 1] - run[:, 0]).tolist(), starts.tolist(), lens.tolist()
            )
        ]
        return legs, rest

    def _segments(self, row: Tuple[int, int, int, int, int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The arrays of the leg routed from scan range ``row`` alone, by
        :meth:`route`'s own materialise and map (a leg built from its
        ends, on its first read)."""
        cur = self.cursor
        _, ln, do, _ = _materialise(self._pairs, [row], cur.disp, cur.total_bytes, cur.data_lo)
        fo, ln, do, _ = map_stream(self.memflat, do - cur.data_lo, ln)
        return fo, ln, do


class _Group:
    """Clients sharing one access description, data window and size:
    one cursor tiled from 0, what a leg of theirs repeats by, and per
    member its ``disp`` and scan position."""

    __slots__ = ("cursor", "kind", "tiling", "start", "members", "disps", "positions")

    def __init__(self, cursor: FlatCursor, kind: int) -> None:
        self.cursor = cursor
        self.kind = kind
        self.tiling = _leg_tiling(cursor.flat, cursor.tiles <= 1)
        self.start = cursor.position
        self.members: List[int] = []
        self.disps: List[int] = []
        #: set when the funnel seals
        self.positions: List[int] = []


class FunnelCursor:
    """Many clients' accesses scanned against one window in one pass.

    The aggregator side of a two-phase round, the dual of
    :class:`FanCursor`.  The paper's aggregator rebuilds a cursor from
    every client's flattened filetype and intersects each with its
    window (§5.3).  Here clients that shipped the same description with
    the same data window form one group around one :class:`FlatCursor`
    tiled from 0; a member's window is the aggregator's shifted by
    ``-disp`` (exact: :meth:`FlatCursor.scan` sees ``lo - disp`` and
    ``hi - disp`` only), and every member keeps its own scan position.
    So pairs evaluated, tiles skipped and positions evolve exactly as
    with one cursor per client, while the host materialises and clips
    every client's segments of a round with one set of array operations
    over the stacked pair tables of the distinct descriptions
    (:meth:`route`).

    ``clients`` is the number of client ids; a client is live from
    :meth:`add` until :meth:`drop`.
    """

    __slots__ = ("_groups", "_group_of", "_kinds", "_flats", "_live", "_cols")

    def __init__(self, clients: int) -> None:
        self._groups: List[_Group] = []
        self._group_of: Dict[tuple, _Group] = {}
        #: description key -> its index in ``_flats``
        self._kinds: Dict[Hashable, int] = {}
        self._flats: List[FlatType] = []
        self._live = [False] * clients
        self._cols: Optional[tuple] = None

    def add(
        self, client: int, key: Hashable, flat: FlatType, disp: int, total_bytes: int, data_lo: int = 0
    ) -> None:
        """Client ``client``'s access: ``flat`` (named by ``key``, e.g.
        its wire bytes) tiled from ``disp``, data bytes [data_lo,
        total_bytes).  Raises the :class:`~repro.errors.DatatypeError` a
        ``FlatCursor(flat, disp, total_bytes, data_lo)`` would.  Clients
        are added in id order, before anything else is asked."""
        if disp < 0:
            raise DatatypeError(f"view displacement must be non-negative, got {disp}")
        grp = self._group_of.get((key, total_bytes, data_lo))
        if grp is None:
            cursor = FlatCursor(flat, 0, total_bytes, data_lo)
            kind = self._kinds.get(key)
            if kind is None:
                kind = self._kinds[key] = len(self._flats)
                self._flats.append(flat)
            grp = self._group_of[(key, total_bytes, data_lo)] = _Group(cursor, kind)
            self._groups.append(grp)
        grp.members.append(client)
        grp.disps.append(disp)
        self._live[client] = True

    def drop(self, client: int) -> None:
        """Stop scanning ``client`` (crashed, or dropped as a suspect)."""
        self._live[client] = False

    def reset(self) -> None:
        """Rewind every client's scan."""
        for grp in self._groups:
            grp.positions = [grp.start] * len(grp.members)

    @property
    def positions(self) -> List[Optional[int]]:
        """Every client's scan position (``None``: never added)."""
        self._sealed()
        out: List[Optional[int]] = [None] * len(self._live)
        for grp in self._groups:
            for c, pos in zip(grp.members, grp.positions):
                out[c] = pos
        return out

    def spans(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(first, last)``: :attr:`FlatCursor.first_byte` and
        :attr:`~FlatCursor.last_byte` of every access added (in group
        order), each its group's plus its ``disp``."""
        _, group, shifts = self._sealed()[:3]
        first = np.array([grp.cursor.first_byte for grp in self._groups], dtype=np.int64)
        last = np.array([grp.cursor.last_byte for grp in self._groups], dtype=np.int64)
        disp = shifts[:, 0, 0]
        return first[group] + disp, last[group] + disp

    def _sealed(self) -> tuple:
        """What the call's :meth:`spans` and :meth:`route` share, built
        once, after the last :meth:`add`, which also starts every
        member's scan: every member's client id, group index and
        ``disp`` (shaped to shift a window by) in group order; then
        ``_materialise``'s inputs — the stacked pair tables, and
        ``disp``, ``total_bytes``, ``data_lo`` and the type per client
        id, each but ``disp`` one value where all clients share it; and
        per client id what a leg of its repeats by (:func:`_leg_tiling`)."""
        if self._cols is None:
            members: List[int] = []
            group: List[int] = []
            disps: List[int] = []
            totals: List[int] = []
            los: List[int] = []
            kinds: List[int] = []
            tilings: List[Optional[Tuple[int, int, int]]] = [None] * len(self._live)
            for j, grp in enumerate(self._groups):
                k = len(grp.members)
                grp.positions = [grp.start] * k
                for c in grp.members:
                    tilings[c] = grp.tiling
                members += grp.members
                group += [j] * k
                disps += grp.disps
                totals += [grp.cursor.total_bytes] * k
                los += [grp.cursor.data_lo] * k
                kinds += [grp.kind] * k
            cols = np.zeros((4, len(self._live)), dtype=np.int64)
            cols[:, members] = (disps, totals, los, kinds)
            disp, total, data_lo, kind = cols
            self._cols = (
                np.array(members, dtype=np.int64),
                np.array(group, dtype=np.int64),
                np.array(disps, dtype=np.int64)[:, None, None],
                _Pairs(self._flats),
                disp,
                totals[0] if len(set(totals)) == 1 else total,
                los[0] if len(set(los)) == 1 else data_lo,
                kind if len(self._flats) > 1 else None,
                tilings,
            )
        return self._cols

    def route(
        self, intervals: Sequence[Tuple[int, int]], address: Callable[[np.ndarray], np.ndarray]
    ) -> Tuple[List[Optional[Tuple[int, int]]], Dict[int, SegmentBatch], np.ndarray, np.ndarray]:
        """Scan every live client's access against the window
        ``intervals`` (ascending file intervals).

        Returns per client ``None`` (not live) or ``(pairs_evaluated,
        tiles_skipped)``; per client with segments inside the window,
        its batch: ``file_offsets`` mapped by ``address`` (into the
        collective buffer), ``data_offsets`` the file offsets; and every
        client's file ``(offsets, lengths)``, concatenated group by group
        (a union does not care).  A client's segments come in
        window-interval order, then pair order, with the values one
        ``FlatCursor.intersect`` per interval gives.

        ``address`` must shift each interval rigidly (as
        :meth:`~repro.core.realms.Window.to_buffer` does): a client
        whose access met the window in one interval then gets a batch
        carrying its type's period (see :class:`SegmentBatch`)."""
        live = self._live
        counted: List[Optional[Tuple[int, int]]] = [None] * len(live)
        ranges: List[Tuple[int, int, int, int, int]] = []
        _, _, shifts, pairs, disp, total, data_lo, kind, tilings = self._sealed()
        # Every member's window, shifted into its group's frame.
        shifted = (np.array(intervals, dtype=np.int64).reshape(-1, 2) - shifts).tolist()
        stop = 0
        for grp in self._groups:
            members, disps = grp.members, grp.disps
            start, stop = stop, stop + len(members)
            windows = shifted[start:stop]
            for i, c in enumerate(members):
                if not live[c]:
                    windows[i] = None
            counts, got = grp.cursor.scan(windows, grp.positions)
            for c, n in zip(members, counts):
                counted[c] = n
            for g_lo, g_hi, lo, hi, i in got:
                d = disps[i]
                ranges.append((g_lo, g_hi, lo + d, hi + d, members[i]))
        batches: Dict[int, SegmentBatch] = {}
        offs = lens = _EMPTY
        if ranges:
            offs, lens, _, tid = _materialise(pairs, ranges, disp, total, data_lo, kind)
            if tid.size:
                batches = _split(tid, address(offs), lens, offs, _whole(ranges, tid, tilings))
        return counted, batches, offs, lens


def _map_runs(
    flat: FlatType, disp: int, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Non-empty data-stream runs [lo[j], hi[j]) mapped through ``flat``
    tiled from ``disp``: every run's segments, run by run, and how many
    each run has."""
    size, D, dp = flat.size, flat.num_segments, flat.data_prefix
    t0 = lo // size
    t1 = (hi - 1) // size
    # Per run, one range of the global pair index: from the pair holding
    # data byte lo to the last pair starting before hi.
    g_lo = t0 * D + dp.searchsorted(lo - t0 * size, side="right") - 1
    n = t1 * D + dp.searchsorted(hi - t1 * size, side="left") - g_lo
    fs, ln, do = _tiled_pairs(flat, disp, expand_indices(g_lo, n))
    # Only a run's two end pairs can straddle its data window.
    last = np.cumsum(n) - 1
    first = last - (n - 1)
    front = lo - do[first]
    fs[first] += front
    do[first] += front
    ln[first] -= front
    ln[last] -= do[last] + ln[last] - hi
    return fs, ln, do, n


def map_stream(
    flat: FlatType,
    data_offsets: np.ndarray,
    lengths: np.ndarray,
    cut: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Segments of ``flat`` (tiled from address 0) carrying the data
    ranges ``data_offsets``/``lengths`` (ascending, disjoint, non-empty):
    ``(file_offsets, lengths, data_offsets, src)``, where ``src[k]`` is
    the range segment ``k`` starts in.

    A contiguous type maps every range to itself (the very arrays).
    Otherwise ranges that continue each other first merge into one run,
    except where ``cut[i - 1]`` starts a new run at range ``i``, so the
    mapping works per run, not per range."""
    if flat.is_contiguous:
        return data_offsets, lengths, data_offsets, np.arange(data_offsets.size)
    new_run = np.empty(data_offsets.size, dtype=bool)
    new_run[0] = True
    np.not_equal(data_offsets[1:], (data_offsets + lengths)[:-1], out=new_run[1:])
    if cut is not None:
        new_run[1:] |= cut
    heads = np.flatnonzero(new_run)
    run_lo = data_offsets[heads]
    fs, ln, do, n = _map_runs(flat, 0, run_lo, run_lo + np.add.reduceat(lengths, heads))
    return fs, ln, do, np.repeat(heads, n)


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
    lo, hi = np.array([[data_lo], [data_hi]], dtype=np.int64)
    fs, ln, do, _ = _map_runs(flat, disp, lo, hi)
    return SegmentBatch(fs, ln, do)
