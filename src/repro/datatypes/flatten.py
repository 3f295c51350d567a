"""Canonical flattened datatype representation.

A :class:`FlatType` is the "flattened datatype" of the paper's Section
5.3: the offset/length pairs of *one instance* of the type, kept in
**data order** (the order in which the type's bytes are produced or
consumed), with adjacent-in-data-order segments that are also adjacent
in offset coalesced into one pair.  Data order matters because the
file view maps the k-th byte of the access to the k-th data byte of the
tiled filetype; offset order alone would lose that correspondence for
types whose typemap is not monotonic.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.errors import DatatypeError

__all__ = ["FlatType", "coalesce"]


def coalesce(
    offsets: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge data-order-adjacent segments that are contiguous in offset.

    Zero-length segments are dropped.  Inputs are 1-D integer arrays in
    data order; outputs preserve data order.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if offsets.shape != lengths.shape or offsets.ndim != 1:
        raise DatatypeError("offsets and lengths must be 1-D arrays of equal size")
    keep = lengths > 0
    if not keep.all():
        offsets, lengths = offsets[keep], lengths[keep]
    if offsets.size <= 1:
        return offsets.copy(), lengths.copy()
    # Segment i starts a new run unless it begins exactly where i-1 ends.
    new_run = np.ones(offsets.size, dtype=bool)
    np.not_equal(offsets[1:], offsets[:-1] + lengths[:-1], out=new_run[1:])
    heads = np.flatnonzero(new_run)
    return offsets[heads], np.add.reduceat(lengths, heads)


class FlatType:
    """Flattened representation of one datatype instance.

    Attributes
    ----------
    offsets, lengths, ends:
        int64 arrays, one entry per contiguous segment, in data order.
        Offsets are byte displacements from the type's origin; ``ends``
        is ``offsets + lengths``.
    extent:
        Tiling stride in bytes: instance ``t`` of the type is placed at
        ``origin + t * extent``.
    size:
        Total data bytes per instance (``lengths.sum()``).
    data_prefix:
        Exclusive prefix sum of ``lengths`` with a trailing total, so
        segment ``k`` covers data bytes ``[data_prefix[k],
        data_prefix[k+1])`` of the instance.
    """

    __slots__ = (
        "offsets", "lengths", "ends", "extent", "size", "data_prefix", "span_lo", "span_hi", "_monotonic",
    )

    def __init__(
        self,
        offsets: Iterable[int] | np.ndarray,
        lengths: Iterable[int] | np.ndarray,
        extent: int,
    ) -> None:
        offs = np.ascontiguousarray(offsets, dtype=np.int64)
        lens = np.ascontiguousarray(lengths, dtype=np.int64)
        if offs.shape != lens.shape or offs.ndim != 1:
            raise DatatypeError("offsets/lengths must be 1-D and the same size")
        if (lens < 0).any():
            raise DatatypeError("segment lengths must be non-negative")
        if extent < 0:
            raise DatatypeError(f"extent must be non-negative, got {extent}")
        offs, lens = coalesce(offs, lens)
        self.offsets = offs
        self.lengths = lens
        self.extent = int(extent)
        prefix = np.zeros(offs.size + 1, dtype=np.int64)
        np.cumsum(lens, out=prefix[1:])
        self.data_prefix = prefix
        self.size = int(prefix[-1])
        self.ends = offs + lens
        if offs.size:
            self.span_lo = int(offs.min())
            self.span_hi = int(self.ends.max())
        else:
            self.span_lo = 0
            self.span_hi = 0
        self._monotonic: bool | None = None

    # -- properties ------------------------------------------------------
    @property
    def num_segments(self) -> int:
        """Number of offset/length pairs ("D" in the paper's notation)."""
        return int(self.offsets.size)

    @property
    def is_contiguous(self) -> bool:
        """True when one instance is a single segment starting at 0 that
        exactly fills the extent — the fast-path test."""
        return (
            self.num_segments == 1
            and int(self.offsets[0]) == 0
            and int(self.lengths[0]) == self.size
            and self.extent == self.size
        )

    @property
    def is_monotonic(self) -> bool:
        """True when offsets never decrease in data order and the tiled
        pattern never overlaps — required of file views.  Evaluated once
        per instance: every cursor and realm built over the type asks."""
        if self._monotonic is None:
            self._monotonic = bool(
                (self.offsets[1:] >= self.ends[:-1]).all()
                # Tiling must not fold segments of consecutive instances together.
                and (self.span_hi - self.span_lo <= self.extent or self.num_segments == 0)
            )
        return self._monotonic

    # -- tiled geometry ----------------------------------------------------
    def tile_count(self, total_bytes: int) -> int:
        """Number of instances (last possibly partial) needed to carry
        ``total_bytes`` of data."""
        if total_bytes < 0:
            raise DatatypeError("total_bytes must be non-negative")
        if total_bytes == 0:
            return 0
        if self.size == 0:
            raise DatatypeError("zero-size datatype cannot carry data")
        return -(-total_bytes // self.size)

    def replicate(self, count: int) -> "FlatType":
        """Expand ``count`` tiles into one explicit instance.

        This produces the "explicitly enumerated" representation used by
        Figure 4's ``new+vect`` runs: the same access pattern, but with
        ``count * D`` pairs in a single tile so the whole-tile skipping
        optimization has nothing to skip.
        """
        if count < 0:
            raise DatatypeError("count must be non-negative")
        if count == 0:
            return FlatType([], [], 0)
        shifts = (np.arange(count, dtype=np.int64) * self.extent)[:, None]
        offs = (self.offsets[None, :] + shifts).ravel()
        lens = np.broadcast_to(self.lengths, (count, self.lengths.size)).ravel()
        return FlatType(offs, lens, self.extent * count)

    # -- comparisons / debugging -------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FlatType)
            and self.extent == other.extent
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.lengths, other.lengths)
        )

    def __hash__(self) -> int:
        return hash((self.extent, self.offsets.tobytes(), self.lengths.tobytes()))

    def __repr__(self) -> str:
        head = ", ".join(
            f"({int(o)},{int(l)})"
            for o, l in zip(self.offsets[:4], self.lengths[:4])
        )
        more = "..." if self.num_segments > 4 else ""
        return (
            f"FlatType(D={self.num_segments}, size={self.size}, "
            f"extent={self.extent}, segs=[{head}{more}])"
        )


def flat_from_pairs(pairs: Sequence[Tuple[int, int]], extent: int) -> FlatType:
    """Build a FlatType from (offset, length) tuples (test convenience)."""
    if pairs:
        offs, lens = zip(*pairs)
    else:
        offs, lens = (), ()
    return FlatType(np.array(offs, dtype=np.int64), np.array(lens, dtype=np.int64), extent)
