"""Sorted disjoint integer-interval sets.

A :class:`ByteRuns` holds [start, end) intervals, merged on insert.
The client cache keeps one per file for its valid bytes (safe to serve
to reads) and one for its dirty bytes (owed to the server) — byte
accurate without boolean masks — and page-index sets for in-flight
fetches; the replicated store keeps one per OST for stale bytes, the
journal one for the bytes it owns.  Runs
live in two parallel sorted lists so every query is a ``bisect`` plus
the runs it actually touches.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.errors import FileSystemError

__all__ = ["ByteRuns"]


class ByteRuns:
    """A set of disjoint, sorted, non-touching [start, end) intervals."""

    __slots__ = ("_starts", "_ends")

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []

    @classmethod
    def of_blocks(cls, runs: Iterable[Tuple[int, int]], size: int) -> "ByteRuns":
        """The ``size``-aligned blocks (pages) that ``runs`` touch, as
        runs of block indices."""
        blocks = cls()
        for lo, hi in runs:
            blocks.add(lo // size, -(-hi // size))
        return blocks

    def _span(self, lo: int, hi: int) -> Tuple[int, int]:
        """Index range [i, j) of the runs that intersect [lo, hi)."""
        if hi <= lo:
            return 0, 0
        return bisect_right(self._ends, lo), bisect_left(self._starts, hi)

    def add(self, lo: int, hi: int) -> None:
        """Insert [lo, hi), merging with touching/overlapping runs."""
        if hi < lo or lo < 0:
            raise FileSystemError(f"invalid run [{lo}, {hi})")
        if hi == lo:
            return
        starts, ends = self._starts, self._ends
        i, j = bisect_left(ends, lo), bisect_right(starts, hi)
        if i < j:  # absorb every run that overlaps or touches
            lo = min(lo, starts[i])
            hi = max(hi, ends[j - 1])
        starts[i:j] = (lo,)
        ends[i:j] = (hi,)

    def remove(self, lo: int, hi: int) -> None:
        """Delete [lo, hi) from the set, splitting runs that straddle it.

        The inverse of :meth:`add`: a flush takes its bytes out of the
        dirty set, the replication layer marks stale bytes fresh again
        once they are rewritten or re-replicated."""
        if hi < lo or lo < 0:
            raise FileSystemError(f"invalid run [{lo}, {hi})")
        i, j = self._span(lo, hi)
        if i >= j:
            return
        starts, ends = self._starts, self._ends
        keep_s: List[int] = []
        keep_e: List[int] = []
        if starts[i] < lo:
            keep_s.append(starts[i])
            keep_e.append(lo)
        if ends[j - 1] > hi:
            keep_s.append(hi)
            keep_e.append(ends[j - 1])
        starts[i:j] = keep_s
        ends[i:j] = keep_e

    def overlaps(self, lo: int, hi: int) -> bool:
        """True when any run intersects [lo, hi)."""
        i, j = self._span(lo, hi)
        return i < j

    def overlaps_each(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """:meth:`overlaps` for many non-empty ranges at once (boolean
        array)."""
        return np.searchsorted(self._ends, lo, side="right") < np.searchsorted(
            self._starts, hi, side="left"
        )

    def intersect(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """The runs clipped to [lo, hi), in order."""
        i, j = self._span(lo, hi)
        if i >= j:
            return []
        out = list(zip(self._starts[i:j], self._ends[i:j]))
        out[0] = (max(out[0][0], lo), out[0][1])
        out[-1] = (out[-1][0], min(out[-1][1], hi))
        return out

    def gaps(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """The parts of [lo, hi) that no run holds, in order."""
        out: List[Tuple[int, int]] = []
        for s, e in self.intersect(lo, hi):
            if s > lo:
                out.append((lo, s))
            lo = e
        if lo < hi:
            out.append((lo, hi))
        return out

    def mask(self, points: np.ndarray) -> np.ndarray:
        """Which of ``points`` lie inside a run (boolean array)."""
        if not self._starts:
            return np.zeros(points.shape, dtype=bool)
        i = np.searchsorted(self._starts, points, side="right") - 1
        return (i >= 0) & (points < np.asarray(self._ends)[i])

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(starts, ends) as int64 arrays."""
        return np.array(self._starts, dtype=np.int64), np.array(self._ends, dtype=np.int64)

    def clear(self) -> None:
        self._starts.clear()
        self._ends.clear()

    @property
    def empty(self) -> bool:
        return not self._starts

    @property
    def total(self) -> int:
        return sum(self._ends) - sum(self._starts)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(list(zip(self._starts, self._ends)))

    def __len__(self) -> int:
        return len(self._starts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ByteRuns({list(self)!r})"
