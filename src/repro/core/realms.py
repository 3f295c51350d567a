"""Datatype-described file realms and assignment strategies (§5.2).

A :class:`FileRealm` is (flattened datatype, displacement), optionally
tiling forever — exactly the generalization the paper builds: realms
are no longer assumed identical or even contiguous, and deciding which
realm owns a byte is a search, not an O(1) division.

Strategies:

* :class:`EvenPartition` — ROMIO's default: the aggregate access region
  divided evenly among aggregators (contiguous realms);
* :class:`AlignedPartition` — interior boundaries snapped down to an
  alignment grid (file-system stripe or page), the §6.4 "file realm
  alignment" hint.  Snapping makes realms unequal — the imbalance the
  paper observed at small aggregator counts;
* :class:`BalancedPartition` — boundaries chosen from an access
  histogram so each aggregator handles roughly equal *data* rather than
  equal file span (the load-balancing opportunity §5.2 and §7 call
  out);
* cyclic persistent realms for PFR are built by
  :func:`make_cyclic_realms` and managed by :mod:`repro.core.pfr`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.datatypes.flatten import FlatType
from repro.datatypes.segments import FlatCursor
from repro.errors import CollectiveIOError
from repro.mpi.hints import Hints

__all__ = [
    "FileRealm",
    "RealmDomain",
    "Window",
    "RealmStrategy",
    "EvenPartition",
    "AlignedPartition",
    "BalancedPartition",
    "make_contiguous_realms",
    "make_cyclic_realms",
    "resolve_strategy",
]

_EMPTY = np.empty(0, dtype=np.int64)


class Window:
    """One round's slice of an aggregator's domain, linearized.

    The collective buffer for the round is the concatenation of the
    window's intervals; :meth:`to_buffer` maps absolute file offsets to
    buffer positions."""

    __slots__ = ("starts", "ends", "prefix")

    def __init__(self, starts: np.ndarray, ends: np.ndarray) -> None:
        self.starts = starts
        self.ends = ends
        sizes = ends - starts
        prefix = np.zeros(starts.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=prefix[1:])
        self.prefix = prefix

    @property
    def total_bytes(self) -> int:
        return int(self.prefix[-1])

    @property
    def empty(self) -> bool:
        return self.total_bytes == 0

    @property
    def intervals(self) -> list[tuple[int, int]]:
        return list(zip(self.starts.tolist(), self.ends.tolist()))

    def to_buffer(self, file_offsets: np.ndarray) -> np.ndarray:
        """Buffer position of each (window-contained) file offset."""
        if file_offsets.size == 0:
            return _EMPTY
        idx = np.searchsorted(self.starts, file_offsets, side="right") - 1
        if (idx < 0).any():
            raise CollectiveIOError("file offset below the window")
        pos = self.prefix[idx] + (file_offsets - self.starts[idx])
        if (file_offsets >= self.ends[idx]).any():
            raise CollectiveIOError("file offset outside the window intervals")
        return pos


class RealmDomain:
    """An aggregator's assigned intervals within the aggregate access
    region, with a linear (concatenated-bytes) coordinate for round
    slicing."""

    __slots__ = ("starts", "ends", "prefix")

    def __init__(self, starts: np.ndarray, ends: np.ndarray) -> None:
        keep = ends > starts
        self.starts = starts[keep]
        self.ends = ends[keep]
        prefix = np.zeros(self.starts.size + 1, dtype=np.int64)
        np.cumsum(self.ends - self.starts, out=prefix[1:])
        self.prefix = prefix

    @property
    def total_bytes(self) -> int:
        return int(self.prefix[-1])

    def nrounds(self, cb: int) -> int:
        if cb <= 0:
            raise CollectiveIOError(f"collective buffer size must be positive, got {cb}")
        return -(-self.total_bytes // cb)

    def clip(self, lo: int, hi: int) -> "RealmDomain":
        """Intersect the domain with file range [lo, hi).

        Used to shrink an aggregator's iteration space to the bounds of
        the requests it actually received (ROMIO's st_loc/end_loc): a
        sparse access far away must not inflate the round count with
        empty windows."""
        if hi <= lo or self.starts.size == 0:
            return RealmDomain(_EMPTY, _EMPTY)
        starts = np.maximum(self.starts, lo)
        ends = np.minimum(self.ends, hi)
        return RealmDomain(starts, ends)

    def window(self, r: int, cb: int) -> Window:
        """Intervals covering linear bytes [r*cb, (r+1)*cb)."""
        lo = r * cb
        hi = min((r + 1) * cb, self.total_bytes)
        if hi <= lo:
            return Window(_EMPTY, _EMPTY)
        starts, ends = self._linear_slice(lo, hi)
        return Window(starts, ends)

    def slice_linear(self, lo: int, hi: int) -> "RealmDomain":
        """Sub-domain covering linear bytes [lo, hi).

        The failover path uses this to carve a dead aggregator's
        *remaining* work (its linear tail) into per-survivor shares."""
        lo = max(lo, 0)
        hi = min(hi, self.total_bytes)
        if hi <= lo:
            return RealmDomain(_EMPTY, _EMPTY)
        starts, ends = self._linear_slice(lo, hi)
        return RealmDomain(starts, ends)

    def _linear_slice(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Interval arrays for linear bytes [lo, hi); caller guarantees
        0 <= lo < hi <= total_bytes."""
        i0 = int(np.searchsorted(self.prefix, lo, side="right")) - 1
        i1 = int(np.searchsorted(self.prefix, hi, side="left"))
        starts = self.starts[i0:i1].copy()
        ends = self.ends[i0:i1].copy()
        starts[0] += lo - int(self.prefix[i0])
        ends[-1] -= int(self.prefix[i1]) - hi
        return starts, ends

    @staticmethod
    def merge(domains: Sequence["RealmDomain"]) -> "RealmDomain":
        """Union of pairwise-disjoint domains, ordered by file offset."""
        parts = [d for d in domains if d.starts.size]
        if not parts:
            return RealmDomain(_EMPTY, _EMPTY)
        starts = np.concatenate([d.starts for d in parts])
        ends = np.concatenate([d.ends for d in parts])
        order = np.argsort(starts, kind="stable")
        return RealmDomain(starts[order], ends[order])


class FileRealm:
    """A realm: flattened datatype tiled from ``disp``.

    ``tiles=None`` means the realm pattern repeats forever (persistent
    cyclic realms); a bounded realm covers exactly ``tiles`` instances.
    """

    __slots__ = ("flat", "disp", "tiles")

    def __init__(self, flat: FlatType, disp: int, tiles: Optional[int] = None) -> None:
        if disp < 0:
            raise CollectiveIOError(f"realm displacement must be non-negative, got {disp}")
        if not flat.is_monotonic:
            raise CollectiveIOError("realm datatypes must be monotonic")
        if tiles is not None and tiles < 0:
            raise CollectiveIOError(f"realm tile count must be non-negative, got {tiles}")
        self.flat = flat
        self.disp = int(disp)
        self.tiles = tiles

    @classmethod
    def interval(cls, lo: int, hi: int) -> "FileRealm":
        """A contiguous realm covering [lo, hi) (possibly empty)."""
        if hi < lo:
            raise CollectiveIOError(f"invalid realm interval [{lo}, {hi})")
        size = hi - lo
        if size == 0:
            return cls(FlatType([], [], 0), max(lo, 0), tiles=0)
        return cls(FlatType([0], [size], size), lo, tiles=1)

    def domain(self, lo: int, hi: int) -> RealmDomain:
        """This realm's intervals clipped to [lo, hi)."""
        if hi <= lo or self.flat.size == 0 or self.tiles == 0:
            return RealmDomain(_EMPTY, _EMPTY)
        if self.tiles is not None:
            total = self.tiles * self.flat.size
        else:
            # Unbounded tiling: enough tiles to pass hi.
            if self.flat.extent <= 0:
                raise CollectiveIOError("unbounded realms need a positive extent")
            span = max(hi - self.disp, 0)
            total = (span // self.flat.extent + 2) * self.flat.size
        if total == 0:
            return RealmDomain(_EMPTY, _EMPTY)
        batch = FlatCursor(self.flat, self.disp, total).intersect(lo, hi)
        return RealmDomain(batch.file_offsets, batch.file_offsets + batch.lengths)

    def describe(self) -> tuple:
        """Hashable identity used to detect realm changes across calls."""
        key = self.flat
        return (key.offsets.tobytes(), key.lengths.tobytes(), key.extent, self.disp, self.tiles)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FileRealm) and self.describe() == other.describe()

    def __hash__(self) -> int:
        return hash(self.describe())


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

def make_contiguous_realms(boundaries: Sequence[int]) -> List[FileRealm]:
    """Realms from a non-decreasing boundary list b0..bA."""
    bounds = list(boundaries)
    if any(b1 < b0 for b0, b1 in zip(bounds, bounds[1:])):
        raise CollectiveIOError(f"realm boundaries must be non-decreasing: {bounds}")
    return [FileRealm.interval(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def make_cyclic_realms(naggs: int, block: int, anchor: int = 0) -> List[FileRealm]:
    """Block-cyclic realms: aggregator i owns blocks of ``block`` bytes
    at ``anchor + i*block`` with period ``naggs*block``, forever.

    These are genuinely datatype-described, non-contiguous realms — the
    construction PFRs use to cover the whole file from byte 0."""
    if naggs <= 0 or block <= 0:
        raise CollectiveIOError("cyclic realms need positive naggs and block")
    period = naggs * block
    flat = FlatType(np.array([0], dtype=np.int64), np.array([block], dtype=np.int64), period)
    return [FileRealm(flat, anchor + i * block, tiles=None) for i in range(naggs)]


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

class RealmStrategy:
    """Maps an aggregate access region to one realm per aggregator."""

    name = "abstract"
    #: True when :meth:`assign` wants an access histogram.
    needs_histogram = False

    def assign(
        self,
        aar_lo: int,
        aar_hi: int,
        naggs: int,
        histogram: Optional[np.ndarray] = None,
        weights: Optional[Sequence[float]] = None,
    ) -> List[FileRealm]:
        """One realm per aggregator covering [aar_lo, aar_hi).

        ``weights`` (one non-negative value per aggregator) scales each
        aggregator's *share* of the data — the straggler-aware
        rebalancing feed: a slow aggregator gets a small weight and
        therefore a small realm.  Strategies that ignore load simply
        ignore it."""
        raise NotImplementedError


class EvenPartition(RealmStrategy):
    """ROMIO's default: equal spans of the aggregate access region."""

    name = "even"

    def assign(self, aar_lo, aar_hi, naggs, histogram=None, weights=None):
        span = max(aar_hi - aar_lo, 0)
        chunk = -(-span // naggs) if span else 0
        bounds = [min(aar_lo + i * chunk, aar_hi) for i in range(naggs)] + [aar_hi]
        return make_contiguous_realms(bounds)


class AlignedPartition(RealmStrategy):
    """Even partition with interior boundaries snapped down to a grid.

    Snapping to the file-system stripe (or page) keeps every realm's
    server traffic inside exclusive lock granules; the cost is realm
    imbalance of up to one alignment unit per boundary."""

    name = "aligned"

    def __init__(self, alignment: int) -> None:
        if alignment <= 0:
            raise CollectiveIOError(f"alignment must be positive, got {alignment}")
        self.alignment = alignment

    def assign(self, aar_lo, aar_hi, naggs, histogram=None, weights=None):
        span = max(aar_hi - aar_lo, 0)
        chunk = -(-span // naggs) if span else 0
        a = self.alignment
        bounds = [aar_lo]
        for i in range(1, naggs):
            raw = aar_lo + i * chunk
            snapped = (raw // a) * a
            bounds.append(min(max(snapped, bounds[-1]), aar_hi))
        bounds.append(aar_hi)
        return make_contiguous_realms(bounds)


class BalancedPartition(RealmStrategy):
    """Boundaries at equal cumulative *data* from an access histogram.

    The histogram is bytes-accessed per equal-width bin across the
    aggregate access region (the driver computes and allreduces it).
    This is the aggregator load balancing the paper names as the
    obvious datatype-realm payoff.  ``weights`` tilts the shares: with
    per-aggregator service-time feedback (straggler-aware rebalancing)
    a slow aggregator's weight shrinks and its boundary moves in."""

    name = "balanced"
    needs_histogram = True

    def __init__(self, alignment: int = 0) -> None:
        if alignment < 0:
            raise CollectiveIOError("alignment must be non-negative")
        self.alignment = alignment

    @staticmethod
    def _shares(naggs: int, weights: Optional[Sequence[float]]) -> List[float]:
        """Per-aggregator fraction of the data, normalized to sum 1."""
        if weights is None:
            return [1.0 / naggs] * naggs
        w = [max(float(x), 0.0) for x in weights]
        if len(w) != naggs:
            raise CollectiveIOError(
                f"balanced weights need {naggs} entries, got {len(w)}"
            )
        total = sum(w)
        if total <= 0:
            return [1.0 / naggs] * naggs
        return [x / total for x in w]

    def assign(self, aar_lo, aar_hi, naggs, histogram=None, weights=None):
        shares = self._shares(naggs, weights)
        span = aar_hi - aar_lo
        if histogram is None or histogram.sum() == 0:
            if weights is None:
                return EvenPartition().assign(aar_lo, aar_hi, naggs)
            # No histogram yet: split the file span itself by weight.
            bounds = [aar_lo]
            acc = 0.0
            for i in range(1, naggs):
                acc += shares[i - 1]
                raw = aar_lo + int(round(span * acc))
                if self.alignment:
                    raw = (raw // self.alignment) * self.alignment
                bounds.append(min(max(raw, bounds[-1]), aar_hi))
            bounds.append(aar_hi)
            return make_contiguous_realms(bounds)
        nbins = histogram.size
        cum = np.concatenate([[0], np.cumsum(histogram)])
        total = cum[-1]
        bounds = [aar_lo]
        acc = 0.0
        for i in range(1, naggs):
            acc += shares[i - 1]
            target = total * acc
            b = int(np.searchsorted(cum, target, side="left"))
            raw = aar_lo + min(b, nbins) * span // nbins
            if self.alignment:
                raw = (raw // self.alignment) * self.alignment
            bounds.append(min(max(int(raw), bounds[-1]), aar_hi))
        bounds.append(aar_hi)
        return make_contiguous_realms(bounds)


def resolve_strategy(hints: Hints) -> RealmStrategy:
    """Build the realm strategy named by the hints (PFR wrapping is the
    file handle's job — it owns the cross-call state)."""
    name = hints["realm_strategy"]
    align = hints["realm_alignment"]
    if name == "even":
        return AlignedPartition(align) if align else EvenPartition()
    if name == "aligned":
        # A zero alignment never gets here through a file handle (rule
        # aligned.needs_alignment rejects it at open).
        return AlignedPartition(align)
    if name == "balanced":
        return BalancedPartition(align)
    raise CollectiveIOError(f"unknown realm strategy {name!r}")  # pragma: no cover
