"""Derived-datatype constructors (the MPI_Type_* family).

All constructors return immutable :class:`~repro.datatypes.base.Datatype`
objects.  Displacement conventions follow MPI: ``vector``/``indexed``
count displacements in units of the base type's *extent*;
``hvector``/``hindexed``/``struct`` count them in bytes.

Deviation from MPI noted for reviewers: negative displacements (lb < 0)
are rejected, and the extent of indexed/struct types is taken as the
upper bound of the typemap (lb pinned at 0).  File views require
non-negative monotonic typemaps anyway, so nothing in the paper's
experiments is lost.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import DatatypeError
from repro.datatypes.base import Datatype
from repro.datatypes.flatten import FlatType

__all__ = [
    "contiguous",
    "vector",
    "hvector",
    "indexed",
    "hindexed",
    "indexed_block",
    "struct",
    "subarray",
    "resized",
]


def _as_int_array(values: Sequence[int], what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise DatatypeError(f"{what} must be a 1-D sequence")
    return arr


def _place(
    bases: np.ndarray, offsets: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``(offsets, lengths)`` repeated at every byte base of
    ``bases``, base by base."""
    offs = (bases[:, None] + offsets[None, :]).ravel()
    lens = np.broadcast_to(lengths, (bases.size, lengths.size)).ravel()
    return offs, lens


def _place_blocks(
    child: FlatType, displs: np.ndarray, blocklens: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lay out ``blocklens[i]`` consecutive child instances starting at
    byte ``displs[i]``; blocks appear in data order.  Returns raw
    (offsets, lengths) arrays (coalescing happens in FlatType)."""
    if displs.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if (blocklens < 0).any():
        raise DatatypeError("block lengths must be non-negative")
    if child.is_contiguous:
        # A block of back-to-back instances is one pair: work per block,
        # not per instance (FlatType would coalesce them to this anyway).
        return displs, blocklens * child.size
    # Instance j of block i sits at displs[i] + j * extent.
    first = np.cumsum(blocklens) - blocklens
    within = np.arange(int(blocklens.sum()), dtype=np.int64) - np.repeat(first, blocklens)
    inst_base = np.repeat(displs, blocklens) + within * child.extent
    return _place(inst_base, child.offsets, child.lengths)


class _DerivedType(Datatype):
    """A derived type defined by a block placement over a child type."""

    __slots__ = ("_child_flat", "_displs", "_blocklens", "_extent_override")

    def __init__(
        self,
        name: str,
        child: Datatype,
        displs: np.ndarray,
        blocklens: np.ndarray,
        extent_override: int | None = None,
    ) -> None:
        super().__init__(name=name)
        if (displs < 0).any():
            raise DatatypeError(
                f"{name}: negative displacements are not supported (lb must be 0)"
            )
        self._child_flat = child.flatten()
        self._displs = displs
        self._blocklens = blocklens
        self._extent_override = extent_override

    def _build_flat(self) -> FlatType:
        offs, lens = _place_blocks(self._child_flat, self._displs, self._blocklens)
        if self._extent_override is not None:
            extent = self._extent_override
        elif offs.size:
            # ub of the typemap (lb pinned at 0 by the displacement check,
            # but the placement may still start past 0).
            child_span = self._child_flat
            block_ends = (
                self._displs
                + np.maximum(self._blocklens - 1, 0) * child_span.extent
                + child_span.span_hi
            )
            extent = int(block_ends[self._blocklens > 0].max()) if (self._blocklens > 0).any() else 0
        else:
            extent = 0
        return FlatType(offs, lens, extent)


def contiguous(count: int, base: Datatype) -> Datatype:
    """``count`` consecutive instances of ``base``."""
    if count < 0:
        raise DatatypeError(f"contiguous: count must be non-negative, got {count}")
    displs = np.array([0], dtype=np.int64)
    blocklens = np.array([count], dtype=np.int64)
    return _DerivedType(
        "contiguous", base, displs, blocklens, extent_override=count * base.extent
    )


def vector(count: int, blocklength: int, stride: int, base: Datatype) -> Datatype:
    """``count`` blocks of ``blocklength`` instances, block starts
    ``stride`` base-extents apart (MPI_Type_vector)."""
    return hvector(count, blocklength, stride * base.extent, base)


def hvector(count: int, blocklength: int, stride_bytes: int, base: Datatype) -> Datatype:
    """Like :func:`vector` with the stride in bytes (MPI_Type_create_hvector)."""
    if count < 0 or blocklength < 0:
        raise DatatypeError("hvector: count and blocklength must be non-negative")
    if count > 1 and stride_bytes < 0:
        raise DatatypeError("hvector: negative strides are not supported")
    displs = np.arange(count, dtype=np.int64) * stride_bytes
    blocklens = np.full(count, blocklength, dtype=np.int64)
    return _DerivedType("hvector", base, displs, blocklens)


def indexed(blocklengths: Sequence[int], displacements: Sequence[int], base: Datatype) -> Datatype:
    """Blocks of varying length at displacements counted in base extents
    (MPI_Type_indexed)."""
    displs = _as_int_array(displacements, "displacements") * base.extent
    blocklens = _as_int_array(blocklengths, "blocklengths")
    if displs.size != blocklens.size:
        raise DatatypeError("indexed: blocklengths and displacements differ in size")
    return _DerivedType("indexed", base, displs, blocklens)


def hindexed(blocklengths: Sequence[int], displacements_bytes: Sequence[int], base: Datatype) -> Datatype:
    """Like :func:`indexed` with byte displacements (MPI_Type_create_hindexed)."""
    displs = _as_int_array(displacements_bytes, "displacements")
    blocklens = _as_int_array(blocklengths, "blocklengths")
    if displs.size != blocklens.size:
        raise DatatypeError("hindexed: blocklengths and displacements differ in size")
    return _DerivedType("hindexed", base, displs, blocklens)


def indexed_block(blocklength: int, displacements: Sequence[int], base: Datatype) -> Datatype:
    """Constant-length blocks at extent-counted displacements
    (MPI_Type_create_indexed_block)."""
    displs = _as_int_array(displacements, "displacements") * base.extent
    blocklens = np.full(displs.size, blocklength, dtype=np.int64)
    return _DerivedType("indexed_block", base, displs, blocklens)


class _StructType(Datatype):
    __slots__ = ("_parts",)

    def __init__(
        self,
        blocklengths: Sequence[int],
        displacements_bytes: Sequence[int],
        types: Sequence[Datatype],
    ) -> None:
        super().__init__(name="struct")
        if not (len(blocklengths) == len(displacements_bytes) == len(types)):
            raise DatatypeError("struct: argument lists differ in size")
        parts = []
        for b, d, t in zip(blocklengths, displacements_bytes, types):
            if b < 0:
                raise DatatypeError("struct: block lengths must be non-negative")
            if d < 0:
                raise DatatypeError("struct: negative displacements are not supported")
            parts.append((int(b), int(d), t.flatten()))
        self._parts = parts

    def _build_flat(self) -> FlatType:
        parts = []
        extent = 0
        for b, d, child in self._parts:
            if b == 0 or child.num_segments == 0:
                continue
            parts.append(_place_blocks(child, np.array([d]), np.array([b])))
            extent = max(extent, d + (b - 1) * child.extent + child.span_hi)
        if not parts:
            return FlatType([], [], 0)
        offs, lens = zip(*parts)
        return FlatType(np.concatenate(offs), np.concatenate(lens), extent)


def struct(
    blocklengths: Sequence[int],
    displacements_bytes: Sequence[int],
    types: Sequence[Datatype],
) -> Datatype:
    """Heterogeneous blocks at byte displacements (MPI_Type_create_struct)."""
    return _StructType(blocklengths, displacements_bytes, types)


class _SubarrayType(Datatype):
    __slots__ = ("_sizes", "_subsizes", "_starts", "_base_flat")

    def __init__(
        self,
        sizes: Sequence[int],
        subsizes: Sequence[int],
        starts: Sequence[int],
        base: Datatype,
    ) -> None:
        super().__init__(name="subarray")
        if not (len(sizes) == len(subsizes) == len(starts)) or not sizes:
            raise DatatypeError("subarray: sizes/subsizes/starts must match and be non-empty")
        for n, s, o in zip(sizes, subsizes, starts):
            if n <= 0 or s < 0 or o < 0 or o + s > n:
                raise DatatypeError(
                    f"subarray: invalid dimension (size={n}, subsize={s}, start={o})"
                )
        self._sizes = [int(v) for v in sizes]
        self._subsizes = [int(v) for v in subsizes]
        self._starts = [int(v) for v in starts]
        self._base_flat = base.flatten()

    def _build_flat(self) -> FlatType:
        # C (row-major) order: the last dimension is contiguous in base
        # extents.  Build from the innermost dimension outward.
        base = self._base_flat
        ext = base.extent
        # Innermost: a run of subsizes[-1] base instances at starts[-1].
        offs, lens = _place_blocks(
            base, np.array([self._starts[-1] * ext]), np.array([self._subsizes[-1]])
        )
        row_extent = self._sizes[-1] * ext
        for dim in range(len(self._sizes) - 2, -1, -1):
            row_base = (self._starts[dim] + np.arange(self._subsizes[dim], dtype=np.int64)) * row_extent
            offs, lens = _place(row_base, offs, lens)
            row_extent *= self._sizes[dim]
        return FlatType(offs, lens, row_extent)


def subarray(
    sizes: Sequence[int],
    subsizes: Sequence[int],
    starts: Sequence[int],
    base: Datatype,
) -> Datatype:
    """An n-dimensional C-order subarray (MPI_Type_create_subarray).

    The extent is the full array's span, so tiling a file view with this
    type walks successive full arrays — the standard idiom for writing a
    distributed block of a global array per time step."""
    return _SubarrayType(sizes, subsizes, starts, base)


class _ResizedType(Datatype):
    __slots__ = ("_inner", "_new_extent")

    def __init__(self, base: Datatype, lb: int, extent: int) -> None:
        super().__init__(name="resized")
        if lb != 0:
            raise DatatypeError("resized: only lb == 0 is supported")
        if extent < 0:
            raise DatatypeError(f"resized: extent must be non-negative, got {extent}")
        self._inner = base.flatten()
        self._new_extent = int(extent)

    def _build_flat(self) -> FlatType:
        return FlatType(self._inner.offsets, self._inner.lengths, self._new_extent)


def resized(base: Datatype, lb: int, extent: int) -> Datatype:
    """Override a type's extent (MPI_Type_create_resized with lb == 0).

    This is how the paper's "succinct struct" HPIO filetype is built:
    ``resized(contiguous(region, BYTE), 0, region + spacing)`` describes
    the whole strided pattern with a single offset/length pair per tile.
    """
    return _ResizedType(base, lb, extent)
