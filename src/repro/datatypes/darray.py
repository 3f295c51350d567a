"""Distributed-array datatypes (MPI_Type_create_darray).

Builds the filetype describing one process's share of an n-dimensional
C-order global array distributed block / cyclic(k) / none per
dimension over a process grid — the datatype HPF-style scientific
applications hand to ``set_view`` so every rank addresses exactly its
elements of a shared checkpoint.

Supported distributions per dimension:

* ``DISTRIBUTE_NONE``      — dimension not distributed;
* ``DISTRIBUTE_BLOCK``     — contiguous blocks of ``ceil(n/p)``;
* ``DISTRIBUTE_CYCLIC``    — round-robin with a block size (darg).

The result is an ordinary :class:`~repro.datatypes.base.Datatype`
(flattened eagerly), so all cursor/packing machinery applies.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.datatypes.base import Datatype
from repro.datatypes.constructors import _place_blocks
from repro.datatypes.flatten import FlatType
from repro.errors import DatatypeError

__all__ = [
    "DISTRIBUTE_NONE",
    "DISTRIBUTE_BLOCK",
    "DISTRIBUTE_CYCLIC",
    "darray",
]

DISTRIBUTE_NONE = "none"
DISTRIBUTE_BLOCK = "block"
DISTRIBUTE_CYCLIC = "cyclic"

_DISTS = (DISTRIBUTE_NONE, DISTRIBUTE_BLOCK, DISTRIBUTE_CYCLIC)


def _dim_indices(n: int, dist: str, darg: int, p: int, coord: int) -> np.ndarray:
    """Global indices along one dimension owned by process ``coord``."""
    if dist == DISTRIBUTE_NONE:
        if p != 1:
            raise DatatypeError("DISTRIBUTE_NONE requires grid size 1 in that dimension")
        return np.arange(n, dtype=np.int64)
    if dist == DISTRIBUTE_BLOCK:
        block = darg if darg > 0 else -(-n // p)
        if block * p < n:
            raise DatatypeError(
                f"block size {block} too small for extent {n} over {p} processes"
            )
        lo = coord * block
        hi = min(lo + block, n)
        return np.arange(lo, max(hi, lo), dtype=np.int64)
    if dist == DISTRIBUTE_CYCLIC:
        block = darg if darg > 0 else 1
        idx = []
        start = coord * block
        stride = p * block
        for base in range(start, n, stride):
            idx.append(np.arange(base, min(base + block, n), dtype=np.int64))
        if not idx:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(idx)
    raise DatatypeError(f"unknown distribution {dist!r}; options {_DISTS}")


class _DarrayType(Datatype):
    __slots__ = ("_gsizes", "_indices", "_elem")

    def __init__(
        self,
        gsizes: Sequence[int],
        indices: List[np.ndarray],
        elem: FlatType,
    ) -> None:
        super().__init__(name="darray")
        self._gsizes = [int(g) for g in gsizes]
        self._indices = indices
        self._elem = elem

    def _build_flat(self) -> FlatType:
        # Element offsets = sum over dims of idx_d * stride_d (C order).
        strides = [1] * len(self._gsizes)
        for d in range(len(self._gsizes) - 2, -1, -1):
            strides[d] = strides[d + 1] * self._gsizes[d + 1]
        offsets = np.zeros(1, dtype=np.int64)
        for idx, stride in zip(self._indices, strides):
            offsets = (offsets[:, None] + (idx * stride)[None, :]).ravel()
        ext = self._elem.extent
        offs, lens = _place_blocks(self._elem, offsets * ext, np.ones_like(offsets))
        total = int(np.prod(self._gsizes)) * ext
        return FlatType(offs, lens, total)


def darray(
    gsizes: Sequence[int],
    distribs: Sequence[str],
    dargs: Sequence[int],
    psizes: Sequence[int],
    rank: int,
    base: Datatype,
) -> Datatype:
    """One process's filetype for a distributed global array.

    Parameters mirror MPI_Type_create_darray (C order): global extents,
    per-dimension distribution kind, distribution argument (block size;
    0 means the default), process-grid extents, and this process's rank
    in C-order grid numbering.  The type's extent is the whole global
    array, so tiling the view walks successive array snapshots.
    """
    nd = len(gsizes)
    if not (len(distribs) == len(dargs) == len(psizes) == nd) or nd == 0:
        raise DatatypeError("darray: argument lists must be non-empty and equal length")
    for g in gsizes:
        if g <= 0:
            raise DatatypeError("darray: global sizes must be positive")
    grid = [int(p) for p in psizes]
    for p in grid:
        if p <= 0:
            raise DatatypeError("darray: process grid sizes must be positive")
    size = int(np.prod(grid))
    if not 0 <= rank < size:
        raise DatatypeError(f"darray: rank {rank} outside grid of {size}")
    # C-order rank -> grid coordinates.
    coords = []
    rem = rank
    for p in reversed(grid):
        coords.append(rem % p)
        rem //= p
    coords.reverse()
    indices = [
        _dim_indices(int(n), dist, int(darg), p, c)
        for n, dist, darg, p, c in zip(gsizes, distribs, dargs, grid, coords)
    ]
    return _DarrayType(gsizes, indices, base.flatten())
