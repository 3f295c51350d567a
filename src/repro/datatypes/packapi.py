"""MPI_Pack / MPI_Unpack analogues.

A thin public wrapper over the packing machinery: serialize ``count``
instances of a datatype laid out in a buffer into a contiguous byte
stream, and back.  Useful to applications (and to tests) independent of
file I/O — and it documents the data-order semantics every other layer
assumes.
"""

from __future__ import annotations

import numpy as np

from repro.datatypes.base import Datatype
from repro.datatypes.packing import gather_bytes, scatter_bytes
from repro.errors import DatatypeError

__all__ = ["pack", "unpack", "pack_size"]


def pack_size(datatype: Datatype, count: int = 1) -> int:
    """Bytes needed to pack ``count`` instances (MPI_Pack_size)."""
    if count < 0:
        raise DatatypeError(f"count must be non-negative, got {count}")
    return datatype.size * count


def pack(buf: np.ndarray, datatype: Datatype, count: int = 1) -> np.ndarray:
    """Gather ``count`` instances from ``buf`` into contiguous bytes.

    A buffer of the wrong kind, or too small for the instances, is the
    copy kernel's :class:`DatatypeError`."""
    if count < 0:
        raise DatatypeError(f"count must be non-negative, got {count}")
    flat = datatype.flatten()
    # gather_bytes tiles the flattened type as far as the data range
    # requires, so `count` instances are simply count * size bytes.
    return gather_bytes(buf, flat, 0, flat.size * count)


def unpack(data: np.ndarray, buf: np.ndarray, datatype: Datatype, count: int = 1) -> None:
    """Scatter contiguous ``data`` into ``buf`` as ``count`` instances."""
    expected = pack_size(datatype, count)
    if np.size(data) != expected:
        raise DatatypeError(
            f"packed data has {np.size(data)} bytes; {count} x {datatype.name} "
            f"needs {expected}"
        )
    flat = datatype.flatten()
    scatter_bytes(buf, flat, 0, flat.size * count, data)
