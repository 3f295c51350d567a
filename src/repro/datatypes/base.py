"""Datatype class hierarchy and primitive types.

A :class:`Datatype` is an immutable description of a byte layout.  Its
canonical form is the :class:`~repro.datatypes.flatten.FlatType`
returned by :meth:`Datatype.flatten`, computed once and cached.  The
constructor functions in :mod:`repro.datatypes.constructors` build the
derived types; this module holds the base class and the primitives.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import DatatypeError
from repro.datatypes.flatten import FlatType

__all__ = [
    "Datatype",
    "PrimitiveType",
    "BYTE",
    "CHAR",
    "SHORT",
    "INT",
    "INT64",
    "FLOAT",
    "DOUBLE",
]


class Datatype:
    """Immutable MPI-style datatype.

    Subclasses implement :meth:`_build_flat` once; ``size``, ``extent``
    and the flattened representation are derived from it.  Equality is
    structural (same flattened layout and extent).
    """

    __slots__ = ("_flat", "_committed", "_name")

    def __init__(self, name: str = "derived") -> None:
        self._flat: Optional[FlatType] = None
        self._committed = False
        self._name = name

    # -- to be provided by subclasses --------------------------------------
    def _build_flat(self) -> FlatType:
        raise NotImplementedError

    # -- canonical form ------------------------------------------------------
    def flatten(self) -> FlatType:
        """Return (and cache) the canonical flattened representation."""
        if self._flat is None:
            self._flat = self._build_flat()
        return self._flat

    # -- MPI-like surface ------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of data bytes in one instance."""
        return self.flatten().size

    @property
    def extent(self) -> int:
        """Tiling stride in bytes."""
        return self.flatten().extent

    @property
    def num_segments(self) -> int:
        """Flattened offset/length pair count (the paper's ``D``)."""
        return self.flatten().num_segments

    @property
    def name(self) -> str:
        return self._name

    def commit(self) -> "Datatype":
        """MPI_Type_commit analogue: precompute the flattened form."""
        self.flatten()
        self._committed = True
        return self

    @property
    def committed(self) -> bool:
        return self._committed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Datatype):
            return NotImplemented
        return self.flatten() == other.flatten()

    def __hash__(self) -> int:
        return hash(self.flatten())

    def __repr__(self) -> str:
        return f"<{self._name} size={self.size} extent={self.extent} D={self.num_segments}>"


class PrimitiveType(Datatype):
    """A named fixed-width primitive (BYTE, INT, DOUBLE, ...)."""

    __slots__ = ("_width",)

    def __init__(self, name: str, width: int) -> None:
        super().__init__(name=name)
        if width <= 0:
            raise DatatypeError(f"primitive width must be positive, got {width}")
        self._width = width

    def _build_flat(self) -> FlatType:
        return FlatType(
            np.array([0], dtype=np.int64),
            np.array([self._width], dtype=np.int64),
            self._width,
        )


class RawFlatType(Datatype):
    """A datatype wrapping an explicit :class:`FlatType`.

    Used when reconstructing types from the wire, and to build the
    "explicitly enumerated" variants in the benchmarks.
    """

    __slots__ = ()

    def __init__(self, flat: FlatType, name: str = "raw") -> None:
        super().__init__(name=name)
        self._flat = flat


BYTE = PrimitiveType("BYTE", 1)
CHAR = PrimitiveType("CHAR", 1)
SHORT = PrimitiveType("SHORT", 2)
INT = PrimitiveType("INT", 4)
INT64 = PrimitiveType("INT64", 8)
FLOAT = PrimitiveType("FLOAT", 4)
DOUBLE = PrimitiveType("DOUBLE", 8)
