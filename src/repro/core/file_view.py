"""File views (MPI_File_set_view analogue).

A view is (disp, etype, filetype): the filetype tiles forward from the
byte displacement and exposes its data bytes as the accessible stream.
The amount of I/O a collective call performs is determined by the
memory buffer/datatype, not the view (Figure 1's "conceptually repeats
forever").
"""

from __future__ import annotations

import operator

from repro.datatypes.base import BYTE, Datatype
from repro.datatypes.flatten import FlatType
from repro.datatypes.segments import FlatCursor
from repro.errors import CollectiveIOError

__all__ = ["FileView", "integer_arg"]


def integer_arg(value, name: str) -> int:
    """``value`` as an ``int`` (:func:`operator.index`: an int or numpy
    integer, never a float or a bool); anything else is a
    :class:`CollectiveIOError` naming the argument."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise CollectiveIOError(f"{name} must be an integer, got {value!r}")


class FileView:
    """Validated (disp, etype, filetype) triple."""

    __slots__ = ("disp", "etype", "filetype", "flat")

    def __init__(self, disp: int = 0, etype: Datatype = BYTE, filetype: Datatype | None = None):
        disp = integer_arg(disp, "disp")
        if disp < 0:
            raise CollectiveIOError(f"view displacement must be non-negative, got {disp}")
        if filetype is None:
            filetype = etype
        flat = filetype.flatten()
        if flat.size == 0:
            raise CollectiveIOError("filetype must contain at least one data byte")
        if etype.size <= 0:
            raise CollectiveIOError("etype must have positive size")
        if flat.size % etype.size != 0:
            raise CollectiveIOError(
                f"filetype size {flat.size} is not a multiple of etype size {etype.size}"
            )
        if not flat.is_monotonic:
            raise CollectiveIOError(
                "filetype must be monotonic and non-overlapping when tiled"
            )
        self.disp = disp
        self.etype = etype
        self.filetype = filetype
        self.flat: FlatType = flat

    def cursor(self, total_bytes: int, data_lo: int = 0) -> FlatCursor:
        """A fresh scan cursor over data bytes [data_lo, total_bytes)."""
        return FlatCursor(self.flat, self.disp, total_bytes, data_lo)

    def access_span(self, total_bytes: int, data_lo: int = 0) -> tuple[int, int]:
        """[first_byte, last_byte) touched by data [data_lo, total_bytes)."""
        if total_bytes <= data_lo:
            return (self.disp, self.disp)
        cur = self.cursor(total_bytes, data_lo)
        return (cur.first_byte, cur.last_byte)

    def __repr__(self) -> str:
        return (
            f"FileView(disp={self.disp}, etype={self.etype.name}, "
            f"filetype={self.filetype.name}, D={self.flat.num_segments})"
        )
