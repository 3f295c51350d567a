"""I/O-method selection, including conditional data sieving.

Section 6.3's experiment: the best way to flush a collective buffer to
non-contiguous file space depends on the access, and the paper's simple
but effective metric is the **filetype extent** — data sieving wins for
small extents (per-call overhead dominates, gaps are cheap to carry),
naive per-segment I/O wins for large extents (sieving drags in mostly
gap bytes).  Their Lustre crossover sat near a 16 KB extent, which is
:data:`DS_THRESHOLD_EXTENT` here.

The contiguous fast path mirrors the "contiguous in memory, contiguous
in file" branch that produces the 100% spikes in Figure 5.
"""

from __future__ import annotations

from repro.datatypes.segments import SegmentBatch
from repro.errors import CollectiveIOError
from repro.mpi.hints import Hints

__all__ = ["choose_method", "is_contiguous_batch", "DS_THRESHOLD_EXTENT"]

#: ``io_method=conditional`` sieves a flush whose filetype extent is at
#: most this many bytes and goes naive above it.
DS_THRESHOLD_EXTENT = 16 * 1024

_METHODS = ("datasieve", "naive", "listio")


def is_contiguous_batch(batch: SegmentBatch) -> bool:
    """True when the batch is a single contiguous extent."""
    return batch.num_segments == 1


def choose_method(hints: Hints, filetype_extent: int, batch: SegmentBatch) -> str:
    """Resolve the I/O method for one collective-buffer flush.

    Returns one of ``"contig"``, ``"datasieve"``, ``"naive"``,
    ``"listio"``.  ``filetype_extent`` is the access pattern's tile
    extent (the conditional metric); ``batch`` is the flush at hand.
    """
    if batch.empty or is_contiguous_batch(batch):
        return "contig"
    method = hints["io_method"]
    if method == "conditional":
        return "datasieve" if 0 < filetype_extent <= DS_THRESHOLD_EXTENT else "naive"
    if method not in _METHODS:  # pragma: no cover - Hints validates already
        raise CollectiveIOError(f"unknown io_method {method!r}")
    return method
