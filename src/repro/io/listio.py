"""List I/O: all segments in one file-system call.

Models the PVFS list-I/O interface reachable "with a simple MPI hint"
(Section 5.1): one client call overhead, per-segment service cost on
the servers, and no extra data buffer (the double-buffering issue
disappears, as the paper notes).
"""

from __future__ import annotations

import numpy as np

from repro.datatypes.packing import copy_segments, stream_order
from repro.datatypes.segments import SegmentBatch
from repro.fs.client import LocalFile

__all__ = ["listio_write", "listio_read"]


def listio_write(local: LocalFile, batch: SegmentBatch, data: np.ndarray) -> None:
    """Write every segment in one list-I/O call.

    ``batch.data_offsets`` index into ``data``."""
    if batch.empty:
        return
    data = np.asarray(data, dtype=np.uint8)
    # The wire format carries the segments back-to-back in data order.
    order, lens, pos = stream_order(batch)
    packed = np.empty(int(pos[-1] + lens[-1]), dtype=np.uint8)
    copy_segments(packed, pos, data, batch.data_offsets[order], lens)
    local.write_batch(batch.file_offsets[order], lens, packed)


def listio_read(local: LocalFile, batch: SegmentBatch) -> np.ndarray:
    """Read every segment in one list-I/O call.

    Returns an array indexed by ``batch.data_offsets``."""
    if batch.empty:
        return np.empty(0, dtype=np.uint8)
    order, lens, pos = stream_order(batch)
    packed = local.read_batch(batch.file_offsets[order], lens)
    out = np.zeros(int((batch.data_offsets + batch.lengths).max()), dtype=np.uint8)
    copy_segments(out, batch.data_offsets[order], packed, pos, lens)
    return out
