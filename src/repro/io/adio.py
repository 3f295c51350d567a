"""ADIO-like facade: strided reads/writes with a pluggable method.

One :class:`AdioFile` per open file per rank.  The collective layer
flushes its buffer through :meth:`write_strided` / fills it through
:meth:`read_strided`; independent I/O users can call it directly (this
is the code-reuse point Section 5.1 argues for).

Every operation runs under the file's :class:`~repro.io.retry.RetryPolicy`:
transient faults injected below (server calls, cache flushes) are
retried with exponential virtual-time backoff, and exhaustion surfaces
as :class:`~repro.errors.RetryExhausted`.  Placing the retry at this
layer means *both* I/O paths — independent users and collective-buffer
flushes — inherit resilience from the same code, the Section 5.1 reuse
argument extended to fault handling.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from repro.datatypes.segments import SegmentBatch
from repro.errors import CollectiveIOError
from repro.fs.client import LocalFile
from repro.io.datasieve import DS_BUFFER_SIZE, datasieve_read, datasieve_write
from repro.io.listio import listio_read, listio_write
from repro.io.naive import naive_read, naive_write
from repro.io.retry import RetryPolicy

__all__ = ["AdioFile"]


def _contig_write(local: LocalFile, batch: SegmentBatch, data: np.ndarray) -> None:
    do = int(batch.data_offsets[0])
    local.write(int(batch.file_offsets[0]), data[do : do + int(batch.lengths[0])])


def _contig_read(local: LocalFile, batch: SegmentBatch) -> np.ndarray:
    out = np.zeros(int((batch.data_offsets + batch.lengths).max()), dtype=np.uint8)
    do = int(batch.data_offsets[0])
    ln = int(batch.lengths[0])
    out[do : do + ln] = local.read(int(batch.file_offsets[0]), ln)
    return out


#: method -> (write(local, batch, data), read(local, batch) -> bytes).
_METHODS = {
    "contig": (_contig_write, _contig_read),
    "datasieve": (
        partial(datasieve_write, buffer_size=DS_BUFFER_SIZE),
        partial(datasieve_read, buffer_size=DS_BUFFER_SIZE),
    ),
    "naive": (naive_write, naive_read),
    "listio": (listio_write, listio_read),
}


class AdioFile:
    """Strided-I/O dispatcher over a :class:`~repro.fs.client.LocalFile`."""

    def __init__(self, local: LocalFile, *, retry: Optional[RetryPolicy] = None) -> None:
        self.local = local
        self.retry = retry if retry is not None else RetryPolicy()

    def rebound(self, ctx) -> "AdioFile":
        """A view of this dispatcher charging time to ``ctx``.

        Shares the retry policy with the base; the underlying
        :class:`LocalFile` is rebound the same way, so coroutine I/O
        advances the coroutine's clock."""
        return AdioFile(self.local.rebound(ctx), retry=self.retry)

    # -- contiguous ---------------------------------------------------------
    def write_contig(self, offset: int, data: np.ndarray) -> None:
        self.retry.run(self.local.ctx, lambda: self.local.write(offset, data))

    def read_contig(self, offset: int, nbytes: int) -> np.ndarray:
        return self.retry.run(self.local.ctx, lambda: self.local.read(offset, nbytes))

    # -- strided -------------------------------------------------------------
    def write_strided(self, batch: SegmentBatch, data: np.ndarray, method: str) -> None:
        """Write ``batch`` (``data_offsets`` index into ``data``).

        ``method`` is one of ``contig``/``datasieve``/``naive``/
        ``listio``."""
        if not batch.empty:
            self._strided(method, batch, data)

    def read_strided(self, batch: SegmentBatch, method: str) -> np.ndarray:
        """Read ``batch``.

        Every method returns the same shape: an array of exactly
        ``max(data_offsets + lengths)`` bytes (empty for an empty
        batch), indexed by ``batch.data_offsets``, zero outside the
        batch.  The collective read hands it out as its collective
        buffer as it is."""
        if batch.empty:
            return np.empty(0, dtype=np.uint8)
        return self._strided(method, batch)

    def _strided(self, method: str, batch: SegmentBatch, *data: np.ndarray):
        """Run ``method``'s write (``data`` given) or read of ``batch``
        under the retry policy."""
        if method not in _METHODS:
            raise CollectiveIOError(f"unknown strided I/O method {method!r}")
        if method == "contig" and batch.num_segments != 1:
            raise CollectiveIOError("contig method requires a single segment")
        op = _METHODS[method][0 if data else 1]
        return self.retry.run(self.local.ctx, lambda: op(self.local, batch, *data))
