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

from typing import Optional

import numpy as np

from repro.datatypes.segments import SegmentBatch
from repro.errors import CollectiveIOError
from repro.fs.client import LocalFile
from repro.io.datasieve import datasieve_read, datasieve_write
from repro.io.listio import listio_read, listio_write
from repro.io.naive import naive_read, naive_write
from repro.io.retry import RetryPolicy

__all__ = ["AdioFile"]


class AdioFile:
    """Strided-I/O dispatcher over a :class:`~repro.fs.client.LocalFile`."""

    def __init__(
        self,
        local: LocalFile,
        *,
        ds_buffer_size: int = 512 * 1024,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if ds_buffer_size <= 0:
            raise CollectiveIOError("ds_buffer_size must be positive")
        self.local = local
        self.ds_buffer_size = ds_buffer_size
        self.retry = retry if retry is not None else RetryPolicy()
        #: Flush-method usage counters (inspected by tests/benches).
        self.method_counts: dict[str, int] = {}

    def _count(self, method: str) -> None:
        self.method_counts[method] = self.method_counts.get(method, 0) + 1

    def journaled(self):
        """Route this file's I/O through its open shadow transaction
        (see :meth:`repro.fs.client.LocalFile.journaled`) for the
        duration of the context."""
        return self.local.journaled()

    def rebound(self, ctx) -> "AdioFile":
        """A view of this dispatcher charging time to ``ctx``.

        Shares the retry policy (so cross-operation budgets stay one
        pool) and the method counters with the base; the underlying
        :class:`LocalFile` is rebound the same way, so coroutine I/O
        advances the coroutine's clock."""
        view = AdioFile(
            self.local.rebound(ctx),
            ds_buffer_size=self.ds_buffer_size,
            retry=self.retry,
        )
        view.method_counts = self.method_counts
        return view

    # -- contiguous ---------------------------------------------------------
    def write_contig(self, offset: int, data: np.ndarray) -> None:
        self._count("contig")
        self.retry.run(self.local.ctx, lambda: self.local.write(offset, data))

    def read_contig(self, offset: int, nbytes: int) -> np.ndarray:
        self._count("contig")
        return self.retry.run(self.local.ctx, lambda: self.local.read(offset, nbytes))

    # -- strided -------------------------------------------------------------
    def write_strided(self, batch: SegmentBatch, data: np.ndarray, method: str) -> None:
        """Write ``batch`` (``data_offsets`` index into ``data``).

        ``method`` is one of ``contig``/``datasieve``/``naive``/
        ``listio``."""
        if batch.empty:
            return
        self._count(method)

        def attempt() -> None:
            if method == "contig":
                if batch.num_segments != 1:
                    raise CollectiveIOError("contig method requires a single segment")
                do = int(batch.data_offsets[0])
                ln = int(batch.lengths[0])
                self.local.write(int(batch.file_offsets[0]), data[do : do + ln])
            elif method == "datasieve":
                datasieve_write(self.local, batch, data, buffer_size=self.ds_buffer_size)
            elif method == "naive":
                naive_write(self.local, batch, data)
            elif method == "listio":
                listio_write(self.local, batch, data)
            else:
                raise CollectiveIOError(f"unknown strided write method {method!r}")

        self.retry.run(self.local.ctx, attempt)

    def read_strided(self, batch: SegmentBatch, method: str) -> np.ndarray:
        """Read ``batch``; the result is indexed by ``batch.data_offsets``."""
        if batch.empty:
            return np.empty(0, dtype=np.uint8)
        self._count(method)

        def attempt() -> np.ndarray:
            if method == "contig":
                if batch.num_segments != 1:
                    raise CollectiveIOError("contig method requires a single segment")
                size = int((batch.data_offsets + batch.lengths).max())
                out = np.zeros(size, dtype=np.uint8)
                do = int(batch.data_offsets[0])
                ln = int(batch.lengths[0])
                out[do : do + ln] = self.local.read(int(batch.file_offsets[0]), ln)
                return out
            if method == "datasieve":
                return datasieve_read(self.local, batch, buffer_size=self.ds_buffer_size)
            if method == "naive":
                return naive_read(self.local, batch)
            if method == "listio":
                return listio_read(self.local, batch)
            raise CollectiveIOError(f"unknown strided read method {method!r}")

        return self.retry.run(self.local.ctx, attempt)
