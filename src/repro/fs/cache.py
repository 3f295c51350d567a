"""Per-client page cache.

Modes (the Figure 7 experiment turns on ``incoherent``):

* ``coherent`` — write-back; dirty bytes are flushed and the pages
  dropped when the lock manager revokes the client's extent (the file
  system keeps every client's view consistent, at a price);
* ``incoherent`` — write-back with **no** coherence actions: maximum
  locality, but consistency is the application's problem.  Persistent
  file realms are exactly the discipline that makes this safe (a single
  aggregator owns each byte for the file's lifetime);
* ``writethrough`` — writes go straight to the server (reads cache);
* ``off`` — no caching at all.

Semantics follow a real FS client's page cache:

* writes are **write-around**: bytes land in the cached page and are
  tracked as dirty/valid runs — no read-for-ownership round trip; the
  server's page RMW penalty is paid when partial pages are flushed;
* validity and dirtiness are tracked per byte (one file-level interval
  set each), so two clients dirtying disjoint parts of one page can
  flush in any order without clobbering each other — page-level false
  sharing costs time (lock transfers, RMW), never correctness;
* reads served from valid cached bytes are free of server traffic;
  anything else fetches whole pages and merges them under the locally
  valid bytes.

The unit of host work is a contiguous run of pages, not a page: cached
bytes sit in slabs (:class:`~repro.fs.store.Slabs`), a write or a fetch
is one interval insert plus one slice copy per slab, and fetch and
flush extent lists come from interval intersection.  Pages exist only
as arithmetic on those runs — which pages a batch touches (counters,
charges), and a per-page touch stamp that keeps the LRU order.  Only a
batch out of file order, and a read that lost pages while its fetch
yielded, are split page by page.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import FileSystemError
from repro.fs.filesystem import SimFileSystem
from repro.fs.runs import ByteRuns
from repro.fs.store import SLAB_PAGES, Slabs
from repro.obs.metrics import MetricsView
from repro.sim.engine import RankContext

__all__ = ["PageCache", "CACHE_MODES"]

CACHE_MODES = ("coherent", "incoherent", "writethrough", "off")

#: Page range covering any file (``sync`` flushes all of it).
_ALL_PAGES = [(0, 1 << 48)]


def _ascending_runs(pages: np.ndarray) -> List[Tuple[int, int]]:
    """``pages`` as (first, stop) runs over which it counts up by one,
    in its order."""
    if pages.size == 0:
        return []
    cuts = (np.flatnonzero(np.diff(pages) != 1) + 1).tolist()
    return [
        (int(pages[i]), int(pages[j - 1]) + 1)
        for i, j in zip([0, *cuts], [*cuts, int(pages.size)])
    ]


class PageCache:
    """Write-back page cache for one (client, file) pair."""

    def __init__(
        self,
        fs: SimFileSystem,
        path: str,
        client_id: int,
        mode: str = "coherent",
        capacity_pages: int = 16384,
    ) -> None:
        if mode not in CACHE_MODES:
            raise FileSystemError(f"unknown cache mode {mode!r}; options: {CACHE_MODES}")
        if capacity_pages <= 0:
            raise FileSystemError("cache capacity must be positive")
        self.fs = fs
        self.path = path
        self.client_id = client_id
        self.mode = mode
        self.capacity_pages = capacity_pages
        self.page_size = fs.cost.page_size
        #: Cached bytes at their file offsets; only ``_valid`` ones mean
        #: anything.  A page is cached when any byte of it is valid.
        self._buf = Slabs(SLAB_PAGES * self.page_size)
        self._valid = ByteRuns()
        self._dirty = ByteRuns()
        #: Per-page touch stamp: 0 = not cached, else larger = used more
        #: recently.  Ascending stamp order is the LRU order.
        self._stamp = Slabs(SLAB_PAGES, np.int64)
        self._clock = 0
        self._cached = 0
        #: Pages with a server fetch in flight, and the subset whose
        #: range a concurrent revocation/invalidation touched while the
        #: fetch yielded — their snapshot is stale and must not be
        #: installed (the revoker dirtied bytes *after* our store read).
        self._fetching = ByteRuns()
        self._fetch_poisoned = ByteRuns()
        # cache.* series live in the file system's registry, keyed by
        # (client, path) so per-client behaviour stays distinguishable
        # and harnesses can meter phases with snapshot()/diff().
        self._metrics = fs.registry.view((client_id, path))
        self._hits = self._metrics.counter("cache.hits")
        self._misses = self._metrics.counter("cache.misses")
        self._flushed = self._metrics.counter("cache.flushed_pages")
        if mode in ("coherent", "incoherent", "writethrough"):
            fs.register_cache(client_id, self)

    @property
    def metrics(self) -> MetricsView:
        """This cache's registry view (``cache.*`` instruments)."""
        return self._metrics

    @property
    def coherent(self) -> bool:
        return self.mode == "coherent"

    @property
    def caching(self) -> bool:
        return self.mode != "off"

    @property
    def writeback(self) -> bool:
        return self.mode in ("coherent", "incoherent")

    @property
    def dirty_pages(self) -> int:
        return self._page_set(self._dirty).total

    @property
    def cached_pages(self) -> int:
        return self._cached

    # -- page arithmetic ----------------------------------------------------
    def _page_set(self, byte_runs: Iterable[Tuple[int, int]]) -> ByteRuns:
        """The pages that byte runs touch, as runs of page indices."""
        return ByteRuns.of_blocks(byte_runs, self.page_size)

    def _dirty_pages_in(self, first: int, stop: int) -> ByteRuns:
        """The pages of [first, stop) holding dirty bytes."""
        ps = self.page_size
        return self._page_set(self._dirty.intersect(first * ps, stop * ps))

    @staticmethod
    def _extents(offsets: np.ndarray, lengths: np.ndarray):
        """A batch's non-empty extents: file offsets, lengths and
        positions in the batch's data."""
        dpos = np.cumsum(lengths) - lengths
        if lengths.all():
            return offsets, lengths, dpos
        keep = lengths > 0
        return offsets[keep], lengths[keep], dpos[keep]

    def _page_runs_of(self, lo: np.ndarray, n: np.ndarray) -> Optional[List[Tuple[int, int]]]:
        """The pages non-empty extents touch, as merged ascending
        (first, stop) runs — which is also their first-touch order when
        no extent starts on an earlier page than the one before it.
        ``None`` for a batch out of that order."""
        ps = self.page_size
        first, stop = lo // ps, (lo + n - 1) // ps + 1
        if first.size < 2:
            return list(zip(first.tolist(), stop.tolist()))
        if (first[1:] < first[:-1]).any():
            return None
        reach = np.maximum.accumulate(stop)
        heads = np.flatnonzero(first[1:] > reach[:-1]) + 1
        return list(zip(first[np.r_[0, heads]].tolist(), reach[np.r_[heads - 1, -1]].tolist()))

    def _pages_of(self, lo: np.ndarray, n: np.ndarray, dpos: np.ndarray):
        """Split non-empty extents at page edges (the per-page path).

        Returns the distinct pages they touch in first-touch order, and
        their pieces (file offset, length, position in the batch's data)
        grouped by page in that order — batch order within a page —
        with ``group[k]:group[k + 1]`` the pieces of page ``k``."""
        ps = self.page_size
        first = lo // ps
        count = (lo + n - 1) // ps - first + 1
        stops = np.cumsum(count)
        extent = np.repeat(np.arange(lo.size), count)
        page = first[extent] + np.arange(count.sum()) - (stops - count)[extent]
        piece_lo = np.maximum(lo[extent], page * ps)
        piece_n = np.minimum((lo + n)[extent], (page + 1) * ps) - piece_lo
        piece_dpos = dpos[extent] + piece_lo - lo[extent]
        distinct, where, which = np.unique(page, return_index=True, return_inverse=True)
        by_touch = np.argsort(where)
        rank = np.empty_like(by_touch)
        rank[by_touch] = np.arange(by_touch.size)
        order = np.argsort(rank[which], kind="stable")
        group = np.concatenate(([0], np.cumsum(np.bincount(rank[which]))))
        return distinct[by_touch], group, piece_lo[order], piece_n[order], piece_dpos[order]

    def _uncovered(self, extents: List[Tuple[int, int]]) -> ByteRuns:
        """The pages in which some requested byte is not locally valid."""
        return self._page_set(gap for lo, hi in extents for gap in self._valid.gaps(lo, hi))

    # -- LRU ----------------------------------------------------------------
    def _touch(self, runs: Iterable[Tuple[int, int]]) -> int:
        """Make the pages of disjoint (first, stop) runs the most
        recently used, run by run in this order and ascending within a
        run; returns how many were cached already."""
        known = 0
        clock = self._clock
        for first, stop in runs:
            known += int(np.count_nonzero(self._stamp.read(first, stop - first)))
            self._stamp.write(first, np.arange(clock + 1, clock + 1 + stop - first))
            clock += stop - first
        self._cached += clock - self._clock - known
        self._clock = clock
        return known

    def _admit(self, first: int, stop: int) -> None:
        """Pages of [first, stop) not cached yet join the LRU tail in
        page order; cached ones keep their place."""
        stamps = self._stamp.read(first, stop - first)
        new = np.flatnonzero(stamps == 0)
        if new.size:
            stamps[new] = np.arange(self._clock + 1, self._clock + 1 + new.size)
            self._stamp.write(first, stamps)
            self._clock += int(new.size)
            self._cached += int(new.size)

    def _lru(self) -> np.ndarray:
        """Every cached page, least recently used first."""
        pages, stamps = [], []
        for index, slab in self._stamp.items():
            live = np.flatnonzero(slab)
            pages.append(live + index * SLAB_PAGES)
            stamps.append(slab[live])
        return np.concatenate(pages)[np.argsort(np.concatenate(stamps))]

    def _drop(self, page_runs: Iterable[Tuple[int, int]]) -> int:
        """Forget pages (valid and dirty bytes alike); returns the count."""
        ps = self.page_size
        dropped = 0
        for first, stop in page_runs:
            self._valid.remove(first * ps, stop * ps)
            self._dirty.remove(first * ps, stop * ps)
            dropped += int(np.count_nonzero(self._stamp.read(first, stop - first)))
            self._stamp.fill(first, stop - first, 0)
            for index in self._stamp.drop_empty(first, stop - first):
                self._buf.drop(index)
        self._cached -= dropped
        return dropped

    def _evict_if_needed(self, ctx: RankContext) -> None:
        over = self._cached - self.capacity_pages
        if over <= 0:
            return
        lru = self._lru()
        dirty = self._page_set(self._dirty).mask(lru)
        # Clean pages go first, LRU order, no I/O.
        self._drop(self._page_runs(lru[~dirty][:over]))
        over = self._cached - self.capacity_pages
        if over <= 0:
            return
        # Batched writeout: flush at least a quarter of the capacity at
        # once so per-call overheads amortize (single-page writeout would
        # thrash the server, which no real writeback daemon does).
        victims = self._page_runs(lru[dirty][: max(over, self.capacity_pages // 4)])
        self._flush(ctx, victims)
        self._drop_clean(victims)

    @staticmethod
    def _page_runs(pages: np.ndarray) -> List[Tuple[int, int]]:
        """Sorted runs of page indices holding exactly ``pages``."""
        return _ascending_runs(np.sort(pages))

    def _drop_clean(self, page_runs: Iterable[Tuple[int, int]]) -> None:
        """Drop the pages that hold no dirty bytes *now*: a flush yields
        the processor, a concurrent revocation may already have dropped
        some, and bytes dirtied meanwhile must survive to a later flush."""
        for first, stop in page_runs:
            self._drop(self._dirty_pages_in(first, stop).gaps(first, stop))

    # -- server traffic -----------------------------------------------------
    def _poison(self, first: int, stop: int) -> None:
        """An in-flight fetch overlapping pages [first, stop) read the
        store before whoever is revoking or invalidating them acts: its
        snapshot must not be installed when the fetch resumes."""
        for lo, hi in self._fetching.intersect(first, stop):
            self._fetch_poisoned.add(lo, hi)

    def _fetch_pages(self, ctx: RankContext, need: ByteRuns) -> None:
        """Read whole pages from the server, merging under locally valid
        bytes (our writes win over the fetched snapshot).

        The server call yields the processor between reading the store
        and this method installing the result.  A conflicting writer can
        use that window to steal our just-acquired granules (nothing was
        dirty, so the revocation had nothing to flush or drop) and dirty
        bytes in them — making the snapshot stale before it lands.  The
        revocation callback poisons in-flight pages it overlaps; a
        poisoned snapshot is discarded, and the caller's miss path
        re-reads those pieces from the server under fresh locks."""
        if need.empty:
            return
        ps = self.page_size
        runs = list(need)
        first, stop = np.array(runs, dtype=np.int64).T
        for lo, hi in runs:
            self._fetching.add(lo, hi)
        try:
            data = self.fs.server_read(
                ctx, self.client_id, self.path, first * ps, (stop - first) * ps
            )
        finally:
            for lo, hi in runs:
                self._fetching.remove(lo, hi)
        pos = 0
        for lo, hi in runs:
            base = lo * ps - pos
            sound = self._fetch_poisoned.gaps(lo, hi)
            self._fetch_poisoned.remove(lo, hi)
            for first, stop in sound:
                for a, b in self._valid.gaps(first * ps, stop * ps):
                    self._buf.write(a, data[a - base : b - base])
                self._valid.add(first * ps, stop * ps)
                self._admit(first, stop)
            pos += (hi - lo) * ps
        self._misses.value += need.total

    def _flush(
        self,
        ctx: RankContext,
        page_runs: Iterable[Tuple[int, int]],
        *,
        acquire_locks: bool = True,
    ) -> int:
        """Write this client's dirty bytes of the given pages back;
        returns the number of pages that held any.

        The dirty runs are snapshotted and REMOVED before the server
        call: the call yields the processor, and bytes dirtied during
        the yield must survive as fresh dirty state rather than being
        clobbered by our post-flush cleanup.  If the server call fails
        (an injected transient fault fires before the store mutates),
        the snapshot is restored so a caller's retry re-flushes it."""
        ps = self.page_size
        extents = [
            run for first, stop in page_runs for run in self._dirty.intersect(first * ps, stop * ps)
        ]
        if not extents:
            return 0
        offs, ends = np.array(extents, dtype=np.int64).T
        pages = self._page_set(extents).total
        # Copy now: the pages may be rewritten during the yield.
        data = np.empty(int((ends - offs).sum()), dtype=np.uint8)
        pos = 0
        for lo, hi in extents:
            self._buf.read_into(lo, data[pos : pos + hi - lo])
            self._dirty.remove(lo, hi)
            pos += hi - lo
        with ctx.trace("cache:flush", path=self.path, pages=pages):
            ctx.charge(pages * self.fs.cost.cache_flush_page)
            try:
                self.fs.server_write(
                    ctx, self.client_id, self.path, offs, ends - offs, data,
                    acquire_locks=acquire_locks,
                )
            except FileSystemError:
                self._restore_dirty(extents, data)
                raise
        self._flushed.value += pages
        return pages

    def _restore_dirty(self, extents: List[Tuple[int, int]], data: np.ndarray) -> None:
        """Put snapshotted dirty bytes back after a failed writeback.

        Bytes re-dirtied during the failed call's yield are newer than
        the snapshot and win; everything else is restored byte-for-byte
        (the page may have been dropped or re-fetched meanwhile)."""
        ps = self.page_size
        pos = 0
        for lo, hi in extents:
            for a, b in self._dirty.gaps(lo, hi):
                self._buf.write(a, data[pos + a - lo : pos + b - lo])
            self._valid.add(lo, hi)
            self._dirty.add(lo, hi)
            self._admit(lo // ps, -(-hi // ps))
            pos += hi - lo

    # -- public operations -------------------------------------------------------
    def write(
        self, ctx: RankContext, offsets: np.ndarray, lengths: np.ndarray, data: np.ndarray
    ) -> None:
        """Write a batch of extents (data concatenated in batch order)."""
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        data = np.asarray(data, dtype=np.uint8)
        if not self.caching:
            self.fs.server_write(ctx, self.client_id, self.path, offsets, lengths, data)
            return
        # Charge the copy BEFORE taking the locks: nothing may come
        # between acquisition and the dirtying below that could let a
        # concurrent conflicting access steal the granules while our
        # bytes are still clean (nothing to flush) — it would then cache
        # a fully-valid stale page that no later revocation repairs,
        # because our subsequent dirty bytes sit under a lock we no
        # longer hold.
        ctx.charge(int(lengths.sum()) * self.fs.cost.cpu_per_byte_copy)
        if self.coherent:
            # Caching dirty bytes requires holding the extent locks, so
            # later conflicting accesses can revoke-and-flush them.  (An
            # incoherent cache skips this — the whole point of PFRs.)
            # No yield may occur between this returning and the dirty
            # marking below.
            self.fs.acquire_extents(ctx, self.client_id, self.path, offsets, lengths)
        lo, n, dpos = self._extents(offsets, lengths)
        for a, k, d in zip(lo.tolist(), n.tolist(), dpos.tolist()):
            self._buf.write(a, data[d : d + k])
            self._valid.add(a, a + k)
            self._dirty.add(a, a + k)
        runs = self._page_runs_of(lo, n)
        if runs is None:  # out of file order: stamp page by page
            pages = self._pages_of(lo, n, dpos)[0]
            self._hits.value += self._touch(_ascending_runs(pages))
            runs = self._page_runs(pages)
        else:
            self._hits.value += self._touch(runs)
        if self.mode == "writethrough":
            self._flush(ctx, runs)
        self._evict_if_needed(ctx)

    def read(
        self, ctx: RankContext, offsets: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Read a batch of extents; returns concatenated bytes."""
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if not self.caching:
            return self.fs.server_read(ctx, self.client_id, self.path, offsets, lengths)
        lo, n, dpos = self._extents(offsets, lengths)
        extents = [(a, a + k) for a, k in zip(lo.tolist(), n.tolist())]
        # A page must be fetched unless every requested byte of it is
        # locally valid.
        need = self._uncovered(extents)
        self._fetch_pages(ctx, need)
        total = int(lengths.sum())
        out = np.empty(total, dtype=np.uint8)
        ctx.charge(total * self.fs.cost.cpu_per_byte_copy)
        runs = self._page_runs_of(lo, n)
        # The fetch above yielded only if it had pages to fetch.
        if runs is not None and (need.empty or self._uncovered(extents).empty):
            for (a, b), d in zip(extents, dpos.tolist()):
                self._buf.read_into(a, out[d : d + b - a])
            self._hits.value += sum(stop - first for first, stop in runs) - need.total
            self._touch(runs)
        else:
            self._read_page_by_page(ctx, lo, n, dpos, extents, need, out)
        self._evict_if_needed(ctx)
        return out

    def _read_page_by_page(
        self,
        ctx: RankContext,
        lo: np.ndarray,
        n: np.ndarray,
        dpos: np.ndarray,
        extents: List[Tuple[int, int]],
        need: ByteRuns,
        out: np.ndarray,
    ) -> None:
        """Serve a read out of file order, or one that lost pages while
        its fetch yielded, page by page in first-touch order."""
        pages, group, piece_lo, piece_n, piece_dpos = self._pages_of(lo, n, dpos)
        done = 0
        while done < pages.size:
            # Serve from the cache up to the first page that is not
            # covered: revoked (or its fetch poisoned) while we yielded,
            # it may be gone, or may survive holding only bytes from an
            # earlier write that never covered this request.  That page
            # goes straight to the server for just its pieces — which
            # yields again, so the rest is judged afresh afterwards.
            gone = self._uncovered(extents).mask(pages[done:])
            stop = done + int(gone.argmax()) if gone.any() else int(pages.size)
            pieces = slice(group[done], group[stop])
            self._copy_out(piece_lo[pieces], piece_n[pieces], piece_dpos[pieces], out)
            served = pages[done:stop]
            self._hits.value += int(served.size - need.mask(served).sum())
            self._touch(_ascending_runs(served))
            if stop < pages.size:
                pieces = slice(group[stop], group[stop + 1])
                got = self.fs.server_read(
                    ctx, self.client_id, self.path, piece_lo[pieces], piece_n[pieces]
                )
                pos = 0
                for k, d in zip(piece_n[pieces].tolist(), piece_dpos[pieces].tolist()):
                    out[d : d + k] = got[pos : pos + k]
                    pos += k
                stop += 1
            done = stop

    def _copy_out(self, lo: np.ndarray, n: np.ndarray, dpos: np.ndarray, out: np.ndarray) -> None:
        """Copy cached pieces into ``out``; pieces that continue each
        other (a long extent, split at its page edges) move as one."""
        if lo.size == 0:
            return
        joined = (lo[1:] == lo[:-1] + n[:-1]) & (dpos[1:] == dpos[:-1] + n[:-1])
        heads = np.flatnonzero(np.concatenate(([True], ~joined)))
        for a, k, d in zip(
            lo[heads].tolist(), np.add.reduceat(n, heads).tolist(), dpos[heads].tolist()
        ):
            self._buf.read_into(a, out[d : d + k])

    def sync(self, ctx: RankContext) -> int:
        """Flush every dirty page; returns the count flushed."""
        return self._flush(ctx, _ALL_PAGES)

    def invalidate(self) -> None:
        """Drop all cached pages.  Dirty bytes are lost — call
        :meth:`sync` first unless discarding is intended."""
        self._buf.clear()
        self._stamp.clear()
        self._valid.clear()
        self._dirty.clear()
        self._cached = 0
        for lo, hi in self._fetching:
            self._fetch_poisoned.add(lo, hi)

    def invalidate_range(self, lo: int, hi: int, *, keep_dirty: bool = False) -> int:
        """Drop cached pages intersecting [lo, hi) without flushing.

        Used when the server-side contents of a range changed out of
        band (file truncation, journal commit): cached copies are stale
        and must be refetched.  Dirty bytes in the range are discarded
        — callers sync first when they must survive — unless
        ``keep_dirty`` is set, in which case pages holding dirty bytes
        are left alone (their writes are newer than the out-of-band
        change and still owed to the server).  Returns the number of
        pages dropped."""
        if hi <= lo:
            return 0
        ps = self.page_size
        first, stop = lo // ps, -(-hi // ps)
        self._poison(first, stop)
        inside = self._page_set(self._valid.intersect(first * ps, stop * ps))
        if keep_dirty:
            for kept in self._dirty_pages_in(first, stop):
                inside.remove(*kept)
        return self._drop(inside)

    def flush_and_invalidate_range(self, ctx: RankContext, lo: int, hi: int) -> int:
        """Revocation callback: flush dirty bytes in [lo, hi) without
        re-acquiring the (already transferred) locks, then drop the pages."""
        ps = self.page_size
        first, stop = lo // ps, -(-hi // ps)
        self._poison(first, stop)
        inside = self._page_set(self._valid.intersect(first * ps, stop * ps))
        flushed = self._flush(ctx, inside, acquire_locks=False)
        self._drop_clean(inside)
        return flushed
