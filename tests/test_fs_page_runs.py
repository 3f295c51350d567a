"""The ``fs`` data plane moves runs, not pages: references and call bound.

:class:`~repro.fs.cache.PageCache` derives the pages a batch touches as
runs straight from its extents and serves in-order batches run by run;
:meth:`SimFileSystem._split_over_osts` counts per-OST bytes and
fragments in one pass.  The per-page and stripe-peeling versions they
replace live on here as references:

* a hypothesis property drives both caches through the same writes,
  reads (some losing pages to an invalidation while their fetch yields)
  and syncs — sorted, unsorted, overlapping, zero-length,
  page-straddling and single-extent batches, capacities small enough
  to evict — and demands the same bytes, LRU order, counters, eviction
  victims, server calls and virtual clock after every step;
* a second one holds the OST split, the corruption-target page list
  and the OST service formula to theirs;
* one sieve window read, patched and written back through an
  incoherent cache enters the same number of ``repro.fs`` Python
  functions whatever its page count, and with its flush copies its span
  on the host twice plus at most four slabs.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fs_dataplane_golden import packed
import repro.fs
import repro.fs.store
from repro.config import CostModel
from repro.fs import FSClient, SimFileSystem
from repro.fs.cache import PageCache
from repro.fs.store import SLAB_PAGES
from repro.sim import Simulator

PS = 64
REGION = 48 * PS
PATH = "/r"


# -- the per-page cache (reference) ------------------------------------------------
def _ascending_runs(pages: np.ndarray):
    """Index ranges [i, j) over which ``pages`` counts up by one."""
    if pages.size == 0:
        return []
    cuts = (np.flatnonzero(np.diff(pages) != 1) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, int(pages.size)]))


class PerPageCache(PageCache):
    """The cache whose ``read`` / ``write`` split every batch per page
    and stamp the LRU page by page."""

    def _pages_of(self, offsets, lengths):
        ps = self.page_size
        keep = lengths > 0
        lo, n = offsets[keep], lengths[keep]
        dpos = (np.cumsum(lengths) - lengths)[keep]
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

    def _touch(self, pages):
        known = 0
        for i, j in _ascending_runs(pages):
            first = int(pages[i])
            known += int(np.count_nonzero(self._stamp.read(first, j - i)))
            self._stamp.write(first, np.arange(self._clock + 1 + i, self._clock + 1 + j))
        self._clock += int(pages.size)
        self._cached += int(pages.size) - known
        return known

    def write(self, ctx, offsets, lengths, data):
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        data = np.asarray(data, dtype=np.uint8)
        ctx.charge(int(lengths.sum()) * self.fs.cost.cpu_per_byte_copy)
        if self.coherent:
            self.fs.acquire_extents(ctx, self.client_id, self.path, offsets, lengths)
        pos = 0
        for lo, n in zip(offsets.tolist(), lengths.tolist()):
            if n > 0:
                self._buf.write(lo, data[pos : pos + n])
                self._valid.add(lo, lo + n)
                self._dirty.add(lo, lo + n)
                pos += n
        pages = self._pages_of(offsets, lengths)[0]
        self._hits.value += self._touch(pages)
        if self.mode == "writethrough":
            self._flush(ctx, self._page_runs(pages))
        self._evict_if_needed(ctx)

    def read(self, ctx, offsets, lengths):
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        extents = [(lo, lo + n) for lo, n in zip(offsets.tolist(), lengths.tolist()) if n > 0]
        need = self._uncovered(extents)
        self._fetch_pages(ctx, need)
        total = int(lengths.sum())
        out = np.empty(total, dtype=np.uint8)
        ctx.charge(total * self.fs.cost.cpu_per_byte_copy)
        pages, group, piece_lo, piece_n, piece_dpos = self._pages_of(offsets, lengths)
        done = 0
        while done < pages.size:
            gone = self._uncovered(extents).mask(pages[done:])
            stop = done + int(gone.argmax()) if gone.any() else int(pages.size)
            pieces = slice(group[done], group[stop])
            self._copy_out(piece_lo[pieces], piece_n[pieces], piece_dpos[pieces], out)
            served = pages[done:stop]
            self._hits.value += int(served.size - need.mask(served).sum())
            self._touch(served)
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
        self._evict_if_needed(ctx)
        return out


# -- the property over both caches ----------------------------------------------------
_extent = st.tuples(
    st.integers(0, REGION),
    st.one_of(st.sampled_from([0, 1, PS - 1, PS, PS + 1]), st.integers(0, 6 * PS)),
)
_batch = st.tuples(st.lists(_extent, min_size=1, max_size=6), st.booleans()).map(
    lambda drawn: sorted(drawn[0]) if drawn[1] else drawn[0]  # file order, or as drawn
)
_poison = st.none() | st.tuples(st.integers(0, REGION), st.integers(1, REGION // 2))
_op = st.one_of(
    st.tuples(st.just("write"), _batch, st.integers(0, 2**32 - 1)),
    st.tuples(st.just("read"), _batch, _poison),
    st.tuples(st.just("sync")),
)


def _observe(cls, mode: str, capacity: int, ops) -> list:
    """Run ``ops`` on one rank through a ``cls`` cache; what each step
    returned and left behind."""
    cost = CostModel(page_size=PS, stripe_size=4 * PS, num_osts=2)
    fs = SimFileSystem(cost)
    fs.raw_write(PATH, 0, np.random.default_rng(7).integers(0, 256, REGION + 8 * PS, dtype=np.uint8))
    calls: list = []  # server calls and dropped page runs, this step
    poison: list = []  # a range to invalidate once the next fetch has read the store
    real_read, real_write = fs.server_read, fs.server_write

    def server_read(ctx, cid, path, offs, lens, **kw):
        calls.append(("R", np.asarray(offs).tolist(), np.asarray(lens).tolist()))
        out = real_read(ctx, cid, path, offs, lens, **kw)
        if poison:  # as a journal commit would, while the fetch yields
            lo, hi = poison.pop()
            cache.invalidate_range(lo, hi, keep_dirty=True)
        return out

    def server_write(ctx, cid, path, offs, lens, data, **kw):
        calls.append(("W", np.asarray(offs).tolist(), np.asarray(lens).tolist(), packed(offs, lens, data).tobytes()))
        return real_write(ctx, cid, path, offs, lens, data, **kw)

    fs.server_read, fs.server_write = server_read, server_write
    cache = cls(fs, PATH, 0, mode=mode, capacity_pages=capacity)
    drop = cache._drop

    def dropped(page_runs):
        page_runs = list(page_runs)
        calls.append(("drop", page_runs))
        return drop(page_runs)

    cache._drop = dropped

    def main(ctx) -> list:
        steps = []
        for op in ops:
            got = None
            if op[0] != "sync":
                offs = np.array([lo for lo, _ in op[1]], dtype=np.int64)
                lens = np.array([n for _, n in op[1]], dtype=np.int64)
            if op[0] == "write":
                data = np.random.default_rng(op[2]).integers(0, 256, int(lens.sum()), dtype=np.uint8)
                cache.write(ctx, offs, lens, data)
            elif op[0] == "read":
                if op[2] is not None:
                    poison.append((op[2][0], op[2][0] + op[2][1]))
                got = cache.read(ctx, offs, lens).tobytes()
                poison.clear()
            else:
                cache.sync(ctx)
            steps.append({
                "op": op[0], "got": got, "calls": list(calls), "now": ctx.now,
                "hits": cache.metrics.value("cache.hits"),
                "misses": cache.metrics.value("cache.misses"),
                "cached": cache.cached_pages,
                "lru": cache._lru().tolist() if cache.cached_pages else [],
            })
            calls.clear()
        return steps

    return Simulator(1).run(main)[0]


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(["coherent", "incoherent", "writethrough"]),
    capacity=st.integers(2, 24),
    ops=st.lists(_op, min_size=1, max_size=10),
)
def test_cache_matches_the_per_page_reference(mode, capacity, ops):
    want = _observe(PerPageCache, mode, capacity, ops)
    got = _observe(PageCache, mode, capacity, ops)
    for step, (g, w) in enumerate(zip(got, want)):
        assert g == w, (step, ops[step])


# -- the OST split, corruption targets and service formula -------------------------
def _split_by_peeling(cost: CostModel, offsets, lengths):
    n_ost, stripe = cost.num_osts, cost.stripe_size
    bytes_per = np.zeros(n_ost, dtype=np.int64)
    reqs_per = np.zeros(n_ost, dtype=np.int64)
    offs = offsets.astype(np.int64).copy()
    lens = lengths.astype(np.int64).copy()
    while True:
        active = lens > 0
        if not active.any():
            break
        o = offs[active]
        l = lens[active]
        piece = np.minimum(l, stripe - (o % stripe))
        ost = (o // stripe) % n_ost
        np.add.at(bytes_per, ost, piece)
        np.add.at(reqs_per, ost, 1)
        offs[active] += piece
        lens[active] -= piece
    return bytes_per, reqs_per


def _touched_by_set(ps: int, offs, lens):
    touched: set = set()
    for o, l in zip(offs.tolist(), lens.tolist()):
        touched.update(range(o // ps, (o + l - 1) // ps + 1))
    return sorted(touched)


def _service_inline(cost: CostModel, bytes_per, reqs_per, rmw_pages):
    total_reqs = int(reqs_per.sum())
    out = []
    for ost in range(cost.num_osts):
        if reqs_per[ost] == 0:
            continue
        share = rmw_pages * (reqs_per[ost] / total_reqs) if total_reqs else 0.0
        out.append((
            ost,
            int(reqs_per[ost]) * cost.ost_op_latency
            + int(bytes_per[ost]) * cost.ost_byte_time
            + share * cost.page_rmw_penalty,
        ))
    return out


@settings(max_examples=300, deadline=None)
@given(
    stripe_pages=st.integers(1, 8),
    num_osts=st.integers(1, 5),
    extents=st.lists(
        st.tuples(
            st.integers(0, 64 * PS),
            st.one_of(st.sampled_from([0, 1, PS, 4 * PS]), st.integers(0, 40 * PS)),
        ),
        max_size=12,
    ),
    rmw_pages=st.integers(0, 9),
)
# tests/test_fs_edges.py's hand-computed cases (page 64, stripe 256, 2 OSTs)
@example(4, 2, [(0, 256), (256, 256), (600, 100)], 0)
@example(4, 2, [(200, 200)], 0)
@example(4, 2, [], 0)
def test_ost_split_matches_stripe_peeling(stripe_pages, num_osts, extents, rmw_pages):
    cost = CostModel(page_size=PS, stripe_size=stripe_pages * PS, num_osts=num_osts)
    fs = SimFileSystem(cost)
    offs = np.array([o for o, _ in extents], dtype=np.int64)
    lens = np.array([n for _, n in extents], dtype=np.int64)
    got, want = fs._split_over_osts(offs, lens), _split_by_peeling(cost, offs, lens)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    assert [a.dtype for a in got] == [np.int64, np.int64]
    assert fs._service(*got, rmw_pages) == _service_inline(cost, *want, rmw_pages)
    keep = lens > 0
    assert fs._touched_pages(offs[keep], lens[keep]) == _touched_by_set(PS, offs[keep], lens[keep])


# -- Python calls per sieve window ------------------------------------------------------
_FS = str(Path(repro.fs.__file__).parent)


def _window_calls(pages: int) -> int:
    """``repro.fs`` Python functions entered by one read + patch + write
    of a window touching ``pages`` pages (both ends partial, inside one
    stripe) through an incoherent cache."""
    fs = SimFileSystem()
    ps = fs.cost.page_size
    lo, n = 100, pages * ps - 200
    fs.raw_write(PATH, 0, np.arange(lo + n + ps, dtype=np.uint8))
    counted = []

    def main(ctx) -> None:
        f = FSClient(fs, ctx).open(PATH, cache_mode="incoherent")
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls  # one engine thread runs at a time
            if event == "call" and frame.f_code.co_filename.startswith(_FS):
                calls += 1

        outer = sys.getprofile(), threading.getprofile()
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            window = f.read(lo, n)
            window[::7] = 1
            f.write(lo, window)
        finally:
            sys.setprofile(outer[0])
            threading.setprofile(outer[1])
        counted.append(calls)

    Simulator(1).run(main)
    return counted[0]


def test_a_sieve_window_costs_the_same_python_calls_at_any_size():
    """8 pages, a ``fig7_steps`` window (116) and a stripe (512)."""
    _window_calls(8)  # warm imports
    calls = {pages: _window_calls(pages) for pages in (8, 116, 512)}
    assert len(set(calls.values())) == 1, calls
    assert calls[8] <= 110, calls


def _window_copies(pages: int) -> tuple:
    """Items every ``Slabs`` copy path moves (``fs.store.copied``),
    copy-on-write copies and the cache's per-page LRU stamps included,
    for one pre-read + patch + write-back + ``sync`` of a window
    touching ``pages`` pages (both ends partial) through an incoherent
    cache; and the window's bytes."""
    fs = SimFileSystem()
    ps = fs.cost.page_size
    lo, n = 100, pages * ps - 200
    fs.raw_write(PATH, 0, np.arange(lo + n + ps, dtype=np.uint8))
    counted = []

    def main(ctx) -> None:
        f = FSClient(fs, ctx).open(PATH, cache_mode="incoherent")
        before = repro.fs.store.copied
        window = f.read(lo, n)
        window[::7] = 1
        f.write(lo, window)
        f.sync()
        counted.append(repro.fs.store.copied - before)

    Simulator(1).run(main)
    want = np.arange(lo + n + ps, dtype=np.uint8)[lo : lo + n]
    want[::7] = 1
    assert np.array_equal(fs.raw_bytes(PATH, lo, n), want)
    return counted[0], n


@pytest.mark.parametrize("pages", [116, 512])
def test_a_sieve_window_copies_its_span_twice_on_the_host(pages):
    """The window copy out of the cache and the write back into it are
    the only span-sized copies: the fetch takes the store's slabs and
    the flush hands the cache's over by reference, so what else moves is
    bounded by the partial slabs at the window's two ends (measured:
    2.0 slabs; six span copies before slabs were shared)."""
    copied, span = _window_copies(pages)
    slab = SLAB_PAGES * SimFileSystem().cost.page_size
    assert copied <= 2 * span + 4 * slab, (copied - 2 * span) / slab
