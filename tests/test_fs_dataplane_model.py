"""The ``fs`` data plane against a flat-bytearray model, and the golden replay.

Two checks of the extent-granular cache/store (file-level interval sets
over slabs, ``docs/architecture.md``):

* a hypothesis state machine drives :class:`~repro.fs.client.LocalFile`
  — every cache mode, capacities small enough that eviction fires,
  integrity and replication on and off — with unsorted, overlapping,
  page-straddling and zero-length batches, ``sync``, invalidation,
  ``truncate``, a second coherent client, a revocation forced into the
  middle of a fetch, and a store bit flipped under cached bytes (the
  cache and the store may share slabs), and compares every byte read
  (and the final file) with a ``bytearray`` — tier-1 draws 60 runs, the
  slow-marked sweep 400 derandomized ones of 40 steps;
* the seeded sequences of ``fs_dataplane_golden.py`` must reproduce the
  server calls, registry and virtual clocks recorded before the rewrite.
"""

from __future__ import annotations

import json
import queue
import threading

import numpy as np
import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from fs_dataplane_golden import GOLDEN, SEEDS, run_sequence
from repro.config import CostModel
from repro.fs import FSClient, SimFileSystem
from repro.fs.cache import CACHE_MODES
from repro.sim import Simulator

PS = 64  # page; a slab is 32 pages, so REGION spans eight slabs
REGION = 256 * PS
PATH = "/m"


class _Rank:
    """One engine rank that runs the closures handed to it, so a state
    machine can drive real ``RankContext`` code one step at a time."""

    def __init__(self) -> None:
        self._calls: queue.Queue = queue.Queue()
        self._results: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=lambda: Simulator(1).run(self._main), daemon=True)
        self._thread.start()

    def _main(self, ctx) -> None:
        for fn in iter(self._calls.get, None):
            try:
                self._results.put((fn(ctx), None))
            except Exception as exc:  # handed to the caller, which re-raises
                self._results.put((None, exc))

    def call(self, fn):
        self._calls.put(fn)
        value, exc = self._results.get(timeout=120)
        if exc is not None:
            raise exc
        return value

    def close(self) -> None:
        self._calls.put(None)
        self._thread.join(timeout=120)
        assert not self._thread.is_alive()


_lengths = st.one_of(
    st.sampled_from([0, 1, PS - 1, PS, PS + 1]),
    st.integers(0, 5 * PS),
    st.integers(PS, REGION // 2),  # a long run: many pages, several slabs
)
_batches = st.lists(st.tuples(st.integers(0, REGION // 2), _lengths), min_size=1, max_size=6)
_seeds = st.integers(0, 2**32 - 1)


def _payload(seed: int, batch) -> np.ndarray:
    total = sum(n for _, n in batch)
    return np.random.default_rng(seed).integers(1, 256, size=total, dtype=np.uint8)


class DataPlaneMachine(RuleBasedStateMachine):
    """``mine`` is the cache under test; ``other`` is a second coherent
    client, used only where the mode promises it a consistent view."""

    def __init__(self) -> None:
        super().__init__()
        self.rank = None

    @initialize(
        mode=st.sampled_from(CACHE_MODES),
        capacity=st.integers(2, 64),
        integrity=st.booleans(),
        replication=st.sampled_from([1, 2]),
        lock_pages=st.sampled_from([1, 2, 4]),
    )
    def open(self, mode, capacity, integrity, replication, lock_pages):
        cost = CostModel(page_size=PS, stripe_size=4 * PS, num_osts=2)
        self.fs = SimFileSystem(cost, lock_granularity=lock_pages * PS)
        self.fs.ensure_file(PATH)
        if integrity:
            self.fs.enable_integrity(PATH)
        self.fs.enable_replication(PATH, replication)
        self.mode, self.capacity, self.integrity = mode, capacity, integrity
        self.shared_view = mode in ("coherent", "off")
        self.model = bytearray(REGION)
        self.size = 0
        self.rank = _Rank()

        def opened(ctx):
            mine = FSClient(self.fs, ctx, client_id="mine").open(
                PATH, cache_mode=mode, cache_capacity_pages=capacity
            )
            other = FSClient(self.fs, ctx, client_id="other").open(PATH, cache_mode="coherent")
            return mine, other

        self.mine, self.other = self.rank.call(opened)

    # -- the model ----------------------------------------------------------
    def _apply(self, batch, data: np.ndarray) -> None:
        pos = 0
        for lo, n in batch:
            self.model[lo : lo + n] = data[pos : pos + n].tobytes()
            pos += n
            if n:
                self.size = max(self.size, lo + n)

    def _expected(self, batch) -> bytes:
        return b"".join(bytes(self.model[lo : lo + n]) for lo, n in batch)

    @staticmethod
    def _arrays(batch):
        return [lo for lo, _ in batch], [n for _, n in batch]

    # -- rules ----------------------------------------------------------------
    @rule(batch=_batches, seed=_seeds)
    def write(self, batch, seed):
        data = _payload(seed, batch)
        self.rank.call(lambda ctx: self.mine.write_batch(*self._arrays(batch), data))
        self._apply(batch, data)

    @rule(batch=_batches)
    def read(self, batch):
        got = self.rank.call(lambda ctx: self.mine.read_batch(*self._arrays(batch)))
        assert got.tobytes() == self._expected(batch)

    @rule()
    def sync(self):
        self.rank.call(lambda ctx: self.mine.sync())
        assert self.mine.cache.dirty_pages == 0

    @rule()
    def sync_and_drop(self):
        def fn(ctx):
            self.mine.sync()
            self.mine.invalidate()

        self.rank.call(fn)
        assert self.mine.cache.cached_pages == 0

    @rule(lo=st.integers(0, REGION), width=st.integers(0, REGION // 2), keep_dirty=st.booleans())
    def invalidate_range(self, lo, width, keep_dirty):
        def fn(ctx):
            if not keep_dirty:
                self.mine.sync()  # discarded dirty bytes would be lost
            return self.mine.cache.invalidate_range(lo, lo + width, keep_dirty=keep_dirty)

        before = self.mine.cache.cached_pages
        dropped = self.rank.call(fn)
        assert self.mine.cache.cached_pages == before - dropped

    @rule(size=st.integers(0, REGION))
    def truncate(self, size):
        def fn(ctx):
            self.other.sync()  # like the collective set_size: everyone flushes first
            self.mine.truncate(size)

        self.rank.call(fn)
        self.model[size:] = bytes(REGION - size)
        self.size = size

    @precondition(lambda self: self.shared_view)
    @rule(batch=_batches, seed=_seeds)
    def other_writes(self, batch, seed):
        data = _payload(seed, batch)
        self.rank.call(lambda ctx: self.other.write_batch(*self._arrays(batch), data))
        self._apply(batch, data)

    @precondition(lambda self: self.shared_view)
    @rule(batch=_batches)
    def other_reads(self, batch):
        got = self.rank.call(lambda ctx: self.other.read_batch(*self._arrays(batch)))
        assert got.tobytes() == self._expected(batch)

    @precondition(lambda self: self.mode == "coherent")
    @rule(batch=_batches, stolen=_batches, seed=_seeds)
    def read_with_revocation_mid_fetch(self, batch, stolen, seed):
        """While ``mine``'s fetch has yielded (store already read, pages
        not yet installed) ``other`` takes the locks and writes.  The
        stale snapshot must not be served: the read returns ``other``'s
        bytes wherever the two overlap."""
        data = _payload(seed, stolen)
        real_read = self.fs.server_read

        def server_read(ctx, client_id, *args, **kw):
            out = real_read(ctx, client_id, *args, **kw)
            if client_id == "mine" and self.fs.server_read is server_read:
                self.fs.server_read = real_read
                self.other.write_batch(*self._arrays(stolen), data)
                self._apply(stolen, data)
            return out

        def fn(ctx):
            self.fs.server_read = server_read
            try:
                return self.mine.read_batch(*self._arrays(batch))
            finally:
                self.fs.server_read = real_read

        got = self.rank.call(fn)
        assert got.tobytes() == self._expected(batch)

    @precondition(lambda self: self.mode != "off")
    @rule(page=st.integers(0, 2**16), bit=st.integers(0, PS * 8 - 1))
    def flip_under_cached_bytes(self, page, bit):
        """A store bit flips — under a page ``mine`` caches where there is
        one — and ``mine`` reads exactly its cached-valid bytes: no server
        call, and the model's bytes, whatever the store's slabs now hold
        (cache and store may share them).  Then the bit flips back."""
        cache, store = self.mine.cache, self.fs.page_store(PATH)
        batch = [(lo, hi - lo) for lo, hi in cache._valid][:6]
        held = store.page_indices()
        under = [p for p in held if any(lo < p * PS + PS and p * PS < lo + n for lo, n in batch)]
        target = (under or held or [None])[page % max(1, len(under or held))]
        if target is not None:
            store.flip_bit(target, bit)
        reads = self.fs.metrics(PATH).value("fs.server.reads")
        got = self.rank.call(lambda ctx: self.mine.read_batch(*self._arrays(batch)))
        assert self.fs.metrics(PATH).value("fs.server.reads") == reads
        assert got.tobytes() == self._expected(batch)
        if target is not None:
            store.flip_bit(target, bit)

    # -- invariants -----------------------------------------------------------
    @invariant()
    def cache_accounting(self):
        if self.rank is None:
            return
        cache = self.mine.cache
        assert cache.dirty_pages <= cache.cached_pages <= self.capacity
        # A page is cached exactly when it holds valid bytes, and every
        # dirty byte is valid.
        assert cache._page_set(cache._valid).total == cache.cached_pages
        assert not any(cache._valid.gaps(lo, hi) for lo, hi in cache._dirty)

    def teardown(self):
        if self.rank is None:
            return
        try:
            self.rank.call(lambda ctx: (self.other.close(), self.mine.close()))
            assert self.fs.file_size(PATH) == self.size
            assert self.fs.raw_bytes(PATH, 0, REGION).tobytes() == bytes(self.model)
            if self.integrity:
                assert self.fs.page_store(PATH).verify_all() == []
        finally:
            self.rank.close()


TestDataPlaneModel = DataPlaneMachine.TestCase
TestDataPlaneModel.settings = settings(
    max_examples=60,
    stateful_step_count=25,
    deadline=None,
    # Every step runs on an engine thread; the explain phase would
    # re-run a failing example hundreds of times for little insight.
    phases=[p for p in Phase if p is not Phase.explain],
)


class DataPlaneSweep(DataPlaneMachine):
    """The same machine, longer and derandomized: CI's slow-sweeps job
    (a subclass, since hypothesis builds one test case per class)."""


TestDataPlaneSweep = DataPlaneSweep.TestCase
TestDataPlaneSweep.settings = settings(
    max_examples=400,
    stateful_step_count=40,
    deadline=None,
    derandomize=True,
    phases=[p for p in Phase if p is not Phase.explain],
)
TestDataPlaneSweep.pytestmark = [pytest.mark.slow]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", SEEDS)
def test_golden_replay(golden, seed):
    """Server calls and their extents, read results, cache occupancy,
    file bytes, every registry value and every rank's virtual clock, as
    recorded on the per-page implementation."""
    got = json.loads(json.dumps(run_sequence(seed)["summary"]))
    want = golden[str(seed)]
    for key in want:
        assert got[key] == want[key], key
    assert got == want
