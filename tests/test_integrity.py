"""Tests for the end-to-end integrity subsystem (repro.integrity).

The contract under test:

* detection — with the integrity hints armed, every injected bit-flip
  (stored page or in-flight frame) is caught: a typed
  :class:`IntegrityError` on the read path, a transparent frame
  re-request on the network path, never a silent wrong answer;
* honesty about the baseline — with the hints off, the same faults
  corrupt data silently (that is the gap the subsystem closes);
* crash consistency — a journaled collective write that dies
  mid-collective leaves the file byte-identical to its pre-collective
  contents, and a stale journal is discarded, never committed;
* tooling — `fsck` scrubs exactly the damaged pages and repairs them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import ChaosHarness
from repro.config import CostModel
from repro.core import CollectiveFile
from repro.datatypes import BYTE, contiguous, resized
from repro.errors import (
    AggregatorLost,
    FileSystemError,
    IntegrityError,
    RankFailed,
    RetryExhausted,
    TransientIOError,
)
from repro.faults import FaultPlan
from repro.fs import SimFileSystem
from repro.fs.store import Journal, PageStore, ReplicatedStore
from repro.integrity import FsckReport, fsck, scrub_store
from repro.io.retry import RetryPolicy
from repro.mpi import Communicator, Hints
from repro.obs.metrics import METRICS_KEY, MetricsRegistry
from repro.sim import Simulator

COST = CostModel(page_size=64, stripe_size=256, num_osts=2)
NPROCS = 4
REGION = 16
COUNT = 12
SIZE = REGION * NPROCS * COUNT
HINTS = Hints(cb_buffer_size=96, cb_nodes=2)
PATH = "/data"


def oracle(ncalls: int = 1) -> np.ndarray:
    """Expected file image after the canonical tiled workload."""
    out = np.zeros(SIZE, dtype=np.uint8)
    for rank in range(NPROCS):
        for t in range(COUNT):
            off = (t * NPROCS + rank) * REGION
            out[off : off + REGION] = rank + ncalls
    return out


def run_workload(plan=None, hints=HINTS, ncalls=1, read_back=False, fs=None, registry=None):
    """The canonical tiled collective write (optionally + read back);
    returns (fs, read-back results per rank, injector).

    ``ncalls=0`` makes it a read-only run.  Close happens only on
    success — closing a handle whose collective just died would hang
    the run in a mismatched barrier, exactly as real MPI would.
    ``registry`` becomes the run's shared metrics registry, so a run
    that raises can still be read."""
    if fs is None:
        fs = SimFileSystem(COST)

    def main(ctx):
        comm = Communicator(ctx, COST)
        f = CollectiveFile(ctx, comm, fs, PATH, hints=hints, cost=COST)
        tile = resized(contiguous(REGION, BYTE), 0, REGION * NPROCS)
        f.set_view(disp=comm.rank * REGION, filetype=tile)
        for c in range(ncalls):
            f.seek(0)
            f.write_all(
                np.full(REGION * COUNT, comm.rank + 1 + c, dtype=np.uint8)
            )
        out = None
        if read_back:
            f.seek(0)
            out = np.zeros(REGION * COUNT, dtype=np.uint8)
            f.read_all(out)
        f.close()
        return out

    sim = Simulator(NPROCS)
    if registry is not None:
        sim.shared[METRICS_KEY] = registry
    injector = plan.install(sim) if plan is not None else None
    results = sim.run(main)
    return fs, results, injector


def chain(exc):
    """Flatten an exception's __cause__/__context__ chain."""
    out, seen = [], set()
    while exc is not None and id(exc) not in seen:
        seen.add(id(exc))
        out.append(exc)
        exc = exc.__cause__ or exc.__context__
    return out


# ---------------------------------------------------------------------------
class TestPageStoreSidecar:
    def test_flip_is_detected_on_read(self):
        store = PageStore(64, integrity=True)
        store.write(0, np.arange(200, dtype=np.uint8))
        store.flip_bit(1, 13)
        with pytest.raises(IntegrityError) as info:
            store.read(64, 64)
        assert info.value.site == "page-read"
        assert info.value.page_index == 1
        # Out-of-band access (oracles, fsck) still works.
        assert store.read(64, 64, verify=False).size == 64
        # Untouched pages stay readable.
        assert store.read(0, 64).size == 64

    def test_verify_all_lists_exactly_the_damage(self):
        store = PageStore(64, integrity=True)
        store.write(0, np.ones(256, dtype=np.uint8))
        store.flip_bit(0, 5)
        store.flip_bit(3, 511)
        assert store.verify_all() == [0, 3]

    def test_no_sidecar_without_integrity(self):
        store = PageStore(64)
        store.write(0, np.ones(64, dtype=np.uint8))
        store.flip_bit(0, 0)
        assert store.verify_all() == []
        store.read(0, 64)  # silent — no sidecar to disagree with

    def test_enable_integrity_trusts_existing_and_is_idempotent(self):
        store = PageStore(64)
        store.write(0, np.full(64, 7, dtype=np.uint8))
        store.enable_integrity()
        assert store.verify_all() == []
        store.enable_integrity()  # no-op, no re-fingerprint surprises
        store.flip_bit(0, 3)
        assert store.verify_all() == [0]

    def test_flip_unallocated_page_rejected(self):
        store = PageStore(64, integrity=True)
        with pytest.raises(FileSystemError):
            store.flip_bit(0, 0)

    def test_write_refreshes_sidecar(self):
        store = PageStore(64, integrity=True)
        store.write(0, np.ones(64, dtype=np.uint8))
        store.flip_bit(0, 9)
        store.write(0, np.full(64, 3, dtype=np.uint8))
        # The overwrite re-stamped the page: damage is gone.
        assert store.verify_all() == []
        assert np.array_equal(store.read(0, 64), np.full(64, 3, dtype=np.uint8))


_PARTIAL_PAGE_STORES = {
    "plain": lambda: PageStore(64, integrity=True),
    "replicated": lambda: ReplicatedStore(64, 256, 2, 2, integrity=True),
    "journal": lambda: Journal(0, PageStore(64, integrity=True)),
}


@pytest.mark.parametrize("kind", sorted(_PARTIAL_PAGE_STORES))
def test_partial_page_write_keeps_an_earlier_flip_detectable(kind):
    """A full page is written and then flipped; a write over part of it
    must not bless the flip.  The write reports the page it kept the old
    sidecar of; reading the page then raises — or, replicated, fails
    over to the replica the flip missed (one failover, which a server
    read counts in ``fs.ost.failovers``) and returns the right bytes."""
    store = _PARTIAL_PAGE_STORES[kind]()
    page = np.array([0]), np.array([64])
    store.write_extents(*page, np.full(64, 5, dtype=np.uint8))
    store.flip_bit(0, 3)
    kept = store.write_extents(np.array([8]), np.array([8]), np.full(8, 9, dtype=np.uint8))
    assert kept == [0]
    out = np.empty(64, dtype=np.uint8)
    if kind == "replicated":
        _, failovers = store.read_extents(*page, out)
        expect = np.full(64, 5, dtype=np.uint8)
        expect[8:16] = 9
        assert failovers == 1
        assert np.array_equal(out, expect)
        return
    with pytest.raises(IntegrityError):
        store.read_extents(*page, out)


def _overwrite_the_flip(kind):
    """Page 0 written, byte 10 flipped, then bytes [8, 16) rewritten: the
    page now holds exactly what was written, flip gone.  Returns the
    store and that page image."""
    store = _PARTIAL_PAGE_STORES[kind]()
    store.write_extents(np.array([0]), np.array([64]), np.full(64, 5, dtype=np.uint8))
    store.flip_bit(0, 10 * 8 + 3)
    store.write_extents(np.array([8]), np.array([8]), np.full(8, 9, dtype=np.uint8))
    expect = np.full(64, 5, dtype=np.uint8)
    expect[8:16] = 9
    return store, expect


@pytest.mark.parametrize("kind", ["plain", "journal"])
@pytest.mark.xfail(
    strict=True,
    raises=IntegrityError,
    reason="false alarm: a partial write that overwrites the flipped byte keeps the "
    "page's old sidecar, which the now-right bytes fail (docs/integrity.md)",
)
def test_partial_page_write_over_the_flipped_byte_reads_back(kind):
    store, expect = _overwrite_the_flip(kind)
    out = np.empty(64, dtype=np.uint8)
    store.read_extents(np.array([0]), np.array([64]), out)
    assert np.array_equal(out, expect)


def test_partial_page_write_over_the_flipped_byte_fails_over_when_replicated():
    """``replication_factor=2``: the flipped replica keeps its old
    sidecar and fails; the read fails over once, to the replica the flip
    missed, and returns the written bytes."""
    store, expect = _overwrite_the_flip("replicated")
    out = np.empty(64, dtype=np.uint8)
    _, failovers = store.read_extents(np.array([0]), np.array([64]), out)
    assert failovers == 1
    assert np.array_equal(out, expect)


def test_partial_page_write_over_a_good_page_re_stamps_it():
    """Only a page that already fails keeps its sidecar: a partial
    write over a clean page, or over a whole flipped page, re-stamps."""
    store = PageStore(64, integrity=True)
    store.write(0, np.full(128, 5, dtype=np.uint8))
    store.flip_bit(1, 3)
    kept = store.write_extents(
        np.array([8, 64]), np.array([8, 64]), np.full(72, 9, dtype=np.uint8)
    )
    assert kept == []
    assert store.verify_all() == []


def test_journal_read_names_the_first_bad_page_in_extent_order():
    """Main page 0 and journal page 2 are both corrupt: whichever extent
    comes first in the batch names the page, as if read one by one (the
    main store's pages of an extent before its journal pages)."""
    main = PageStore(64, integrity=True)
    main.write(0, np.ones(256, dtype=np.uint8))
    txn = Journal(0, main)
    txn.write_extents(np.array([128]), np.array([64]), np.full(64, 2, dtype=np.uint8))
    main.flip_bit(0, 1)
    txn.flip_bit(2, 1)
    for offs, bad in (([128, 0], 2), ([0, 128], 0)):
        with pytest.raises(IntegrityError) as info:
            txn.read_extents(np.array(offs), np.array([64, 64]), np.empty(128, dtype=np.uint8))
        assert info.value.page_index == bad


class TestChecksumSkipsZeroPages:
    def test_hole_equals_explicit_zero_page(self):
        sparse = PageStore(64)
        sparse.write(128, np.full(64, 9, dtype=np.uint8))
        dense = PageStore(64)
        dense.write(0, np.zeros(128, dtype=np.uint8))  # explicit zeros
        dense.write(128, np.full(64, 9, dtype=np.uint8))
        assert sparse.allocated_pages < dense.allocated_pages
        assert sparse.checksum() == dense.checksum()

    def test_nonzero_content_still_distinguishes(self):
        a = PageStore(64)
        a.write(0, np.full(64, 1, dtype=np.uint8))
        b = PageStore(64)
        b.write(0, np.full(64, 2, dtype=np.uint8))
        assert a.checksum() != b.checksum()


class TestTruncate:
    def test_shrink_trims_pages_and_zeroes_boundary_tail(self):
        store = PageStore(64, integrity=True)
        store.write(0, np.full(256, 5, dtype=np.uint8))
        store.truncate(100)
        assert store.size == 100
        assert store.allocated_pages == 2  # pages 2,3 dropped
        # Boundary page's tail must read zero if the file regrows.
        store.truncate(256)
        got = store.read(0, 256)
        assert np.array_equal(got[:100], np.full(100, 5, dtype=np.uint8))
        assert not got[100:].any()
        # Sidecars were maintained through the whole dance.
        assert store.verify_all() == []

    def test_exact_page_boundary_drops_whole_page(self):
        store = PageStore(64)
        store.write(0, np.ones(128, dtype=np.uint8))
        store.truncate(64)
        assert store.allocated_pages == 1
        assert store.size == 64

    def test_grow_is_a_hole(self):
        store = PageStore(64)
        store.write(0, np.ones(10, dtype=np.uint8))
        store.truncate(500)
        assert store.size == 500
        assert store.allocated_pages == 1
        assert not store.read(10, 490).any()

    def test_negative_rejected(self):
        with pytest.raises(FileSystemError):
            PageStore(64).truncate(-1)


# ---------------------------------------------------------------------------
class TestFsck:
    def _store(self):
        store = PageStore(64, integrity=True)
        image = (np.arange(256, dtype=np.int64) % 251).astype(np.uint8)
        store.write(0, image)
        return store, image

    def test_requires_sidecar(self):
        with pytest.raises(FileSystemError):
            scrub_store(PageStore(64))

    def test_report_only_finds_damage_and_repairs_nothing(self):
        store, _ = self._store()
        store.flip_bit(2, 100)
        rep = scrub_store(store, "/x")
        assert isinstance(rep, FsckReport)
        assert rep.bad_pages == [2] and rep.repaired == [] and not rep.clean
        assert store.verify_all() == [2]  # untouched
        assert "BAD" in rep.format()

    def test_repair_zero_drops_page_to_hole(self):
        store, _ = self._store()
        store.flip_bit(1, 3)
        rep = scrub_store(store, "/x", repair="zero")
        assert rep.clean and rep.repaired == [1]
        assert store.verify_all() == []
        assert not store.read(64, 64).any()

    def test_repair_accept_blesses_corruption(self):
        store, image = self._store()
        store.flip_bit(1, 3)
        rep = scrub_store(store, "/x", repair="accept")
        assert rep.clean
        assert store.verify_all() == []
        # The bytes are still wrong — accept makes corruption the truth.
        assert not np.array_equal(store.read(0, 256), image)

    def test_repair_reference_restores_bytes(self):
        store, image = self._store()
        store.flip_bit(0, 7)
        store.flip_bit(3, 42)
        rep = scrub_store(store, "/x", repair="reference", reference=image)
        assert rep.clean and rep.repaired == [0, 3]
        assert np.array_equal(store.read(0, 256), image)

    def test_reference_mode_needs_an_image(self):
        store, _ = self._store()
        with pytest.raises(FileSystemError):
            scrub_store(store, repair="reference")

    def test_unknown_mode_rejected(self):
        store, _ = self._store()
        with pytest.raises(FileSystemError):
            scrub_store(store, repair="pray")

    def test_filesystem_level_scrub(self):
        fs = SimFileSystem(COST)
        image = np.full(128, 6, dtype=np.uint8)
        fs.raw_write("/a", 0, image)
        fs.raw_write("/b", 0, image)
        fs.enable_integrity("/a")
        fs.enable_integrity("/b")
        fs.page_store("/b").flip_bit(1, 17)
        reports = {r.path: r for r in fsck(fs)}
        assert reports["/a"].clean and not reports["/b"].clean
        fsck(fs, "/b", repair="reference", references={"/b": image})
        assert all(r.clean for r in fsck(fs))
        assert np.array_equal(fs.raw_bytes("/b", 0, 128), image)


# ---------------------------------------------------------------------------
class TestEndToEndDetection:
    def test_page_corruption_raises_typed_error_on_read(self):
        hints = HINTS.replace(integrity_pages=True)
        fs, _, injector = run_workload(
            plan=FaultPlan(seed=5).page_bitflip(rate=1.0), hints=hints
        )
        assert injector.registry.value("faults.page.bits_flipped") > 0
        bad = fs.page_store(PATH).verify_all()
        assert bad  # the scrub sees the damage offline...
        # A read-only run must die loudly (a fresh *write* would re-stamp
        # the sidecars and launder the damage — hence ncalls=0).
        reg = MetricsRegistry()
        with pytest.raises(RankFailed) as info:
            run_workload(
                plan=FaultPlan(seed=5), hints=hints, ncalls=0, read_back=True,
                fs=fs, registry=reg,
            )
        hits = [e for e in chain(info.value) if isinstance(e, IntegrityError)]
        assert hits
        assert hits[0].page_index in bad
        assert hits[0].path == PATH
        assert reg.value("faults.page.corruptions_detected") > 0

    def test_page_corruption_is_silent_without_the_hint(self):
        fs, _, injector = run_workload(
            plan=FaultPlan(seed=5).page_bitflip(rate=1.0)
        )
        assert injector.registry.value("faults.page.bits_flipped") > 0
        got = fs.raw_bytes(PATH, 0, SIZE)
        assert not np.array_equal(got, oracle())  # the silent wrong answer
        assert fs.page_store(PATH).verify_all() == []  # nothing to catch it

    def test_net_corruption_detected_and_redelivered(self):
        hints = HINTS.replace(integrity_network=True)
        fs, results, injector = run_workload(
            plan=FaultPlan(seed=3).net_bitflip(rate=0.3),
            hints=hints,
            read_back=True,
        )
        faults = injector.registry
        assert faults.value("faults.net.bits_flipped") > 0
        assert faults.value("faults.net.corruptions_detected") > 0
        assert faults.value("faults.net.redeliveries") > 0
        # Every frame was healed in flight: contents are byte-perfect.
        assert np.array_equal(fs.raw_bytes(PATH, 0, SIZE), oracle())
        for rank, out in enumerate(results):
            assert np.array_equal(
                out, np.full(REGION * COUNT, rank + 1, dtype=np.uint8)
            )

    def test_net_corruption_is_silent_without_the_hint(self):
        fs, _, injector = run_workload(
            plan=FaultPlan(seed=3).net_bitflip(rate=0.3)
        )
        assert injector.registry.value("faults.net.bits_flipped") > 0
        assert injector.registry.value("faults.net.corruptions_detected") == 0
        assert not np.array_equal(fs.raw_bytes(PATH, 0, SIZE), oracle())

    def test_persistent_net_corruption_exhausts_rerequests(self):
        hints = HINTS.replace(integrity_network=True)
        with pytest.raises(RankFailed) as info:
            run_workload(
                plan=FaultPlan(seed=1).net_bitflip(rate=1.0), hints=hints
            )
        hits = [e for e in chain(info.value) if isinstance(e, RetryExhausted)]
        assert hits and hits[0].site == "net-frame"

    def test_fast_path_pays_nothing_with_hints_off(self):
        def timed(hints):
            fs = SimFileSystem(COST)

            def main(ctx):
                comm = Communicator(ctx, COST)
                f = CollectiveFile(ctx, comm, fs, PATH, hints=hints, cost=COST)
                tile = resized(contiguous(REGION, BYTE), 0, REGION * NPROCS)
                f.set_view(disp=comm.rank * REGION, filetype=tile)
                f.write_all(np.full(REGION * COUNT, comm.rank + 1, dtype=np.uint8))
                f.close()
                return ctx.now

            return Simulator(NPROCS).run(main)

        # Hints off must be *identical* to the pre-integrity fast path
        # (not "within noise" — nothing may even look at the config).
        assert timed(HINTS) == timed(HINTS)
        on = timed(HINTS.replace(integrity_pages=True, integrity_network=True))
        assert max(on) >= max(timed(HINTS))


def _every_aggregator_lost(call_index):
    """Both aggregator roles (ranks 0 and 2 under ``HINTS``) lost at
    boundary 1 of ``call_index``: the call dies with AggregatorLost."""
    return (
        FaultPlan(seed=2)
        .agg_crash(rank=0, call_index=call_index, round_index=1)
        .agg_crash(rank=2, call_index=call_index, round_index=1)
    )


# ---------------------------------------------------------------------------
class TestJournal:
    JHINTS = HINTS.replace(journal_writes=True)

    def test_commit_publishes_and_counts(self):
        fs, results, _ = run_workload(hints=self.JHINTS, read_back=True)
        assert np.array_equal(fs.raw_bytes(PATH, 0, SIZE), oracle())
        journal = fs.metrics(PATH)
        assert journal.value("journal.commits") == 1
        assert journal.value("journal.writes") > 0
        assert journal.value("journal.pages_committed") > 0
        assert not fs.txn_active(PATH)
        for rank, out in enumerate(results):
            assert np.array_equal(
                out, np.full(REGION * COUNT, rank + 1, dtype=np.uint8)
            )

    def test_sieving_sees_its_own_journaled_bytes(self):
        # Data sieving pre-reads its window; inside a transaction those
        # reads must overlay the journal's bytes (read-your-writes).
        hints = self.JHINTS.replace(io_method="datasieve")
        fs, _, _ = run_workload(hints=hints, ncalls=2)
        assert np.array_equal(fs.raw_bytes(PATH, 0, SIZE), oracle(ncalls=2))
        assert fs.metrics(PATH).value("journal.commits") == 2

    def test_journal_composes_with_page_integrity(self):
        hints = self.JHINTS.replace(integrity_pages=True)
        fs, _, _ = run_workload(hints=hints)
        assert np.array_equal(fs.raw_bytes(PATH, 0, SIZE), oracle())
        assert fs.page_store(PATH).verify_all() == []
        assert fs.metrics(PATH).value("journal.commits") == 1

    def test_crash_mid_collective_preserves_preimage(self):
        # Call 0 commits; call 1 dies at a phase boundary where both
        # aggregators (ranks 0 and 2) lose their role, so nobody is left
        # to fail over to.  The journal was never committed, so the file
        # must be byte-identical to the post-call-0 image.
        hints = self.JHINTS
        fs, _, _ = run_workload(hints=hints)  # call-free warmup: image P1
        pre = fs.raw_bytes(PATH, 0, SIZE)
        plan = _every_aggregator_lost(call_index=0)
        with pytest.raises(RankFailed) as info:
            run_workload(plan=plan, hints=hints, ncalls=2, fs=fs)
        assert isinstance(info.value.__cause__, AggregatorLost)
        assert np.array_equal(fs.raw_bytes(PATH, 0, SIZE), pre)
        assert fs.txn_active(PATH)  # the orphaned journal survives...
        assert fs.metrics(PATH).value("journal.commits") == 1  # ...uncommitted

    def test_stale_journal_is_discarded_not_committed(self):
        # Crash the *second* call (txid 1), then run a fresh workload
        # without an injector (txid 0): txn_begin must treat the
        # leftover journal as a crash remnant and discard it.
        hints = self.JHINTS
        plan = _every_aggregator_lost(call_index=1)
        fs = SimFileSystem(COST)
        with pytest.raises(RankFailed) as info:
            run_workload(plan=plan, hints=hints, ncalls=2, fs=fs)
        assert isinstance(info.value.__cause__, AggregatorLost)
        assert fs.txn_active(PATH)
        aborts_before = fs.metrics(PATH).value("journal.aborts")
        fs2, _, _ = run_workload(hints=self.JHINTS, fs=fs)
        assert fs2.metrics(PATH).value("journal.aborts") == aborts_before + 1
        assert np.array_equal(fs2.raw_bytes(PATH, 0, SIZE), oracle())

    def test_crash_with_failover_still_commits(self):
        plan = FaultPlan(seed=2).agg_crash(rank=0, call_index=0, round_index=1)
        fs, _, injector = run_workload(plan=plan, hints=self.JHINTS)
        assert injector.registry.value("faults.agg.crashes") == 1
        assert np.array_equal(fs.raw_bytes(PATH, 0, SIZE), oracle())
        assert fs.metrics(PATH).value("journal.commits") == 1
        assert not fs.txn_active(PATH)

    @pytest.mark.parametrize("factor", [1, 2])
    def test_commit_verifies_every_run_before_publishing_any(self, factor):
        # Two journal runs, [0, 64) and [512, 576); only the second
        # write (after t=1) gets its shadow page flipped.  The commit
        # must refuse the whole transaction, not publish run one and
        # then raise on run two.
        fs = SimFileSystem(COST)
        fs.ensure_file(PATH)
        fs.enable_integrity(PATH)
        fs.enable_replication(PATH, factor)
        pre = np.full(1024, 7, dtype=np.uint8)
        fs.raw_write(PATH, 0, pre)

        def main(ctx):
            fs.txn_begin(PATH, 1)
            fs.server_write(ctx, 0, PATH, [0], [64], np.ones(64, np.uint8), journaled=True)
            ctx.charge_to(1.0)
            fs.server_write(ctx, 0, PATH, [512], [64], np.full(64, 2, np.uint8), journaled=True)
            with pytest.raises(IntegrityError) as info:
                fs.txn_commit(ctx, 0, PATH)
            return info.value.site, info.value.page_index

        sim = Simulator(1)
        inj = FaultPlan(seed=1).page_bitflip(rate=1.0, start=1.0).install(sim)
        assert sim.run(main) == [("journal-commit", 8)]
        assert inj.registry.value("faults.page.bits_flipped") == 1
        assert np.array_equal(fs.raw_bytes(PATH, 0, 1024), pre)
        assert fs.page_store(PATH).verify_all() == []
        assert fs.metrics(PATH).value("journal.commits") == 0
        assert fs.txn_active(PATH)  # the journal is intact: abort or retry


class TestJournalOldImpl:
    """The call bracket is shared, so ``journal_writes`` is honoured by
    whichever planner runs (the old driver used to ignore it; its
    ``agg_crash`` cases stay new-only — the old planner has no failover)."""

    JHINTS = TestJournal.JHINTS.replace(coll_impl="old")
    test_commit_publishes_and_counts = TestJournal.test_commit_publishes_and_counts
    test_sieving_sees_its_own_journaled_bytes = (
        TestJournal.test_sieving_sees_its_own_journaled_bytes
    )
    test_journal_composes_with_page_integrity = (
        TestJournal.test_journal_composes_with_page_integrity
    )


# ---------------------------------------------------------------------------
class TestResize:
    def test_collective_set_size_shrink_then_grow(self):
        fs = SimFileSystem(COST)
        cut = SIZE // 2

        def main(ctx):
            comm = Communicator(ctx, COST)
            f = CollectiveFile(ctx, comm, fs, PATH, hints=HINTS, cost=COST)
            tile = resized(contiguous(REGION, BYTE), 0, REGION * NPROCS)
            f.set_view(disp=comm.rank * REGION, filetype=tile)
            f.write_all(np.full(REGION * COUNT, comm.rank + 1, dtype=np.uint8))
            f.set_size(cut)
            size_after_shrink = f.size
            f.set_size(SIZE)
            f.close()
            return size_after_shrink

        sizes = Simulator(NPROCS).run(main)
        assert all(s == cut for s in sizes)
        assert fs.file_size(PATH) == SIZE
        got = fs.raw_bytes(PATH, 0, SIZE)
        assert np.array_equal(got[:cut], oracle()[:cut])
        assert not got[cut:].any()  # truncated tail regrew as zeros

    def test_shrink_keeps_sidecars_consistent(self):
        fs = SimFileSystem(COST)
        hints = HINTS.replace(integrity_pages=True)

        def main(ctx):
            comm = Communicator(ctx, COST)
            f = CollectiveFile(ctx, comm, fs, PATH, hints=hints, cost=COST)
            tile = resized(contiguous(REGION, BYTE), 0, REGION * NPROCS)
            f.set_view(disp=comm.rank * REGION, filetype=tile)
            f.write_all(np.full(REGION * COUNT, comm.rank + 1, dtype=np.uint8))
            f.set_size(100)  # mid-page cut: boundary tail gets zeroed
            f.close()

        Simulator(NPROCS).run(main)
        assert fs.file_size(PATH) == 100
        assert fs.page_store(PATH).verify_all() == []

    def test_negative_size_rejected(self):
        fs = SimFileSystem(COST)

        def main(ctx):
            comm = Communicator(ctx, COST)
            f = CollectiveFile(ctx, comm, fs, PATH, hints=HINTS, cost=COST)
            f.set_size(-1)

        with pytest.raises(RankFailed):
            Simulator(NPROCS).run(main)


# ---------------------------------------------------------------------------
class _FakeCtx:
    """Just enough RankContext for RetryPolicy: a shared map and a
    backoff clock that records what it was charged."""

    def __init__(self):
        self.shared = {}
        self.delays = []

    def advance(self, dt):
        self.delays.append(dt)


class TestBackoffCap:
    def test_delay_is_capped(self):
        ctx = _FakeCtx()
        policy = RetryPolicy(retries=6, backoff=0.1)
        calls = {"n": 0}

        def op():
            calls["n"] += 1
            if calls["n"] <= 4:
                raise TransientIOError("unit", 0)
            return 7

        assert policy.run(ctx, op) == 7
        # backoff doubles (BACKOFF_FACTOR) up to the BACKOFF_MAX ceiling
        assert ctx.delays == [0.1, 0.2, 0.25, 0.25]

    def test_cap_and_factor_are_constants_not_settings(self):
        # Nothing outside the tests ever set them: no hint, no policy field.
        from repro.errors import HintError

        with pytest.raises(HintError):
            Hints(retry_backoff_max=0.5)
        with pytest.raises(TypeError):
            RetryPolicy(backoff_max=0.5)
        with pytest.raises(TypeError):
            RetryPolicy(backoff_factor=4.0)


# ---------------------------------------------------------------------------
class TestChaosAcceptance:
    def test_every_flip_detected_with_integrity_on(self):
        report = ChaosHarness("bit-flip:42", integrity=True).sweep()
        assert report.all_verified
        flips = sum(
            p.counters.get("faults.page.bits_flipped", 0)
            + p.counters.get("faults.net.bits_flipped", 0)
            for p in report.points
        )
        assert flips > 0  # the sweep actually injected corruption
        assert any(p.detected for p in report.points)

    def test_same_sweep_is_silent_corruption_without_integrity(self):
        report = ChaosHarness("bit-flip:42").sweep()
        assert not report.all_verified
