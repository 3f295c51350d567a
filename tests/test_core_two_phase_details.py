"""Focused tests of two-phase internals: plan clipping, cost counters,
PFR state, conditional selection within the drivers, and exchange
backends' cost structure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CostModel
from repro.core import CollectiveFile
from repro.core.pfr import PFRState
from repro.core.realms import FileRealm, RealmDomain
from repro.datatypes import BYTE, contiguous, resized
from repro.errors import CollectiveIOError
from repro.fs import SimFileSystem
from repro.mpi import Communicator, Hints
from repro.sim import Simulator

COST = CostModel(page_size=64, stripe_size=256, num_osts=2)


def run(nprocs, body, hints=None, cost=COST, lock_granularity=None, path="/f"):
    fs = SimFileSystem(cost, lock_granularity=lock_granularity)
    hints = hints or Hints()

    def main(ctx):
        comm = Communicator(ctx, cost)
        f = CollectiveFile(ctx, comm, fs, path, hints=hints, cost=cost)
        try:
            return body(ctx, comm, f)
        finally:
            f.close()

    return Simulator(nprocs).run(main), fs


class TestRoundClipping:
    def test_sparse_cluster_does_not_inflate_rounds(self):
        """A tiny access 1 GB away must not generate hundreds of empty
        rounds (the ROMIO st_loc/end_loc behaviour)."""

        def body(ctx, comm, f):
            if comm.rank == 0:
                f.set_view(disp=0, filetype=contiguous(4096, BYTE))
            else:
                f.set_view(disp=1 << 30, filetype=contiguous(4096, BYTE))
            f.write_all(np.full(4096, comm.rank + 1, dtype=np.uint8))
            return f.metrics.value("coll.rounds")

        for impl in ("new", "old"):
            results, fs = run(2, body, Hints(coll_impl=impl))
            assert max(results) <= 2, impl
            assert fs.raw_bytes("/f", 0, 1).tolist() == [1]
            assert fs.raw_bytes("/f", 1 << 30, 1).tolist() == [2]

    def test_domain_clip(self):
        realm = FileRealm.interval(0, 1000)
        dom = realm.domain(0, 1000)
        clipped = dom.clip(100, 300)
        assert clipped.total_bytes == 200
        assert clipped.starts[0] == 100

    def test_domain_clip_empty(self):
        dom = FileRealm.interval(0, 100).domain(0, 100)
        assert dom.clip(200, 300).total_bytes == 0
        assert dom.clip(50, 50).total_bytes == 0

    def test_domain_clip_multi_interval(self):
        from repro.core.realms import make_cyclic_realms

        dom = make_cyclic_realms(2, 10)[0].domain(0, 100)  # [0,10),[20,30),...
        clipped = dom.clip(5, 45)
        assert list(zip(clipped.starts.tolist(), clipped.ends.tolist())) == [
            (5, 10), (20, 30), (40, 45)
        ]


class TestCostCounters:
    def _run_pattern(self, representation, nprocs=4, aggs=4):
        from repro.hpio.patterns import HPIOPattern
        from repro.hpio.verify import fill_pattern

        pattern = HPIOPattern(nprocs=nprocs, region_size=8, region_count=32, mem_contig=True)

        def body(ctx, comm, f):
            rank = comm.rank
            f.set_view(
                disp=pattern.file_disp(rank),
                filetype=pattern.filetype(rank, representation),
            )
            f.write_all(fill_pattern(pattern, rank))
            return f.metrics.snapshot()

        results, _ = run(nprocs, body, Hints(cb_nodes=aggs))
        return results

    def test_enumerated_evaluates_more_pairs(self):
        succinct = self._run_pattern("succinct")
        enumerated = self._run_pattern("enumerated")
        s_pairs = sum(r["coll.client.pairs"] for r in succinct)
        e_pairs = sum(r["coll.client.pairs"] for r in enumerated)
        assert e_pairs > s_pairs * 2

    def test_succinct_skips_tiles(self):
        succinct = self._run_pattern("succinct")
        assert sum(r["coll.client.tiles_skipped"] for r in succinct) > 0
        enumerated = self._run_pattern("enumerated")
        assert sum(r["coll.client.tiles_skipped"] for r in enumerated) == 0

    def test_meta_bytes_scale_with_representation(self):
        succinct = self._run_pattern("succinct")
        enumerated = self._run_pattern("enumerated")
        assert sum(r["coll.meta.bytes"] for r in enumerated) > 10 * sum(
            r["coll.meta.bytes"] for r in succinct
        )

    def test_old_impl_counts_flatten_passes(self):
        from repro.hpio.patterns import HPIOPattern
        from repro.hpio.verify import fill_pattern

        pattern = HPIOPattern(nprocs=2, region_size=8, region_count=16)

        def body(ctx, comm, f):
            f.set_view(
                disp=pattern.file_disp(comm.rank),
                filetype=pattern.filetype(comm.rank, "succinct"),
            )
            f.write_all(fill_pattern(pattern, comm.rank))
            return f.metrics.snapshot()

        results, _ = run(2, body, Hints(coll_impl="old"))
        # Flatten pass + partition pass: at least 2*M pair charges.
        assert all(r["coll.client.pairs"] >= 32 for r in results)

    def test_exchange_bytes_match_data(self):
        def body(ctx, comm, f):
            f.set_view(disp=comm.rank * 16, filetype=resized(contiguous(16, BYTE), 0, 32))
            f.write_all(np.zeros(64, dtype=np.uint8))
            return f.metrics.value("exchange.bytes")

        results, _ = run(2, body)
        assert sum(results) == 128  # every data byte moves exactly once


class TestPFRState:
    def test_realms_persist_across_calls(self):
        state = PFRState()
        first = state.realms_for(0, 1000, 4, 0)
        second = state.realms_for(500, 2000, 4, 0)  # different AAR
        assert first is second
        assert state.block == 250

    def test_alignment_rounds_down(self):
        state = PFRState()
        state.realms_for(0, 1000, 4, alignment=64)
        assert state.block == 192  # floor(250/64)*64

    def test_alignment_minimum_one_unit(self):
        state = PFRState()
        state.realms_for(0, 100, 4, alignment=64)
        assert state.block == 64

    def test_agg_count_change_rejected(self):
        state = PFRState()
        state.realms_for(0, 1000, 4, 0)
        with pytest.raises(CollectiveIOError):
            state.realms_for(0, 1000, 8, 0)

    def test_pfr_covers_unseen_regions(self):
        state = PFRState()
        realms = state.realms_for(0, 1000, 4, 0)
        far = sum(r.domain(10**6, 10**6 + 1000).total_bytes for r in realms)
        assert far == 1000  # anchored at zero, tiles forever

    def test_pfr_collective_reuses_realms(self):
        def body(ctx, comm, f):
            f.set_view(disp=comm.rank * 16, filetype=resized(contiguous(16, BYTE), 0, 32))
            f.write_all(np.full(64, 1, dtype=np.uint8))
            block_after_first = f.pfr.block
            f.write_all(np.full(64, 2, dtype=np.uint8))
            return (block_after_first, f.pfr.block)

        results, _ = run(2, body, Hints(persistent_file_realms=True))
        assert all(a == b and a > 0 for a, b in results)


class TestCoherenceProtocol:
    def test_non_pfr_incoherent_syncs_every_write(self):
        def body(ctx, comm, f):
            f.set_view(disp=comm.rank * 64, filetype=resized(contiguous(64, BYTE), 0, 128))
            for _ in range(3):
                f.write_all(np.zeros(128, dtype=np.uint8))
            return f.metrics.value("coll.coherence.flush_pages")

        results, fs = run(2, body, Hints(cache_mode="incoherent"))
        assert sum(results) > 0
        # Every byte is on the server even before close.

    def test_pfr_defers_flushes(self):
        def body(ctx, comm, f):
            f.set_view(disp=comm.rank * 64, filetype=resized(contiguous(64, BYTE), 0, 128))
            for _ in range(3):
                f.write_all(np.zeros(128, dtype=np.uint8))
            return f.metrics.value("coll.coherence.flush_pages")

        results, _ = run(
            2, body, Hints(cache_mode="incoherent", persistent_file_realms=True)
        )
        assert sum(results) == 0

    def test_pfr_read_after_write_correct(self):
        """With PFRs the same aggregator owns each byte, so reads are
        correct even though caches never invalidate."""

        def body(ctx, comm, f):
            f.set_view(disp=comm.rank * 64, filetype=resized(contiguous(64, BYTE), 0, 128))
            data = np.full(128, comm.rank + 7, dtype=np.uint8)
            f.write_all(data)
            f.seek(0)
            out = np.zeros_like(data)
            f.read_all(out)
            return np.array_equal(out, data)

        results, _ = run(
            2, body, Hints(cache_mode="incoherent", persistent_file_realms=True)
        )
        assert all(results)


class TestWindowGeometry:
    def test_window_rejects_offset_outside(self):
        realm = FileRealm.interval(10, 20)
        w = realm.domain(0, 100).window(0, 100)
        with pytest.raises(CollectiveIOError):
            w.to_buffer(np.array([3]))

    def test_realm_domain_drops_empty_intervals(self):
        dom = RealmDomain(np.array([0, 10]), np.array([0, 20]))
        assert dom.starts.tolist() == [10]

    def test_interval_realm_validation(self):
        with pytest.raises(CollectiveIOError):
            FileRealm.interval(10, 5)
