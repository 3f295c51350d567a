"""Fast, scaled-down checks of the paper's headline behavioural claims.

The full figure reproductions live in benchmarks/; these miniatures run
in seconds and pin the *mechanisms* so a regression is caught by plain
``pytest tests/``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.harness import run_hpio_write, run_timeseries
from repro.config import DEFAULT_COST_MODEL
from repro.hpio.patterns import HPIOPattern
from repro.hpio.timeseries import TimeSeriesPattern
from repro.mpi import Hints


def hpio(region, count=256, nprocs=16, spacing=128, mem_contig=False):
    return HPIOPattern(
        nprocs=nprocs,
        region_size=region,
        region_count=count,
        region_spacing=spacing,
        mem_contig=mem_contig,
    )


class TestFig4Shape:
    """old >= new+struct > new+vect (§6.2)."""

    @pytest.fixture(scope="class")
    def rates(self):
        pattern = hpio(64)
        out = {}
        for label, impl, rep in (
            ("old", "old", "succinct"),
            ("struct", "new", "succinct"),
            ("vect", "new", "enumerated"),
        ):
            out[label] = run_hpio_write(
                pattern, impl=impl, representation=rep, hints=Hints(cb_nodes=8)
            )
        return out

    def test_all_verified(self, rates):
        assert all(r.verified for r in rates.values())

    def test_ordering(self, rates):
        assert rates["old"].bandwidth_mbs >= rates["struct"].bandwidth_mbs * 0.98
        assert rates["struct"].bandwidth_mbs > rates["vect"].bandwidth_mbs

    def test_processing_explains_it(self, rates):
        struct_pairs = rates["struct"].metrics.total("coll.client.pairs")
        vect_pairs = rates["vect"].metrics.total("coll.client.pairs")
        assert vect_pairs > struct_pairs * 3
        assert rates["struct"].metrics.total("coll.client.tiles_skipped") > 0

    def test_metadata_volume(self, rates):
        assert (
            rates["vect"].metrics.total("coll.meta.bytes")
            > 5 * rates["old"].metrics.total("coll.meta.bytes")
        )


class TestFig5Shape:
    """Datasieve wins small extents, naive wins large; the conditional
    hint tracks the winner (§6.3)."""

    def _rate(self, extent, frac, method, nprocs=8):
        region = max((int(extent * frac) // 32) * 32, 32)
        file_bytes = 8 << 20
        count = max(file_bytes // extent // nprocs, 1)
        pattern = HPIOPattern(
            nprocs=nprocs,
            region_size=region,
            region_count=count,
            region_spacing=extent - region,
            mem_contig=True,
        )
        return run_hpio_write(
            pattern,
            impl="new",
            representation="succinct",
            hints=Hints(cb_nodes=4, io_method=method),
        ).bandwidth_mbs

    def test_small_extent_sieve_wins(self):
        assert self._rate(1024, 0.5, "datasieve") > 2 * self._rate(1024, 0.5, "naive")

    def test_large_extent_naive_wins(self):
        assert self._rate(65536, 0.5, "naive") > self._rate(65536, 0.5, "datasieve")

    def test_conditional_matches_winner_both_sides(self):
        for extent in (1024, 65536):
            ds = self._rate(extent, 0.5, "datasieve")
            nv = self._rate(extent, 0.5, "naive")
            cond = self._rate(extent, 0.5, "conditional")
            assert cond >= 0.95 * max(ds, nv), (extent, ds, nv, cond)


class TestFig7Shape:
    """PFRs let an incoherent write-back cache work; alignment silences
    the lock manager (§6.4)."""

    @pytest.fixture(scope="class")
    def rates(self):
        ts = TimeSeriesPattern(
            nprocs=8, element_size=32, elems_per_point=100, points=1024, timesteps=4
        )
        out = {}
        for label, pfr, align in (
            ("pfr_align", True, True),
            ("pfr_noalign", True, False),
            ("nopfr_align", False, True),
        ):
            hints = Hints(
                cb_nodes=4,
                cache_mode="incoherent",
                persistent_file_realms=pfr,
                realm_alignment=DEFAULT_COST_MODEL.stripe_size if align else 0,
                cache_pages=4096,
                io_method="datasieve",
            )
            out[label] = run_timeseries(
                ts,
                hints=hints,
                lock_granularity=DEFAULT_COST_MODEL.stripe_size,
                verify=True,
            )
        return out

    def test_all_configs_correct(self, rates):
        assert all(r.verified for r in rates.values())

    def test_pfr_much_faster_than_nonpfr(self, rates):
        assert (
            rates["pfr_align"].bandwidth_mbs
            > 2 * rates["nopfr_align"].bandwidth_mbs
        )

    def test_alignment_silences_locks(self, rates):
        aligned = rates["pfr_align"].metrics.total("lock.revocations")
        misaligned = rates["pfr_noalign"].metrics.total("lock.revocations")
        assert aligned == 0
        assert misaligned > 0

    def test_pfr_defers_writes_to_the_server(self, rates):
        assert (
            rates["pfr_align"].metrics.total("fs.server.writes")
            < rates["nopfr_align"].metrics.total("fs.server.writes")
        )

    def test_pfr_avoids_partial_page_rmw(self, rates):
        assert (
            rates["pfr_align"].metrics.total("fs.rmw.pages")
            < rates["nopfr_align"].metrics.total("fs.rmw.pages") / 4
        )
