"""Tests for ByteRuns, the bench harness, and reporting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import BenchResult, run_collective, run_hpio_write
from repro.bench.reporting import format_series, format_table
from repro.errors import FileSystemError
from repro.fs.runs import ByteRuns
from repro.hpio.patterns import HPIOPattern
from repro.mpi import Hints


class TestByteRuns:
    def test_add_and_iterate(self):
        r = ByteRuns()
        r.add(5, 10)
        r.add(20, 25)
        assert list(r) == [(5, 10), (20, 25)]
        assert r.total == 10

    def test_merge_overlapping(self):
        r = ByteRuns()
        r.add(0, 10)
        r.add(5, 15)
        assert list(r) == [(0, 15)]

    def test_merge_touching(self):
        r = ByteRuns()
        r.add(0, 10)
        r.add(10, 20)
        assert list(r) == [(0, 20)]

    def test_bridge_multiple(self):
        r = ByteRuns()
        r.add(0, 5)
        r.add(10, 15)
        r.add(20, 25)
        r.add(4, 21)
        assert list(r) == [(0, 25)]

    def test_insert_before_and_after(self):
        r = ByteRuns()
        r.add(10, 20)
        r.add(0, 5)
        r.add(30, 40)
        assert list(r) == [(0, 5), (10, 20), (30, 40)]

    def test_gaps_tell_coverage(self):
        r = ByteRuns()
        r.add(10, 20)
        assert r.gaps(10, 20) == [] and r.gaps(12, 15) == []
        assert r.gaps(5, 12) == [(5, 10)]
        assert r.gaps(18, 25) == [(20, 25)]
        assert r.gaps(7, 7) == []  # empty range always covered
        r.add(21, 30)
        assert r.gaps(15, 25) == [(20, 21)]  # byte 20 is missing
        r.add(20, 21)
        assert r.gaps(15, 25) == []

    def test_touching_merge_on_both_sides(self):
        r = ByteRuns()
        r.add(0, 10)
        r.add(20, 30)
        r.add(10, 20)  # touches both neighbours: all three become one
        assert list(r) == [(0, 30)]
        assert len(r) == 1

    def test_remove_splits_and_trims(self):
        r = ByteRuns()
        r.add(0, 100)
        r.remove(40, 60)  # strictly inside: split in two
        assert list(r) == [(0, 40), (60, 100)]
        r.remove(30, 70)  # trims both survivors
        assert list(r) == [(0, 30), (70, 100)]
        r.remove(0, 30)  # exactly one run
        assert list(r) == [(70, 100)]
        r.remove(200, 300)  # nothing there
        assert list(r) == [(70, 100)]
        r.remove(0, 1000)
        assert r.empty

    def test_remove_spanning_many_runs(self):
        r = ByteRuns()
        for lo in range(0, 100, 10):
            r.add(lo, lo + 5)
        r.remove(12, 83)
        assert list(r) == [(0, 5), (10, 12), (83, 85), (90, 95)]

    def test_zero_length_queries(self):
        r = ByteRuns()
        r.add(0, 10)
        r.remove(5, 5)  # must not split the run
        assert list(r) == [(0, 10)]
        assert not r.overlaps(5, 5)
        assert r.intersect(5, 5) == []
        assert r.gaps(5, 5) == []
        with pytest.raises(FileSystemError):
            r.remove(5, 4)

    def test_intersect_gaps_overlaps(self):
        r = ByteRuns()
        r.add(10, 20)
        r.add(30, 40)
        assert r.intersect(15, 35) == [(15, 20), (30, 35)]
        assert r.intersect(20, 30) == []
        assert r.gaps(0, 50) == [(0, 10), (20, 30), (40, 50)]
        assert r.gaps(12, 18) == []
        assert r.gaps(15, 35) == [(20, 30)]
        assert r.overlaps(19, 31) and not r.overlaps(20, 30)

    def test_mask(self):
        r = ByteRuns()
        assert not r.mask(np.array([0, 5])).any()
        r.add(10, 20)
        r.add(30, 40)
        got = r.mask(np.array([9, 10, 19, 20, 29, 30, 39, 40]))
        assert got.tolist() == [False, True, True, False, False, True, True, False]

    def test_many_runs(self):
        """Thousands of runs (a sparse flush's dirty set, a long
        outage's stale set): every operation stays local to the runs it
        touches and the set stays sorted, disjoint and non-touching."""
        r = ByteRuns()
        n = 5000
        for k in list(range(0, n, 2)) + list(range(1, n, 2)):  # evens, then odds
            r.add(k * 10, k * 10 + 4)
        assert len(r) == n and r.total == 4 * n
        assert list(r)[:2] == [(0, 4), (10, 14)]
        assert r.gaps(n * 5, n * 5 + 4) == [] and r.gaps(n * 5, n * 5 + 5) == [(n * 5 + 4, n * 5 + 5)]
        assert r.intersect(20_002, 20_022) == [(20_002, 20_004), (20_010, 20_014), (20_020, 20_022)]
        r.remove(100, (n - 10) * 10)
        assert len(r) == 20
        r.add(0, n * 10)
        assert list(r) == [(0, n * 10)]

    def test_clear_and_empty(self):
        r = ByteRuns()
        r.add(0, 4)
        assert not r.empty
        r.clear()
        assert r.empty
        assert r.total == 0

    def test_zero_length_ignored(self):
        r = ByteRuns()
        r.add(5, 5)
        assert r.empty

    def test_invalid_rejected(self):
        r = ByteRuns()
        with pytest.raises(FileSystemError):
            r.add(5, 4)
        with pytest.raises(FileSystemError):
            r.add(-1, 4)

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 60), st.integers(0, 12)), max_size=30
        ),
        st.integers(0, 70),
        st.integers(0, 20),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_set_oracle(self, ops, qlo, qwidth):
        r = ByteRuns()
        oracle = set()
        for add, lo, width in ops:
            if add:
                r.add(lo, lo + width)
                oracle.update(range(lo, lo + width))
            else:
                r.remove(lo, lo + width)
                oracle.difference_update(range(lo, lo + width))
        got = set()
        prev_end = None
        for s, e in r:
            assert s < e
            if prev_end is not None:
                assert s > prev_end  # disjoint, sorted, non-touching
            prev_end = e
            got.update(range(s, e))
        assert got == oracle
        assert r.total == len(oracle)
        query = set(range(qlo, qlo + qwidth))
        assert {b for s, e in r.intersect(qlo, qlo + qwidth) for b in range(s, e)} == query & oracle
        assert {b for s, e in r.gaps(qlo, qlo + qwidth) for b in range(s, e)} == query - oracle
        assert r.overlaps(qlo, qlo + qwidth) == bool(query & oracle)
        points = np.arange(0, 80)
        assert set(points[r.mask(points)].tolist()) == oracle


class TestBenchHarness:
    def test_hpio_run_verified_and_counted(self):
        p = HPIOPattern(nprocs=4, region_size=16, region_count=8)
        r = run_hpio_write(p, impl="new", representation="succinct", hints=Hints(cb_nodes=2))
        assert r.verified
        assert r.total_bytes == p.total_bytes
        assert r.sim_seconds > 0
        assert r.bandwidth_mbs > 0
        assert r.metrics.total("fs.bytes.written") >= p.total_bytes
        assert r.params["impl"] == "new"

    def test_old_impl_representation_forced(self):
        p = HPIOPattern(nprocs=2, region_size=16, region_count=4)
        r = run_hpio_write(p, impl="old", representation="enumerated")
        assert r.params["representation"] == "succinct"

    def test_run_collective_timing_brackets_ops(self):
        def body(ctx, comm, f):
            f.write_all(np.zeros(256, dtype=np.uint8))
            return 256

        result, fs = run_collective(2, body, hints=Hints(), label="t")
        assert result.total_bytes == 512
        assert result.sim_seconds > 0

    def test_benchresult_str_and_inf(self):
        r = BenchResult(label="x", nprocs=1, total_bytes=1024, sim_seconds=0.0)
        assert r.bandwidth_mbs == float("inf")
        r2 = BenchResult(label="y", nprocs=1, total_bytes=1 << 20, sim_seconds=1.0, verified=True)
        assert "OK" in str(r2)
        assert abs(r2.bandwidth_mbs - 1.0) < 1e-9


class TestReporting:
    def _results(self):
        out = []
        for method in ("a", "b"):
            for x in (1, 2):
                out.append(
                    BenchResult(
                        label=f"{method}{x}",
                        nprocs=2,
                        total_bytes=x << 20,
                        sim_seconds=1.0,
                        params={"method": method, "x": x},
                    )
                )
        return out

    def test_format_series_alignment(self):
        series = {"a": {1: 1.0, 2: 2.0}, "b": {1: 1.0, 2: 2.0}}
        text = format_series("Title", series, x_label="x")
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "x" in lines[2]
        assert len(lines) == 5  # title, rule, header, two x rows

    def test_format_series_missing_cells(self):
        text = format_series("T", {"m": {1: 5.0}, "n": {2: 6.0}})
        assert "5.00" in text and "6.00" in text

    def test_format_table(self):
        text = format_table("T", [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}])
        assert "2.50" in text
        assert "0.12" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table("T", [])
