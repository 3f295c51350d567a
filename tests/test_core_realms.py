"""Tests for file realms, strategies, domains, and windows."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import select_aggregators
from repro.core.plan import access_histogram
from repro.core.realms import (
    AlignedPartition,
    BalancedPartition,
    EvenPartition,
    FileRealm,
    make_contiguous_realms,
    make_cyclic_realms,
)
from repro.datatypes.segments import FlatCursor, SegmentBatch
from repro.errors import CollectiveIOError
from test_client_routing import accesses


class TestSelectAggregators:
    def test_all_by_default(self):
        assert select_aggregators(4, 0) == [0, 1, 2, 3]

    def test_subset_spread(self):
        assert select_aggregators(8, 4) == [0, 2, 4, 6]

    def test_more_than_size_clamped(self):
        assert select_aggregators(3, 10) == [0, 1, 2]

    def test_uneven_spread(self):
        aggs = select_aggregators(10, 3)
        assert len(aggs) == 3
        assert aggs[0] == 0
        assert aggs == sorted(aggs)

    def test_invalid(self):
        with pytest.raises(CollectiveIOError):
            select_aggregators(0, 1)
        with pytest.raises(CollectiveIOError):
            select_aggregators(4, -1)


class TestEvenPartition:
    def test_covers_and_partitions(self):
        realms = EvenPartition().assign(100, 500, 4)
        doms = [r.domain(100, 500) for r in realms]
        assert sum(d.total_bytes for d in doms) == 400
        assert doms[0].starts[0] == 100
        assert doms[-1].ends[-1] == 500

    def test_disjoint(self):
        realms = EvenPartition().assign(0, 1000, 3)
        ivs = []
        for r in realms:
            d = r.domain(0, 1000)
            ivs += list(zip(d.starts.tolist(), d.ends.tolist()))
        ivs.sort()
        for (s0, e0), (s1, e1) in zip(ivs, ivs[1:]):
            assert e0 <= s1

    def test_empty_region(self):
        realms = EvenPartition().assign(5, 5, 4)
        assert all(r.domain(5, 5).total_bytes == 0 for r in realms)


class TestAlignedPartition:
    def test_interior_boundaries_snapped(self):
        realms = AlignedPartition(64).assign(0, 1000, 4)
        doms = [r.domain(0, 1000) for r in realms]
        # Coverage preserved.
        assert sum(d.total_bytes for d in doms) == 1000
        # Interior boundaries are multiples of 64.
        for d in doms[1:]:
            if d.total_bytes:
                assert d.starts[0] % 64 == 0

    def test_alignment_creates_imbalance(self):
        realms = AlignedPartition(256).assign(0, 1000, 4)
        sizes = [r.domain(0, 1000).total_bytes for r in realms]
        assert max(sizes) > min(sizes)  # snapping is not free

    def test_first_boundary_not_snapped_below_start(self):
        realms = AlignedPartition(64).assign(100, 500, 2)
        d0 = realms[0].domain(100, 500)
        assert d0.starts[0] == 100

    def test_invalid_alignment(self):
        with pytest.raises(CollectiveIOError):
            AlignedPartition(0)


class TestBalancedPartition:
    def test_skewed_histogram_shifts_boundaries(self):
        # All data in the first quarter: even realms would starve 3 of 4.
        hist = np.zeros(256, dtype=np.int64)
        hist[:64] = 100
        strat = BalancedPartition()
        realms = strat.assign(0, 4096, 4, histogram=hist)
        sizes = [r.domain(0, 4096).total_bytes for r in realms]
        # First realm is much smaller than an even split's 1024 span.
        assert sizes[0] < 512
        assert sum(sizes) == 4096

    def test_uniform_histogram_close_to_even(self):
        hist = np.full(256, 10, dtype=np.int64)
        realms = BalancedPartition().assign(0, 4096, 4, histogram=hist)
        sizes = [r.domain(0, 4096).total_bytes for r in realms]
        assert max(sizes) - min(sizes) <= 4096 // 256 + 1

    def test_no_histogram_falls_back_to_even(self):
        a = BalancedPartition().assign(0, 400, 4, histogram=None)
        b = EvenPartition().assign(0, 400, 4)
        assert [r.describe() for r in a] == [r.describe() for r in b]


class TestCyclicRealms:
    def test_block_cyclic_ownership(self):
        realms = make_cyclic_realms(3, 10)
        d0 = realms[0].domain(0, 100)
        assert d0.starts.tolist() == [0, 30, 60, 90]
        d1 = realms[1].domain(0, 100)
        assert d1.starts.tolist() == [10, 40, 70]

    def test_partition_of_any_range(self):
        realms = make_cyclic_realms(4, 7)
        lo, hi = 13, 113
        total = sum(r.domain(lo, hi).total_bytes for r in realms)
        assert total == hi - lo

    def test_unbounded(self):
        realms = make_cyclic_realms(2, 8)
        far = realms[0].domain(10**7, 10**7 + 64)
        assert far.total_bytes == 32

    def test_invalid(self):
        with pytest.raises(CollectiveIOError):
            make_cyclic_realms(0, 8)
        with pytest.raises(CollectiveIOError):
            make_cyclic_realms(2, 0)


class TestWindows:
    def test_round_slicing_contiguous(self):
        realm = FileRealm.interval(100, 300)
        dom = realm.domain(0, 1000)
        assert dom.nrounds(64) == 4  # ceil(200/64)
        w0 = dom.window(0, 64)
        assert w0.intervals == [(100, 164)]
        w3 = dom.window(3, 64)
        assert w3.intervals == [(292, 300)]

    def test_round_slicing_cyclic(self):
        realm = make_cyclic_realms(2, 10)[0]
        dom = realm.domain(0, 60)  # owns [0,10),[20,30),[40,50)
        assert dom.total_bytes == 30
        w = dom.window(0, 15)
        assert w.intervals == [(0, 10), (20, 25)]
        w2 = dom.window(1, 15)
        assert w2.intervals == [(25, 30), (40, 50)]

    def test_to_buffer_mapping(self):
        realm = make_cyclic_realms(2, 10)[0]
        w = realm.domain(0, 40).window(0, 100)  # [0,10) and [20,30)
        pos = w.to_buffer(np.array([0, 5, 20, 29]))
        assert pos.tolist() == [0, 5, 10, 19]

    def test_to_buffer_rejects_outside(self):
        realm = FileRealm.interval(10, 20)
        w = realm.domain(0, 100).window(0, 100)
        with pytest.raises(CollectiveIOError):
            w.to_buffer(np.array([25]))
        with pytest.raises(CollectiveIOError):
            w.to_buffer(np.array([5]))

    def test_empty_window(self):
        realm = FileRealm.interval(0, 10)
        dom = realm.domain(0, 10)
        assert dom.window(5, 4).empty


class TestMakeContiguousRealms:
    def test_decreasing_bounds_rejected(self):
        with pytest.raises(CollectiveIOError):
            make_contiguous_realms([0, 10, 5])

    def test_empty_realm_allowed(self):
        realms = make_contiguous_realms([0, 10, 10, 20])
        assert realms[1].domain(0, 20).total_bytes == 0


@given(
    st.integers(0, 1000),      # aar_lo
    st.integers(1, 5000),      # span
    st.integers(1, 9),         # naggs
    st.sampled_from([1, 16, 64, 256]),  # alignment
)
@settings(max_examples=150, deadline=None)
def test_partition_invariants(aar_lo, span, naggs, alignment):
    """Every strategy must tile the AAR exactly: disjoint, complete."""
    aar_hi = aar_lo + span
    for strat in (EvenPartition(), AlignedPartition(alignment)):
        realms = strat.assign(aar_lo, aar_hi, naggs)
        assert len(realms) == naggs
        ivs = []
        for r in realms:
            d = r.domain(aar_lo, aar_hi)
            ivs += list(zip(d.starts.tolist(), d.ends.tolist()))
        ivs.sort()
        assert sum(e - s for s, e in ivs) == span
        for (s0, e0), (s1, e1) in zip(ivs, ivs[1:]):
            assert e0 <= s1
        if ivs:
            assert ivs[0][0] == aar_lo
            assert ivs[-1][1] == aar_hi


@given(st.integers(1, 8), st.integers(1, 64), st.integers(0, 200), st.integers(1, 300))
@settings(max_examples=150, deadline=None)
def test_cyclic_realms_partition_property(naggs, block, lo, span):
    realms = make_cyclic_realms(naggs, block)
    hi = lo + span
    covered = []
    for r in realms:
        d = r.domain(lo, hi)
        covered += list(zip(d.starts.tolist(), d.ends.tolist()))
    covered.sort()
    assert sum(e - s for s, e in covered) == span
    for (s0, e0), (s1, e1) in zip(covered, covered[1:]):
        assert e0 <= s1


# -- the balanced strategy's access histogram --------------------------------------------------
def _ref_access_histogram(cursor, aar_lo, aar_hi, nbins):
    """``access_histogram`` as it was: one cursor intersection per bin."""
    hist = np.zeros(nbins, dtype=np.int64)
    span = aar_hi - aar_lo
    if span <= 0:
        return hist
    edges = [aar_lo + (span * i) // nbins for i in range(nbins + 1)]
    for i in range(nbins):
        hist[i] = cursor.intersect(edges[i], edges[i + 1]).total_bytes
    return hist


@given(access=accesses(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_access_histogram_matches_the_per_bin_loop(access, data):
    """Succinct and enumerated views, ``data_lo > 0``, partial last
    tiles, an AAR as wide as the access or wider (other ranks' accesses
    widen it), a few bins to more bins than bytes."""
    flat, disp, data_lo, data_hi, _ = access
    cursor = FlatCursor(flat, disp, data_hi, data_lo)
    first, last = cursor.first_byte, cursor.last_byte
    aar_lo = max(first - data.draw(st.integers(0, 300)), 0)
    aar_hi = last + data.draw(st.integers(0, 300))
    nbins = data.draw(st.sampled_from([1, 7, 256, 1024]))
    got = access_histogram(cursor.all_segments(), aar_lo, aar_hi, nbins)
    cursor.reset()
    want = _ref_access_histogram(cursor, aar_lo, aar_hi, nbins)
    assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
    assert int(got.sum()) == data_hi - data_lo


def test_access_histogram_of_no_access():
    assert np.array_equal(access_histogram(SegmentBatch.empty_batch(), 0, 100, 8), np.zeros(8, dtype=np.int64))
    assert np.array_equal(access_histogram(SegmentBatch.empty_batch(), 5, 5), np.zeros(256, dtype=np.int64))
