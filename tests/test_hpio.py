"""Tests for the HPIO pattern builder, time-series pattern, and verification."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes.segments import FlatCursor
from repro.errors import CollectiveIOError
from repro.hpio import HPIOPattern, TimeSeriesPattern, expected_file_bytes, fill_pattern
from repro.hpio.verify import gather_expected_read


def _region_offsets(p, rank):
    """File offsets of ``rank``'s data runs under the pattern's view."""
    flat = p.filetype(rank).flatten()
    batch = FlatCursor(flat, p.file_disp(rank), p.bytes_per_client).all_segments()
    return batch.file_offsets.tolist()


class TestHPIOGeometry:
    def test_slot_and_totals(self):
        p = HPIOPattern(nprocs=4, region_size=64, region_count=8, region_spacing=128)
        assert p.slot == 192
        assert p.bytes_per_client == 512
        assert p.total_bytes == 2048
        assert p.file_extent == 192 * 4 * 8

    def test_region_offsets_interleave(self):
        p = HPIOPattern(nprocs=4, region_size=64, region_count=3, region_spacing=128)
        assert _region_offsets(p, 0) == [0, 4 * 192, 8 * 192]
        assert _region_offsets(p, 1)[0] == 192
        assert _region_offsets(p, 3)[2] == (2 * 4 + 3) * 192

    def test_file_contig_layout(self):
        p = HPIOPattern(nprocs=4, region_size=64, region_count=3, file_contig=True)
        assert _region_offsets(p, 1) == [192]  # one 192-byte run: 192 + 0, + 64, + 128
        assert p.file_extent == p.total_bytes

    def test_invalid_params(self):
        with pytest.raises(CollectiveIOError):
            HPIOPattern(nprocs=0, region_size=8, region_count=1)
        with pytest.raises(CollectiveIOError):
            HPIOPattern(nprocs=1, region_size=0, region_count=1)
        with pytest.raises(CollectiveIOError):
            HPIOPattern(nprocs=1, region_size=8, region_count=1, region_spacing=-1)

    def test_rank_range_checked(self):
        p = HPIOPattern(nprocs=2, region_size=8, region_count=1)
        with pytest.raises(CollectiveIOError):
            p.file_disp(2)


class TestHPIOFiletypes:
    def test_succinct_is_one_pair(self):
        p = HPIOPattern(nprocs=8, region_size=64, region_count=100)
        t = p.filetype(0, "succinct")
        assert t.flatten().num_segments == 1
        assert t.flatten().extent == p.slot * 8

    def test_enumerated_spells_out_all_pairs(self):
        p = HPIOPattern(nprocs=8, region_size=64, region_count=100)
        t = p.filetype(0, "enumerated")
        assert t.flatten().num_segments == 100

    def test_both_representations_same_bytes(self):
        p = HPIOPattern(nprocs=4, region_size=16, region_count=12)
        total = p.bytes_per_client
        for rank in range(4):
            a = FlatCursor(p.filetype(rank, "succinct").flatten(), p.file_disp(rank), total).all_segments()
            b = FlatCursor(p.filetype(rank, "enumerated").flatten(), p.file_disp(rank), total).all_segments()
            assert a.file_offsets.tolist() == b.file_offsets.tolist()
            assert a.lengths.tolist() == b.lengths.tolist()

    def test_unknown_representation(self):
        p = HPIOPattern(nprocs=2, region_size=8, region_count=2)
        with pytest.raises(CollectiveIOError):
            p.filetype(0, "fancy")

    def test_clients_tile_disjointly(self):
        p = HPIOPattern(nprocs=3, region_size=8, region_count=5)
        seen = {}
        for rank in range(3):
            batch = FlatCursor(
                p.filetype(rank, "succinct").flatten(), p.file_disp(rank), p.bytes_per_client
            ).all_segments()
            for fo, ln in zip(batch.file_offsets.tolist(), batch.lengths.tolist()):
                for b in range(fo, fo + ln):
                    assert b not in seen, f"byte {b} owned by {seen.get(b)} and {rank}"
                    seen[b] = rank
        assert len(seen) == p.total_bytes

    def test_memtype_noncontig(self):
        p = HPIOPattern(nprocs=2, region_size=8, region_count=4, region_spacing=8)
        t = p.memtype()
        assert t is not None
        assert t.flatten().num_segments == 4
        assert p.buffer_bytes() == 16 * 3 + 8

    def test_memtype_contig(self):
        p = HPIOPattern(nprocs=2, region_size=8, region_count=4, mem_contig=True)
        assert p.memtype() is None
        assert p.buffer_bytes() == 32


class TestFillAndOracle:
    def test_fill_marks_gaps(self):
        p = HPIOPattern(nprocs=2, region_size=8, region_count=2, region_spacing=8)
        buf = fill_pattern(p, 0)
        assert buf.size == p.buffer_bytes()
        assert buf[8:16].tolist() == [0xEE] * 8  # memory gap bytes

    def test_oracle_gaps_zero(self):
        p = HPIOPattern(nprocs=2, region_size=8, region_count=2, region_spacing=8)
        img = expected_file_bytes(p)
        # Spacing region after the last slot's region must stay zero.
        assert img[p.slot * 2 - 8 : p.slot * 2].tolist() == [0] * 8

    def test_gather_expected_read_roundtrip(self):
        p = HPIOPattern(nprocs=2, region_size=8, region_count=3)
        img = expected_file_bytes(p, seed=5)
        for rank in range(2):
            data = gather_expected_read(p, rank, img)
            n = p.bytes_per_client
            expect = ((np.arange(n, dtype=np.int64) * 7 + rank * 13 + 5) % 251).astype(np.uint8)
            assert np.array_equal(data, expect)


class TestTimeSeries:
    def test_paper_defaults_sizes(self):
        ts = TimeSeriesPattern(nprocs=64)
        assert ts.slot_bytes == 3200
        assert ts.point_bytes == 3200 * 32
        assert ts.bytes_per_step == 3200 * 2048
        assert abs(ts.bytes_per_step / 1e6 - 6.55) < 0.01  # the paper's 6.5 MB

    def test_element_ownership_partitions(self):
        ts = TimeSeriesPattern(nprocs=16, elems_per_point=100)
        owned = np.concatenate([ts.my_elements(r) for r in range(16)])
        assert sorted(owned.tolist()) == list(range(100))

    def test_filetype_lands_in_slot(self):
        ts = TimeSeriesPattern(nprocs=4, elems_per_point=8, points=3, timesteps=5)
        step, rank = 2, 1
        flat = ts.filetype(rank, step).flatten()
        total = ts.bytes_per_rank_per_step(rank) * ts.points
        batch = FlatCursor(flat, 0, total).all_segments()
        slot_lo = step * ts.slot_bytes
        for fo, ln in zip(batch.file_offsets.tolist(), batch.lengths.tolist()):
            within_point = fo % ts.point_bytes
            assert slot_lo <= within_point < slot_lo + ts.slot_bytes
            elem = (within_point - slot_lo) // ts.element_size
            assert elem % ts.nprocs == rank

    def test_steps_disjoint(self):
        ts = TimeSeriesPattern(nprocs=2, elems_per_point=4, points=2, timesteps=3)
        seen = set()
        for step in range(3):
            for rank in range(2):
                flat = ts.filetype(rank, step).flatten()
                total = ts.bytes_per_rank_per_step(rank) * ts.points
                batch = FlatCursor(flat, 0, total).all_segments()
                for fo, ln in zip(batch.file_offsets.tolist(), batch.lengths.tolist()):
                    for b in range(fo, fo + ln):
                        assert b not in seen
                        seen.add(b)
        assert len(seen) == ts.file_bytes

    def test_invalid_step_or_rank(self):
        ts = TimeSeriesPattern(nprocs=2)
        with pytest.raises(CollectiveIOError):
            ts.filetype(0, ts.timesteps)
        with pytest.raises(CollectiveIOError):
            ts.my_elements(5)

    def test_step_buffer_deterministic(self):
        ts = TimeSeriesPattern(nprocs=4, points=8, timesteps=2)
        a = ts.step_buffer(1, 0)
        b = ts.step_buffer(1, 0)
        c = ts.step_buffer(2, 0)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


@given(
    st.integers(1, 8),    # nprocs
    st.integers(1, 64),   # region
    st.integers(1, 16),   # count
    st.integers(0, 64),   # spacing
)
@settings(max_examples=80, deadline=None)
def test_hpio_clients_partition_property(nprocs, region, count, spacing):
    p = HPIOPattern(nprocs=nprocs, region_size=region, region_count=count, region_spacing=spacing)
    total = 0
    covered = []
    for rank in range(nprocs):
        batch = FlatCursor(
            p.filetype(rank, "succinct").flatten(), p.file_disp(rank), p.bytes_per_client
        ).all_segments()
        total += batch.total_bytes
        covered += list(zip(batch.file_offsets.tolist(), (batch.file_offsets + batch.lengths).tolist()))
    assert total == p.total_bytes
    covered.sort()
    for (s0, e0), (s1, e1) in zip(covered, covered[1:]):
        assert e0 <= s1  # no overlap between any regions of any clients
