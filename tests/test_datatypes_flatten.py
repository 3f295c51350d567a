"""Tests for datatype construction and flattening."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datatypes import (
    BYTE,
    DOUBLE,
    INT,
    contiguous,
    hindexed,
    hvector,
    indexed,
    indexed_block,
    resized,
    struct,
    subarray,
    vector,
)
from repro.datatypes.flatten import FlatType, coalesce
from repro.errors import DatatypeError


def pairs(dt):
    f = dt.flatten()
    return list(zip(f.offsets.tolist(), f.lengths.tolist()))


class TestPrimitives:
    def test_byte(self):
        assert BYTE.size == 1
        assert BYTE.extent == 1
        assert pairs(BYTE) == [(0, 1)]

    def test_int_and_double(self):
        assert INT.size == 4
        assert DOUBLE.size == 8
        assert DOUBLE.extent == 8

    def test_commit_is_idempotent(self):
        t = contiguous(3, INT)
        assert not t.committed
        t.commit().commit()
        assert t.committed


class TestCoalesce:
    def test_adjacent_merge(self):
        offs, lens = coalesce(np.array([0, 4, 8]), np.array([4, 4, 4]))
        assert offs.tolist() == [0]
        assert lens.tolist() == [12]

    def test_gap_preserved(self):
        offs, lens = coalesce(np.array([0, 8]), np.array([4, 4]))
        assert offs.tolist() == [0, 8]
        assert lens.tolist() == [4, 4]

    def test_zero_length_dropped(self):
        offs, lens = coalesce(np.array([0, 4, 8]), np.array([4, 0, 4]))
        assert offs.tolist() == [0, 8]

    def test_data_order_not_resorted(self):
        # Decreasing offsets (legal for memory types) stay in data order.
        offs, lens = coalesce(np.array([8, 0]), np.array([4, 4]))
        assert offs.tolist() == [8, 0]

    def test_empty(self):
        offs, lens = coalesce(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert offs.size == 0 and lens.size == 0


class TestContiguous:
    def test_merges_to_one_segment(self):
        t = contiguous(5, BYTE)
        assert pairs(t) == [(0, 5)]
        assert t.size == 5
        assert t.extent == 5

    def test_of_ints(self):
        t = contiguous(3, INT)
        assert pairs(t) == [(0, 12)]

    def test_zero_count(self):
        t = contiguous(0, INT)
        assert t.size == 0

    def test_negative_count_rejected(self):
        with pytest.raises(DatatypeError):
            contiguous(-1, BYTE)


class TestVector:
    def test_basic(self):
        # 3 blocks of 2 ints, stride 4 ints.
        t = vector(3, 2, 4, INT)
        assert pairs(t) == [(0, 8), (16, 8), (32, 8)]
        assert t.size == 24
        assert t.extent == 40  # (count-1)*stride + blocklen, in bytes

    def test_stride_equal_block_is_contiguous(self):
        t = vector(4, 2, 2, INT)
        assert pairs(t) == [(0, 32)]

    def test_hvector_byte_stride(self):
        t = hvector(2, 3, 10, BYTE)
        assert pairs(t) == [(0, 3), (10, 3)]
        assert t.extent == 13

    def test_negative_stride_rejected(self):
        with pytest.raises(DatatypeError):
            vector(3, 1, -2, INT)

    def test_num_segments(self):
        t = vector(4096, 1, 2, BYTE)
        assert t.num_segments == 4096


class TestIndexedFamily:
    def test_indexed(self):
        t = indexed([2, 1], [0, 4], INT)
        assert pairs(t) == [(0, 8), (16, 4)]
        assert t.size == 12
        assert t.extent == 20

    def test_hindexed(self):
        t = hindexed([3, 3], [0, 5], BYTE)
        assert pairs(t) == [(0, 3), (5, 3)]

    def test_indexed_block(self):
        t = indexed_block(2, [0, 3, 6], INT)
        assert pairs(t) == [(0, 8), (12, 8), (24, 8)]

    def test_mismatched_lists_rejected(self):
        with pytest.raises(DatatypeError):
            indexed([1, 2], [0], INT)

    def test_negative_displacement_rejected(self):
        with pytest.raises(DatatypeError):
            hindexed([1], [-4], BYTE)

    def test_unsorted_displacements_kept_in_data_order(self):
        t = hindexed([2, 2], [10, 0], BYTE)
        assert pairs(t) == [(10, 2), (0, 2)]
        assert not t.flatten().is_monotonic


class TestStruct:
    def test_mixed_types(self):
        t = struct([2, 1], [0, 16], [INT, DOUBLE])
        assert pairs(t) == [(0, 8), (16, 8)]
        assert t.size == 16
        assert t.extent == 24

    def test_empty_blocks_skipped(self):
        t = struct([0, 2], [0, 4], [INT, BYTE])
        assert pairs(t) == [(4, 2)]

    def test_length_mismatch_rejected(self):
        with pytest.raises(DatatypeError):
            struct([1], [0, 8], [INT, INT])


class TestSubarray:
    def test_2d(self):
        # 4x6 array of bytes, 2x3 block starting at (1, 2).
        t = subarray([4, 6], [2, 3], [1, 2], BYTE)
        assert pairs(t) == [(8, 3), (14, 3)]
        assert t.size == 6
        assert t.extent == 24

    def test_full_subarray_is_contiguous(self):
        t = subarray([4, 6], [4, 6], [0, 0], BYTE)
        assert pairs(t) == [(0, 24)]

    def test_3d(self):
        t = subarray([2, 3, 4], [1, 2, 2], [1, 1, 1], BYTE)
        # plane 1 (offset 12), rows 1..2, cols 1..2
        assert pairs(t) == [(17, 2), (21, 2)]

    def test_element_type_scales(self):
        t = subarray([2, 2], [1, 2], [1, 0], INT)
        assert pairs(t) == [(8, 8)]

    def test_invalid_dims_rejected(self):
        with pytest.raises(DatatypeError):
            subarray([4], [5], [0], BYTE)
        with pytest.raises(DatatypeError):
            subarray([4], [2], [3], BYTE)
        with pytest.raises(DatatypeError):
            subarray([], [], [], BYTE)


class TestResized:
    def test_hpio_succinct_pattern(self):
        region, space = 64, 128
        t = resized(contiguous(region, BYTE), 0, region + space)
        f = t.flatten()
        assert f.num_segments == 1
        assert f.size == region
        assert f.extent == region + space

    def test_nonzero_lb_rejected(self):
        with pytest.raises(DatatypeError):
            resized(BYTE, 1, 8)


class TestFlatType:
    def test_replicate(self):
        f = resized(contiguous(2, BYTE), 0, 5).flatten()
        r = f.replicate(3)
        assert r.offsets.tolist() == [0, 5, 10]
        assert r.lengths.tolist() == [2, 2, 2]
        assert r.extent == 15
        assert r.size == 6

    def test_replicate_zero(self):
        assert BYTE.flatten().replicate(0).size == 0

    def test_tile_count(self):
        f = contiguous(10, BYTE).flatten()
        assert f.tile_count(0) == 0
        assert f.tile_count(10) == 1
        assert f.tile_count(11) == 2
        assert f.tile_count(25) == 3

    def test_is_contiguous(self):
        assert contiguous(8, BYTE).flatten().is_contiguous
        assert not vector(2, 1, 2, BYTE).flatten().is_contiguous
        assert not resized(contiguous(4, BYTE), 0, 8).flatten().is_contiguous

    def test_monotonic(self):
        assert vector(3, 1, 2, BYTE).flatten().is_monotonic
        assert not hindexed([1, 1], [4, 0], BYTE).flatten().is_monotonic
        # Overlapping tiles (extent < span) are not monotonic.
        assert not resized(contiguous(8, BYTE), 0, 4).flatten().is_monotonic

    def test_equality_structural(self):
        a = vector(2, 2, 4, BYTE)
        b = hindexed([2, 2], [0, 4], BYTE)
        assert a.flatten().offsets.tolist() == b.flatten().offsets.tolist()
        # Same typemap but different extents: unequal.
        assert a != b or a.extent == b.extent
        # Structurally equal types hash equal, so they dedupe as keys.
        c, d = contiguous(4, BYTE), hindexed([4], [0], BYTE)
        assert c == d and hash(c) == hash(d) and len({c, d}) == 1

    def test_negative_length_rejected(self):
        with pytest.raises(DatatypeError):
            FlatType([0], [-1], 4)


class TestDataPrefix:
    def test_prefix_matches_lengths(self):
        f = vector(3, 2, 5, BYTE).flatten()
        assert f.data_prefix.tolist() == [0, 2, 4, 6]

    def test_span(self):
        f = hvector(2, 3, 10, BYTE).flatten()
        assert f.span_lo == 0
        assert f.span_hi == 13
