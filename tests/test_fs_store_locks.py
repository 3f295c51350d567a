"""Tests for the page store and extent lock manager."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FileSystemError
from repro.fs.locks import ExtentLockManager
from repro.fs.store import PageStore


class TestPageStore:
    def test_roundtrip(self):
        s = PageStore(16)
        s.write(5, np.arange(10, dtype=np.uint8))
        assert s.read(5, 10).tolist() == list(range(10))

    def test_holes_read_zero(self):
        s = PageStore(16)
        s.write(100, np.array([7], dtype=np.uint8))
        assert s.read(0, 4).tolist() == [0, 0, 0, 0]
        assert s.read(98, 4).tolist() == [0, 0, 7, 0]

    def test_cross_page_write(self):
        s = PageStore(8)
        s.write(6, np.arange(10, dtype=np.uint8))
        assert s.read(6, 10).tolist() == list(range(10))
        assert s.allocated_pages == 2

    def test_size_tracks_high_water(self):
        s = PageStore(8)
        assert s.size == 0
        s.write(3, np.zeros(4, dtype=np.uint8))
        assert s.size == 7
        s.write(0, np.zeros(2, dtype=np.uint8))
        assert s.size == 7

    def test_overwrite(self):
        s = PageStore(8)
        s.write(0, np.full(8, 1, dtype=np.uint8))
        s.write(2, np.full(3, 9, dtype=np.uint8))
        assert s.read(0, 8).tolist() == [1, 1, 9, 9, 9, 1, 1, 1]

    def test_empty_write_noop(self):
        s = PageStore(8)
        s.write(0, np.empty(0, dtype=np.uint8))
        assert s.size == 0
        assert s.allocated_pages == 0

    def test_zero_length_write_past_eof_keeps_size(self):
        s = PageStore(8)
        s.write(5, np.zeros(3, dtype=np.uint8))
        s.write(40, np.empty(0, dtype=np.uint8))
        assert s.size == 8
        assert s.allocated_pages == 1

    def test_read_past_eof_straddling_page_boundary(self):
        s = PageStore(8)
        s.write(0, np.arange(6, dtype=np.uint8))  # EOF at 6, inside page 0
        got = s.read(4, 12)  # spans pages 0-1, mostly past EOF
        assert got.tolist() == [4, 5] + [0] * 10
        assert s.allocated_pages == 1  # reads never allocate

    def test_read_entirely_past_eof_across_pages(self):
        s = PageStore(8)
        s.write(0, np.array([1], dtype=np.uint8))
        assert s.read(30, 20).tolist() == [0] * 20
        assert s.allocated_pages == 1

    def test_write_exactly_fills_page(self):
        s = PageStore(8)
        s.write(8, np.arange(8, dtype=np.uint8))  # exactly page 1
        assert s.allocated_pages == 1
        assert s.size == 16
        assert s.read(8, 8).tolist() == list(range(8))
        assert s.read(7, 10).tolist() == [0] + list(range(8)) + [0]

    def test_write_exactly_fills_two_pages_from_zero(self):
        s = PageStore(8)
        s.write(0, np.arange(16, dtype=np.uint8))
        assert s.allocated_pages == 2
        assert s.size == 16
        assert s.read(0, 16).tolist() == list(range(16))

    def test_negative_offset_rejected(self):
        s = PageStore(8)
        with pytest.raises(FileSystemError):
            s.write(-1, np.zeros(1, dtype=np.uint8))
        with pytest.raises(FileSystemError):
            s.read(-1, 1)

    def test_bad_page_size_rejected(self):
        with pytest.raises(FileSystemError):
            PageStore(0)

    def test_checksum_changes_with_content(self):
        a, b = PageStore(8), PageStore(8)
        a.write(0, np.array([1], dtype=np.uint8))
        b.write(0, np.array([2], dtype=np.uint8))
        assert a.checksum() != b.checksum()

    @given(st.lists(st.tuples(st.integers(0, 100), st.binary(min_size=1, max_size=20)), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_matches_flat_array_oracle(self, writes):
        s = PageStore(16)
        oracle = np.zeros(256, dtype=np.uint8)
        for off, blob in writes:
            data = np.frombuffer(blob, dtype=np.uint8)
            s.write(off, data)
            oracle[off : off + data.size] = data
        assert np.array_equal(s.read(0, 256), oracle)


class TestLockManager:
    def test_first_acquire_is_one_rpc(self):
        lm = ExtentLockManager(16)
        c = lm.acquire(0, 0, 64)
        assert c.rpcs == 1
        assert c.revoked_granules == 0

    def test_reacquire_is_free(self):
        lm = ExtentLockManager(16)
        lm.acquire(0, 0, 64)
        c = lm.acquire(0, 16, 48)
        assert c.hit
        assert c.rpcs == 0

    def test_conflict_revokes(self):
        lm = ExtentLockManager(16)
        lm.acquire(0, 0, 64)  # granules 0..3 to client 0
        c = lm.acquire(1, 32, 64)  # granules 2..3 transfer
        assert c.rpcs == 1
        assert c.revoked_granules == 2
        assert c.revoked_ranges == [(0, 32, 64)]
        assert lm.holder_of(32) == 1
        assert lm.holder_of(0) == 0

    def test_revoked_ranges_merge_adjacent(self):
        lm = ExtentLockManager(16)
        lm.acquire(0, 0, 128)
        c = lm.acquire(1, 0, 128)
        assert c.revoked_ranges == [(0, 0, 128)]

    def test_multiple_victims(self):
        lm = ExtentLockManager(16)
        lm.acquire(0, 0, 32)
        lm.acquire(1, 32, 64)
        c = lm.acquire(2, 0, 64)
        victims = {v for v, _, _ in c.revoked_ranges}
        assert victims == {0, 1}
        assert c.revoked_granules == 4

    def test_partial_granule_rounds_out(self):
        lm = ExtentLockManager(16)
        lm.acquire(0, 5, 6)  # one byte -> whole granule 0
        assert lm.holder_of(0) == 0
        assert lm.holder_of(15) == 0

    def test_ping_pong_counts(self):
        """Misaligned sharing: two clients alternating on one granule."""
        lm = ExtentLockManager(16)
        total = 0
        for i in range(6):
            c = lm.acquire(i % 2, 0, 16)
            total += c.revoked_granules
        assert total == 5  # every acquisition after the first revokes

    def test_aligned_no_ping_pong(self):
        lm = ExtentLockManager(16)
        revoked = 0
        for i in range(6):
            c = lm.acquire(i % 2, (i % 2) * 16, (i % 2) * 16 + 16)
            revoked += c.revoked_granules
            if i >= 2:
                assert c.hit
        assert revoked == 0

    def test_release_all(self):
        lm = ExtentLockManager(16)
        lm.acquire(0, 0, 64)
        assert lm.release_all(0) == 4
        assert lm.holder_of(0) is None

    def test_empty_range_noop(self):
        lm = ExtentLockManager(16)
        c = lm.acquire(0, 10, 10)
        assert c.hit

    def test_invalid_args_rejected(self):
        with pytest.raises(FileSystemError):
            ExtentLockManager(0)
        lm = ExtentLockManager(16)
        with pytest.raises(FileSystemError):
            lm.acquire(0, 5, 4)
