"""Edge-case tests: file system batch operations, OST splitting, cache
eviction policies, and multi-file isolation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CostModel
from repro.errors import FileSystemError
from repro.fs import FSClient, SimFileSystem
from repro.fs.filesystem import SimFileSystem as FS
from repro.sim import Simulator

COST = CostModel(page_size=64, stripe_size=256, num_osts=2)


def run_one(fn, cost=COST, lock_granularity=None):
    fs = SimFileSystem(cost, lock_granularity=lock_granularity)

    def main(ctx):
        return fn(ctx, FSClient(fs, ctx), fs)

    return Simulator(1).run(main)[0], fs


class TestOstSplitting:
    def test_bytes_and_requests_per_ost(self):
        fs = SimFileSystem(COST)
        offs = np.array([0, 256, 600], dtype=np.int64)
        lens = np.array([256, 256, 100], dtype=np.int64)
        bytes_per, reqs_per = fs._split_over_osts(offs, lens)
        # stripe 0 -> ost0 (256B), stripe 1 -> ost1 (256B),
        # extent at 600 stays in stripe 2 -> ost0 (100B).
        assert bytes_per.tolist() == [356, 256]
        assert reqs_per.tolist() == [2, 1]

    def test_extent_crossing_stripes_fragments(self):
        fs = SimFileSystem(COST)
        offs = np.array([200], dtype=np.int64)
        lens = np.array([200], dtype=np.int64)  # crosses 256 boundary
        bytes_per, reqs_per = fs._split_over_osts(offs, lens)
        assert bytes_per.tolist() == [56, 144]
        assert reqs_per.tolist() == [1, 1]

    def test_empty_batch(self):
        fs = SimFileSystem(COST)
        b, r = fs._split_over_osts(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert b.sum() == 0 and r.sum() == 0


class TestPartialPages:
    @pytest.mark.parametrize(
        "off,length,expected",
        [
            (0, 64, 0),     # exactly one page
            (0, 128, 0),    # two full pages
            (1, 63, 1),     # one partial page
            (1, 64, 2),     # spans two pages, both partial
            (0, 65, 1),     # full + 1-byte tail
            (63, 2, 2),     # tiny straddle
            (64, 64, 0),
        ],
    )
    def test_rmw_counting(self, off, length, expected):
        got = FS._partial_pages(
            np.array([off], dtype=np.int64), np.array([length], dtype=np.int64), 64
        )
        assert got == expected

    def test_batch_sums(self):
        offs = np.array([1, 64, 130], dtype=np.int64)
        lens = np.array([63, 64, 10], dtype=np.int64)
        assert FS._partial_pages(offs, lens, 64) == 1 + 0 + 1


class TestServerBatchValidation:
    def test_mismatched_data_size_rejected(self):
        def body(ctx, client, fs):
            with pytest.raises(FileSystemError):
                fs.server_write(
                    ctx, 0, "/a",
                    np.array([0]), np.array([8]),
                    np.zeros(4, dtype=np.uint8),
                )
            return True

        def main(ctx, client, fs):
            fs.ensure_file("/a")
            return body(ctx, client, fs)

        ok, _ = run_one(main)
        assert ok

    def test_negative_extent_rejected(self):
        def main(ctx, client, fs):
            fs.ensure_file("/a")
            with pytest.raises(FileSystemError):
                fs.server_read(ctx, 0, "/a", np.array([-4]), np.array([4]))
            return True

        ok, _ = run_one(main)
        assert ok

    def test_unknown_file_rejected(self):
        def main(ctx, client, fs):
            with pytest.raises(FileSystemError):
                fs.server_read(ctx, 0, "/nope", np.array([0]), np.array([4]))
            return True

        ok, _ = run_one(main)
        assert ok

    def test_zero_length_extents_dropped(self):
        def main(ctx, client, fs):
            fs.ensure_file("/a")
            fs.server_write(
                ctx, 0, "/a",
                np.array([0, 10, 20]), np.array([4, 0, 4]),
                np.arange(8, dtype=np.uint8),
            )
            return fs.raw_bytes("/a", 20, 4).tolist()

        got, _ = run_one(main)
        assert got == [4, 5, 6, 7]


class TestCacheEviction:
    def test_clean_pages_evicted_before_dirty(self):
        def main(ctx, client, fs):
            fs.raw_write("/a", 0, np.zeros(64 * 8, dtype=np.uint8))
            f = client.open("/a", cache_mode="incoherent", cache_capacity_pages=4)
            f.write(0, np.full(64, 1, dtype=np.uint8))     # dirty page 0
            for i in range(1, 8):
                f.read(i * 64, 64)                          # clean pages
            # Dirty page survives; nothing was flushed.
            assert f.cache.dirty_pages == 1
            assert fs.metrics("/a").value("fs.server.writes") == 0
            return True

        ok, _ = run_one(main)
        assert ok

    def test_batched_dirty_writeout(self):
        def main(ctx, client, fs):
            f = client.open("/a", cache_mode="incoherent", cache_capacity_pages=8)
            for i in range(16):
                f.write(i * 64, np.full(64, i, dtype=np.uint8))
            # Eviction flushed in batches, not page by page.
            assert fs.metrics("/a").value("fs.server.writes") <= 4
            f.close()
            return fs.raw_bytes("/a", 0, 16 * 64)

        got, _ = run_one(main)
        expect = np.repeat(np.arange(16, dtype=np.uint8), 64)
        assert np.array_equal(got, expect)

    def test_capacity_validation(self):
        def main(ctx, client, fs):
            with pytest.raises(FileSystemError):
                client.open("/a", cache_capacity_pages=0)
            with pytest.raises(FileSystemError):
                client.open("/a", cache_mode="warp")
            return True

        ok, _ = run_one(main)
        assert ok


class TestMultiFileIsolation:
    def test_caches_and_stats_separate(self):
        def main(ctx, client, fs):
            a = client.open("/a", cache_mode="incoherent")
            b = client.open("/b", cache_mode="incoherent")
            a.write(0, np.full(64, 1, dtype=np.uint8))
            b.write(0, np.full(64, 2, dtype=np.uint8))
            a.sync()
            assert fs.metrics("/a").value("fs.server.writes") == 1
            assert fs.metrics("/b").value("fs.server.writes") == 0
            b.sync()
            return (fs.raw_bytes("/a", 0, 1)[0], fs.raw_bytes("/b", 0, 1)[0])

        got, _ = run_one(main)
        assert got == (1, 2)

    def test_locks_per_file(self):
        def main(ctx, client, fs):
            a = client.open("/a", cache_mode="off")
            b = client.open("/b", cache_mode="off")
            a.write(0, np.zeros(64, dtype=np.uint8))
            b.write(0, np.zeros(64, dtype=np.uint8))
            assert fs.metrics("/a").value("lock.rpcs") == 1
            assert fs.metrics("/b").value("lock.rpcs") == 1
            return True

        ok, _ = run_one(main)
        assert ok


class TestGetInfo:
    def test_effective_hints_exposed(self):
        from repro.core import CollectiveFile
        from repro.mpi import Communicator, Hints

        fs = SimFileSystem(COST)

        def main(ctx):
            comm = Communicator(ctx, COST)
            f = CollectiveFile(ctx, comm, fs, "/i", hints=Hints(cb_nodes=2), cost=COST)
            info = f.get_info()
            f.close()
            return info

        info = Simulator(1).run(main)[0]
        assert info["cb_nodes"] == 2
        assert info["coll_impl"] == "new"  # default visible too
