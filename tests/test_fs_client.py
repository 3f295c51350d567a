"""Tests for the file system client, cache, and server cost behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CostModel
from repro.errors import FileSystemError
from repro.fs import FSClient, SimFileSystem
from repro.sim import Simulator

#: Small geometry so page/stripe effects are easy to hit in tests.
TEST_COST = CostModel(page_size=64, stripe_size=256, num_osts=2)


def run_fs(nprocs, fn, cost=TEST_COST, lock_granularity=None):
    """Run fn(ctx, client, fs) on each rank against one shared FS."""
    fs = SimFileSystem(cost, lock_granularity=lock_granularity)

    def main(ctx):
        return fn(ctx, FSClient(fs, ctx), fs)

    sim = Simulator(nprocs)
    results = sim.run(main)
    return results, fs, sim


class TestBasicIO:
    @pytest.mark.parametrize("mode", ["off", "writethrough", "coherent", "incoherent"])
    def test_write_read_roundtrip(self, mode):
        def main(ctx, client, fs):
            f = client.open("/a", cache_mode=mode)
            f.write(10, np.arange(100, dtype=np.uint8))
            out = f.read(10, 100)
            f.close()
            return out.tolist()

        results, fs, _ = run_fs(1, main)
        assert results[0] == list(range(100))
        assert fs.raw_bytes("/a", 10, 100).tolist() == list(range(100))

    def test_a_rebound_view_shares_the_open_state(self):
        """A close through a rebound view (an engine coroutine's handle)
        flushes the shared cache and closes the base handle too."""

        def main(ctx, client, fs):
            f = client.open("/a", cache_mode="coherent")
            view = f.rebound(ctx)
            view.write(0, np.full(8, 3, dtype=np.uint8))
            flushed = view.close()
            return flushed, f.close(), view.size

        results, fs, _ = run_fs(1, main)
        assert results[0] == (1, 0, 8)
        assert fs.raw_bytes("/a", 0, 8).tolist() == [3] * 8

    def test_batch_roundtrip(self):
        def main(ctx, client, fs):
            f = client.open("/a", cache_mode="off")
            offs = [0, 100, 300]
            lens = [4, 4, 4]
            f.write_batch(offs, lens, np.arange(12, dtype=np.uint8))
            out = f.read_batch(offs, lens)
            f.close()
            return out.tolist()

        results, _, _ = run_fs(1, main)
        assert results[0] == list(range(12))

    def test_open_missing_without_create(self):
        def main(ctx, client, fs):
            with pytest.raises(FileSystemError):
                client.open("/missing", create=False)
            return True

        results, _, _ = run_fs(1, main)
        assert results[0]

    def test_closed_file_rejects_io(self):
        def main(ctx, client, fs):
            f = client.open("/a")
            f.close()
            with pytest.raises(FileSystemError):
                f.read(0, 1)
            assert f.close() == 0  # idempotent
            return True

        results, _, _ = run_fs(1, main)

    def test_file_size(self):
        def main(ctx, client, fs):
            f = client.open("/a", cache_mode="off")
            f.write(100, np.zeros(28, dtype=np.uint8))
            return f.size

        results, _, _ = run_fs(1, main)
        assert results[0] == 128

    def test_sparse_read_is_zero(self):
        def main(ctx, client, fs):
            f = client.open("/a", cache_mode="off")
            f.write(1000, np.ones(1, dtype=np.uint8))
            return f.read(0, 4).tolist()

        results, _, _ = run_fs(1, main)
        assert results[0] == [0, 0, 0, 0]


class TestTimeAccounting:
    def test_io_advances_clock(self):
        def main(ctx, client, fs):
            f = client.open("/a", cache_mode="off")
            t0 = ctx.now
            f.write(0, np.zeros(1024, dtype=np.uint8))
            return ctx.now - t0

        results, _, _ = run_fs(1, main)
        assert results[0] > 0

    def test_bigger_write_costs_more(self):
        def timed(nbytes):
            def main(ctx, client, fs):
                f = client.open("/a", cache_mode="off")
                t0 = ctx.now
                f.write(0, np.zeros(nbytes, dtype=np.uint8))
                return ctx.now - t0

            results, _, _ = run_fs(1, main)
            return results[0]

        assert timed(1 << 20) > timed(1 << 10)

    def test_ost_contention_serializes(self):
        """Two clients hammering one stripe wait on the same OST; spread
        across stripes they overlap."""

        def same_stripe(ctx, client, fs):
            f = client.open("/a", cache_mode="off")
            f.write(0, np.zeros(128, dtype=np.uint8))  # both in stripe 0
            return ctx.now

        def different_stripes(ctx, client, fs):
            f = client.open("/b", cache_mode="off")
            f.write(ctx.rank * 256, np.zeros(128, dtype=np.uint8))
            return ctx.now

        same, _, sim1 = run_fs(2, same_stripe)
        diff, _, sim2 = run_fs(2, different_stripes)
        assert max(same) > max(diff)

    def test_unaligned_write_pays_rmw(self):
        def main(offset):
            def body(ctx, client, fs):
                f = client.open("/a", cache_mode="off")
                t0 = ctx.now
                f.write(offset, np.zeros(64, dtype=np.uint8))
                return ctx.now - t0

            results, fs, _ = run_fs(1, body)
            return results[0], fs.metrics("/a").value("fs.rmw.pages")

        t_aligned, rmw_aligned = main(0)
        t_unaligned, rmw_unaligned = main(3)
        assert rmw_aligned == 0
        assert rmw_unaligned == 2
        assert t_unaligned > t_aligned


class TestWritebackCache:
    def test_write_hits_cache_not_server(self):
        def main(ctx, client, fs):
            f = client.open("/a", cache_mode="incoherent")
            f.write(0, np.arange(64, dtype=np.uint8))  # full page: no fetch
            assert fs.metrics("/a").value("fs.server.writes") == 0
            n = f.sync()
            assert n == 1
            assert fs.metrics("/a").value("fs.server.writes") == 1
            return True

        results, _, _ = run_fs(1, main)
        assert results[0]

    def test_partial_page_write_around(self):
        """Partial-page writes do not read the page (write-around); the
        flush writes only the dirty bytes, preserving the rest."""

        def main(ctx, client, fs):
            fs.raw_write("/a", 0, np.full(64, 9, dtype=np.uint8))
            f = client.open("/a", cache_mode="incoherent")
            f.write(4, np.zeros(8, dtype=np.uint8))
            assert fs.metrics("/a").value("fs.server.reads") == 0  # no read-for-ownership
            f.sync()
            return fs.raw_bytes("/a", 0, 16).tolist()

        results, _, _ = run_fs(1, main)
        # Old content preserved around the new zeros.
        assert results[0] == [9] * 4 + [0] * 8 + [9] * 4

    def test_partial_valid_page_read_merges_server_bytes(self):
        """Reading past the locally valid bytes fetches the page and
        merges it under our dirty bytes."""

        def main(ctx, client, fs):
            fs.raw_write("/a", 0, np.full(64, 9, dtype=np.uint8))
            f = client.open("/a", cache_mode="incoherent")
            f.write(4, np.zeros(8, dtype=np.uint8))
            out = f.read(0, 16)  # needs server bytes around the write
            assert fs.metrics("/a").value("fs.server.reads") == 1
            return out.tolist()

        results, _, _ = run_fs(1, main)
        assert results[0] == [9] * 4 + [0] * 8 + [9] * 4

    def test_valid_bytes_served_without_fetch(self):
        def main(ctx, client, fs):
            f = client.open("/a", cache_mode="incoherent")
            f.write(4, np.arange(8, dtype=np.uint8))
            out = f.read(4, 8)  # exactly the bytes we wrote
            assert fs.metrics("/a").value("fs.server.reads") == 0
            return out.tolist()

        results, _, _ = run_fs(1, main)
        assert results[0] == list(range(8))

    def test_cache_read_hit_avoids_server(self):
        def main(ctx, client, fs):
            f = client.open("/a", cache_mode="incoherent")
            f.write(0, np.arange(64, dtype=np.uint8))
            reads_before = fs.metrics("/a").value("fs.server.reads")
            out = f.read(0, 64)
            assert fs.metrics("/a").value("fs.server.reads") == reads_before
            return out.tolist()

        results, _, _ = run_fs(1, main)
        assert results[0] == list(range(64))

    def test_capacity_eviction_flushes_dirty(self):
        def main(ctx, client, fs):
            f = client.open("/a", cache_mode="incoherent", cache_capacity_pages=2)
            for i in range(4):
                f.write(i * 64, np.full(64, i, dtype=np.uint8))
            assert f.cache.cached_pages <= 2
            assert fs.metrics("/a").value("fs.server.writes") >= 1
            f.close()
            return fs.raw_bytes("/a", 0, 256).tolist()

        results, _, _ = run_fs(1, main)
        expect = sum(([i] * 64 for i in range(4)), [])
        assert results[0] == expect

    def test_writethrough_updates_server_immediately(self):
        def main(ctx, client, fs):
            f = client.open("/a", cache_mode="writethrough")
            f.write(0, np.full(64, 5, dtype=np.uint8))
            return fs.raw_bytes("/a", 0, 64).tolist()

        results, _, _ = run_fs(1, main)
        assert results[0] == [5] * 64

    def test_disjoint_writers_merge_even_incoherent(self):
        """Byte-accurate dirty tracking: two clients dirtying disjoint
        halves of one page flush in any order without clobbering."""

        def main(ctx, client, fs):
            f = client.open("/a", cache_mode="incoherent")
            if ctx.rank == 0:
                f.write(0, np.full(32, 1, dtype=np.uint8))  # first half
            else:
                ctx.advance(1e-3)
                f.write(32, np.full(32, 2, dtype=np.uint8))  # second half
            ctx.advance(1.0)
            f.sync()
            return True

        results, fs, _ = run_fs(2, main)
        assert fs.raw_bytes("/a", 0, 64).tolist() == [1] * 32 + [2] * 32

    def test_incoherent_cache_reads_go_stale(self):
        """The PFR hazard: a reader's incoherent cached page does not see
        another client's later write; a coherent cache does (revocation
        invalidates it)."""

        def body(mode):
            def main(ctx, client, fs):
                f = client.open("/a", cache_mode=mode)
                if ctx.rank == 1:
                    f.read(0, 64)  # populate rank 1's cache with zeros
                    ctx.advance(1.0)  # let rank 0 write and sync
                    return f.read(0, 64).copy()
                ctx.advance(1e-3)
                f.write(0, np.full(64, 5, dtype=np.uint8))
                f.sync()
                return None

            results, _, _ = run_fs(2, main, lock_granularity=64)
            return results[1]

        stale = body("incoherent")
        fresh = body("coherent")
        assert stale.tolist() == [0] * 64  # served from the stale cache
        assert fresh.tolist() == [5] * 64  # revocation dropped the page

    def test_coherent_revocation_preserves_both_writers(self):
        """With coherent caches the lock transfer flushes the victim, so
        interleaved writers merge correctly."""

        def main(ctx, client, fs):
            f = client.open("/a", cache_mode="coherent")
            if ctx.rank == 0:
                f.write(0, np.full(32, 1, dtype=np.uint8))
            else:
                ctx.advance(1e-3)
                f.write(32, np.full(32, 2, dtype=np.uint8))
            ctx.advance(1.0)
            f.sync()
            return True

        results, fs, _ = run_fs(2, main, lock_granularity=64)
        assert fs.raw_bytes("/a", 0, 64).tolist() == [1] * 32 + [2] * 32

    def test_lock_stats_reflect_sharing(self):
        def main(ctx, client, fs):
            f = client.open("/a", cache_mode="off")
            for _ in range(3):
                f.write(0, np.zeros(64, dtype=np.uint8))
                ctx.advance(1e-4)
            return True

        results, fs, _ = run_fs(2, main)
        assert fs.metrics("/a").value("lock.revocations") > 0

    def test_aligned_clients_no_revocations(self):
        def main(ctx, client, fs):
            f = client.open("/a", cache_mode="off")
            base = ctx.rank * 256  # exactly one stripe each
            for _ in range(3):
                f.write(base, np.zeros(256, dtype=np.uint8))
                ctx.advance(1e-4)
            return True

        results, fs, _ = run_fs(2, main, lock_granularity=256)
        assert fs.metrics("/a").value("lock.revocations") == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "fs lock-transfer race (ROADMAP): ExtentLockManager.acquire moves "
        "ownership of every granule of a run at once and "
        "SimFileSystem._charge_locks only then runs the victims' "
        "flush_and_invalidate_range one after another, each yielding — a "
        "third client takes the second granule from its new owner (nothing "
        "to flush) and reads the store before the second victim's dirty "
        "bytes land.  The fix is a wait on in-flight revocations, which "
        "moves virtual time: its own PR, which removes this xfail."
    ),
)
def test_lock_transfer_race_reads_before_the_last_victim_flushes():
    """The mechanism itself, with no collective in it, so no change to
    message timing can move it (``tests/test_exchange_differential.py``
    keeps an example of how it surfaces through ``write_all``).  Ranks 0
    and 1 each leave one dirty granule in a coherent write-back cache at
    t = 0; at 10 ms rank 2 takes both granules in one acquisition and
    flushes rank 0's, which takes ~2 ms; 0.1 ms in, rank 3 reads rank
    1's granule — written 10 ms earlier — and must see rank 1's bytes
    (it gets the store's zeros anywhere in the first ~2 ms)."""

    def main(ctx, client, fs):
        f = client.open("/race", cache_mode="coherent")
        g = fs._file("/race").locks.granularity
        if ctx.rank < 2:  # the victims
            f.write(ctx.rank * g, np.full(g, ctx.rank + 1, dtype=np.uint8))
            ctx.advance(1.0)
            return None
        if ctx.rank == 2:  # the acquirer of the whole run
            ctx.advance(1e-2)
            return f.read(0, 2 * g).tolist()
        ctx.advance(1e-2 + 1e-4)  # the third client
        return f.read(g, g).tolist()

    results, fs, _ = run_fs(4, main)
    g = fs._file("/race").locks.granularity
    assert results[2] == [1] * g + [2] * g
    assert results[3] == [2] * g
