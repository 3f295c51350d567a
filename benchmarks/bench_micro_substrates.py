"""Microbenchmarks of the substrates (wall-clock, via pytest-benchmark).

These time the *simulator's own* hot paths — datatype flattening, cursor
intersection, packing, page-store I/O, and the engine's message rate —
so regressions in the reproduction's wall-clock cost are caught
independently of the simulated-bandwidth figures.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CostModel
from repro.datatypes import BYTE, contiguous, resized, vector
from repro.datatypes.packing import expand_indices, gather_bytes
from repro.datatypes.segments import FlatCursor
from repro.fs import FSClient, SimFileSystem
from repro.fs.store import PageStore
from repro.mpi import Communicator
from repro.sim import Simulator


def test_flatten_vector_4096(benchmark):
    def build():
        return vector(4096, 64, 192, BYTE).flatten()

    flat = benchmark(build)
    assert flat.num_segments == 4096


def test_cursor_full_scan(benchmark):
    flat = resized(contiguous(64, BYTE), 0, 192).flatten()
    total = 64 * 4096

    def scan():
        cur = FlatCursor(flat, 0, total)
        return cur.all_segments()

    batch = benchmark(scan)
    assert batch.total_bytes == total


def test_cursor_interleaved_queries(benchmark):
    flat = resized(contiguous(64, BYTE), 0, 192 * 8).flatten()
    total = 64 * 2048

    def run():
        cur = FlatCursor(flat, 0, total)
        got = 0
        for lo in range(0, 192 * 8 * 2048, 64 * 1024):
            got += cur.intersect(lo, lo + 64 * 1024).total_bytes
        return got

    assert benchmark(run) == total


def test_gather_small_segments(benchmark):
    buf = np.arange(1 << 20, dtype=np.int64).astype(np.uint8)
    flat = resized(contiguous(32, BYTE), 0, 128).flatten()
    total = 32 * 4096

    out = benchmark(lambda: gather_bytes(buf, flat, 0, total))
    assert out.size == total


def test_expand_indices_many_runs(benchmark):
    starts = np.arange(0, 10**6, 100, dtype=np.int64)
    lens = np.full(starts.size, 10, dtype=np.int64)
    idx = benchmark(lambda: expand_indices(starts, lens))
    assert idx.size == starts.size * 10


def test_pagestore_strided_write(benchmark):
    cost = CostModel()
    data = np.zeros(4096, dtype=np.uint8)

    def run():
        fs = SimFileSystem(cost)
        sim = Simulator(1)

        def main(ctx):
            f = FSClient(fs, ctx).open("/m", cache_mode="off")
            for i in range(64):
                f.write(i * 8192, data)

        sim.run(main)
        return fs.file_size("/m")

    assert benchmark(run) > 0


def _one_client(body, prefill=0):
    """Run ``body(f)`` on one client with an incoherent cache; returns the file system."""
    fs = SimFileSystem(CostModel())
    if prefill:
        fs.raw_write("/m", 0, np.ones(prefill, dtype=np.uint8))

    def main(ctx):
        with FSClient(fs, ctx).open("/m", cache_mode="incoherent") as f:
            body(f)

    Simulator(1).run(main)
    return fs


def test_cache_contiguous_write_sync(benchmark):
    """A 2 MiB window written through the cache and flushed: 512 pages,
    one dirty run."""
    data = np.ones(2 << 20, dtype=np.uint8)

    def body(f):
        f.write(4096, data)
        assert f.sync() == 512

    assert benchmark(lambda: _one_client(body)).file_size("/m") == 4096 + data.size


def test_cache_sieve_read_then_write_span(benchmark):
    """Data sieving's read-modify-write: fetch a 2 MiB span, patch every
    other 64 B, write the span back, flush."""
    span = 2 << 20

    def body(f):
        window = f.read(0, span)
        window.reshape(-1, 128)[:, :64] = 7
        f.write(0, window)
        f.sync()

    fs = benchmark(lambda: _one_client(body, prefill=span))
    assert fs.raw_bytes("/m", 0, 128).tolist() == [7] * 64 + [1] * 64


def test_pagestore_large_read(benchmark):
    """An 8 MiB extent out of the store, half of it holes."""
    store = PageStore(4096)
    store.write(0, np.ones(4 << 20, dtype=np.uint8))
    out = benchmark(lambda: store.read(0, 8 << 20))
    assert int(out.sum()) == 4 << 20


def test_engine_message_rate(benchmark):
    """Round-trip messages through the virtual-time scheduler."""

    def run():
        sim = Simulator(2)

        def main(ctx):
            comm = Communicator(ctx)
            if ctx.rank == 0:
                for i in range(200):
                    comm.send(i, dest=1)
                return None
            return sum(comm.recv(source=0) for _ in range(200))

        return sim.run(main)[1]

    assert benchmark(run) == sum(range(200))


def test_engine_pingpong_handoff(benchmark):
    """Two ranks passing the processor back and forth: every decision is
    a thread hand-off, so wall / ``handoffs`` is the engine's unit cost
    (recorded as ``us_per_switch``)."""

    def run():
        sim = Simulator(2)

        def main(ctx):
            for _ in range(2000):
                ctx.advance(1e-6)

        sim.run(main)
        return sim

    sim = benchmark(run)
    assert sim.handoffs >= 4000
    benchmark.extra_info["us_per_switch"] = benchmark.stats.stats.mean / sim.handoffs * 1e6


@pytest.mark.parametrize("nprocs", [64, 256])
def test_engine_alltoall_ranks(benchmark, nprocs):
    """An n-rank pairwise ``alltoall``: n(n-1) messages, each a blocking
    receive matched out of a mailbox other ranks keep filling — the cell
    whose cost per message must not grow with n (``us_per_msg``).  Run it
    under ``taskset -c <cpu>``: unpinned, a wake-up that crosses CPUs
    costs several times one that does not once hundreds of threads are
    parked, and that OS cost — not the dispatcher — is what grows."""

    def run():
        sim = Simulator(nprocs)

        def main(ctx):
            comm = Communicator(ctx)
            return sum(comm.alltoall([comm.rank] * comm.size))

        return sim.run(main), sim

    results, sim = benchmark.pedantic(run, rounds=3, iterations=1)
    assert results == [nprocs * (nprocs - 1) // 2] * nprocs
    messages = nprocs * (nprocs - 1)
    assert sim.predicate_evals <= 2 * messages
    benchmark.extra_info["us_per_msg"] = benchmark.stats.stats.mean / messages * 1e6


def test_collective_write_wall_time(benchmark):
    """Wall-clock cost of one full 16-rank collective write."""
    from repro.bench.harness import run_hpio_write
    from repro.hpio.patterns import HPIOPattern
    from repro.mpi import Hints

    pattern = HPIOPattern(nprocs=16, region_size=64, region_count=256, region_spacing=128)

    result = benchmark.pedantic(
        lambda: run_hpio_write(
            pattern, impl="new", representation="succinct", hints=Hints(cb_nodes=8)
        ),
        rounds=3,
        iterations=1,
    )
    assert result is None or result.verified
