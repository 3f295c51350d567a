"""Microbenchmarks of the substrates (wall-clock, via pytest-benchmark).

These time the *simulator's own* hot paths — datatype flattening, cursor
intersection, packing, page-store I/O, and the engine's message rate —
so regressions in the reproduction's wall-clock cost are caught
independently of the simulated-bandwidth figures.
"""

from __future__ import annotations

import resource

import numpy as np
import pytest

from repro.config import DEFAULT_COST_MODEL, CostModel
from repro.core.exchange import exchange_data
from repro.datatypes import BYTE, contiguous, hvector, resized, vector
from repro.datatypes.packing import (
    expand_indices,
    gather_bytes,
    gather_segments,
    scatter_segments,
)
from repro.core.realms import Window
from repro.datatypes.segments import FanCursor, FlatCursor, FunnelCursor, SegmentBatch, data_to_file_segments
from repro.fs import FSClient, SimFileSystem
from repro.fs import store as fs_store
from repro.fs.store import SLAB_PAGES, PageStore
from repro.hpio.timeseries import TimeSeriesPattern
from repro.io.datasieve import datasieve_write
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


@pytest.mark.parametrize("count,blocklength", [(4096, 64)], ids=["4096x64"])
def test_commit_hvector(benchmark, count, blocklength):
    """``MPI_Type_commit`` of the Fig. 4 memory type (the spine builds
    it per rank per iteration): work per block, not per byte."""
    flat = benchmark(lambda: hvector(count, blocklength, 3 * blocklength, BYTE).flatten())
    assert (flat.num_segments, flat.size) == (count, count * blocklength)


def _timeseries_flat():
    """One rank's ``fig7_steps`` filetype: 7 elements of 32 B every
    512 B, tiled every 25 600 B."""
    return TimeSeriesPattern(nprocs=16, timesteps=8).filetype(0, 0).flatten()


def _routed_leg(name: str) -> SegmentBatch:
    """One spine exchange leg as its router builds it, period attached:
    a ``fig4_*`` client's 256 x 64 B (D = 1, memory stride 192 B), a
    ``fig7_steps`` aggregator's 576 x 32 B (D = 6 every 25 600 B), a
    ``ranks_many`` client's 32 x 8 B (D = 1)."""
    if name == "fig7_steps":
        # Rank 4 writes 6 of each point's 100 elements.
        flat = TimeSeriesPattern(nprocs=16, timesteps=8).filetype(4, 0).flatten()
        funnel = FunnelCursor(1)
        funnel.add(0, "rank 4", flat, 0, flat.size * 96)
        window = Window(np.array([0]), np.array([flat.extent * 96]))
        return funnel.route(window.intervals, window.to_buffer)[1][0]
    region, count, nprocs, targets = (64, 4096, 16, 16) if name == "fig4" else (8, 128, 64, 4)
    slot = region + 128
    view = resized(contiguous(region, BYTE), 0, slot * nprocs).flatten()
    fan = FanCursor(FlatCursor(view, 0, region * count), targets, hvector(count, region, slot, BYTE).flatten())
    step = view.extent * count // targets
    return fan.route([[(t * step, (t + 1) * step)] for t in range(targets)])[1][2]


def _copy_batch(shape: str) -> SegmentBatch:
    """Segment lists at the spine's per-peer sizes: 16 KiB of 64-byte
    segments (``fig4_*``), 19 KiB of 32-byte ones (``fig7_steps``); and
    three routed legs (``leg:<workload>``) with their period, or with it
    stripped (``detect:<workload>``) so the kernel finds it itself."""
    if shape.startswith(("leg:", "detect:")):
        kind, name = shape.split(":")
        leg = _routed_leg(name)
        assert leg.period is not None
        return leg if kind == "leg" else SegmentBatch(leg.file_offsets, leg.lengths, leg.data_offsets)
    if shape == "contiguous":  # a contiguous user buffer, one pair per region
        k = np.arange(256, dtype=np.int64) * 64
        return SegmentBatch(k + 5, np.full(256, 64, dtype=np.int64), k.copy())
    if shape == "regular":
        return data_to_file_segments(hvector(256, 64, 192, BYTE).flatten(), 0, 0, 256 * 64)
    if shape == "ragged":  # a realm edge cut the first and last regions
        return data_to_file_segments(hvector(256, 64, 192, BYTE).flatten(), 0, 37, 256 * 64 - 11)
    if shape == "two_level":  # aggregator side: D pairs x T tiles
        flat = _timeseries_flat()
        return FlatCursor(flat, 0, flat.size * 86).all_segments()
    rng = np.random.default_rng(7)
    lens = rng.integers(1, 128, size=256)
    starts = np.cumsum(lens + rng.integers(1, 200, size=256)) - lens
    return SegmentBatch(starts, lens, np.cumsum(lens) - lens)


@pytest.mark.parametrize(
    "shape",
    [
        "contiguous", "regular", "ragged", "two_level", "irregular",
        *(f"{kind}:{name}" for name in ("fig4", "fig7_steps", "ranks_many") for kind in ("leg", "detect")),
    ],
)
def test_copy_segments(benchmark, shape):
    """One pack + one unpack of a per-peer segment list (what each
    client/aggregator pairing of a round pays), through the public
    gather/scatter pair so the row reads the same on any commit."""
    batch = _copy_batch(shape)
    buf = (np.arange(int((batch.file_offsets + batch.lengths).max()) + 3) % 251).astype(np.uint8)
    out = np.zeros_like(buf)

    def roundtrip():
        scatter_segments(out, batch, gather_segments(buf, batch))

    benchmark(roundtrip)
    idx = expand_indices(batch.file_offsets, batch.lengths)
    assert np.array_equal(out[idx], buf[idx]) and int(out.sum()) == int(buf[idx].sum())


def test_sieve_write_regular(benchmark):
    """One aggregator's Fig. 4 flush: 4 096 segments of 64 B every 192 B
    sieved through 512 KiB windows (pre-read, patch, write back)."""
    k = np.arange(4096, dtype=np.int64) * 192
    batch = SegmentBatch(k + 1000, np.full(4096, 64, dtype=np.int64), k)
    data = (np.arange(4096 * 192) % 251).astype(np.uint8)

    def run():
        fs = SimFileSystem(CostModel())

        def main(ctx):
            f = FSClient(fs, ctx).open("/m", cache_mode="off")
            datasieve_write(f, batch, data, buffer_size=512 * 1024)

        Simulator(1).run(main)
        return fs

    fs = benchmark(run)
    assert np.array_equal(fs.raw_bytes("/m", 1000 + 192, 64), data[192 : 192 + 64])


@pytest.mark.parametrize("D", [1, 7], ids=["D=1", "D=7"])
def test_intersect_tiled_window(benchmark, D):
    """A client cursor cut into 16 realm windows, as one round's routing
    does: D=1 is the succinct HPIO filetype (256 pairs per window), D=7
    the time-series one."""
    flat = resized(contiguous(64, BYTE), 0, 3072).flatten() if D == 1 else _timeseries_flat()
    tiles = 4096 if D == 1 else 768
    total = flat.size * tiles
    step = flat.extent * tiles // 16

    def run():
        cur = FlatCursor(flat, 0, total)
        return sum(cur.intersect(lo, lo + step).total_bytes for lo in range(0, step * 16, step))

    assert flat.num_segments == D and benchmark(run) == total


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


@pytest.mark.parametrize("pages", [116, 512])
def test_sieve_window_through_cache(benchmark, pages):
    """One data-sieving window round trip through an incoherent cache: a
    window touching ``pages`` pages, both ends partial (116 is a
    ``fig7_steps`` window), pre-read, patched, written back, flushed.
    ``copied_bytes`` is what every ``Slabs`` copy path moved in it
    (``fs.store.copied``),
    copy-on-write copies and LRU stamps included: the span twice plus
    the two partial edge slabs, since fetch and flush hand slabs over by
    reference (six spans before)."""
    ps = DEFAULT_COST_MODEL.page_size
    lo, n = 100, pages * ps - 200
    copied = []

    def body(f):
        before = fs_store.copied
        window = f.read(lo, n)
        window[::7] = 7
        f.write(lo, window)
        f.sync()
        copied.append(fs_store.copied - before)

    fs = benchmark(lambda: _one_client(body, prefill=lo + n + ps))
    assert fs.raw_bytes("/m", lo, 15).tolist() == [7] + [1] * 6 + [7] + [1] * 6 + [7]
    assert copied[-1] <= 2 * n + 4 * SLAB_PAGES * ps
    benchmark.extra_info["copied_bytes"] = copied[-1]
    benchmark.extra_info["copied_per_span"] = copied[-1] / n


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
    (recorded as ``us_per_switch``).

    ``ctx_switches_per_handoff`` is the process's voluntary plus
    involuntary OS context switches over the last run, per hand-off.
    1.0 is the floor: the waker parks and the woken rank takes the CPU
    and the GIL in one switch, which is what the engine threads'
    ``SCHED_BATCH`` class buys.  About 3 (2.7–3.4 measured on a 2-vCPU
    VM) is the woken rank preempting the waker, blocking on the GIL the
    waker still holds, and being woken again when the waker parks — the
    default class, or a platform that refuses the batch class.
    Information only."""
    switches = []

    def run():
        sim = Simulator(2)

        def main(ctx):
            for _ in range(2000):
                ctx.advance(1e-6)

        r0 = resource.getrusage(resource.RUSAGE_SELF)
        sim.run(main)
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        switches.append(r1.ru_nvcsw - r0.ru_nvcsw + r1.ru_nivcsw - r0.ru_nivcsw)
        return sim

    sim = benchmark(run)
    assert sim.handoffs >= 4000
    benchmark.extra_info["ctx_switches_per_handoff"] = switches[-1] / sim.handoffs
    if benchmark.stats:  # None under --benchmark-disable (CI runs the rows as plain tests)
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
    if benchmark.stats:
        benchmark.extra_info["us_per_msg"] = benchmark.stats.stats.mean / messages * 1e6


@pytest.mark.parametrize("nprocs", [64])
def test_alltoallw_sparse_ranks(benchmark, nprocs):
    """The exchange ``ranks_many`` runs: an n-rank ``exchange=alltoallw``
    round in which only 4 receivers (the aggregators) get non-empty
    legs.  Only those legs are messages — 4 per rank, less each
    aggregator's local one — so this is the per-message host cost with
    almost no bytes (``us_per_msg``).  The aggregators' buffers are
    byte-checked."""
    aggs = tuple(range(0, nprocs, nprocs // 4))
    piece = 64

    def run():
        sim = Simulator(nprocs)

        def main(ctx):
            comm = Communicator(ctx)
            sendbuf = ((np.arange(4 * piece) + 7 * comm.rank) % 251).astype(np.uint8)
            send = [None] * nprocs
            for j, agg in enumerate(aggs):
                send[agg] = SegmentBatch(np.array([j * piece]), np.array([piece]), np.array([0]))
            recv = [None] * nprocs
            recvbuf = None
            if comm.rank in aggs:
                recvbuf = np.zeros(nprocs * piece, dtype=np.uint8)
                recv = [
                    SegmentBatch(np.array([src * piece]), np.array([piece]), np.array([0]))
                    for src in range(nprocs)
                ]
            exchange_data(comm, DEFAULT_COST_MODEL, "alltoallw", sendbuf, send, recvbuf, recv)
            return recvbuf

        return sim.run(main)

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    for j, agg in enumerate(aggs):
        expect = [((np.arange(piece) + j * piece + 7 * src) % 251) for src in range(nprocs)]
        assert np.array_equal(results[agg], np.concatenate(expect).astype(np.uint8))
    assert all(results[r] is None for r in range(nprocs) if r not in aggs)
    if benchmark.stats:
        messages = nprocs * len(aggs) - len(aggs)
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
