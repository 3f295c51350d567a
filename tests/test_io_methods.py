"""Tests for the independent I/O layer (datasieve / naive / listio)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session
from repro.config import DEFAULT_COST_MODEL, CostModel
from repro.datatypes import BYTE, contiguous, resized
from repro.datatypes.segments import FlatCursor, SegmentBatch
from repro.errors import CollectiveIOError
from repro.fs import FSClient, SimFileSystem
from repro.io import AdioFile, choose_method
from repro.io.datasieve import datasieve_read, datasieve_write
from repro.io.selection import is_contiguous_batch
from repro.mpi.hints import Hints
from repro.sim import Simulator

TEST_COST = CostModel(page_size=64, stripe_size=256, num_osts=2)

METHODS = ["datasieve", "naive", "listio"]


def strided_batch(region=16, space=48, count=8, disp=0):
    flat = resized(contiguous(region, BYTE), 0, region + space).flatten()
    cur = FlatCursor(flat, disp, region * count)
    return cur.all_segments()


def run_one(fn, cost=TEST_COST):
    fs = SimFileSystem(cost)

    def main(ctx):
        client = FSClient(fs, ctx)
        return fn(ctx, client, fs)

    sim = Simulator(1)
    results = sim.run(main)
    return results[0], fs, sim


class TestStridedWrite:
    @pytest.mark.parametrize("method", METHODS)
    def test_write_lands_in_right_places(self, method):
        batch = strided_batch()
        data = np.arange(batch.total_bytes, dtype=np.uint8)

        def main(ctx, client, fs):
            adio = AdioFile(client.open("/f", cache_mode="off"))
            adio.write_strided(batch, data, method)
            return None

        _, fs, _ = run_one(main)
        pos = 0
        for fo, ln in zip(batch.file_offsets.tolist(), batch.lengths.tolist()):
            assert fs.raw_bytes("/f", fo, ln).tolist() == list(range(pos, pos + ln))
            pos += ln

    @pytest.mark.parametrize("method", METHODS)
    def test_gaps_preserved(self, method):
        batch = strided_batch(region=8, space=8, count=4)
        data = np.full(batch.total_bytes, 7, dtype=np.uint8)

        def main(ctx, client, fs):
            fs.raw_write("/f", 0, np.full(128, 9, dtype=np.uint8))
            adio = AdioFile(client.open("/f", cache_mode="off"))
            adio.write_strided(batch, data, method)
            return None

        _, fs, _ = run_one(main)
        content = fs.raw_bytes("/f", 0, 64).tolist()
        for i in range(64):
            in_region = (i % 16) < 8
            assert content[i] == (7 if in_region else 9), (i, content[i])

    def test_overlapping_pieces_do_not_hide_a_hole_from_the_sieve(self):
        """[0, 10), [5, 15) and [20, 30) cover as many bytes as their
        30-byte span yet leave [15, 20) a hole: the sieve pre-reads it
        instead of writing it back from an uninitialised buffer."""
        batch = SegmentBatch(np.array([0, 5, 20]), np.array([10, 10, 10]), np.array([0, 10, 20]))
        data = np.arange(1, 31, dtype=np.uint8)

        def main(ctx, client, fs):
            fs.raw_write("/f", 0, np.full(64, 7, dtype=np.uint8))
            datasieve_write(client.open("/f", cache_mode="off"), batch, data, buffer_size=1 << 10)

        _, fs, _ = run_one(main)
        got = fs.raw_bytes("/f", 0, 32).tolist()
        # Pieces land in order, so the second owns [5, 15).
        assert got == data[:5].tolist() + data[10:20].tolist() + [7] * 5 + data[20:30].tolist() + [7, 7]

    def test_contig_fast_path(self):
        flat = contiguous(32, BYTE).flatten()
        batch = FlatCursor(flat, 100, 32).all_segments()

        def main(ctx, client, fs):
            adio = AdioFile(client.open("/f", cache_mode="off"))
            adio.write_strided(batch, np.arange(32, dtype=np.uint8), "contig")

        _, fs, _ = run_one(main)
        assert fs.registry.total("fs.server.writes") == 1
        assert fs.raw_bytes("/f", 100, 32).tolist() == list(range(32))

    def test_contig_rejects_multisegment(self):
        batch = strided_batch()

        def main(ctx, client, fs):
            adio = AdioFile(client.open("/f", cache_mode="off"))
            with pytest.raises(CollectiveIOError):
                adio.write_strided(batch, np.zeros(batch.total_bytes, dtype=np.uint8), "contig")
            return True

        assert run_one(main)[0]

    def test_unknown_method_rejected(self):
        batch = strided_batch()

        def main(ctx, client, fs):
            adio = AdioFile(client.open("/f", cache_mode="off"))
            with pytest.raises(CollectiveIOError):
                adio.write_strided(batch, np.zeros(batch.total_bytes, dtype=np.uint8), "bogus")
            return True

        assert run_one(main)[0]

    def test_empty_batch_noop(self):
        def main(ctx, client, fs):
            adio = AdioFile(client.open("/f", cache_mode="off"))
            adio.write_strided(SegmentBatch.empty_batch(), np.empty(0, dtype=np.uint8), "naive")

        _, fs, _ = run_one(main)
        assert fs.registry.total("fs.server.writes") == 0


class TestStridedRead:
    @pytest.mark.parametrize("method", METHODS)
    def test_read_matches_written(self, method):
        batch = strided_batch(region=8, space=24, count=6)

        def main(ctx, client, fs):
            span = int((batch.file_offsets + batch.lengths).max())
            fs.raw_write("/f", 0, np.arange(span, dtype=np.int64).astype(np.uint8))
            adio = AdioFile(client.open("/f", cache_mode="off"))
            return adio.read_strided(batch, method)

        out, fs, _ = run_one(main)
        for fo, ln, do in zip(
            batch.file_offsets.tolist(), batch.lengths.tolist(), batch.data_offsets.tolist()
        ):
            expect = fs.raw_bytes("/f", fo, ln).tolist()
            assert out[do : do + ln].tolist() == expect

    def test_contig_read(self):
        flat = contiguous(16, BYTE).flatten()
        batch = FlatCursor(flat, 8, 16).all_segments()

        def main(ctx, client, fs):
            fs.raw_write("/f", 8, np.arange(16, dtype=np.uint8))
            adio = AdioFile(client.open("/f", cache_mode="off"))
            return adio.read_strided(batch, "contig")

        out, _, _ = run_one(main)
        assert out.tolist() == list(range(16))

    @pytest.mark.parametrize("method", ["contig"] + METHODS)
    def test_result_ends_at_the_last_byte_and_is_zero_outside(self, method):
        """The read contract the collective read hands out as its
        buffer: exactly ``max(data_offsets + lengths)`` bytes, the
        batch's bytes at their data offsets, zero in the interior gaps
        and before the first offset.  The batch's last segment ends
        short of the buffer it addresses (a trailing hole the result
        does not include)."""
        if method == "contig":
            batch = SegmentBatch(np.array([40]), np.array([12]), np.array([5]))
        else:
            batch = SegmentBatch(
                np.array([8, 30, 70, 100]), np.array([6, 10, 4, 9]), np.array([3, 20, 41, 60])
            )

        def main(ctx, client, fs):
            fs.raw_write("/f", 0, np.arange(1, 161, dtype=np.uint8))
            adio = AdioFile(client.open("/f", cache_mode="off"))
            return adio.read_strided(batch, method)

        out, fs, _ = run_one(main)
        want = np.zeros(int((batch.data_offsets + batch.lengths).max()), dtype=np.uint8)
        for fo, ln, do in zip(
            batch.file_offsets.tolist(), batch.lengths.tolist(), batch.data_offsets.tolist()
        ):
            want[do : do + ln] = fs.raw_bytes("/f", fo, ln)
        assert out.dtype == np.uint8
        assert out.tolist() == want.tolist()


class TestConcurrentIndependentWrites:
    """Four ranks ``write_ind`` interleaved 16-byte tiles: rank ``r``
    owns bytes ``[64 t + 16 r, 64 t + 16 r + 16)`` of tiles ``t < 8``,
    so every byte of the 512-byte file has exactly one writer."""

    @staticmethod
    def _wrong_bytes(io_method: str, page_size: int) -> int:
        s = Session(
            "/ind",
            nprocs=4,
            hints={"io_method": io_method},
            cost=dataclasses.replace(DEFAULT_COST_MODEL, page_size=page_size),
        )

        def body(ctx, comm, f):
            f.set_view(disp=16 * comm.rank, filetype=resized(contiguous(16, BYTE), 0, 64))
            f.write_ind(np.full(16 * 8, comm.rank + 1, dtype=np.uint8))

        s.run(body)
        want = np.repeat(np.tile(np.arange(1, 5, dtype=np.uint8), 8), 16)
        return int((s.fs.raw_bytes("/ind", 0, 512) != want).sum())

    @pytest.mark.parametrize("page_size", [64, 4096])
    def test_naive_writes_land_exactly(self, page_size):
        assert self._wrong_bytes("naive", page_size) == 0

    @pytest.mark.xfail(
        strict=True,
        reason="datasieve_write holds nothing between its pre-read and its "
        "write-back, so a rank's stale gap bytes overwrite its neighbours' "
        "(368 of 512 bytes wrong)",
    )
    @pytest.mark.parametrize("page_size", [64, 4096])
    def test_sieving_writes_land_exactly(self, page_size):
        assert self._wrong_bytes("datasieve", page_size) == 0


class TestCostShape:
    def _time_write(self, method, region, space, count, ds_buffer=1 << 20):
        batch = strided_batch(region=region, space=space, count=count)
        data = np.zeros(batch.total_bytes, dtype=np.uint8)

        def main(ctx, client, fs):
            local = client.open("/f", cache_mode="off")
            t0 = ctx.now
            if method == "datasieve":
                datasieve_write(local, batch, data, buffer_size=ds_buffer)
            else:
                AdioFile(local).write_strided(batch, data, method)
            return ctx.now - t0

        t, fs, _ = run_one(main)
        return t, fs

    def test_datasieve_fewer_calls_than_naive(self):
        _, fs_ds = self._time_write("datasieve", 16, 48, 32)
        _, fs_nv = self._time_write("naive", 16, 48, 32)
        assert fs_ds.metrics("/f").value("fs.server.writes") < fs_nv.metrics("/f").value("fs.server.writes")

    def test_small_extent_datasieve_wins(self):
        # Dense small regions: per-call overhead dominates naive.
        t_ds, _ = self._time_write("datasieve", 16, 16, 128)
        t_nv, _ = self._time_write("naive", 16, 16, 128)
        assert t_ds < t_nv

    def test_sparse_large_extent_naive_wins(self):
        # Few huge gaps: sieving reads/writes mostly gap bytes.
        t_ds, _ = self._time_write("datasieve", 64, 1 << 16, 16)
        t_nv, _ = self._time_write("naive", 64, 1 << 16, 16)
        assert t_nv < t_ds

    def test_listio_single_client_call_many_server_frags(self):
        _, fs = self._time_write("listio", 16, 48, 32)
        assert fs.metrics("/f").value("fs.server.writes") == 1

    def test_datasieve_windows_bound_rmw_span(self):
        t_small, _ = self._time_write("datasieve", 16, 112, 64, ds_buffer=256)
        t_big, _ = self._time_write("datasieve", 16, 112, 64, ds_buffer=1 << 20)
        # Both work; windowing changes cost but not correctness.
        assert t_small > 0 and t_big > 0


class TestChooseMethod:
    def test_contig_detected(self):
        flat = contiguous(8, BYTE).flatten()
        batch = FlatCursor(flat, 0, 8).all_segments()
        assert is_contiguous_batch(batch)
        assert choose_method(Hints(io_method="conditional"), 1 << 20, batch) == "contig"

    def test_conditional_threshold(self):
        batch = strided_batch()
        hints = Hints(io_method="conditional")
        assert choose_method(hints, 1024, batch) == "datasieve"
        assert choose_method(hints, 16 * 1024, batch) == "datasieve"
        assert choose_method(hints, 64 * 1024, batch) == "naive"

    def test_fixed_methods_pass_through(self):
        batch = strided_batch()
        for m in METHODS:
            assert choose_method(Hints(io_method=m), 123, batch) == m

    def test_empty_batch_contig(self):
        assert choose_method(Hints(), 8, SegmentBatch.empty_batch()) == "contig"


@given(
    st.integers(1, 32),   # region
    st.integers(0, 64),   # space
    st.integers(1, 24),   # count
    st.sampled_from(METHODS),
    st.integers(0, 100),  # disp
)
@settings(max_examples=60, deadline=None)
def test_write_read_roundtrip_property(region, space, count, method, disp):
    batch = strided_batch(region=region, space=space, count=count, disp=disp)
    rng = np.random.default_rng(region * 1000 + space)
    data = rng.integers(0, 255, size=batch.total_bytes, dtype=np.uint8)

    def main(ctx, client, fs):
        local = client.open("/f", cache_mode="off")
        if method == "datasieve":  # 512 B windows: many per access
            datasieve_write(local, batch, data, buffer_size=512)
            return datasieve_read(local, batch, buffer_size=512)
        adio = AdioFile(local)
        adio.write_strided(batch, data, method)
        return adio.read_strided(batch, method)

    out, _, _ = run_one(main)
    assert np.array_equal(out[: data.size], data)
