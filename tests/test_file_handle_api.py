"""Tests for the MPI_File-like API surface: explicit-offset collectives,
independent I/O, hints plumbing, and lifecycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CostModel
from repro.core import CollectiveFile
from repro.datatypes import BYTE, INT, contiguous, resized, vector
from repro.errors import CollectiveIOError, HintConflict, HintError, RankFailed
from repro.fs import SimFileSystem
from repro.mpi import Communicator, Hints
from repro.sim import Simulator

COST = CostModel(page_size=64, stripe_size=256, num_osts=2)


def run(nprocs, body, hints=None):
    fs = SimFileSystem(COST)
    hints = hints or Hints()

    def main(ctx):
        comm = Communicator(ctx, COST)
        f = CollectiveFile(ctx, comm, fs, "/f", hints=hints, cost=COST)
        try:
            return body(ctx, comm, f)
        finally:
            f.close()

    return Simulator(nprocs).run(main), fs


class TestExplicitOffsets:
    def test_write_at_all_lands_later_records(self):
        """Each collective writes one 'record' (a filetype instance);
        write_at_all addresses records directly."""

        def body(ctx, comm, f):
            f.set_view(disp=comm.rank * 8, filetype=resized(contiguous(8, BYTE), 0, 16))
            f.write_at_all(0, np.full(8, 1, dtype=np.uint8))
            f.write_at_all(8, np.full(8, 2, dtype=np.uint8))  # skip 1 record
            return True

        results, fs = run(2, body)
        assert all(results)
        # Tile extent is 16: rank r's record k sits at r*8 + k*16.
        assert fs.raw_bytes("/f", 0, 8).tolist() == [1] * 8    # r0 rec0
        assert fs.raw_bytes("/f", 8, 8).tolist() == [1] * 8    # r1 rec0
        assert fs.raw_bytes("/f", 16, 8).tolist() == [2] * 8   # r0 rec1
        assert fs.raw_bytes("/f", 24, 8).tolist() == [2] * 8   # r1 rec1

    def test_read_at_all_roundtrip(self):
        def body(ctx, comm, f):
            f.set_view(disp=comm.rank * 8, filetype=resized(contiguous(8, BYTE), 0, 16))
            f.write_at_all(8, np.full(8, comm.rank + 5, dtype=np.uint8))
            out = np.zeros(8, dtype=np.uint8)
            f.read_at_all(8, out)
            return out.tolist()

        results, _ = run(2, body)
        assert results[0] == [5] * 8
        assert results[1] == [6] * 8

    def test_mid_tile_offset_supported(self):
        """Explicit offsets may land mid-filetype-instance: the data
        stream position maps through the typemap exactly."""

        def body(ctx, comm, f):
            f.set_view(disp=0, filetype=resized(contiguous(8, BYTE), 0, 16))
            # Offset 3 etypes (= bytes): data bytes 3..11 of the stream:
            # file bytes 3..8 (tail of tile 0) and 16..19 (head of tile 1).
            f.write_at_all(3, np.full(8, 9, dtype=np.uint8))
            return True

        results, fs = run(1, body)
        assert all(results)
        img = fs.raw_bytes("/f", 0, 20).tolist()
        assert img[0:3] == [0, 0, 0]
        assert img[3:8] == [9] * 5
        assert img[8:16] == [0] * 8
        assert img[16:19] == [9] * 3
        assert img[19] == 0

    def test_pointer_advances_and_seeks(self):
        def body(ctx, comm, f):
            f.set_view(disp=comm.rank * 8, filetype=resized(contiguous(8, BYTE), 0, 16))
            assert f.get_position() == 0
            f.write_all(np.full(8, 1, dtype=np.uint8))
            assert f.get_position() == 8
            f.write_all(np.full(8, 2, dtype=np.uint8))  # appends
            assert f.get_position() == 16
            f.seek(0)
            out = np.zeros(16, dtype=np.uint8)
            f.read_all(out)
            assert f.get_position() == 16
            f.seek(-8, f.SEEK_CUR)
            assert f.get_position() == 8
            return out.tolist()

        results, fs = run(2, body)
        assert results[0] == [1] * 8 + [2] * 8
        # Records interleave by rank; record 1 lands one tile later.
        assert fs.raw_bytes("/f", 16, 8).tolist() == [2] * 8

    def test_seek_validation(self):
        def body(ctx, comm, f):
            with pytest.raises(CollectiveIOError):
                f.seek(-1)
            with pytest.raises(CollectiveIOError):
                f.seek(0, whence=7)
            return True

        results, _ = run(1, body)
        assert all(results)

    def test_at_all_does_not_move_pointer(self):
        def body(ctx, comm, f):
            f.set_view(disp=0, filetype=contiguous(8, BYTE))
            f.write_at_all(4, np.zeros(8, dtype=np.uint8))
            return f.get_position()

        results, _ = run(1, body)
        assert results[0] == 0

    def test_negative_offset_rejected(self):
        def body(ctx, comm, f):
            with pytest.raises(CollectiveIOError):
                f.write_at_all(-1, np.zeros(4, dtype=np.uint8))
            return True

        run(1, body)

    def test_fractional_and_bool_arguments_rejected(self):
        """Offsets, counts and the view displacement are integers: a
        float or a bool is refused by name, never truncated."""
        four = np.zeros(4, dtype=np.uint8)

        def body(ctx, comm, f):
            f.set_view(disp=0, filetype=contiguous(4, BYTE))
            cases = [
                ("offset", lambda: f.write_at_all(2.5, four)),
                ("offset", lambda: f.read_at_all(1.0, four)),
                ("offset", lambda: f.iwrite_at_all(True, four)),
                ("offset", lambda: f.seek(1.5)),
                ("offset", lambda: f.seek(0.5, f.SEEK_CUR)),
                ("count", lambda: f.write_all(four, BYTE, count=True)),
                ("count", lambda: f.write_all(four, BYTE, count=1.5)),
                ("count", lambda: f.read_ind(four, BYTE, count=2.0)),
                ("disp", lambda: f.set_view(disp=2.5)),
            ]
            for name, call in cases:
                with pytest.raises(CollectiveIOError, match=f"{name} must be an integer"):
                    call()
            assert f.get_position() == 0 and f.view.disp == 0
            f.seek(np.int64(1))
            f.write_all(four, BYTE, count=np.int32(4))
            return f.get_position()

        results, fs = run(1, body)
        assert results[0] == 5 and type(results[0]) is int
        assert fs.file_size("/f") == 5

    def test_view_restored_after_at_all(self):
        def body(ctx, comm, f):
            f.set_view(disp=64, filetype=contiguous(8, BYTE))
            f.write_at_all(8, np.zeros(8, dtype=np.uint8))
            return f.view.disp

        results, _ = run(1, body)
        assert results[0] == 64


class TestIndependentIO:
    def test_write_ind_strided(self):
        def body(ctx, comm, f):
            # set_view is collective; the independent write is not.
            f.set_view(disp=0, filetype=resized(contiguous(4, BYTE), 0, 12))
            if comm.rank == 0:
                f.write_ind(np.arange(16, dtype=np.uint8))
            return True

        results, fs = run(2, body)
        img = fs.raw_bytes("/f", 0, 48)
        for tile in range(4):
            assert img[tile * 12 : tile * 12 + 4].tolist() == list(range(tile * 4, tile * 4 + 4))
            assert img[tile * 12 + 4 : tile * 12 + 12].tolist() == [0] * 8

    def test_read_ind_roundtrip(self):
        def body(ctx, comm, f):
            f.set_view(disp=comm.rank * 100, filetype=resized(contiguous(4, BYTE), 0, 12))
            data = np.arange(16, dtype=np.uint8) + comm.rank
            f.write_ind(data)
            f.seek(0)
            out = np.zeros_like(data)
            f.read_ind(out)
            return np.array_equal(out, data)

        results, _ = run(2, body)
        assert all(results)

    def test_write_ind_noncontig_memory(self):
        def body(ctx, comm, f):
            f.set_view(disp=0, filetype=contiguous(8, BYTE))
            mt = vector(2, 4, 8, BYTE)  # 8 data bytes from a 12-byte buffer
            buf = np.arange(12, dtype=np.uint8)
            f.write_ind(buf, memtype=mt, count=1)
            return True

        results, fs = run(1, body)
        assert fs.raw_bytes("/f", 0, 8).tolist() == [0, 1, 2, 3, 8, 9, 10, 11]

    def test_ind_uses_hinted_method(self):
        def body(ctx, comm, f):
            f.set_view(disp=0, filetype=resized(contiguous(4, BYTE), 0, 12))
            f.write_ind(np.zeros(16, dtype=np.uint8))
            snap = f.metrics.snapshot()
            pre = "coll.flush."
            return {k[len(pre):]: v for k, v in snap.items() if k.startswith(pre)}

        results, _ = run(1, body, Hints(io_method="naive"))
        assert results[0] == {"naive": 1}

    def test_zero_size_noop(self):
        def body(ctx, comm, f):
            f.set_view(disp=0, filetype=contiguous(4, BYTE))
            f.write_ind(np.empty(0, dtype=np.uint8))
            return True

        results, _ = run(1, body)
        assert all(results)


class TestHints:
    def test_unknown_key_rejected(self):
        with pytest.raises(HintError):
            Hints(bogus_key=1)

    def test_bad_value_rejected(self):
        with pytest.raises(HintError):
            Hints(cb_buffer_size=-4)
        with pytest.raises(HintError):
            Hints(io_method="turbo")
        with pytest.raises(HintError):
            Hints(use_heap="maybe")

    @pytest.mark.parametrize("key,value", [
        ("cb_nodes", 2.7),
        ("cb_buffer_size", True),
        ("cache_pages", False),
        ("pipeline_depth", 1.5),
        ("cb_nodes", float("inf")),
        ("coll_deadline", float("nan")),
        ("coll_deadline", True),
    ])
    def test_non_integral_bool_and_nan_values_rejected(self, key, value):
        with pytest.raises(HintError):
            Hints(**{key: value})

    def test_integral_numbers_accepted(self):
        h = Hints(cb_nodes=2.0, cb_buffer_size=np.int64(512), coll_deadline=1)
        assert h["cb_nodes"] == 2 and type(h["cb_nodes"]) is int
        assert h["cb_buffer_size"] == 512 and type(h["cb_buffer_size"]) is int
        assert h["coll_deadline"] == 1.0

    @pytest.mark.parametrize("key", [
        "cb_layout", "ds_buffer_size", "ds_threshold_extent", "io_retry_backoff",
        "failover", "io_retry_budget", "crash_quorum",
    ])
    def test_hints_no_product_turned_are_unknown(self, key):
        """Retired to constants (docs/api.md "Removed by the audit")."""
        with pytest.raises(HintError):
            Hints(**{key: 1})

    def test_defaults_resolve(self):
        h = Hints()
        assert h["coll_impl"] == "new"
        assert h["cb_buffer_size"] == 4 * 1024 * 1024
        assert h["io_method"] == "datasieve"
        assert h["use_heap"] is True

    def test_string_booleans_and_ints(self):
        h = Hints(use_heap="false", cb_buffer_size="1048576")
        assert h["use_heap"] is False
        assert h["cb_buffer_size"] == 1 << 20

    def test_replace_overrides(self):
        a = Hints(cb_nodes=4)
        b = a.replace(cb_nodes=8, io_method="naive")
        assert a["cb_nodes"] == 4
        assert b["cb_nodes"] == 8
        assert b["io_method"] == "naive"

    def test_explicit_only_set_keys(self):
        assert Hints(cb_nodes=2).explicit() == {"cb_nodes": 2}

    def test_mapping_interface(self):
        h = Hints()
        assert len(h) == len(Hints.known_keys())
        assert set(iter(h)) == set(Hints.known_keys())
        assert Hints.default("exchange") == "alltoallw"

    def test_aligned_strategy_requires_alignment(self):
        # Refused at open (it used to surface inside the first
        # collective call, and only under coll_impl=new).
        for impl in ("new", "old"):
            with pytest.raises(RankFailed) as failed:
                run(1, lambda ctx, comm, f: True, Hints(coll_impl=impl, realm_strategy="aligned"))
            assert isinstance(failed.value.__cause__, HintConflict)
            assert failed.value.__cause__.rule == "aligned.needs_alignment"


class TestLifecycle:
    def test_set_view_is_collective(self):
        def body(ctx, comm, f):
            f.set_view(disp=0, etype=INT, filetype=contiguous(4, INT))
            return f.view.etype.size

        results, _ = run(3, body)
        assert results == [4, 4, 4]

    def test_double_close_safe(self):
        def body(ctx, comm, f):
            f.close()
            f.close()
            return True

        results, _ = run(2, body)
        assert all(results)

    def test_context_manager(self):
        fs = SimFileSystem(COST)

        def main(ctx):
            comm = Communicator(ctx, COST)
            with CollectiveFile(ctx, comm, fs, "/cm", cost=COST) as f:
                f.write_all(np.full(8, 3, dtype=np.uint8))
            return True

        assert all(Simulator(2).run(main))
        assert fs.raw_bytes("/cm", 0, 8).tolist() == [3] * 8

    def test_sync_flushes_cache(self):
        def body(ctx, comm, f):
            f.write_all(np.full(64, 9, dtype=np.uint8))
            f.sync()
            return True

        results, fs = run(1, body, Hints(cache_mode="incoherent", persistent_file_realms=True))
        assert fs.raw_bytes("/f", 0, 64).tolist() == [9] * 64

    def test_size_property(self):
        def body(ctx, comm, f):
            f.write_all(np.zeros(100, dtype=np.uint8))
            f.sync()
            return f.size

        results, _ = run(1, body)
        assert results[0] == 100
