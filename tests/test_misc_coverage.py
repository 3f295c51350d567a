"""Coverage for small public helpers not exercised elsewhere."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DEFAULT_COST_MODEL
from repro.datatypes import BYTE, contiguous
from repro.datatypes.base import RawFlatType
from repro.datatypes.flatten import FlatType
from repro.datatypes.segments import FlatCursor
from repro.errors import DatatypeError
from repro.fs import FSClient, SimFileSystem
from repro.io import AdioFile
from repro.io.datasieve import datasieve_read, datasieve_write
from repro.mpi.network import Network
from repro.sim import Simulator


class TestNetworkModel:
    def test_costs_positive(self):
        net = Network(DEFAULT_COST_MODEL)
        assert net.send_overhead() > 0
        assert net.recv_overhead() > 0
        assert net.post_overhead() > 0


class TestRawFlatType:
    def test_wraps_explicit_flat(self):
        flat = FlatType([0, 8], [4, 4], 16)
        dt = RawFlatType(flat, name="custom")
        assert dt.flatten() is flat
        assert dt.size == 8
        assert dt.name == "custom"
        assert "custom" in repr(dt)


class TestAdioContig:
    def test_contig_read_write(self):
        fs = SimFileSystem(DEFAULT_COST_MODEL)

        def main(ctx):
            adio = AdioFile(FSClient(fs, ctx).open("/c", cache_mode="off"))
            adio.write_contig(100, np.arange(32, dtype=np.uint8))
            out = adio.read_contig(100, 32)
            assert adio.method_counts["contig"] == 2
            return out.tolist()

        assert Simulator(1).run(main)[0] == list(range(32))

    def test_bad_ds_buffer_rejected(self):
        from repro.errors import CollectiveIOError

        fs = SimFileSystem(DEFAULT_COST_MODEL)

        def main(ctx):
            local = FSClient(fs, ctx).open("/c")
            batch = FlatCursor(contiguous(8, BYTE).flatten(), 0, 8).all_segments()
            with pytest.raises(CollectiveIOError):
                datasieve_write(local, batch, np.zeros(8, dtype=np.uint8), buffer_size=0)
            with pytest.raises(CollectiveIOError):
                datasieve_read(local, batch, buffer_size=0)
            return True

        assert Simulator(1).run(main)[0]


class TestCursorDataWindow:
    def test_data_lo_clips_front(self):
        flat = contiguous(16, BYTE).flatten()
        cur = FlatCursor(flat, 0, 16, data_lo=4)
        batch = cur.all_segments()
        assert batch.file_offsets.tolist() == [4]
        assert batch.lengths.tolist() == [12]
        assert batch.data_offsets.tolist() == [4]

    def test_data_lo_midtile(self):
        from repro.datatypes import resized

        flat = resized(contiguous(4, BYTE), 0, 10).flatten()
        cur = FlatCursor(flat, 0, 12, data_lo=6)  # data 6..12: tiles 1..2
        batch = cur.all_segments()
        # data 6,7 -> file 12,13 (tile 1); data 8..11 -> file 20..23.
        assert batch.file_offsets.tolist() == [12, 20]
        assert batch.lengths.tolist() == [2, 4]
        assert batch.data_offsets.tolist() == [6, 8]

    def test_first_byte_with_data_lo(self):
        from repro.datatypes import resized

        flat = resized(contiguous(4, BYTE), 0, 10).flatten()
        cur = FlatCursor(flat, 100, 12, data_lo=6)
        assert cur.first_byte == 100 + 10 + 2

    def test_invalid_window_rejected(self):
        flat = contiguous(8, BYTE).flatten()
        with pytest.raises(DatatypeError):
            FlatCursor(flat, 0, 8, data_lo=9)
        with pytest.raises(DatatypeError):
            FlatCursor(flat, 0, 8, data_lo=-1)

    def test_empty_window_ok(self):
        flat = contiguous(8, BYTE).flatten()
        cur = FlatCursor(flat, 0, 8, data_lo=8)
        assert cur.intersect(0, 100).empty

    def test_no_skip_charge_for_pre_window_tiles(self):
        from repro.datatypes import resized

        flat = resized(contiguous(4, BYTE), 0, 10).flatten()
        cur = FlatCursor(flat, 0, 40, data_lo=20)  # starts at tile 5
        batch = cur.intersect(50, 60)  # tile 5 exactly
        assert batch.tiles_skipped == 0
        assert batch.total_bytes == 4
