"""Tests for FileView validation, aggregator layout and CostModel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CostModel, DEFAULT_COST_MODEL
from repro.core.aggregation import select_aggregators
from repro.core.file_view import FileView
from repro.datatypes import BYTE, INT, contiguous, hindexed, resized, vector
from repro.errors import CollectiveIOError


class TestFileView:
    def test_default_is_byte_stream(self):
        v = FileView()
        assert v.disp == 0
        assert v.etype.size == 1
        assert v.is_contiguous

    def test_etype_must_divide_filetype(self):
        with pytest.raises(CollectiveIOError):
            FileView(0, INT, contiguous(3, BYTE))  # 3 % 4 != 0

    def test_filetype_defaults_to_etype(self):
        v = FileView(0, INT)
        assert v.flat.size == 4

    def test_negative_disp_rejected(self):
        with pytest.raises(CollectiveIOError):
            FileView(-1, BYTE, BYTE)

    def test_zero_size_filetype_rejected(self):
        with pytest.raises(CollectiveIOError):
            FileView(0, BYTE, contiguous(0, BYTE))

    def test_nonmonotonic_filetype_rejected(self):
        bad = hindexed([1, 1], [4, 0], BYTE)
        with pytest.raises(CollectiveIOError):
            FileView(0, BYTE, bad)

    def test_overlapping_tiling_rejected(self):
        with pytest.raises(CollectiveIOError):
            FileView(0, BYTE, resized(contiguous(8, BYTE), 0, 4))

    def test_access_span(self):
        v = FileView(10, BYTE, resized(contiguous(4, BYTE), 0, 16))
        assert v.access_span(0) == (10, 10)
        assert v.access_span(4) == (10, 14)
        assert v.access_span(6) == (10, 28)  # second tile partially

    def test_cursor_fresh_each_call(self):
        v = FileView(0, BYTE, vector(4, 2, 4, BYTE))
        c1 = v.cursor(8)
        c2 = v.cursor(8)
        assert c1 is not c2

    def test_repr_mentions_parts(self):
        v = FileView(5, INT, contiguous(2, INT))
        assert "disp=5" in repr(v)


class TestAggregatorLayout:
    def test_spread_default(self):
        assert select_aggregators(8, 4) == [0, 2, 4, 6]

    def test_packed(self):
        assert select_aggregators(8, 4, "packed") == [0, 1, 2, 3]

    def test_layout_irrelevant_when_all(self):
        assert select_aggregators(4, 0, "packed") == [0, 1, 2, 3]

    def test_unknown_layout_rejected(self):
        with pytest.raises(CollectiveIOError):
            select_aggregators(4, 2, "randomly")

    def test_packed_hint_end_to_end(self):
        from repro.core import CollectiveFile
        from repro.fs import SimFileSystem
        from repro.mpi import Communicator, Hints
        from repro.sim import Simulator

        fs = SimFileSystem()
        hints = Hints(cb_nodes=1, cb_layout="packed")

        def main(ctx):
            comm = Communicator(ctx)
            f = CollectiveFile(ctx, comm, fs, "/p", hints=hints)
            f.set_view(disp=comm.rank * 8, filetype=resized(contiguous(8, BYTE), 0, 16))
            f.write_all(np.full(16, comm.rank + 1, dtype=np.uint8))
            f.close()
            # With one packed aggregator, only rank 0 flushes.
            snap = f.metrics.snapshot()
            pre = "coll.flush."
            return {k[len(pre):]: v for k, v in snap.items() if k.startswith(pre)}

        results = Simulator(2).run(main)
        assert results[0] != {}
        assert results[1] == {}

    @pytest.mark.parametrize("layout,aggs", [("spread", [0, 2]), ("packed", [0, 1])])
    def test_layout_moves_the_aggregators_end_to_end(self, layout, aggs):
        """The hint's evidence: 4 ranks, cb_nodes=2 — the two layouts
        flush from different ranks (with cb_nodes=1 both pick rank 0)."""
        from repro import Session

        s = Session(nprocs=4, hints={"cb_nodes": 2, "cb_layout": layout})

        def body(ctx, comm, f):
            f.set_view(disp=comm.rank * 8, filetype=resized(contiguous(8, BYTE), 0, 32))
            f.write_all(np.full(16, comm.rank + 1, dtype=np.uint8))

        s.run(body)
        methods = [n for n in s.metrics.names() if n.startswith("coll.flush.")]
        flushed = [r for r in range(4) if any(s.metrics.value(n, r) for n in methods)]
        assert flushed == aggs


class TestCostModel:
    def test_defaults_valid(self):
        DEFAULT_COST_MODEL.validate()

    def test_replace_returns_new(self):
        a = CostModel()
        b = a.replace(num_osts=8)
        assert a.num_osts == 4
        assert b.num_osts == 8

    def test_negative_param_rejected(self):
        with pytest.raises(ValueError):
            CostModel(net_latency=-1).validate()

    def test_stripe_page_consistency(self):
        with pytest.raises(ValueError):
            CostModel(stripe_size=5000).validate()  # not multiple of 4096
        with pytest.raises(ValueError):
            CostModel(page_size=0).validate()
        with pytest.raises(ValueError):
            CostModel(num_osts=0).validate()

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_COST_MODEL.num_osts = 2  # type: ignore[misc]

