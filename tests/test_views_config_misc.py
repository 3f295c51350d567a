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
        assert v.flat.is_contiguous

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

    def test_spread_aggregators_flush_end_to_end(self):
        """4 ranks, cb_nodes=2: the aggregators, and so the only ranks
        that flush, are ranks 0 and 2."""
        from repro import Session

        s = Session(nprocs=4, hints={"cb_nodes": 2})

        def body(ctx, comm, f):
            f.set_view(disp=comm.rank * 8, filetype=resized(contiguous(8, BYTE), 0, 32))
            f.write_all(np.full(16, comm.rank + 1, dtype=np.uint8))

        s.run(body)
        methods = [n for n in s.metrics.names() if n.startswith("coll.flush.")]
        flushed = [r for r in range(4) if any(s.metrics.value(n, r) for n in methods)]
        assert flushed == [0, 2]


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

