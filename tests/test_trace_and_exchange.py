"""Tests for trace export/analysis and the exchange backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DEFAULT_COST_MODEL
from repro.core.exchange import EXCHANGE_MODES, exchange_data
from repro.datatypes.segments import SegmentBatch
from repro.errors import CollectiveIOError, MPIError
from repro.mpi import Communicator
from repro.sim import Simulator, Tracer
from repro.sim.trace import TraceEvent


class TestTracerExport:
    def _traced(self):
        tracer = Tracer()
        sim = Simulator(2, tracer=tracer)

        def main(ctx):
            with ctx.trace("io", op=1):
                ctx.advance(2e-3)
            with ctx.trace("comm"):
                ctx.advance(1e-3)

        sim.run(main)
        return tracer

    def test_jsonl_roundtrip(self):
        tracer = self._traced()
        text = tracer.to_jsonl()
        back = Tracer.from_jsonl(text)
        assert len(back.events) == len(tracer.events)
        assert back.time_by_state() == pytest.approx(tracer.time_by_state())

    def test_jsonl_preserves_info(self):
        tracer = self._traced()
        back = Tracer.from_jsonl(tracer.to_jsonl())
        infos = [ev.info for ev in back.events if ev.state == "io"]
        assert {"op": 1} in infos

    def test_from_jsonl_skips_blank_lines(self):
        t = Tracer.from_jsonl("\n\n")
        assert t.events == []

    def test_timeline_renders(self):
        tracer = self._traced()
        art = tracer.timeline(0, width=30)
        assert "rank 0" in art
        assert "io" in art and "comm" in art
        assert "#" in art

    def test_timeline_no_events(self):
        assert "(no events" in Tracer().timeline(3)

    def test_event_duration(self):
        ev = TraceEvent(0, "x", 1.0, 3.5)
        assert ev.duration == 2.5


def _batch(positions, lengths, keys=None):
    pos = np.asarray(positions, dtype=np.int64)
    ln = np.asarray(lengths, dtype=np.int64)
    k = pos if keys is None else np.asarray(keys, dtype=np.int64)
    return SegmentBatch(pos, ln, k)


class TestExchangeBackends:
    @pytest.mark.parametrize("mode", EXCHANGE_MODES)
    def test_pairwise_swap(self, mode):
        """Rank 0 and 1 swap 8-byte blocks between their buffers."""

        def main(ctx):
            comm = Communicator(ctx)
            sendbuf = np.full(8, comm.rank + 1, dtype=np.uint8)
            recvbuf = np.zeros(8, dtype=np.uint8)
            peer = 1 - comm.rank
            send = [None, None]
            recv = [None, None]
            send[peer] = _batch([0], [8])
            recv[peer] = _batch([0], [8])
            exchange_data(comm, DEFAULT_COST_MODEL, mode, sendbuf, send, recvbuf, recv)
            return recvbuf.copy()

        results = Simulator(2).run(main)
        assert results[0].tolist() == [2] * 8
        assert results[1].tolist() == [1] * 8

    @pytest.mark.parametrize("mode", EXCHANGE_MODES)
    def test_self_exchange(self, mode):
        def main(ctx):
            comm = Communicator(ctx)
            sendbuf = np.arange(8, dtype=np.uint8)
            recvbuf = np.zeros(8, dtype=np.uint8)
            send = [_batch([2], [4])]
            recv = [_batch([4], [4])]
            exchange_data(comm, DEFAULT_COST_MODEL, mode, sendbuf, send, recvbuf, recv)
            return recvbuf.copy()

        out = Simulator(1).run(main)[0]
        assert out.tolist() == [0, 0, 0, 0, 2, 3, 4, 5]

    @pytest.mark.parametrize("mode", EXCHANGE_MODES)
    def test_returns_bytes_sent(self, mode):
        def main(ctx):
            comm = Communicator(ctx)
            sendbuf = np.zeros(16, dtype=np.uint8)
            recvbuf = np.zeros(16, dtype=np.uint8)
            peer = 1 - comm.rank
            send = [None, None]
            recv = [None, None]
            send[peer] = _batch([0, 8], [4, 4])
            recv[peer] = _batch([0, 8], [4, 4])
            return exchange_data(
                comm, DEFAULT_COST_MODEL, mode, sendbuf, send, recvbuf, recv
            )

        assert Simulator(2).run(main) == [8, 8]

    def test_unknown_mode_rejected(self):
        def main(ctx):
            comm = Communicator(ctx)
            with pytest.raises(CollectiveIOError):
                exchange_data(comm, DEFAULT_COST_MODEL, "smoke", None, [None], None, [None])
            return True

        assert all(Simulator(1).run(main))

    def test_nonblocking_size_mismatch_rejected(self):
        def main(ctx):
            comm = Communicator(ctx)
            sendbuf = np.zeros(8, dtype=np.uint8)
            recvbuf = np.zeros(8, dtype=np.uint8)
            send = [_batch([0], [4])]
            recv = [_batch([0], [2])]  # disagrees with send
            with pytest.raises(MPIError, match="peer sent 4 bytes, local batch expects 2"):
                exchange_data(
                    comm, DEFAULT_COST_MODEL, "nonblocking", sendbuf, send, recvbuf, recv
                )
            return True

        assert all(Simulator(1).run(main))

    @pytest.mark.parametrize("mode", EXCHANGE_MODES)
    def test_ordering_by_keys(self, mode):
        """data_offsets are order keys: out-of-order positions must still
        pair up by key order on both sides."""

        def main(ctx):
            comm = Communicator(ctx)
            sendbuf = np.arange(8, dtype=np.uint8)
            recvbuf = np.zeros(8, dtype=np.uint8)
            # Send bytes 4..8 then 0..4 (keys force reversed order).
            send = [_batch([4, 0], [4, 4], keys=[0, 4])]
            recv = [_batch([0], [8], keys=[0])]
            exchange_data(comm, DEFAULT_COST_MODEL, mode, sendbuf, send, recvbuf, recv)
            return recvbuf.copy()

        out = Simulator(1).run(main)[0]
        assert out.tolist() == [4, 5, 6, 7, 0, 1, 2, 3]


class TestUnmatchedLegs:
    """The flat exchange posts only legs that carry bytes, so neither
    side of a leg that only its sender knows about notices it in the
    round.  The collective call reports it instead: a message still
    queued on the exchange's tag once the call's collectives end is a
    typed error naming the stray."""

    @pytest.mark.parametrize("mode", ["alltoallw", "nonblocking"])
    def test_a_leg_no_batch_expects_is_a_typed_error(self, monkeypatch, mode):
        import repro.core.rounds as rounds
        from repro import Session
        from repro.datatypes import BYTE, contiguous, resized
        from repro.errors import RankFailed

        real = rounds.exchange_data

        def with_a_stray(comm, cost, mode, sendbuf, sends, recvbuf, recvs, **kw):
            # Rank 0 sends 8 bytes to rank 1, which aggregates nothing
            # (cb_nodes=2: ranks 0 and 2) and so expects no write leg.
            if comm.rank == 0 and sendbuf is not None:
                sends = list(sends)
                sends[1] = _batch([0], [8])
            return real(comm, cost, mode, sendbuf, sends, recvbuf, recvs, **kw)

        monkeypatch.setattr(rounds, "exchange_data", with_a_stray)
        s = Session.open("/stray", nprocs=4, hints={"cb_nodes": 2, "exchange": mode})

        def body(ctx, comm, f):
            f.set_view(disp=comm.rank * 64, filetype=resized(contiguous(64, BYTE), 0, 256))
            f.write_all(np.full(64 * 4, comm.rank + 1, dtype=np.uint8))

        with pytest.raises(RankFailed) as info:
            s.run(body)
        cause = info.value.__cause__
        assert isinstance(cause, CollectiveIOError), repr(cause)
        assert "rank 1 holds unmatched exchange messages" in str(cause)
        assert "B from rank 0" in str(cause)
