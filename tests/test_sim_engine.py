"""Tests for the deterministic virtual-time engine."""

from __future__ import annotations

import pytest

from repro.errors import RankFailed, SimDeadlock
from repro.sim import Signal, Simulator, Tracer
from repro.sim.clock import VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance_accumulates(self):
        c = VirtualClock()
        c.advance(1.5)
        c.advance(0.5)
        assert c.now == 2.0

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_advance_to_never_goes_backwards(self):
        c = VirtualClock(5.0)
        c.advance_to(3.0)
        assert c.now == 5.0
        c.advance_to(7.0)
        assert c.now == 7.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(-0.1)


class TestSimulatorBasics:
    def test_results_in_rank_order(self):
        sim = Simulator(4)
        results = sim.run(lambda ctx: ctx.rank * 10)
        assert results == [0, 10, 20, 30]

    def test_single_rank(self):
        assert Simulator(1).run(lambda ctx: "ok") == ["ok"]

    def test_nprocs_must_be_positive(self):
        with pytest.raises(ValueError):
            Simulator(0)

    def test_run_is_single_shot(self):
        sim = Simulator(2)
        sim.run(lambda ctx: None)
        with pytest.raises(Exception):
            sim.run(lambda ctx: None)

    def test_per_rank_args(self):
        sim = Simulator(3)
        results = sim.run(
            lambda ctx, base, extra: base + extra,
            100,
            per_rank_args=[(1,), (2,), (3,)],
        )
        assert results == [101, 102, 103]

    def test_times_reflect_advances(self):
        sim = Simulator(3)

        def main(ctx):
            ctx.advance(0.1 * (ctx.rank + 1))

        sim.run(main)
        assert sim.times == pytest.approx([0.1, 0.2, 0.3])
        assert sim.makespan == pytest.approx(0.3)

    def test_charge_does_not_require_reschedule(self):
        sim = Simulator(2)

        def main(ctx):
            for _ in range(10):
                ctx.charge(0.01)
            return ctx.now

        results = sim.run(main)
        assert results == pytest.approx([0.1, 0.1])


class TestScheduling:
    def test_min_time_rank_runs_first(self):
        """Execution interleaves in virtual-time order."""
        order = []
        sim = Simulator(3)

        def main(ctx):
            # Rank r advances by r+1 ms per step; smaller clocks run first.
            for step in range(3):
                order.append((round(ctx.now, 6), ctx.rank, step))
                ctx.advance((ctx.rank + 1) * 1e-3)

        sim.run(main)
        # The recorded (time, rank) keys must be globally sorted: the engine
        # always resumed the earliest rank.
        assert order == sorted(order)

    def test_deterministic_across_runs(self):
        def main(ctx):
            trace = []
            for _ in range(5):
                trace.append(round(ctx.now, 9))
                ctx.advance(1e-3 * (ctx.rank + 1))
            return tuple(trace)

        r1 = Simulator(4).run(main)
        r2 = Simulator(4).run(main)
        assert r1 == r2

    def test_block_wakes_on_condition(self):
        sim = Simulator(2)
        mailbox = sim.shared.setdefault("mailbox", [])
        posted = Signal()

        def main(ctx):
            if ctx.rank == 0:
                ctx.advance(1e-3)
                mailbox.append("hello")
                posted.notify()
                ctx.advance(1e-3)
                return None
            value = ctx.block(lambda: mailbox[0] if mailbox else None, "mail", on=posted)
            return value

        results = sim.run(main)
        assert results[1] == "hello"


class TestFailures:
    def test_rank_exception_propagates(self):
        sim = Simulator(2)

        def main(ctx):
            if ctx.rank == 1:
                raise ValueError("boom")

        with pytest.raises(RankFailed) as ei:
            sim.run(main)
        assert ei.value.rank == 1
        assert isinstance(ei.value.__cause__, ValueError)

    def test_deadlock_detected(self):
        sim = Simulator(2)

        def main(ctx):
            if ctx.rank == 0:
                ctx.block(lambda: None, "never", on=Signal())

        with pytest.raises(SimDeadlock) as ei:
            sim.run(main)
        assert "rank 0" in str(ei.value)


class TestTracer:
    def test_intervals_recorded(self):
        tracer = Tracer()
        sim = Simulator(2, tracer=tracer)

        def main(ctx):
            with ctx.trace("io"):
                ctx.advance(2e-3)
            with ctx.trace("comm"):
                ctx.advance(1e-3)

        sim.run(main)
        totals = tracer.time_by_state()
        assert totals["io"] == pytest.approx(4e-3)
        assert totals["comm"] == pytest.approx(2e-3)
        assert tracer.ranks() == [0, 1]

    def test_per_rank_filter(self):
        tracer = Tracer()
        sim = Simulator(2, tracer=tracer)

        def main(ctx):
            with ctx.trace("io"):
                ctx.advance(1e-3 * (ctx.rank + 1))

        sim.run(main)
        assert tracer.time_by_state(rank=1)["io"] == pytest.approx(2e-3)

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        sim = Simulator(1, tracer=tracer)

        def main(ctx):
            with ctx.trace("io"):
                ctx.advance(1e-3)

        sim.run(main)
        assert tracer.events == []

    def test_summary_nonempty(self):
        tracer = Tracer()
        sim = Simulator(1, tracer=tracer)

        def main(ctx):
            with ctx.trace("io"):
                ctx.advance(1e-3)

        sim.run(main)
        assert "io" in tracer.summary()
        assert Tracer().summary() == "(no trace events)"
