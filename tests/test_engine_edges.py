"""Edge cases of the event-driven engine: abort paths, exception
handling, scheduling invariants under stress, and the notify rule."""

from __future__ import annotations

import threading

import pytest

from repro.errors import MissedWakeup, RankCrashed, RankFailed, SimDeadlock, SimulationError
from repro.mpi import Communicator
from repro.sim import BLOCK_TIMEOUT, Signal, Simulator


class TestAbortPaths:
    def test_failure_wakes_blocked_ranks(self):
        """One rank raising must unwind ranks parked in block()."""

        def main(ctx):
            if ctx.rank == 0:
                ctx.advance(1e-3)
                raise RuntimeError("boom")
            ctx.block(lambda: None, "forever", on=Signal())

        with pytest.raises(RankFailed) as ei:
            Simulator(3).run(main)
        assert ei.value.rank == 0
        # All threads must have terminated (run() joins them).
        assert all(
            not t.is_alive()
            for t in threading.enumerate()
            if t.name.startswith("sim-rank-")
        )

    def test_abort_not_swallowed_by_user_except(self):
        """User code catching Exception must not eat the abort signal."""
        log = []

        def main(ctx):
            if ctx.rank == 0:
                raise ValueError("dead")
            try:
                ctx.block(lambda: None, "never", on=Signal())
            except Exception:  # noqa: BLE001 - the point of the test
                log.append("swallowed")
            return "survived"

        with pytest.raises(RankFailed):
            Simulator(2).run(main)
        assert log == []  # _SimAborted is a BaseException

    def test_first_failure_wins(self):
        def main(ctx):
            raise RuntimeError(f"rank {ctx.rank}")

        with pytest.raises(RankFailed) as ei:
            Simulator(4).run(main)
        assert ei.value.rank == 0  # rank 0 runs first (min clock, min id)

    def test_deadlock_dump_lists_all_blocked(self):
        def main(ctx):
            ctx.block(lambda: None, f"thing-{ctx.rank}", on=Signal())

        with pytest.raises(SimDeadlock) as ei:
            Simulator(3).run(main)
        msg = str(ei.value)
        for r in range(3):
            assert f"thing-{r}" in msg

    def test_per_rank_args_length_checked(self):
        with pytest.raises(ValueError):
            Simulator(3).run(lambda ctx, x: x, per_rank_args=[(1,), (2,)])


class TestSchedulingInvariants:
    def test_single_runner_invariant(self):
        """No two ranks are ever inside user code simultaneously."""
        inside = []
        overlap = []

        def main(ctx):
            for _ in range(20):
                inside.append(ctx.rank)
                if len(inside) > 1:
                    overlap.append(tuple(inside))
                # No yields here: the engine must not preempt.
                inside.remove(ctx.rank)
                ctx.advance(1e-6)

        Simulator(6).run(main)
        assert overlap == []

    def test_global_time_order_of_execution(self):
        """Each scheduled slice starts no earlier than the previous
        slice's start (earliest-first scheduling)."""
        starts = []

        def main(ctx):
            for _ in range(5):
                starts.append(ctx.now)
                ctx.advance(1e-3 * (1 + ctx.rank))

        Simulator(4).run(main)
        assert starts == sorted(starts)

    def test_block_value_delivered_once(self):
        box = []
        filled = Signal()

        def main(ctx):
            if ctx.rank == 0:
                ctx.advance(1e-3)
                box.append("ready")
                filled.notify()
                ctx.advance(1e-3)
                return None
            value = ctx.block(lambda: box[0] if box else None, on=filled)
            # wake_value must be cleared after delivery
            assert ctx._proc.wake_value is None
            return value

        results = Simulator(2).run(main)
        assert results[1] == "ready"

    def test_many_ranks_complete(self):
        def main(ctx):
            comm = Communicator(ctx)
            comm.barrier()
            return ctx.rank

        assert Simulator(96).run(main) == list(range(96))

    def test_makespan_before_run_is_zero(self):
        assert Simulator(2).makespan == 0.0

    def test_charge_to_past_is_noop(self):
        def main(ctx):
            ctx.advance(1e-3)
            ctx.charge_to(1e-6)
            return ctx.now

        assert Simulator(1).run(main) == [pytest.approx(1e-3)]


class TestSignals:
    """The notify rule: a predicate is evaluated when its proc blocks
    and again only after one of its signals was notified."""

    def test_notify_without_waiters_is_a_noop(self):
        Signal().notify()  # no simulator anywhere

        def main(ctx):
            ctx.shared.setdefault("sig", Signal()).notify()
            ctx.advance(1e-3)

        sim = Simulator(2)
        sim.run(main)
        assert sim.predicate_evals == 0 and sim.wakeups == 0

    def test_notify_before_block_returns_at_the_blocking_decision(self):
        box, filled = [], Signal()

        def main(ctx):
            if ctx.rank == 0:
                box.append("early")
                filled.notify()
                return None
            ctx.advance(1e-3)
            return ctx.block(lambda: box[0] if box else None, on=filled), ctx.now

        sim = Simulator(2)
        assert sim.run(main)[1] == ("early", 1e-3)
        assert sim.predicate_evals == 1
        assert filled._waiters == []

    def test_waiters_on_one_signal_wake_in_clock_then_rank_order(self):
        go, opened, order = [], Signal(), []

        def main(ctx):
            if ctx.rank == 0:
                ctx.advance(5e-3)
                go.append(True)
                opened.notify()
                return
            # Ranks 1 and 3 block at t=2ms, rank 2 at t=1ms.
            ctx.advance(1e-3 if ctx.rank == 2 else 2e-3)
            ctx.block(lambda: True if go else None, on=opened)
            order.append((ctx.now, ctx.rank))

        sim = Simulator(4)
        sim.run(main)
        assert order == [(1e-3, 2), (2e-3, 1), (2e-3, 3)]
        # One evaluation at each block, one after the single notify.
        assert sim.predicate_evals == 6 and sim.wakeups == 3

    def test_predicate_true_at_exactly_the_timeout_wins(self):
        flag, raised = [], Signal()

        def main(ctx):
            if ctx.rank == 0:
                ctx.advance_to(4e-3)  # ties with rank 1's timeout; lower rank runs first
                flag.append("value")
                raised.notify()
                return None
            return ctx.block(lambda: flag[0] if flag else None, timeout_at=4e-3, on=raised)

        sim = Simulator(2)
        assert sim.run(main)[1] == "value"
        assert sim.timed_fires == 0

    def test_reblocking_does_not_fire_the_stale_timeout(self):
        flag, raised = [], Signal()

        def main(ctx):
            if ctx.rank == 0:
                ctx.advance(1e-3)
                flag.append(True)
                raised.notify()
                return None
            first = ctx.block(lambda: True if flag else None, timeout_at=5e-3, on=raised)
            woke_at = ctx.now
            second = ctx.block(lambda: None, timeout_at=10e-3, on=raised)
            return first, woke_at, second is BLOCK_TIMEOUT, ctx.now

        sim = Simulator(2)
        # The 5 ms entry is still in the timed heap when the second block
        # starts; it must be skipped, not fire at 5 ms.
        assert sim.run(main)[1] == (True, 0.0, True, 10e-3)
        assert sim.timed_fires == 1

    def test_several_signals_any_one_wakes(self):
        a, b, seen = Signal(), Signal(), []

        def main(ctx):
            if ctx.rank == 0:
                ctx.advance(1e-3)
                seen.append("b")
                b.notify()
                return None
            return ctx.block(lambda: seen[0] if seen else None, on=[a, b, a])

        assert Simulator(2).run(main)[1] == "b"
        assert a._waiters == [] and b._waiters == []

    def test_waiting_on_a_crashed_rank(self):
        """A rank dying fail-stop notifies nothing: a timed waiter rides
        out its timeout, an untimed one is a genuine deadlock."""
        never = Signal()

        def main(ctx, timeout_at):
            if ctx.rank == 0:
                ctx.advance(1e-3)
                raise RankCrashed(0)
            woke = ctx.block(lambda: None, "rank 0's word", timeout_at=timeout_at, on=never)
            return woke is BLOCK_TIMEOUT, ctx.now

        sim = Simulator(2)
        assert sim.run(main, 3e-3) == [None, (True, 3e-3)]
        assert sim.crashed == {0}
        with pytest.raises(SimDeadlock, match="rank 1: blocked on rank 0's word"):
            Simulator(2).run(main, None)
        assert never._waiters == []  # the abort left no dead waiter behind


class TestMissedWakeup:
    def test_unnotified_mutation_fails_typed(self):
        box = []

        def main(ctx):
            if ctx.rank == 0:
                ctx.advance(1e-3)
                box.append("x")  # mutates what rank 1's predicate reads, no notify
                return
            ctx.block(lambda: box[0] if box else None, "box", on=Signal())

        with pytest.raises(MissedWakeup) as ei:
            Simulator(2).run(main)
        assert (ei.value.rank, ei.value.reason) == (1, "box")
        assert isinstance(ei.value, SimulationError)

    def test_genuine_deadlock_still_dumps_every_rank(self):
        def main(ctx):
            comm = Communicator(ctx)
            if ctx.rank == 0:
                return  # skips the barrier the others enter
            comm.barrier()

        with pytest.raises(SimDeadlock) as ei:
            Simulator(3).run(main)
        msg = str(ei.value)
        assert "rank 1: blocked on recv(" in msg and "rank 2: blocked on recv(" in msg
        assert "rank 0" not in msg
