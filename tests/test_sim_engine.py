"""Tests for the deterministic virtual-time engine."""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
import threading

import pytest

from repro.errors import RankFailed, SimDeadlock
from repro.sim import Signal, Simulator, Tracer, engine
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

    @pytest.mark.parametrize(
        "timeout", [float("inf"), 2 * threading.TIMEOUT_MAX], ids=["inf", "twice-max"]
    )
    def test_join_timeout_above_timeout_max_rejected(self, timeout):
        """A timeout the lock waits cannot take is refused up front, not
        as an OverflowError once the rank threads have started."""
        with pytest.raises(ValueError, match="TIMEOUT_MAX"):
            Simulator(2, join_timeout=timeout)

    def test_join_timeout_max_accepted(self):
        sim = Simulator(2, join_timeout=threading.TIMEOUT_MAX)
        assert sim.run(lambda ctx: ctx.rank) == [0, 1]

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


def _batch_refused() -> str:
    """Why a thread here cannot enter ``SCHED_BATCH`` and leave it again
    on its own ("" when it can)."""
    why: list[str] = []

    def probe():
        try:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
            os.sched_setscheduler(0, os.SCHED_OTHER, os.sched_param(0))
        except AttributeError:
            why.append("no SCHED_BATCH on this platform")
        except OSError as exc:
            why.append(f"SCHED_BATCH refused: {exc}")

    t = threading.Thread(target=probe)
    t.start()
    t.join()
    return why[0] if why else ""


class TestBatchPolicy:
    def test_engine_threads_run_sched_batch(self):
        """Rank threads and the coroutine threads they spawn run in
        ``SCHED_BATCH``; the caller's thread keeps its own class.  The
        rank drops back to ``SCHED_OTHER`` before spawning, so the
        task's class is its own doing, not inherited."""
        why = _batch_refused()
        if why:
            pytest.skip(why)
        caller = os.sched_getscheduler(0)

        def main(ctx):
            mine = os.sched_getscheduler(0)
            os.sched_setscheduler(0, os.SCHED_OTHER, os.sched_param(0))
            task = ctx.spawn(lambda tctx: os.sched_getscheduler(0))
            return mine, ctx.join(task)

        assert Simulator(2).run(main) == [(os.SCHED_BATCH, os.SCHED_BATCH)] * 2
        assert os.sched_getscheduler(0) == caller

    @pytest.mark.parametrize("refusal", ["eperm", "missing"])
    def test_refused_policy_runs_unchanged(self, monkeypatch, refusal):
        """Where the OS refuses the class (EPERM) or has no such call,
        the threads keep the caller's class and the run is the same."""
        if refusal == "missing":
            monkeypatch.delattr(os, "sched_setscheduler", raising=False)
        else:
            def refuse(pid, policy, param):
                raise PermissionError(1, "Operation not permitted")

            monkeypatch.setattr(os, "sched_setscheduler", refuse, raising=False)
        probe = getattr(os, "sched_getscheduler", lambda pid: None)

        def main(ctx):
            ctx.advance(1e-3 * (ctx.rank + 1))
            return probe(0)

        sim = Simulator(2)
        assert sim.run(main) == [probe(0)] * 2
        assert sim.times == [1e-3, 2e-3]


#: Run in a fresh interpreter: 16 ranks each hold six 300 KB arrays
#: across two hand-offs, then glibc's ``malloc_info`` reports the
#: process's heaps (one ``<heap>`` element per arena).
_ARENA_PROBE = """
import ctypes, os, tempfile
from repro.sim import Simulator

def main(ctx):
    keep = [bytearray(300_000) for _ in range(3)]
    ctx.advance(1e-6)
    keep += [bytearray(300_000) for _ in range(3)]
    ctx.advance(1e-6)
    return len(keep)

assert Simulator(16).run(main) == [6] * 16
libc = ctypes.CDLL(None)
libc.fopen.restype = ctypes.c_void_p
libc.fopen.argtypes = [ctypes.c_char_p, ctypes.c_char_p]
libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]
libc.fclose.argtypes = [ctypes.c_void_p]
with tempfile.TemporaryDirectory() as d:
    path = os.path.join(d, "malloc_info.xml")
    fp = libc.fopen(path.encode(), b"w")
    libc.malloc_info(0, fp)
    libc.fclose(fp)
    with open(path) as xml:
        print(xml.read().count("<heap nr="))
"""


def _has_malloc_info() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "malloc_info")
    except (OSError, TypeError):
        return False


class TestOneArena:
    def test_a_run_leaves_one_malloc_heap(self):
        """Rank threads allocate from the one arena the engine caps
        glibc at, instead of one arena each (16 heaps without the cap)."""
        if not _has_malloc_info():
            pytest.skip("no malloc_info in this C library")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _ARENA_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert out.stdout.split() == ["1"]

    @pytest.mark.parametrize("refusal", ["refused", "missing", "no-libc"])
    def test_refused_cap_runs_unchanged(self, monkeypatch, refusal):
        """Where ``mallopt`` refuses the cap (returns 0), the C library
        has none, or there is no C library to load, setting the cap
        raises nothing and the runs after it are the same."""

        def main(ctx):
            ctx.advance(1e-3 * (ctx.rank + 1))
            return ctx.rank, ctx.now

        ref = Simulator(2)
        want = ref.run(main)
        asked = []

        class Libc:
            def __getattr__(self, name):
                asked.append(name)
                if refusal == "missing":
                    raise AttributeError(name)
                return lambda *args: 0

        def load(name):
            asked.append(name)
            if refusal == "no-libc":
                raise OSError("no C library")
            return Libc()

        monkeypatch.setattr(ctypes, "CDLL", load)
        engine._one_arena()
        assert asked == ([None] if refusal == "no-libc" else [None, "mallopt"])
        sim = Simulator(2)
        assert sim.run(main) == want
        assert sim.times == ref.times == [1e-3, 2e-3]
