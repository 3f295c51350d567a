"""Tests for the liveness layer (deadlines, hang detection, lock
leases, deadlock breaking, straggler-aware rebalancing).

The contract under test, end to end:

* boundedness — under stall / lock-hold / gray faults with the
  liveness hints armed, every collective run terminates with either
  verified bytes or a typed liveness error; a hang is impossible;
* transparency — with liveness off, the same faults merely slow the
  run down: contents stay byte-identical to the fault-free baseline,
  and an armed-but-untripped deadline perturbs neither bytes nor
  virtual times;
* honesty — a blocking receive that would outlive its budget raises
  :class:`DeadlineExceeded` naming the site, rank and phase; a
  waits-for cycle raises :class:`LockDeadlock` naming the cycle; a
  wall-clock hang aborts with :class:`SimHang` naming the stuck rank.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench import ChaosHarness
from repro.config import CostModel
from repro.core import CollectiveFile
from repro.core.realms import BalancedPartition
from repro.datatypes import BYTE, contiguous, resized
from repro.errors import (
    CollectiveIOError,
    DeadlineExceeded,
    LockDeadlock,
    RankFailed,
    SimHang,
)
from repro.faults import FaultPlan, load_scenario, scenario_names
from repro.faults.injector import FaultInjector
from repro.fs import SimFileSystem
from repro.io import RetryPolicy
from repro.liveness import LivenessState, find_liveness, install_liveness
from repro.mpi import Communicator, Hints
from repro.obs.session import Session
from repro.sim import BLOCK_TIMEOUT, Signal, Simulator, Tracer

COST = CostModel(page_size=64, stripe_size=256, num_osts=2)
NPROCS = 4
REGION = 16
COUNT = 12
SIZE = REGION * NPROCS * COUNT
# Same geometry as test_faults: 2 aggregators own 384 linear bytes each
# -> 4 rounds of 96, so phase boundaries (where stalls fire) exist.
HINTS = Hints(cb_buffer_size=96, cb_nodes=2)
LIVE_HINTS = HINTS.replace(coll_deadline=0.5, liveness=True)


def run_workload(plan=None, hints=HINTS, ncalls=1, read_back=False):
    """The canonical tiled collective write (optionally + read);
    returns (file bytes, per-rank end times, injector, sim)."""
    fs = SimFileSystem(COST)

    def main(ctx):
        comm = Communicator(ctx, COST)
        f = CollectiveFile(ctx, comm, fs, "/data", hints=hints, cost=COST)
        try:
            tile = resized(contiguous(REGION, BYTE), 0, REGION * NPROCS)
            f.set_view(disp=comm.rank * REGION, filetype=tile)
            for c in range(ncalls):
                f.seek(0)
                f.write_all(np.full(REGION * COUNT, comm.rank + 1 + c, dtype=np.uint8))
            if read_back:
                f.seek(0)
                out = np.zeros(REGION * COUNT, dtype=np.uint8)
                f.read_all(out)
                assert np.array_equal(
                    out, np.full(REGION * COUNT, comm.rank + ncalls, dtype=np.uint8)
                )
        finally:
            f.close()
        return ctx.now

    sim = Simulator(NPROCS)
    injector = plan.install(sim) if plan is not None else None
    times = sim.run(main)
    return fs.raw_bytes("/data", 0, SIZE), times, injector, sim


@pytest.fixture(scope="module")
def baseline():
    contents, times, _, _ = run_workload()
    return contents, times


def stall_plan(seed=7):
    """One aggregator-side stall at the second phase boundary."""
    return FaultPlan(seed).rank_stall(0, delay=5e-2, round_index=1)


class TestEngineTimedBlocks:
    def test_timeout_fires_at_timeout_at(self):
        def main(ctx):
            woke = ctx.block(lambda: None, reason="never", timeout_at=2.5e-3, on=())
            return woke is BLOCK_TIMEOUT, ctx.now

        (result,) = Simulator(1).run(main)
        timed_out, now = result
        assert timed_out
        assert now == pytest.approx(2.5e-3)

    def test_early_wake_beats_timeout(self):
        boxed = Signal()

        def main(ctx):
            if ctx.rank == 1:
                ctx.advance(1e-3)
                ctx.shared["box"] = ctx.now
                boxed.notify()
                return None
            woke = ctx.block(
                lambda: ctx.shared.get("box"), reason="box", timeout_at=1.0, on=boxed
            )
            # Check-based wakes carry the *value*, not the clock: the
            # waiter charges itself to the causal time.
            assert woke is not BLOCK_TIMEOUT
            assert ctx.now < 1e-3
            ctx.charge_to(float(woke))
            return woke, ctx.now

        results = Simulator(2).run(main)
        woke, now = results[0]
        assert woke == pytest.approx(1e-3)
        assert now == pytest.approx(1e-3)


class TestSimHang:
    def test_wall_clock_hang_aborts_with_diagnostics(self):
        def main(ctx):
            if ctx.rank == 1:
                time.sleep(0.6)  # stuck outside the engine's control
            return ctx.now

        sim = Simulator(2, join_timeout=0.15)
        with pytest.raises(SimHang) as info:
            sim.run(main)
        # The abort names the stuck rank instead of spinning silently.
        assert "rank 1" in str(info.value)

    def test_hang_dump_finds_a_stuck_tasks_last_span(self):
        # A coroutine's spans record under its *lane*, not its task id:
        # the dump must look the last event up by the lane.
        def stage(tctx):
            with tctx.trace("round:flush"):
                tctx.advance(1e-3)
            time.sleep(0.6)  # the pipelined stage wedges

        def main(ctx):
            lane = ctx._sim.lane_for(("stage", ctx.rank), "rank 0 stage")
            ctx.join(ctx.spawn(stage, label="stage", lane=lane))

        sim = Simulator(1, tracer=Tracer(), join_timeout=0.15)
        with pytest.raises(SimHang) as info:
            sim.run(main)
        msg = str(info.value)
        assert "rank 0: blocked on join:stage" in msg
        assert "task 1: running" in msg
        assert "last event 'round:flush' [0.000000..0.001000]" in msg

    def test_bad_join_timeout_rejected(self):
        with pytest.raises(ValueError):
            Simulator(2, join_timeout=0.0)


class TestDeadlineExceeded:
    def test_blocking_recv_raises_typed_error(self):
        def main(ctx):
            comm = Communicator(ctx, COST)
            if ctx.rank == 1:
                return None  # never sends
            liv = find_liveness(ctx.shared)
            liv.begin_call(0, ctx.now)
            liv.set_phase(0, "exchange[0]")
            try:
                comm.recv(1, 7)
            except DeadlineExceeded as e:
                return e.site, e.rank, e.phase, e.deadline, ctx.now
            return None

        sim = Simulator(2)
        install_liveness(sim.shared, LivenessState(deadline=0.05))
        results = sim.run(main)
        site, rank, phase, deadline, now = results[0]
        assert site
        assert rank == 0
        assert phase == "exchange[0]"
        assert deadline == pytest.approx(0.05)
        # The raise happens exactly at the budget, not later.
        assert now == pytest.approx(0.05)

    def test_stalled_collective_blows_deadline_without_failover(self, baseline):
        # Deadline armed, failover off: waiters on the stalled rank die
        # loudly (and at a bounded time) instead of waiting it out.
        hints = HINTS.replace(coll_deadline=2e-2)
        with pytest.raises(RankFailed) as info:
            run_workload(stall_plan(), hints=hints)
        chain, exc = [], info.value
        while exc is not None and exc not in chain:
            chain.append(exc)
            exc = exc.__cause__ or exc.__context__
        assert any(isinstance(e, DeadlineExceeded) for e in chain)

    def test_quiet_deadline_is_invisible(self, baseline):
        # An armed deadline that never trips must not perturb bytes or
        # virtual times: liveness off the fault path is free.
        contents, times, _, _ = run_workload(hints=HINTS.replace(coll_deadline=0.5))
        base_contents, base_times = baseline
        assert np.array_equal(contents, base_contents)
        assert times == base_times


    def test_quiet_deadline_is_invisible_under_old_impl(self):
        old = HINTS.replace(coll_impl="old")
        base_contents, base_times, _, _ = run_workload(hints=old)
        contents, times, _, _ = run_workload(hints=old.replace(coll_deadline=0.5))
        assert np.array_equal(contents, base_contents)
        assert times == base_times

    @pytest.mark.parametrize("impl", ["new", "old"])
    def test_too_small_budget_raises_at_the_budget_instant(self, impl):
        # The call bracket arms the budget for whichever planner runs
        # (the old driver used to ignore it).  Every message is 10 ms
        # late, so an aggregator waiting for client data is parked when
        # the 1 ms budget runs out — and dies exactly one budget after
        # planning ended.
        budget = 1e-3
        s = Session(
            "/data",
            nprocs=NPROCS,
            cost=COST,
            hints=HINTS.replace(coll_impl=impl, coll_deadline=budget),
            faults=FaultPlan(7).net_delay(rate=1.0, delay=1e-2),
            trace=True,
        )

        def body(ctx, comm, f):
            tile = resized(contiguous(REGION, BYTE), 0, REGION * NPROCS)
            f.set_view(disp=comm.rank * REGION, filetype=tile)
            try:
                f.write_all(np.full(REGION * COUNT, comm.rank + 1, dtype=np.uint8))
            except DeadlineExceeded as e:
                return e.phase, ctx.now
            return None

        raised = {r: out for r, out in enumerate(s.run(body)) if out is not None}
        assert {0, 2} <= set(raised)  # the aggregators
        for rank, (phase, now) in raised.items():
            (planned,) = [
                ev.t1 for ev in s.tracer.events if ev.rank == rank and ev.state == "tp:plan"
            ]
            assert phase.startswith("exchange[")
            assert now == planned + budget


class TestSuspectFailover:
    @pytest.mark.parametrize("exchange", ["alltoallw", "nonblocking"])
    def test_stalled_aggregator_failed_over(self, baseline, exchange):
        hints = LIVE_HINTS.replace(exchange=exchange)
        contents, times, injector, sim = run_workload(stall_plan(), hints=hints)
        assert np.array_equal(contents, baseline[0])
        assert injector.registry.value("faults.suspects_declared") == 1
        assert injector.registry.value("faults.stalls") == 1
        assert find_liveness(sim.shared).suspects == {0}

    def test_stalled_client_failed_over_on_read(self, baseline):
        # Rank 3 stalls during the read call: its realm (if any) merges
        # into survivors and it serves its own access independently.
        plan = FaultPlan(11).rank_stall(3, delay=5e-2, call_index=1, round_index=0)
        contents, _, injector, _ = run_workload(
            plan, hints=LIVE_HINTS, read_back=True
        )
        assert np.array_equal(contents, baseline[0])
        assert injector.registry.value("faults.suspects_declared") == 1

    def test_stall_without_liveness_just_slows_down(self, baseline):
        contents, times, injector, sim = run_workload(stall_plan())
        assert np.array_equal(contents, baseline[0])
        assert injector.registry.value("faults.suspects_declared") == 0
        assert injector.registry.value("faults.stall_seconds") == pytest.approx(5e-2)
        assert max(times) > max(baseline[1])
        assert find_liveness(sim.shared) is None

    def test_failover_completion_is_stall_bounded(self):
        # With failover the makespan is the stall plus the suspect's own
        # short tail — never a multiple of the stall, never a hang.  (At
        # this small geometry the independent tail can cost slightly
        # more than the skipped collective rounds; the chaos-scale test
        # asserts the wall-clock win.)
        _, live_times, _, _ = run_workload(stall_plan(), hints=LIVE_HINTS)
        assert 5e-2 <= max(live_times) < 5e-2 + 2e-2

    @pytest.mark.parametrize("exchange", ["alltoallw", "nonblocking"])
    def test_straggler_and_drops_compose_with_both_backends(self, baseline, exchange):
        plan = FaultPlan(5).straggler(factor=3.0, ranks=[1]).net_drop(
            rate=0.05, timeout=2e-3
        )
        contents, _, injector, _ = run_workload(
            plan, hints=HINTS.replace(exchange=exchange)
        )
        assert np.array_equal(contents, baseline[0])
        assert injector.registry.value("faults.straggler.events") > 0


class TestLockLiveness:
    """Pin waits driven directly through SimFileSystem.server_write."""

    PATH = "/locked"

    def _write(self, fs, ctx, client, granule, value):
        data = np.full(64, value, dtype=np.uint8)
        fs.server_write(ctx, client, self.PATH, [granule * 64], [64], data)

    def test_lease_reclaims_wedged_pin(self):
        # Holder pins for 5e-2 and never recovers in time; the 2e-2
        # lease reclaims the lock early and the waiter proceeds.
        fs = SimFileSystem(COST)
        fs.ensure_file(self.PATH)

        def main(ctx):
            if ctx.rank == 0:
                self._write(fs, ctx, 0, 0, 1)
                ctx.advance(1.0)  # wedged: never unlocks
            else:
                ctx.advance(1e-3)
                self._write(fs, ctx, 1, 0, 2)
            return ctx.now

        sim = Simulator(2)
        injector = FaultPlan(seed=4).lock_hold(rate=1.0, hold=5e-2).install(sim)
        install_liveness(sim.shared, LivenessState())
        times = sim.run(main)
        assert injector.registry.value("faults.lock.lease_reclaims") >= 1
        # Woke at t_pinned + lease, well before the 5e-2 pin expiry.
        assert 2e-2 <= times[1] < 5e-2

    def test_without_lease_waiter_rides_out_full_hold(self):
        fs = SimFileSystem(COST)
        fs.ensure_file(self.PATH)

        def main(ctx):
            if ctx.rank == 0:
                self._write(fs, ctx, 0, 0, 1)
                ctx.advance(1.0)
            else:
                ctx.advance(1e-3)
                self._write(fs, ctx, 1, 0, 2)
            return ctx.now

        sim = Simulator(2)
        injector = FaultPlan(seed=4).lock_hold(rate=1.0, hold=5e-2).install(sim)
        times = sim.run(main)
        assert injector.registry.value("faults.lock.lease_reclaims") == 0
        assert times[1] >= 5e-2

    def test_late_unlock_wakes_waiter_before_lease(self):
        # The holder releases its pins just before the lease would
        # reclaim them: the waiter wakes at the release time (causal),
        # and no reclaim is counted.
        fs = SimFileSystem(COST)
        fs.ensure_file(self.PATH)

        def main(ctx):
            if ctx.rank == 0:
                self._write(fs, ctx, 0, 0, 1)
                ctx.advance_to(1e-2)
                fs._file(self.PATH).locks.release_all(0, ctx.now)
                ctx.advance(1.0)
            else:
                ctx.advance(1e-3)
                self._write(fs, ctx, 1, 0, 2)
            return ctx.now

        sim = Simulator(2)
        injector = FaultPlan(seed=4).lock_hold(rate=1.0, hold=5e-2).install(sim)
        install_liveness(sim.shared, LivenessState())
        times = sim.run(main)
        assert injector.registry.value("faults.lock.lease_reclaims") == 0
        assert 1e-2 <= times[1] < 2e-2

    def test_waiter_freed_by_another_waiters_reclaim_wakes_at_expiry(self):
        # Two waiters on one hold: rank 1's timeout clears the expired
        # hold, which frees rank 2 too.  Rank 2 must wake at that
        # instant, not at the clock it blocked at.
        fs = SimFileSystem(COST)
        fs.ensure_file(self.PATH)
        until = []

        def main(ctx):
            if ctx.rank == 0:
                self._write(fs, ctx, 0, 0, 1)
                until.append(ctx.now + 5e-2)
                fs._file(self.PATH).locks.hold(0, 0, 128, ctx.now, until[0])
                ctx.advance(1.0)
            elif ctx.rank == 1:
                ctx.advance(1e-3)
                fs.server_write(ctx, 1, self.PATH, [0], [128], np.full(128, 2, dtype=np.uint8))
            else:
                ctx.advance(1e-3)
                fs.acquire_extents(ctx, 2, self.PATH, [0], [64])
            return ctx.now

        times = Simulator(3).run(main)
        assert times[1] >= until[0]
        assert times[2] >= until[0]

    def test_deadlock_cycle_broken_and_retried(self):
        # Classic AB-BA: each rank pins one granule then wants the
        # other's.  The second waiter finds the waits-for cycle, raises
        # a typed LockDeadlock, releases its pins, and the retry (plus
        # lease reclaim on the survivor's pin) completes both ranks.
        fs = SimFileSystem(COST)
        fs.ensure_file(self.PATH)
        retry = RetryPolicy(retries=4, backoff=2e-3)

        def main(ctx):
            if ctx.rank == 0:
                self._write(fs, ctx, 0, 0, 1)
                ctx.advance(1e-3)
                retry.run(ctx, lambda: self._write(fs, ctx, 0, 1, 1))
            else:
                ctx.advance(5e-4)
                self._write(fs, ctx, 1, 1, 2)
                ctx.advance(1e-3)
                retry.run(ctx, lambda: self._write(fs, ctx, 1, 0, 2))
            return ctx.now

        sim = Simulator(2)
        injector = FaultPlan(seed=4).lock_hold(rate=1.0, hold=0.2).install(sim)
        install_liveness(sim.shared, LivenessState())
        times = sim.run(main)
        assert injector.registry.value("faults.lock.deadlocks") >= 1
        assert injector.registry.value("faults.retries") >= 1
        # Bounded: lease reclaim caps the post-deadlock wait, nobody
        # waits for the full 0.2s pin.
        assert max(times) < 0.1

    def test_lock_deadlock_is_typed_and_retryable(self):
        err = LockDeadlock(1, (1, 0), "/f")
        from repro.errors import TransientIOError

        assert isinstance(err, TransientIOError)
        assert err.cycle == (1, 0)
        assert "1 -> 0" in str(err)


class TestBalancedRealms:
    def test_shares_normalize_and_validate(self):
        assert BalancedPartition._shares(3, None) == [1 / 3] * 3
        assert BalancedPartition._shares(3, [1.0, 1.0, 2.0]) == [0.25, 0.25, 0.5]
        # Negative weights clamp to zero; an all-zero vector degrades
        # to equal shares instead of dividing by zero.
        assert BalancedPartition._shares(2, [-1.0, 0.0]) == [0.5, 0.5]
        with pytest.raises(CollectiveIOError):
            BalancedPartition._shares(2, [1.0])

    def test_weighted_span_boundaries(self):
        # No histogram yet: the file span itself splits by weight.
        realms = BalancedPartition().assign(0, 100, 2, weights=[1.0, 3.0])
        assert realms[0].disp == 0 and realms[0].flat.size == 25
        assert realms[1].disp == 25 and realms[1].flat.size == 75

    def test_straggling_aggregator_realm_shrinks(self):
        # Two write_alls under a rank-0 straggler: the second call's
        # realm assignment feeds back call 1's service times, so the
        # slow aggregator's realm shrinks (and its byte load drops).
        fs = SimFileSystem()
        hints = Hints(cb_nodes=2, cb_buffer_size=512, realm_strategy="balanced")
        region, count, nprocs = 64, 16, 4
        realms = []

        def main(ctx):
            comm = Communicator(ctx)
            f = CollectiveFile(ctx, comm, fs, "/bal", hints=hints)
            tile = resized(contiguous(region, BYTE), 0, region * nprocs)
            f.set_view(disp=comm.rank * region, filetype=tile)
            buf = (np.arange(region * count) % 251).astype(np.uint8)
            for _ in range(2):
                f.seek(0)
                f.write_all(buf)
                if comm.rank == 0:
                    realms.append(list(f.pfr.last_realm_bytes))
            f.close()

        sim = Simulator(nprocs)
        FaultPlan(seed=1).straggler(factor=8.0, ranks=[0]).install(sim)
        sim.run(main)
        first, second = realms
        # Call 1 has no feedback: realms split evenly.
        assert first[0] == first[1]
        # Call 2 moved the boundary away from the straggling agg 0.
        assert second[0] < first[0]
        assert second[0] < second[1]
        assert sum(second) == sum(first)


class TestChaosLiveness:
    def test_liveness_scenarios_registered(self):
        assert {"stall", "lock-hold", "gray"} <= set(scenario_names())
        plan = load_scenario("gray:7")
        assert plan.seed == 7
        assert {e.kind for e in plan.events} == {
            "rank_stall", "straggler", "net_drop", "lock_hold",
        }
        # Intensity scaling keeps deterministic events and scales rates.
        assert len(plan.scaled(0.5).events) == len(plan.events)

    @pytest.mark.parametrize(
        "spec", ["stall:42", "lock-hold:3", "lock-storm:3", "gray:7"]
    )
    def test_sweep_is_bounded_and_verified(self, spec):
        report = ChaosHarness(spec, liveness=True).sweep()
        assert report.all_verified
        for point in report.points:
            # Terminated (we got here) *and* bounded in virtual time:
            # nobody waited out a 5e-2 stall per round, let alone hung.
            assert point.sim_seconds < 1.0

    def test_liveness_run_beats_waiting(self):
        live = ChaosHarness("stall:42", liveness=True)
        wait = ChaosHarness("stall:42")
        live_run = live.run_once(live.plan.scaled(1.0))
        wait_run = wait.run_once(wait.plan.scaled(1.0))
        assert live_run.verified and wait_run.verified
        assert live_run.seconds < wait_run.seconds


class TestFaultStatsLiveness:
    def test_liveness_hooks_count_uniformly(self):
        inj = FaultInjector(FaultPlan(seed=0))
        inj.note_straggler(0.25)
        inj.note_straggler(0.5)
        inj.note_stall(0.05)
        inj.note_suspect()
        inj.note_deadline_exceeded()
        inj.note_lock_reclaim(3)
        inj.note_lock_deadlock()
        s = inj.registry.snapshot()
        assert s["faults.straggler.events"] == 2
        assert s["faults.straggler.extra_seconds"] == pytest.approx(0.75)
        assert s["faults.stalls"] == 1
        assert s["faults.stall_seconds"] == pytest.approx(0.05)
        assert s["faults.suspects_declared"] == 1
        assert s["faults.deadlines_exceeded"] == 1
        assert s["faults.lock.lease_reclaims"] == 3
        assert s["faults.lock.deadlocks"] == 1
        # The umbrella counts injected events only (a reclaim of three
        # granules is three), never detections or recoveries.
        assert s["faults.injected"] == 2 + 1 + 3

    def test_snapshot_has_liveness_keys(self):
        # Interned at construction: a fault table shows its zero rows.
        keys = set(FaultInjector(FaultPlan()).registry.snapshot())
        assert {
            "faults.stalls", "faults.stall_seconds", "faults.lock.holds",
            "faults.lock.hold_seconds", "faults.lock.lease_reclaims",
            "faults.lock.deadlocks", "faults.suspects_declared",
            "faults.deadlines_exceeded",
        } <= keys


class TestLivenessInstall:
    def test_state_installed_only_when_armed(self):
        _, _, _, plain = run_workload()
        assert find_liveness(plain.shared) is None
        _, _, _, armed = run_workload(hints=LIVE_HINTS)
        state = find_liveness(armed.shared)
        assert state is not None
        assert state.deadline == pytest.approx(0.5)

    def test_install_is_first_open_wins(self):
        shared = {}
        first = LivenessState(deadline=0.1)
        install_liveness(shared, first)
        install_liveness(shared, LivenessState(deadline=9.9))
        assert find_liveness(shared) is first
