"""Tests for the fault-injection & resilience subsystem (repro.faults).

The contract under test, end to end:

* determinism — same FaultPlan seed => byte-identical file contents and
  identical virtual completion times across two runs;
* resilience — a collective write with an aggregator killed mid-call
  completes with contents equal to the fault-free run; transient I/O
  faults are retried transparently;
* honesty — with retries disabled the fault surfaces as
  :class:`RetryExhausted` carrying the injection site, and with
  failover disabled a crash surfaces as :class:`AggregatorLost`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.bench import ChaosHarness
from repro.config import CostModel
from repro.core import CollectiveFile
from repro.datatypes import BYTE, contiguous, resized
from repro.errors import AggregatorLost, RankFailed, RetryExhausted, TransientIOError
from repro.faults import (
    EVENT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    load_scenario,
    scenario_names,
)
from repro.faults.injector import FaultInjector
from repro.fs import SimFileSystem
from repro.mpi import Communicator, Hints
from repro.sim import Simulator

COST = CostModel(page_size=64, stripe_size=256, num_osts=2)
NPROCS = 4
REGION = 16
COUNT = 12
SIZE = REGION * NPROCS * COUNT
# cb small enough for several rounds per aggregator: 2 aggregators own
# 384 linear bytes each -> 4 rounds of 96.
HINTS = Hints(cb_buffer_size=96, cb_nodes=2)


def run_workload(plan=None, hints=HINTS, ncalls=1, read_back=False):
    """The canonical tiled collective write (optionally + read) used by
    every test here; returns (file bytes, per-rank end times, injector)."""
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
            # Close inside the timed region: with a coherent write-back
            # cache the server I/O happens at the close-time flush.
            f.close()
        return ctx.now

    sim = Simulator(NPROCS)
    injector = plan.install(sim) if plan is not None else None
    times = sim.run(main)
    return fs.raw_bytes("/data", 0, SIZE), times, injector


@pytest.fixture(scope="module")
def baseline():
    contents, times, _ = run_workload()
    return contents, times


class TestPlanDSL:
    def test_builder_chains_and_validates(self):
        plan = (
            FaultPlan(seed=3)
            .transient_io(rate=0.1)
            .slow_disk(factor=2.0, osts=[1])
            .straggler(factor=3.0, ranks=[0])
            .net_delay(rate=0.2, delay=1e-3)
            .net_drop(rate=0.1, timeout=2e-3)
            .lock_storm(rate=0.5, extra_rpcs=4)
            .agg_crash(rank=1, round_index=2)
            .page_bitflip(rate=0.3)
            .net_bitflip(rate=0.05, ranks=[2])
            .rank_stall(0, delay=5e-2, round_index=1)
            .lock_hold(rate=0.4, hold=1e-2)
            .ost_crash([0], start=1e-3, end=1e-2)
            .ost_slow([1], factor=4.0)
            .ost_flap([2], period=2e-3)
            .rank_crash(3, call_index=0, round_index=2, site="exchange")
        )
        assert len(plan.events) == 15
        assert sorted({e.kind for e in plan.events}) == sorted(EVENT_KINDS)

    def test_bad_rate_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan().transient_io(rate=1.5)

    def test_bad_window_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan().transient_io(rate=0.5, start=2.0, end=1.0)

    def test_agg_crash_requires_rank(self):
        with pytest.raises(FaultPlanError):
            FaultEvent("agg_crash").validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultEvent("meteor_strike").validate()

    def test_crashes_through_is_lexicographic_and_permanent(self):
        plan = FaultPlan().agg_crash(rank=2, call_index=1, round_index=2)
        assert plan.crashes_through(0, 99) == frozenset()
        assert plan.crashes_through(1, 1) == frozenset()
        assert plan.crashes_through(1, 2) == {2}
        assert plan.crashes_through(5, 0) == {2}  # dead stays dead

    def test_scaled_clamps_rates_and_keeps_deterministic_events(self):
        plan = FaultPlan(seed=1).transient_io(rate=0.6).agg_crash(rank=0)
        scaled = plan.scaled(3.0)
        assert scaled.events[0].rate == 1.0
        assert scaled.events[1] == plan.events[1]

    def test_reseed_keeps_schedule(self):
        plan = FaultPlan(seed=1).transient_io(rate=0.5)
        other = plan.reseed(9)
        assert other.seed == 9
        assert other.events == plan.events

    def test_describe_mentions_every_event(self):
        plan = FaultPlan().transient_io(rate=0.25, start=1.0, end=2.0).agg_crash(rank=3)
        rows = plan.describe()
        assert rows[0][0] == "transient_io"
        assert "rate=0.25" in rows[0][1] and "window=[1, 2)" in rows[0][1]
        assert "ranks=[3]" in rows[1][1]


class TestScenarios:
    def test_registry_names(self):
        names = scenario_names()
        for expected in (
            "transient-io",
            "io-outage",
            "slow-disk",
            "straggler",
            "flaky-network",
            "lock-storm",
            "agg-crash",
            "chaos",
        ):
            assert expected in names

    def test_spec_parses_seed(self):
        plan = load_scenario("transient-io:42")
        assert plan.seed == 42
        assert load_scenario("transient-io").seed == 0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(FaultPlanError):
            load_scenario("nope")

    def test_bad_seed_rejected(self):
        with pytest.raises(FaultPlanError):
            load_scenario("chaos:banana")


class TestDeterminism:
    def test_chance_is_replayable_and_counterbased(self):
        plan = FaultPlan(seed=11).transient_io(rate=0.5)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        seq_a = [a._chance("transient_io", 0, 0.5) for _ in range(64)]
        seq_b = [b._chance("transient_io", 0, 0.5) for _ in range(64)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_chance_is_per_actor_independent(self):
        plan = FaultPlan(seed=11).transient_io(rate=0.5)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        # Interleave actor 1's draws in one injector only: actor 0's
        # stream must be unaffected (perturbation-robust keying).
        seq_a = []
        for _ in range(32):
            seq_a.append(a._chance("transient_io", 0, 0.5))
            a._chance("transient_io", 1, 0.5)
        seq_b = [b._chance("transient_io", 0, 0.5) for _ in range(32)]
        assert seq_a == seq_b

    def test_chaos_run_is_byte_and_time_identical(self):
        plan = (
            FaultPlan(seed=5)
            .transient_io(rate=0.1)
            .slow_disk(factor=3.0)
            .straggler(factor=4.0, ranks=[1])
            .net_delay(rate=0.2, delay=1e-3)
            .net_drop(rate=0.05)
            .lock_storm(rate=0.3)
            .agg_crash(rank=0, round_index=1)
        )
        c1, t1, _ = run_workload(plan)
        c2, t2, _ = run_workload(plan.reseed(5))
        assert np.array_equal(c1, c2)
        assert t1 == t2

    def test_different_seed_different_timing(self):
        mk = lambda seed: FaultPlan(seed=seed).net_delay(rate=0.3, delay=2e-3)
        _, t1, _ = run_workload(mk(1))
        _, t2, _ = run_workload(mk(2))
        assert t1 != t2


class TestTransientIOResilience:
    def test_contents_survive_transient_faults(self, baseline):
        total_faults = 0
        for seed in range(4):
            contents, _, inj = run_workload(FaultPlan(seed=seed).transient_io(rate=0.15))
            assert np.array_equal(contents, baseline[0]), f"seed {seed}"
            assert inj.registry.value("faults.retries_exhausted") == 0
            total_faults += inj.registry.value("faults.io")
        # At least one seed must actually have injected something for
        # this test to mean anything.
        assert total_faults > 0

    def test_outage_window_is_ridden_out_by_backoff(self, baseline):
        # Hard outage covering the whole natural span of the run: every
        # server call fails until the virtual clock passes the window's
        # end, so only retry backoff (which advances virtual time) can
        # carry the workload across.
        end = 4 * max(baseline[1])
        plan = FaultPlan(seed=1).transient_io(rate=1.0, start=0.0, end=end)
        hints = HINTS.replace(io_retries=32)
        contents, times, inj = run_workload(plan, hints=hints)
        assert np.array_equal(contents, baseline[0])
        assert inj.registry.value("faults.io") > 0
        assert inj.registry.value("faults.retries") > 0
        # Completion cannot precede the outage's end.
        assert max(times) >= end
        assert max(times) > max(baseline[1])

    def test_retry_exhausted_carries_injection_site(self):
        plan = FaultPlan(seed=3).transient_io(rate=1.0)
        with pytest.raises(RankFailed) as info:
            run_workload(plan, hints=HINTS.replace(io_retries=0))
        cause = info.value.__cause__
        assert isinstance(cause, RetryExhausted)
        assert cause.site in ("server_write", "server_read")
        assert cause.attempts == 1
        assert isinstance(cause.__cause__, TransientIOError)
        assert cause.__cause__.site == cause.site

    def test_retry_policy_hints_validated(self):
        with pytest.raises(Exception):
            Hints(io_retries=-1)


class TestAggregatorFailover:
    def test_crash_mid_write_preserves_contents(self, baseline):
        plan = FaultPlan(seed=7).agg_crash(rank=0, round_index=1)
        contents, _, inj = run_workload(plan)
        assert inj.registry.value("faults.failovers") == 1
        assert inj.registry.value("faults.realm_bytes_rebalanced") > 0
        assert np.array_equal(contents, baseline[0])

    @pytest.mark.parametrize("boundary", [0, 1, 2, 3])
    def test_crash_at_every_boundary(self, boundary, baseline):
        plan = FaultPlan(seed=1).agg_crash(rank=0, round_index=boundary)
        contents, _, _ = run_workload(plan)
        assert np.array_equal(contents, baseline[0]), f"boundary {boundary}"

    def test_crash_of_second_aggregator(self, baseline):
        # With cb_nodes=2 over 4 ranks the spread layout aggregates on
        # ranks 0 and 2.
        plan = FaultPlan(seed=1).agg_crash(rank=2, round_index=2)
        contents, _, inj = run_workload(plan)
        assert inj.registry.value("faults.failovers") == 1
        assert np.array_equal(contents, baseline[0])

    def test_crash_persists_into_later_calls(self):
        base, _, _ = run_workload(ncalls=2)
        plan = FaultPlan(seed=7).agg_crash(rank=0, round_index=1)
        contents, _, inj = run_workload(plan, ncalls=2)
        assert inj.registry.value("faults.failovers") == 1  # call 1 excludes the corpse up front
        assert np.array_equal(contents, base)

    def test_crash_during_read_path(self):
        plan = FaultPlan(seed=7).agg_crash(rank=0, call_index=1, round_index=1)
        # read_back asserts each rank got its own bytes back.
        _, _, inj = run_workload(plan, read_back=True)
        assert inj.registry.value("faults.failovers") == 1

    def test_last_surviving_aggregator_lost_raises(self):
        # Rank 2 adopts rank 0's realm at boundary 1 and dies itself at
        # boundary 2: no aggregator is left to fail over to.
        plan = (
            FaultPlan(seed=7)
            .agg_crash(rank=0, round_index=1)
            .agg_crash(rank=2, round_index=2)
        )
        with pytest.raises(RankFailed) as info:
            run_workload(plan)
        assert isinstance(info.value.__cause__, AggregatorLost)

    def test_all_aggregators_dead_raises(self):
        plan = (
            FaultPlan(seed=7)
            .agg_crash(rank=0, round_index=1)
            .agg_crash(rank=2, round_index=1)
        )
        with pytest.raises(RankFailed) as info:
            run_workload(plan)
        assert isinstance(info.value.__cause__, AggregatorLost)

    def test_crash_of_non_aggregator_is_noop(self, baseline):
        plan = FaultPlan(seed=7).agg_crash(rank=1, round_index=1)  # not an agg
        contents, times, inj = run_workload(plan)
        assert inj.registry.value("faults.failovers") == 0
        assert np.array_equal(contents, baseline[0])
        assert times == baseline[1]


class TestPerformanceFaults:
    def test_straggler_stretches_makespan(self, baseline):
        _, times, inj = run_workload(FaultPlan(seed=1).straggler(factor=8.0, ranks=[1]))
        assert inj.registry.value("faults.straggler.extra_seconds") > 0
        assert max(times) > max(baseline[1])

    def test_slow_disk_stretches_makespan(self, baseline):
        contents, times, inj = run_workload(FaultPlan(seed=1).slow_disk(factor=4.0))
        assert inj.registry.value("faults.disk.slowdowns") > 0
        assert max(times) > max(baseline[1])
        assert np.array_equal(contents, baseline[0])

    def test_lock_storm_charges_extra_rpcs(self, baseline):
        contents, times, inj = run_workload(FaultPlan(seed=1).lock_storm(rate=1.0, extra_rpcs=3))
        assert inj.registry.value("faults.lock.storm_rpcs") > 0
        assert max(times) > max(baseline[1])
        assert np.array_equal(contents, baseline[0])

    def test_network_faults_delay_but_deliver(self, baseline):
        plan = FaultPlan(seed=1).net_delay(rate=0.5, delay=1e-3).net_drop(
            rate=0.2, timeout=3e-3
        )
        contents, times, inj = run_workload(plan)
        assert inj.registry.value("faults.net.delayed") > 0
        assert inj.registry.value("faults.net.dropped") > 0
        assert max(times) > max(baseline[1])
        assert np.array_equal(contents, baseline[0])

    def test_windowed_event_inactive_outside_window(self):
        e = FaultEvent("slow_disk", start=1.0, end=2.0, factor=2.0)
        assert not e.active(0.5) and e.active(1.0) and not e.active(2.0)


class TestChaosHarness:
    def test_sweep_is_verified_and_reports(self):
        harness = ChaosHarness("chaos:3")
        report = harness.sweep(rate_scales=(0.5, 2.0))
        assert report.all_verified
        assert report.baseline_seconds > 0
        assert len(report.points) == 2
        assert all(p.sim_seconds > report.baseline_seconds for p in report.points)
        text = report.format()
        assert "baseline" in text and "2.00" in text

    def test_agg_crash_sweep_rebalances(self):
        report = ChaosHarness("agg-crash:1").sweep(rate_scales=(1.0,))
        assert report.all_verified
        assert report.points[0].counters["faults.failovers"] == 1

    def test_custom_plan_accepted(self):
        harness = ChaosHarness(FaultPlan(seed=2).straggler(factor=4.0, ranks=[0]))
        report = harness.sweep(rate_scales=(1.0,))
        assert report.all_verified
        assert report.points[0].slowdown > 1.0

    def test_a_bounded_typed_error_is_an_outcome(self):
        """Every OST down for the whole run: the storage error (kept in
        the chain of the retry exhaustion) is a reported outcome with no
        completion time, because the plan carries OST events."""
        plan = FaultPlan(0).ost_crash(range(CostModel().num_osts), start=0.0, end=1e9)
        run = ChaosHarness(plan).run_once(plan)
        assert (run.seconds, run.verified, run.detected) == (0.0, True, True)

    def test_an_unarmed_typed_error_propagates(self):
        """A deadline miss is bounded only when the liveness hints are
        armed; otherwise it is a harness bug and propagates."""
        from repro.bench.chaos import SMOKE_HINTS
        from repro.errors import DeadlineExceeded, error_chain

        harness = ChaosHarness(FaultPlan(0), hints=SMOKE_HINTS.replace(coll_deadline=1e-9))
        with pytest.raises(RankFailed) as info:
            harness.run_once(None)
        assert any(isinstance(e, DeadlineExceeded) for e in error_chain(info.value))


class TestCLIFaults:
    def test_selfcheck_with_faults_summary(self, capsys):
        import repro.__main__ as cli

        assert cli.main(["selfcheck", "--faults", "transient-io:42"]) == 0
        out = capsys.readouterr().out
        assert "all combinations verified" in out
        assert "fault/retry summary" in out
        # A fault smoke that injects nothing checks nothing.
        (row,) = [line.split() for line in out.splitlines() if line.split()[:1] == ["faults.io"]]
        assert int(row[1]) > 0

    def test_selfcheck_fails_on_a_plan_that_injected_nothing(self, capsys):
        import repro.__main__ as cli

        # Pipelined flushes consume the per-rank draws in another
        # order; under this seed none of them hits.
        assert cli.main(["selfcheck", "--pipeline", "2", "--faults", "transient-io:42"]) == 1
        out = capsys.readouterr().out
        assert "selfcheck: fault plan 'transient-io:42' injected nothing (try another seed)" in out

    def test_selfcheck_reports_a_detected_flip_without_a_traceback(self, capsys):
        import repro.__main__ as cli

        assert cli.main(["selfcheck", "--integrity", "--faults", "bit-flip:42"]) == 1
        out = capsys.readouterr().out
        assert "DETECTED (checksum mismatch on page" in out
        assert "combinations FAILED" in out

    def test_selfcheck_refuses_a_rank_crash_plan_before_any_run(self, capsys):
        import repro.__main__ as cli

        assert cli.main(["selfcheck", "--faults", "rank-crash:4"]) == 2
        assert capsys.readouterr().out == (
            "selfcheck: rank-crash plans need the crash-aware mode "
            "(--crash RANK[:EPOCH], or chaos --faults rank-crash:N)\n"
        )

    def test_chaos_command(self, capsys):
        import repro.__main__ as cli

        assert cli.main(["chaos", "--faults", "straggler:1"]) == 0
        out = capsys.readouterr().out
        assert "chaos sweep" in out
        assert "no silent corruption" in out

    def test_faults_flag_requires_spec(self, capsys):
        import repro.__main__ as cli

        assert cli.main(["selfcheck", "--faults"]) == 2

    def test_info_lists_scenarios(self, capsys):
        import repro.__main__ as cli

        assert cli.main(["info"]) == 0
        out = capsys.readouterr().out
        assert "fault scenarios" in out
        assert "agg-crash" in out
