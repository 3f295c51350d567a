"""Storage-side fault domain (ISSUE 7): OST health, replication,
breakers, admission control, retry storm control.

Covers the plan DSL's three OST kinds, the pure health functions, the
circuit breaker's state machine, the replicated page store (placement,
quorum, stale tracking, failover, healing, repair), the typed
overload/budget errors, the jittered retry policy's per-seed
determinism, the scheduler admission probes, and the end-to-end
acceptance runs: a replicated collective write under a mid-run OST
crash must read back byte-identical, an unreplicated one must either
ride the outage out or die with a typed error — never hang, never go
silently wrong.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.config import CostModel
from repro.errors import (
    FileSystemError,
    IntegrityError,
    OSTOverloaded,
    OSTUnavailable,
    ReproError,
    RetryBudgetExhausted,
    RetryExhausted,
    TransientIOError,
    error_chain,
)
from repro.faults import EVENT_KINDS, OST_KINDS, FaultPlan, FaultPlanError, load_scenario
from repro.fs import FairShareScheduler, FIFOScheduler, PageStore, ReplicatedStore
from repro.fs.ostfault import (
    CLOSED,
    DEGRADED,
    DOWN,
    HALF_OPEN,
    OPEN,
    OST_LANE_TID,
    UP,
    BreakerPolicy,
    CircuitBreaker,
    chrome_lane_events,
    health_lanes,
    next_recovery,
    ost_service_factor,
    ost_state,
)
from repro.integrity import fsck as run_fsck
from repro.io.retry import RetryBudget, RetryPolicy
from repro.obs.session import Session

REGION, NPROCS = 64, 4
PATH = "/sf"


def _body(ctx, comm, f):
    from repro.datatypes import BYTE, contiguous, resized

    tile = resized(contiguous(REGION, BYTE), 0, REGION * comm.size)
    f.set_view(disp=comm.rank * REGION, filetype=tile)
    f.write_all(np.full(REGION, comm.rank + 1, dtype=np.uint8))


def _expected() -> np.ndarray:
    return np.concatenate(
        [np.full(REGION, r + 1, dtype=np.uint8) for r in range(NPROCS)]
    )


def _run(faults=None, hints=None, **kw) -> Session:
    values = {"coll_impl": "new", "cb_nodes": 2}
    values.update(hints or {})
    s = Session(PATH, nprocs=NPROCS, faults=faults, hints=values, **kw)
    s.run(_body)
    return s


# -- plan DSL ----------------------------------------------------------------


def test_ost_kinds_are_event_kinds():
    assert OST_KINDS == frozenset({"ost_crash", "ost_slow", "ost_flap"})
    assert OST_KINDS <= set(EVENT_KINDS)


def test_ost_builders_validate():
    with pytest.raises(FaultPlanError, match="name the affected osts"):
        FaultPlan().ost_crash(None, start=0.0, end=1.0)
    with pytest.raises(FaultPlanError, match="recovery epoch"):
        FaultPlan().ost_crash([0], start=0.0, end=math.inf)
    with pytest.raises(FaultPlanError, match="brownout factor"):
        FaultPlan().ost_slow([0], factor=1.0)
    with pytest.raises(FaultPlanError, match="half-period"):
        FaultPlan().ost_flap([0], period=0.0)


def test_describe_reports_ost_knobs_with_units():
    plan = (
        FaultPlan(5)
        .ost_crash([0, 2], start=1e-3, end=2e-3)
        .ost_slow([1], factor=4.0)
        .ost_flap([3], period=5e-4, end=1e-2)
        .slow_disk(factor=2.0, osts=[0])
    )
    rows = dict(plan.describe())
    assert "osts=[0, 2]" in rows["ost_crash"]
    assert "window=[0.001, 0.002)" in rows["ost_crash"]
    assert "factor=4x" in rows["ost_slow"]
    assert "period=0.0005s" in rows["ost_flap"]
    assert "factor=2x" in rows["slow_disk"]


def test_ost_scenarios_resolve():
    for name in ("ost-crash", "ost-slow", "ost-flap"):
        plan = load_scenario(f"{name}:9")
        assert plan.seed == 9
        assert any(e.kind in OST_KINDS for e in plan.events)


# -- health functions --------------------------------------------------------


def test_crash_window_health():
    events = FaultPlan().ost_crash([1], start=1.0, end=2.0).events
    assert ost_state(events, 1, 0.5) == UP
    assert ost_state(events, 1, 1.5) == DOWN
    assert ost_state(events, 1, 2.0) == UP  # recovery epoch is exclusive
    assert ost_state(events, 0, 1.5) == UP  # other OSTs unaffected
    assert next_recovery(events, 1, 1.5) == 2.0
    assert next_recovery(events, 1, 0.5) == 0.5  # already up


def test_slow_is_degraded_not_down():
    events = FaultPlan().ost_slow([0], factor=4.0, start=0.0, end=10.0).events
    assert ost_state(events, 0, 5.0) == DEGRADED
    assert ost_service_factor(events, 0, 5.0) == 4.0
    assert ost_service_factor(events, 0, 11.0) == 1.0


def test_flap_alternates_half_periods():
    events = FaultPlan().ost_flap([2], period=1.0, start=0.0, end=10.0).events
    assert ost_state(events, 2, 0.5) == UP  # even half-period
    assert ost_state(events, 2, 1.5) == DOWN  # odd half-period
    assert ost_state(events, 2, 2.5) == UP
    assert next_recovery(events, 2, 1.5) == 2.0
    assert next_recovery(events, 2, 3.2) == 4.0


def test_health_lanes_spans():
    events = (
        FaultPlan()
        .ost_crash([0], start=1.0, end=2.0)
        .ost_flap([1], period=1.0, start=0.0, end=4.0)
        .events
    )
    lanes = health_lanes(events, 2, 5.0)
    assert (0, "down", 1.0, 2.0) in lanes
    assert (1, "down", 1.0, 2.0) in lanes
    assert (1, "down", 3.0, 4.0) in lanes
    assert all(state == "down" for _, state, _, _ in lanes)


def test_chrome_lane_events_schema():
    events = FaultPlan().ost_crash([1], start=1e-3, end=2e-3).events
    rows = chrome_lane_events(events, 4, 1e-2)
    names = [r for r in rows if r["ph"] == "M"]
    spans = [r for r in rows if r["ph"] == "X"]
    assert names and names[0]["tid"] == OST_LANE_TID + 1
    assert spans and spans[0]["name"] == "ost:down"
    assert spans[0]["ts"] == pytest.approx(1e3)  # µs
    assert spans[0]["dur"] == pytest.approx(1e3)


# -- circuit breaker ---------------------------------------------------------


def test_breaker_trips_after_consecutive_failures():
    br = CircuitBreaker(BreakerPolicy(trip_after=3, cooldown=1.0))
    for t in (0.0, 0.1, 0.2):
        assert br.allow(t)
        br.record_failure(t)
    assert br.state == OPEN
    assert not br.allow(0.3)  # shed without touching the OST


def test_breaker_half_open_probe_then_close():
    br = CircuitBreaker(BreakerPolicy(trip_after=1, cooldown=1.0))
    br.record_failure(0.0)
    assert br.state == OPEN
    assert not br.allow(0.5)
    assert br.allow(1.5)  # cooldown elapsed: half-open probe
    assert br.state == HALF_OPEN
    br.record_success()
    assert br.state == CLOSED and br.failures == 0


def test_breaker_half_open_failure_reopens():
    br = CircuitBreaker(BreakerPolicy(trip_after=1, cooldown=1.0))
    br.record_failure(0.0)
    assert br.allow(1.5)
    br.record_failure(1.5)  # probe hit a still-down OST
    assert br.state == OPEN
    assert not br.allow(2.0)  # cooldown restarted from the probe
    assert br.allow(2.6)


def test_breaker_success_resets_failure_streak():
    br = CircuitBreaker(BreakerPolicy(trip_after=3, cooldown=1.0))
    br.record_failure(0.0)
    br.record_failure(0.1)
    br.record_success()
    br.record_failure(0.2)
    assert br.state == CLOSED  # streak restarted, not cumulative


# -- retry budget -----------------------------------------------------------


class _StubCtx:
    """Just enough RankContext for RetryPolicy.run."""

    def __init__(self, shared):
        self.shared = shared
        self.rank = 0
        self.slept = []

    def advance(self, dt):
        self.slept.append(dt)


def _always_fail():
    raise TransientIOError("server_write", 0, "/x")


def test_retry_budget_typed_error_and_bound():
    budget = RetryBudget(3)
    policy = RetryPolicy(retries=100, backoff=1e-6, budget=budget)
    ctx = _StubCtx({})
    with pytest.raises(RetryBudgetExhausted) as info:
        policy.run(ctx, _always_fail)
    assert budget.used == budget.limit == 3
    assert info.value.limit == 3
    assert info.value.attempts <= budget.limit + 1
    assert isinstance(info.value.__cause__, TransientIOError)
    # The budget is shared: a second operation is cut off immediately.
    with pytest.raises(RetryBudgetExhausted):
        policy.run(ctx, _always_fail)
    assert budget.used == 3


# -- replicated page store ---------------------------------------------------

_PS, _SS, _NOST = 64, 256, 4


def _payload(n, seed=0):
    return ((np.arange(n, dtype=np.int64) * 7 + seed) % 251).astype(np.uint8)


def test_replica_placement_primary_first():
    st = ReplicatedStore(_PS, _SS, _NOST, 2)
    assert st.replicas_of(0) == [0, 1]
    assert st.replicas_of(_SS) == [1, 2]
    assert st.replicas_of(3 * _SS) == [3, 0]  # wraps
    assert st.quorum == 2
    assert ReplicatedStore(_PS, _SS, _NOST, 3).quorum == 2


def test_replication_factor_validated():
    with pytest.raises(FileSystemError, match="replication factor"):
        ReplicatedStore(_PS, _SS, _NOST, 1)
    with pytest.raises(FileSystemError, match="replication factor"):
        ReplicatedStore(_PS, _SS, _NOST, 5)


def test_replicated_checksum_matches_plain_store():
    data = _payload(3 * _SS)
    plain = PageStore(_PS)
    repl = ReplicatedStore(_PS, _SS, _NOST, 2)
    plain.write(16, data)
    repl.write(16, data)
    assert repl.size == plain.size
    assert repl.checksum() == plain.checksum()
    assert np.array_equal(repl.read(16, data.size), plain.read(16, data.size))


def test_write_marks_down_replicas_stale_and_heals():
    st = ReplicatedStore(_PS, _SS, _NOST, 3)
    data = _payload(_SS)
    st.write(0, data, up={0, 1})  # stripe 0 replicas: 0, 1, 2
    assert st.stale_bytes() == _SS
    assert st.fresh_replicas(0, _SS) == [0, 1]
    healed = st.rereplicate({0, 1, 2, 3})
    assert healed == _SS
    assert st.stale_bytes() == 0
    assert st.fresh_replicas(0, _SS) == [0, 1, 2]
    assert np.array_equal(st.shards[2].read(0, _SS, verify=False), data)


def test_rereplicate_only_heals_up_osts():
    st = ReplicatedStore(_PS, _SS, _NOST, 2)
    st.write(0, _payload(_SS), up={0})
    assert st.rereplicate({0, 2, 3}) == 0  # the stale replica's OST is down
    assert st.stale_bytes() == _SS


def test_read_fails_over_past_down_replica():
    st = ReplicatedStore(_PS, _SS, _NOST, 2)
    data = _payload(_SS)
    st.write(0, data)
    out = np.empty(_SS, dtype=np.uint8)
    (bytes_per, reqs_per), failovers = st.read_extents(
        np.array([0]), np.array([_SS]), out, up={1, 2, 3}
    )
    assert np.array_equal(out, data)
    assert bytes_per.tolist() == [0, _SS, 0, 0] and reqs_per.tolist() == [0, 1, 0, 0]
    assert failovers == 0


def test_read_fails_over_past_corrupt_replica():
    st = ReplicatedStore(_PS, _SS, _NOST, 2, integrity=True)
    data = _payload(_SS)
    st.write(0, data)
    st.flip_bit(0, 9)  # corrupts the first allocated holder (OST 0)
    out = np.empty(_SS, dtype=np.uint8)
    (bytes_per, _), failovers = st.read_extents(np.array([0]), np.array([_SS]), out)
    assert np.array_equal(out, data)
    assert failovers == 1 and bytes_per.tolist() == [0, _SS, 0, 0]  # OST 1 served


def test_read_raises_when_all_replicas_corrupt():
    st = ReplicatedStore(_PS, _SS, _NOST, 2, integrity=True)
    st.write(0, _payload(_SS))
    st.shards[0].flip_bit(0, 3)
    st.shards[1].flip_bit(0, 4)
    with pytest.raises(IntegrityError):
        st.read(0, _PS)


def test_read_raises_typed_when_no_fresh_live_replica():
    st = ReplicatedStore(_PS, _SS, _NOST, 2)
    st.write(0, _payload(_SS), up={0})
    with pytest.raises(FileSystemError):
        st.read(0, _PS, up={1, 2, 3})  # OST 1's copy is stale, 0 is down


def test_rereplicate_never_launders_corruption():
    st = ReplicatedStore(_PS, _SS, _NOST, 2, integrity=True)
    st.write(0, _payload(_SS), up={0})
    st.flip_bit(0, 5)  # the only fresh copy is now corrupt
    assert st.rereplicate() == 0
    assert st.stale_bytes() == _SS  # stays stale; fsck must repair first


# -- schedulers: admission probes and satellites -----------------------------


def test_queue_delay_matches_immediate_request():
    for sched in (FIFOScheduler(), FairShareScheduler(), FairShareScheduler(True)):
        sched.request(0, "a", 1.0, 0.0, 2.0)
        sched.request(0, "b", 1.0, 0.0, 1.0)
        probe = sched.queue_delay(0, "a", 1.0, 0.5, 3.0)
        done = sched.request(0, "a", 1.0, 0.5, 3.0)
        assert done - 0.5 - 3.0 == pytest.approx(probe), sched.name


def test_wfq_zero_and_missing_weight():
    sched = FairShareScheduler(weighted=True)
    sched.request(0, "busy", 1.0, 0.0, 4.0)
    # Weight 0 must not divide by zero; it degrades to "tiny share".
    d0 = sched.queue_delay(0, "new", 0.0, 0.0, 1.0)
    assert math.isfinite(d0) and d0 >= 0.0
    done = sched.request(0, "new", 0.0, 0.0, 1.0)
    assert math.isfinite(done)
    # A competitor with no declared weight defaults to 1 in the
    # interference sum rather than KeyErroring.
    fresh = FairShareScheduler(weighted=True)
    fresh._busy[(0, "ghost")] = 5.0  # lane exists, weight never declared
    assert math.isfinite(fresh.queue_delay(0, "me", 2.0, 0.0, 1.0))


def test_scheduler_reset_between_runs():
    for sched in (FIFOScheduler(), FairShareScheduler(), FairShareScheduler(True)):
        sched.request(0, "a", 1.0, 0.0, 5.0)
        assert sched.queue_delay(0, "b", 1.0, 0.0, 1.0) > 0.0
        sched.reset()
        assert sched.queue_delay(0, "b", 1.0, 0.0, 1.0) == 0.0, sched.name
        assert sched.request(0, "b", 1.0, 0.0, 1.0) == 1.0


def test_single_tenant_fair_equals_fifo():
    fifo, fair = FIFOScheduler(), FairShareScheduler()
    requests = [(0, 0.0, 2.0), (0, 0.5, 1.0), (1, 0.1, 3.0), (0, 4.0, 1.0)]
    for ost, arrive, service in requests:
        assert fair.request(ost, "only", 1.0, arrive, service) == pytest.approx(
            fifo.request(ost, "only", 1.0, arrive, service)
        )


# -- end-to-end: collective runs under OST faults ----------------------------


def test_unreplicated_crash_rides_out_with_retries():
    s = _run(faults="ost-crash")
    assert np.array_equal(s.fs.raw_bytes(PATH, 0, REGION * NPROCS), _expected())
    assert s.registry.value("faults.ost.rejections") > 0


def test_unreplicated_long_crash_raises_typed_error():
    plan = FaultPlan(0).ost_crash([0], start=0.0, end=10.0)
    with pytest.raises(ReproError) as info:
        _run(faults=plan, hints={"io_retries": 2})
    chain = list(error_chain(info.value))
    assert any(isinstance(e, RetryExhausted) for e in chain)
    assert any(isinstance(e, OSTUnavailable) for e in chain)


def test_rank_crash_composes_with_ost_flap():
    """Fail-stop rank death *during* a flapping OST: the two fault
    domains compose.  Survivors ride the flap out on retries and
    finish their bytes; the rejoined rank resumes from the epoch
    records; the recovered file matches an uninterrupted run
    byte-for-byte (docs/crash_recovery.md)."""
    region, count = 64, 8
    total = NPROCS * region * count

    def body(ctx, comm, f):
        from repro.datatypes import BYTE, contiguous, resized

        tile = resized(contiguous(region, BYTE), 0, region * comm.size)
        f.set_view(disp=comm.rank * region, filetype=tile)
        f.write_all(
            (np.arange(region * count, dtype=np.int64) * (comm.rank + 1) % 251)
            .astype(np.uint8)
        )

    hints = {
        "coll_impl": "new",
        "cb_nodes": 2,
        "cb_buffer_size": 256,
        "io_retries": 8,
    }
    base = Session(PATH, nprocs=NPROCS, hints=hints)
    base.run(body)
    ref = np.asarray(base.fs.raw_bytes(PATH, 0, total)).copy()

    plan = (
        FaultPlan(seed=3)
        .rank_crash(1, call_index=0, round_index=2, site="exchange")
        .ost_flap([0], period=2e-3, start=0.0, end=2e-2)
    )
    s = Session(PATH, nprocs=NPROCS, hints=hints, faults=plan)
    s.run(body)
    assert sorted(s.sim.crashed) == [1]
    out = s.rejoin(1, body)
    assert out["rewritten"] > 0
    got = np.asarray(s.fs.raw_bytes(PATH, 0, total))
    assert np.array_equal(got, ref)
    faults = s.registry
    assert faults.value("faults.crashes") == 1 and faults.value("faults.crash.rejoins") == 1
    assert faults.value("faults.retries") > 0 or faults.value("faults.ost.rejections") > 0


def test_replicated_crash_byte_identical_and_checksum_equal():
    """The acceptance headline: replication_factor=2 plus a mid-run
    OST crash still reads back byte-identical, and the replicated
    store's logical checksum equals a fault-free plain run's."""
    clean = _run()
    s = _run(faults="ost-crash", hints={"replication_factor": 2})
    total = REGION * NPROCS
    assert np.array_equal(s.fs.raw_bytes(PATH, 0, total), _expected())
    assert s.fs.replication_of(PATH) == 2
    assert s.fs.page_store(PATH).checksum() == clean.fs.page_store(PATH).checksum()


def test_replicated_read_serves_during_outage():
    """Reads during the window fail over to the surviving replica
    instead of retrying: write clean, then read inside a crash window."""
    from repro.datatypes import BYTE, contiguous, resized

    def body(ctx, comm, f):
        tile = resized(contiguous(REGION, BYTE), 0, REGION * comm.size)
        f.set_view(disp=comm.rank * REGION, filetype=tile)
        out = np.zeros(REGION, dtype=np.uint8)
        f.read_all(out)
        return bool(np.array_equal(out, np.full(REGION, comm.rank + 1, np.uint8)))

    seed = _run(hints={"replication_factor": 2})
    # Same fs, new session-like run: crash the primary for the whole run.
    plan = FaultPlan(0).ost_crash([0], start=0.0, end=10.0)
    s = Session(PATH, nprocs=NPROCS, faults=plan,
                hints={"coll_impl": "new", "cb_nodes": 2, "replication_factor": 2})
    s.fs = seed.fs  # reuse the written, replicated file system
    results = s.run(body)
    assert all(results)
    assert s.registry.counter("fs.ost.down_hits").value == 0


def test_corrupt_replica_read_fails_over_to_a_fresh_one():
    """A failover is a *corrupt* replica skipped for a fresh one: it
    takes replication, the page sidecar and a flip — and an OST kind in
    the plan for the ``faults.`` twin of ``fs.ost.failovers``."""
    from repro.datatypes import BYTE, contiguous, resized

    count = 16

    def body(ctx, comm, f):
        tile = resized(contiguous(REGION, BYTE), 0, REGION * comm.size)
        f.set_view(disp=comm.rank * REGION, filetype=tile)
        data = (
            np.arange(REGION * count, dtype=np.int64) * (comm.rank + 1) % 251
        ).astype(np.uint8)
        f.write_all(data)
        f.seek(0)
        back = np.zeros_like(data)
        f.read_all(back)
        return bool(np.array_equal(back, data))

    s = Session(
        PATH,
        nprocs=NPROCS,
        faults=FaultPlan(2).page_bitflip(rate=0.5).ost_slow([1], 1.5),
        hints={
            "cb_nodes": 2,
            "cb_buffer_size": 512,
            "cache_mode": "off",
            "replication_factor": 2,
            "integrity_pages": True,
        },
    )
    assert all(s.run(body))
    assert s.registry.value("faults.page.bits_flipped") > 0
    assert s.registry.value("faults.ost.failovers") == 8
    assert s.registry.value("fs.ost.failovers") == 8


def test_replicated_quorum_failure_is_typed():
    plan = FaultPlan(0).ost_crash([0, 1], start=0.0, end=10.0)
    with pytest.raises(ReproError) as info:
        _run(
            faults=plan,
            hints={"replication_factor": 2, "io_retries": 1},
            breaker=False,
        )
    assert any(
        isinstance(e, OSTUnavailable) and e.reason == "quorum"
        for e in error_chain(info.value)
    )


def test_flap_breaker_probes_bounded():
    # trip_after=1: the first down-hit opens the breaker, so the
    # workload's handful of probes is enough to exercise fast-fails.
    runs = {}
    for brk in (False, BreakerPolicy(trip_after=1, cooldown=2e-3)):
        s = _run(faults="ost-flap", breaker=brk)
        assert np.array_equal(s.fs.raw_bytes(PATH, 0, REGION * NPROCS), _expected())
        runs[bool(brk)] = {
            "down_hits": s.registry.counter("fs.ost.down_hits").value,
            "fastfails": s.registry.counter("fs.ost.breaker_fastfail").value,
        }
    assert runs[True]["down_hits"] <= runs[False]["down_hits"]
    assert runs[True]["fastfails"] > 0
    assert runs[False]["fastfails"] == 0


def test_ost_health_gauges_and_trace_lanes():
    from repro.obs.schema import validate_chrome_trace

    s = Session(PATH, nprocs=NPROCS, faults="ost-crash", trace=True,
                hints={"coll_impl": "new", "cb_nodes": 2})
    s.run(_body)
    snap = s.registry.snapshot("fs.ost.health")
    assert len(snap) == s.cost.num_osts  # one gauge per OST
    doc = s.chrome_trace()
    validate_chrome_trace(doc)
    lanes = [e for e in doc["traceEvents"] if e.get("cat") == "ost"]
    assert lanes and all(e["tid"] >= OST_LANE_TID for e in lanes)
    assert any(e["name"] == "ost:down" for e in lanes)


def test_queue_limit_typed_backpressure_on_concurrent_writers():
    """Three clients hit one OST at the same instant with a zero queue
    limit: the first is admitted, the other two get typed backpressure
    before any booking or byte mutation."""
    from repro.config import DEFAULT_COST_MODEL
    from repro.fs import SimFileSystem
    from repro.fs.client import FSClient
    from repro.sim import Simulator

    fs = SimFileSystem(DEFAULT_COST_MODEL, queue_limit=0.0)

    def main(ctx):
        f = FSClient(fs, ctx).open("/q", cache_mode="off")
        try:
            f.write(ctx.rank * 16384, np.full(4096, ctx.rank + 1, dtype=np.uint8))
            return None
        except OSTOverloaded as exc:
            return exc

    results = Simulator(3).run(main)
    rejected = [r for r in results if r is not None]
    assert len(rejected) == 2
    for exc in rejected:
        assert exc.ost == 0 and exc.backlog > exc.limit == 0.0
    assert fs.registry.counter("fs.ost.overloads").value == 2
    # Rejections happened before mutation: only the admitted write landed.
    assert fs.page_store("/q").allocated_pages == 1


def test_queue_limit_backpressure_rides_out_with_retries():
    """A rejected client that backs off and reissues succeeds once the
    queue drains — bounded completion under overload."""
    from repro.config import DEFAULT_COST_MODEL
    from repro.fs import SimFileSystem
    from repro.fs.client import FSClient
    from repro.sim import Simulator

    fs = SimFileSystem(DEFAULT_COST_MODEL, queue_limit=0.0)
    policy = RetryPolicy(retries=8, backoff=1e-3)

    def main(ctx):
        f = FSClient(fs, ctx).open("/q2", cache_mode="off")
        data = np.full(4096, ctx.rank + 1, dtype=np.uint8)
        policy.run(ctx, lambda: f.write(ctx.rank * 4096, data))
        return True

    assert all(Simulator(3).run(main))
    assert fs.registry.counter("fs.ost.overloads").value > 0
    for rank in range(3):
        got = fs.raw_bytes("/q2", rank * 4096, 4096)
        assert np.array_equal(got, np.full(4096, rank + 1, dtype=np.uint8))


def test_retry_budget_bounds_total_attempts_end_to_end():
    plan = FaultPlan(0).ost_crash([0], start=0.0, end=10.0)
    with pytest.raises(ReproError) as info:
        _run(faults=plan, hints={"io_retries": 50, "io_retry_budget": 4})
    assert any(isinstance(e, RetryBudgetExhausted) for e in error_chain(info.value))
    # Total retries across the whole client stayed within the budget.
    assert info.value and True


def test_fsck_repairs_from_replica():
    s = _run(hints={"replication_factor": 2, "integrity_pages": True})
    fs = s.fs
    store = fs.page_store(PATH)
    store.flip_bit(0, 17)  # corrupt one replica of page 0
    assert store.verify_all() == [0]
    reports = run_fsck(fs, repair="replica")
    damaged = [rep for rep in reports if rep.bad_pages]
    assert damaged and all(rep.repaired == rep.bad_pages for rep in damaged)
    assert all(rep.clean for rep in run_fsck(fs))
    assert np.array_equal(fs.raw_bytes(PATH, 0, REGION * NPROCS), _expected())


def test_fsck_replica_mode_needs_a_good_copy():
    s = _run(hints={"replication_factor": 2, "integrity_pages": True})
    store = s.fs.page_store(PATH)
    store.shards[0].flip_bit(0, 3)
    store.shards[1].flip_bit(0, 4)  # both copies of page 0 corrupt
    run_fsck(s.fs, repair="replica")
    assert 0 in store.verify_all()  # honest: unrepairable stays flagged


def test_rereplication_after_recovery_counter():
    st = ReplicatedStore(_PS, _SS, _NOST, 2)
    st.write(0, _payload(_SS), up={0})
    cost = CostModel(page_size=_PS, stripe_size=_SS, num_osts=_NOST)
    from repro.fs import SimFileSystem

    fs = SimFileSystem(cost)
    fs.ensure_file("/r")
    fs._files["/r"].store = st
    st.size = _SS
    healed = fs.rereplicate("/r")
    assert healed == _SS
    assert fs.registry.counter("fs.ost.rereplicated_bytes").value == _SS
    assert st.stale_bytes() == 0


# -- CLI ---------------------------------------------------------------------


def test_mt_json_flag_emits_parseable_comparison(capsys):
    from repro.__main__ import main as cli_main

    code = cli_main(["mt", "--json", "--tenants", "2"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0 and doc["ok"] is True
    assert set(doc["policies"]) == {"fifo", "fair"}
    for entry in doc["policies"].values():
        assert entry["spread"] >= 0.0
        assert all(entry["verified"].values())
        assert all(c["ok"] for c in entry["conservation"].values())
    assert doc["comparison"]["policy"] == "fair"


def test_cli_replicate_flag_rejects_bad_values(capsys):
    from repro.__main__ import main as cli_main

    assert cli_main(["selfcheck", "--replicate"]) == 2
    assert cli_main(["selfcheck", "--replicate", "x"]) == 2
    assert cli_main(["selfcheck", "--replicate", "0"]) == 2
    capsys.readouterr()
