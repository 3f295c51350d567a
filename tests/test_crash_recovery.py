"""Fail-stop rank crashes: survivor agreement, elastic rejoin, and
resumable collectives (docs/crash_recovery.md).

Covers the plan DSL's ``rank_crash`` kind and sites, the shared
:class:`CrashState`, the communication-free shrink
(:class:`AliveGroup`) and the epoch agreement protocol, the victim's
crash sites, quorum-loss aborts (typed :class:`CollectiveAborted`),
the write journal's epoch commit records, :meth:`Session.rejoin`'s
journal-replay resume, the already-dead-target suppression counter,
and the end-to-end differential properties: survivors' bytes must be
identical to an uninterrupted run under **all four** exchange
backends, and crash + rejoin + resume must reproduce the
uninterrupted file byte-for-byte (fsck-verifiable).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datatypes import BYTE, contiguous, resized
from repro.datatypes.packing import scatter_segments
from repro.datatypes.segments import FlatCursor
from repro.errors import CollectiveAborted, MPIError, RankCrashed
from repro.faults import EVENT_KINDS, FaultPlan, FaultPlanError, load_scenario
from repro.faults.plan import CRASH_SITES
from repro.integrity import fsck as run_fsck
from repro.liveness import CrashState, find_crash_state, install_crash_state
from repro.mpi.agreement import AliveGroup, agree_dead_set
from repro.obs.session import Session

PATH = "/crash"

#: (label, coll_impl, exchange hint) — the four backends the
#: differential property quantifies over; the old implementation
#: hardwires its own nonblocking exchange.
MODES = (
    ("new+two_layer", "new", "two_layer"),
    ("new+alltoallw", "new", "alltoallw"),
    ("new+nonblocking", "new", "nonblocking"),
    ("old", "old", None),
)

_SETTINGS = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _hints(impl, exchange, **extra):
    values = dict(coll_impl=impl, cb_nodes=2, cb_buffer_size=256)
    if exchange is not None:
        values["exchange"] = exchange
    values.update(extra)
    return values


def _make_body(region, count):
    def body(ctx, comm, f):
        tile = resized(contiguous(region, BYTE), 0, region * comm.size)
        f.set_view(disp=comm.rank * region, filetype=tile)
        data = (
            np.arange(region * count, dtype=np.int64) * (comm.rank + 1) % 251
        ).astype(np.uint8)
        f.write_all(data)

    return body


def _rank_mask(nprocs, region, count, rank):
    """Boolean mask of the file positions ``rank`` owns."""
    total = nprocs * region * count
    mask = np.zeros(total, dtype=bool)
    tile = resized(contiguous(region, BYTE), 0, region * nprocs).flatten()
    batch = FlatCursor(tile, rank * region, region * count).all_segments()
    ones = np.ones(region * count, dtype=np.uint8)
    tmp = np.zeros(total, dtype=np.uint8)
    scatter_segments(tmp, batch, ones)
    mask[tmp == 1] = True
    return mask


def _run(nprocs, region, count, impl, exchange, faults=None, **extra):
    s = Session(
        PATH,
        nprocs=nprocs,
        hints=_hints(impl, exchange, **extra),
        faults=faults,
    )
    s.run(_make_body(region, count))
    return s


# -- plan DSL ----------------------------------------------------------------


def test_rank_crash_is_event_kind():
    assert "rank_crash" in EVENT_KINDS
    assert set(CRASH_SITES) == {"boundary", "exchange", "flush"}


def test_rank_crash_builder_validates():
    with pytest.raises(FaultPlanError):
        FaultPlan().rank_crash(-1)
    with pytest.raises(FaultPlanError):
        FaultPlan().rank_crash(0, round_index=-1)
    with pytest.raises(FaultPlanError):
        FaultPlan().rank_crash(0, site="nowhere")
    plan = FaultPlan().rank_crash(2, call_index=1, round_index=3, site="flush")
    (event,) = plan.events
    assert event.kind == "rank_crash" and event.site == "flush"


def test_rank_crash_scenario_resolves():
    for seed in range(6):
        plan = load_scenario(f"rank-crash:{seed}")
        (event,) = plan.events
        assert event.kind == "rank_crash"
        assert set(event.ranks) <= {1, 2, 3}
        assert event.site in CRASH_SITES


# -- crash state + agreement helpers ----------------------------------------


def test_crash_state_mark_dead_idempotent():
    shared = {}
    state = install_crash_state(shared)
    assert install_crash_state(shared) is state
    assert find_crash_state(shared) is state
    assert state.mark_dead(2, 0, 1) is True
    assert state.mark_dead(2, 0, 5) is False
    assert 2 in state.dead


def test_crash_state_find_absent():
    assert find_crash_state({}) is None
    assert isinstance(install_crash_state({}), CrashState)


def _collective(nprocs, fn):
    from repro.mpi import Communicator
    from repro.sim import Simulator

    sim = Simulator(nprocs)

    def main(ctx):
        return fn(Communicator(ctx))

    return sim.run(main)


def test_alive_group_shrinks_collectives():
    def fn(comm):
        if comm.rank == 1:
            return None  # corpse: never enters the group
        g = AliveGroup(comm, frozenset({1}), 7)
        assert g.size == comm.size - 1
        assert g.first_alive() == 0
        total = g.allreduce(1, op=lambda a, b: a + b)
        gathered = g.allgather(comm.rank)
        return total, gathered

    results = _collective(4, fn)
    for res in (results[0], results[2], results[3]):
        total, gathered = res
        assert total == 3
        assert gathered == [0, None, 2, 3]


def test_alive_group_alltoall_drops_corpses():
    def fn(comm):
        if comm.rank == 2:
            return None
        g = AliveGroup(comm, frozenset({2}), 3)
        out = g.alltoall([f"{comm.rank}->{d}" for d in range(comm.size)])
        return out

    results = _collective(4, fn)
    assert results[0] == ["0->0", "1->0", None, "3->0"]
    assert results[3] == ["0->3", "1->3", None, "3->3"]


def test_agree_dead_set_unanimous():
    def fn(comm):
        if comm.rank == 3:
            return None
        g = agree_dead_set(comm, frozenset({3}), 1)
        return (g.size, g.dead)

    results = _collective(4, fn)
    assert results[0] == (3, frozenset({3}))


def test_agree_dead_set_divergence_is_typed(monkeypatch):
    # Detection is a pure plan evaluation, so genuine survivors always
    # propose the same set; a wider union can only mean the protocol
    # broke.  Fake a peer view to exercise the loud-failure contract.
    from repro.mpi import agreement as ag

    class _FakeGroup:
        def __init__(self, comm, dead, epoch):
            self.dead = dead

        def allgather(self, value):
            return [value, (1, 3)]

    monkeypatch.setattr(ag, "AliveGroup", _FakeGroup)
    with pytest.raises(MPIError, match="diverged"):
        ag.agree_dead_set(object(), frozenset({3}), 1)


# -- end-to-end: survivors --------------------------------------------------


NPROCS, REGION, COUNT = 4, 64, 8


@pytest.fixture(scope="module")
def baseline_image():
    s = _run(NPROCS, REGION, COUNT, "new", "two_layer")
    return np.asarray(
        s.fs.raw_bytes(PATH, 0, NPROCS * REGION * COUNT)
    ).copy()


def test_survivors_complete_all_sites(baseline_image):
    for site in sorted(CRASH_SITES):
        plan = FaultPlan(seed=0).rank_crash(
            1, call_index=0, round_index=1, site=site
        )
        s = _run(NPROCS, REGION, COUNT, "new", "two_layer", faults=plan)
        assert sorted(s.sim.crashed) == [1]
        got = np.asarray(s.fs.raw_bytes(PATH, 0, baseline_image.size))
        mask = ~_rank_mask(NPROCS, REGION, COUNT, 1)
        assert np.array_equal(got[mask], baseline_image[mask]), site
        assert s.registry.value("faults.crashes") == 1
        assert s.registry.value("faults.crash.agreements") == 1


def test_crashed_rank_result_is_none():
    plan = FaultPlan(seed=0).rank_crash(2, call_index=0, round_index=1)
    s = Session(PATH, nprocs=NPROCS, hints=_hints("new", "two_layer"), faults=plan)
    results = s.run(_make_body(REGION, COUNT))
    assert results[2] is None
    assert all(r is None for i, r in enumerate(results) if i == 2)


def test_quorum_loss_raises_typed_abort():
    plan = (
        FaultPlan(seed=0)
        .rank_crash(1, call_index=0, round_index=1)
        .rank_crash(2, call_index=0, round_index=2)
        .rank_crash(3, call_index=0, round_index=3)
    )
    s = Session(
        PATH,
        nprocs=NPROCS,
        hints=_hints("new", "two_layer", crash_quorum=2),
        faults=plan,
    )
    with pytest.raises(CollectiveAborted) as exc:
        s.run(_make_body(REGION, COUNT))
    assert exc.value.alive == 1 and exc.value.quorum == 2
    assert exc.value.dead == (1, 2, 3)
    assert s.registry.value("faults.crash.aborted") == 1


def test_suppressed_faults_counted_when_target_already_dead():
    for impl, exchange in (("new", "two_layer"), ("old", None)):
        plan = (
            FaultPlan(seed=0)
            .rank_crash(1, call_index=0, round_index=1)
            .rank_crash(1, call_index=0, round_index=3)
        )
        s = _run(NPROCS, REGION, COUNT, impl, exchange, faults=plan)
        assert s.registry.value("faults.crashes") == 1, impl
        assert s.registry.value("faults.suppressed") == 1, impl


def test_rank_crashed_is_base_exception():
    # The engine must be the only thing that catches a dying rank —
    # a stray ``except Exception`` in library code would resurrect it.
    assert not issubclass(RankCrashed, Exception)
    assert issubclass(RankCrashed, BaseException)


# -- rejoin + resume ---------------------------------------------------------


def test_rejoin_requires_a_crashed_rank():
    s = _run(NPROCS, REGION, COUNT, "new", "two_layer")
    with pytest.raises(ValueError):
        s.rejoin(1, _make_body(REGION, COUNT))


def test_rejoin_resumes_byte_identical(baseline_image):
    plan = FaultPlan(seed=0).rank_crash(2, call_index=0, round_index=2)
    s = _run(NPROCS, REGION, COUNT, "new", "two_layer", faults=plan)
    out = s.rejoin(2, _make_body(REGION, COUNT))
    assert out["rewritten"] > 0 and out["skipped"] > 0
    assert out["rewritten"] + out["skipped"] == REGION * COUNT
    got = np.asarray(s.fs.raw_bytes(PATH, 0, baseline_image.size))
    assert np.array_equal(got, baseline_image)
    assert s.registry.value("faults.crash.rejoins") == 1
    assert s.registry.value("faults.crash.resume_rewritten_bytes") == out["rewritten"]
    assert s.registry.value("faults.crash.resume_skipped_bytes") == out["skipped"]


def test_rejoin_fsck_clean(baseline_image):
    """The recovered file passes an integrity scrub: crash + resume
    left no damaged pages behind."""
    plan = FaultPlan(seed=0).rank_crash(1, call_index=0, round_index=1)
    s = Session(
        PATH,
        nprocs=NPROCS,
        hints=_hints("new", "two_layer", integrity_pages=True),
        faults=plan,
    )
    s.run(_make_body(REGION, COUNT))
    s.rejoin(1, _make_body(REGION, COUNT))
    (report,) = run_fsck(s.fs, PATH)
    assert report.clean, report
    got = np.asarray(s.fs.raw_bytes(PATH, 0, baseline_image.size))
    assert np.array_equal(got, baseline_image)


def test_epoch_records_journal_replay():
    plan = FaultPlan(seed=0).rank_crash(3, call_index=0, round_index=2)
    s = _run(NPROCS, REGION, COUNT, "new", "two_layer", faults=plan)
    records = s.fs.journal_replay(PATH)
    assert records, "crash-armed run must cut epoch records"
    for rec in records:
        assert rec["call_index"] == 0
        assert all(hi > lo for lo, hi in rec["intervals"])
    # Records cut before the crash list the victim as a participant;
    # records cut after do not.
    pre = [r for r in records if 3 in r["participants"]]
    post = [r for r in records if 3 not in r["participants"]]
    assert pre and post


def test_resume_skips_more_with_later_crash():
    skipped = []
    for epoch in (1, 2, 3):
        plan = FaultPlan(seed=0).rank_crash(2, call_index=0, round_index=epoch)
        s = _run(NPROCS, REGION, COUNT, "new", "two_layer", faults=plan)
        out = s.rejoin(2, _make_body(REGION, COUNT))
        skipped.append(out["skipped"])
    assert skipped == sorted(skipped)
    assert skipped[-1] > skipped[0]


def test_rejoin_works_under_journaled_writes(baseline_image):
    plan = FaultPlan(seed=0).rank_crash(1, call_index=0, round_index=2)
    s = _run(
        NPROCS, REGION, COUNT, "new", "two_layer",
        faults=plan, journal_writes=True,
    )
    s.rejoin(1, _make_body(REGION, COUNT))
    got = np.asarray(s.fs.raw_bytes(PATH, 0, baseline_image.size))
    assert np.array_equal(got, baseline_image)


# -- observability -----------------------------------------------------------


def test_summary_surfaces_retry_budget():
    s = _run(NPROCS, REGION, COUNT, "new", "two_layer", io_retry_budget=10)
    text = s.summary()
    assert "retry budget (limit 10/rank):" in text
    assert "remaining=10" in text


def test_summary_surfaces_breaker_state():
    plan = FaultPlan(seed=0).ost_flap([0], period=2e-3, start=0.0, end=2e-2)
    s = Session(
        PATH,
        nprocs=NPROCS,
        hints=_hints("new", "two_layer", io_retries=8),
        faults=plan,
    )
    s.run(_make_body(REGION, COUNT))
    text = s.summary()
    assert "ost breakers:" in text
    assert "ost 0" in text


# -- the differential property ----------------------------------------------


@st.composite
def crash_cases(draw):
    nprocs = draw(st.integers(min_value=3, max_value=5))
    return dict(
        nprocs=nprocs,
        victim=draw(st.integers(min_value=0, max_value=nprocs - 1)),
        epoch=draw(st.integers(min_value=0, max_value=3)),
        site=draw(st.sampled_from(sorted(CRASH_SITES))),
        region=draw(st.sampled_from((32, 64))),
        count=draw(st.integers(min_value=4, max_value=8)),
    )


def _check_crash_case(case):
    nprocs, region, count = case["nprocs"], case["region"], case["count"]
    total = nprocs * region * count
    body = _make_body(region, count)
    survivor_mask = ~_rank_mask(nprocs, region, count, case["victim"])
    for label, impl, exchange in MODES:
        solo = Session(PATH, nprocs=nprocs, hints=_hints(impl, exchange))
        solo.run(body)
        ref = np.asarray(solo.fs.raw_bytes(PATH, 0, total)).copy()

        plan = FaultPlan(seed=0).rank_crash(
            case["victim"],
            call_index=0,
            round_index=case["epoch"],
            site=case["site"],
        )
        s = Session(PATH, nprocs=nprocs, hints=_hints(impl, exchange), faults=plan)
        s.run(body)
        got = np.asarray(s.fs.raw_bytes(PATH, 0, total))
        if not s.sim.crashed:
            # The drawn epoch fell past the call's last phase boundary
            # (geometry-dependent round count): nothing fires and the
            # run must be byte-identical outright.
            assert np.array_equal(got, ref), (label, case)
            continue
        assert sorted(s.sim.crashed) == [case["victim"]], (label, case)
        assert np.array_equal(got[survivor_mask], ref[survivor_mask]), (
            label,
            case,
        )
        # Elastic rejoin: the resumed run must close the gap exactly.
        s.rejoin(case["victim"], body)
        got = np.asarray(s.fs.raw_bytes(PATH, 0, total))
        assert np.array_equal(got, ref), (label, case)


@given(case=crash_cases())
@settings(max_examples=10, **_SETTINGS)
def test_crash_differential_quick(case):
    """Tier-1 slice: survivors byte-identical to a solo run under all
    four backends, and crash + rejoin + resume fully identical."""
    _check_crash_case(case)


@pytest.mark.slow
@given(case=crash_cases())
@settings(max_examples=60, **_SETTINGS)
def test_crash_differential_sweep(case):
    """The full drawn sweep (dedicated CI job)."""
    _check_crash_case(case)
