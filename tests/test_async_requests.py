"""The nonblocking Request surface (docs/async_io.md).

State-machine edges (double wait, test-before-complete, wait after a
crash-abort, wait timeouts), split-phase ordering against the blocking
surface, typed-failure parity with the inline path (``DeadlineExceeded``
and ``RankCrashed`` delivered at ``wait()`` carry the same payloads),
``Session.run_async``, and the chaos harness's async workload mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.chaos import ChaosHarness
from repro.core import request as rq
from repro.core.request import Request, waitall, waitany
from repro.datatypes import BYTE, contiguous, resized
from repro.errors import (
    CollectiveIOError,
    DeadlineExceeded,
    RankCrashed,
    RankFailed,
    WaitTimeout,
)
from repro.faults import FaultPlan
from repro.obs.session import Session

PATH = "/async"
HINTS = dict(coll_impl="new", cb_nodes=2, cb_buffer_size=256)


def _session(**kw):
    return Session(PATH, nprocs=4, hints=dict(HINTS, **kw.pop("hints", {})), **kw)


def _view(comm, f, region):
    tile = resized(contiguous(region, BYTE), 0, region * comm.size)
    f.set_view(disp=comm.rank * region, filetype=tile)


# -- state machine -----------------------------------------------------------


class TestRequestStateMachine:
    def test_pending_then_complete_and_double_wait(self):
        s = _session()

        def body(ctx, comm, f):
            _view(comm, f, 64)
            req = f.iwrite_all(np.full(64, comm.rank, dtype=np.uint8))
            states = [req.state, req.done]
            req.wait()
            req.wait()  # idempotent
            states += [req.state, req.done, req.exception()]
            return states

        for pending, pdone, state, done, exc in s.run(body):
            assert pending == "PENDING" and not pdone
            assert state == "COMPLETE" and done and exc is None

    def test_test_before_complete_then_settles(self):
        s = _session()

        def body(ctx, comm, f):
            _view(comm, f, 512)
            req = f.iwrite_all(np.full(512 * 4, comm.rank, dtype=np.uint8))
            first = req.test()
            polls = 0
            while not req.test():
                polls += 1
                ctx.advance(1e-4)
            assert req.state == "COMPLETE"
            req.wait()  # after test() settled: no engine interaction
            return first, polls

        for first, polls in s.run(body):
            # The collective cannot have finished before anyone entered
            # it: the very first poll observes PENDING.
            assert first is False
            assert polls > 0

    def test_exception_raises_while_pending(self):
        s = _session()

        def body(ctx, comm, f):
            _view(comm, f, 64)
            req = f.iwrite_all(np.full(64, 1, dtype=np.uint8))
            with pytest.raises(CollectiveIOError, match="still pending"):
                req.exception()
            req.wait()
            return True

        assert all(s.run(body))

    def test_born_complete_requests(self):
        req = Request.completed(value=7, op="noop")
        assert req.done and req.state == "COMPLETE"
        assert req.wait() == 7 and req.result() == 7
        assert req.exception() is None
        assert rq.testall([req, Request.completed()])
        assert waitany([Request.completed()]) == 0

    def test_wait_timeout_is_typed_and_retryable(self):
        s = _session()

        def body(ctx, comm, f):
            _view(comm, f, 1024)
            req = f.iwrite_all(np.full(1024 * 8, comm.rank, dtype=np.uint8))
            try:
                req.wait(timeout=1e-9)
            except WaitTimeout as e:
                assert e.op == "iwrite_all" and e.rank == ctx.rank
                assert req.state == "PENDING"
                req.wait()  # still completable
                return "timed-out-then-done"
            return "no-timeout"

        assert s.run(body) == ["timed-out-then-done"] * 4


# -- ordering and drains -----------------------------------------------------


class TestSplitPhaseOrdering:
    def test_pointer_advances_at_submit(self):
        s = _session()

        def body(ctx, comm, f):
            _view(comm, f, 64)
            before = f.get_position()
            req = f.iwrite_all(np.full(64, comm.rank, dtype=np.uint8))
            after = f.get_position()
            req.wait()
            return before, after

        for before, after in s.run(body):
            assert before == 0 and after == 64

    def test_chained_async_then_blocking_read(self):
        """Blocking calls drain the in-flight chain first, so a read
        issued right after two unwaited writes sees both."""
        s = _session()
        region = 64

        def body(ctx, comm, f):
            _view(comm, f, region)
            f.iwrite_all(np.full(region, 1 + comm.rank, dtype=np.uint8))
            f.iwrite_all(np.full(region, 101 + comm.rank, dtype=np.uint8))
            assert len(f.outstanding()) == 2
            out = np.zeros(region * 2, dtype=np.uint8)
            f.seek(0)
            f.read_all(out)
            assert not f.outstanding()
            return (
                bool((out[:region] == 1 + comm.rank).all())
                and bool((out[region:] == 101 + comm.rank).all())
            )

        assert all(s.run(body))

    def test_waitall_waitany_over_mixed_requests(self):
        s = _session()
        region = 64

        def body(ctx, comm, f):
            _view(comm, f, region)
            reqs = [
                f.iwrite_all(np.full(region, k, dtype=np.uint8))
                for k in range(3)
            ]
            i = waitany(reqs)
            assert reqs[i].done
            waitall(reqs)
            assert rq.testall(reqs)
            out = np.zeros(region, dtype=np.uint8)
            f.read_at_all(2 * region, out)
            return bool((out == 2).all())

        assert all(s.run(body))

    def test_async_matches_blocking_bytes(self):
        """The split surface is the same collective: images identical."""
        region, count = 64, 8

        def async_body(ctx, comm, f):
            _view(comm, f, region)
            data = (
                np.arange(region * count, dtype=np.int64) * (comm.rank + 1) % 251
            ).astype(np.uint8)
            f.iwrite_all(data).wait()

        def sync_body(ctx, comm, f):
            _view(comm, f, region)
            data = (
                np.arange(region * count, dtype=np.int64) * (comm.rank + 1) % 251
            ).astype(np.uint8)
            f.write_all(data)

        s1, s2 = _session(), _session()
        s1.run(async_body)
        s2.run(sync_body)
        n = 4 * region * count
        assert np.array_equal(
            np.asarray(s1.fs.raw_bytes(PATH, 0, n)),
            np.asarray(s2.fs.raw_bytes(PATH, 0, n)),
        )

    def test_run_async_completes_in_flight_requests(self):
        s = _session()
        region = 64

        def body(ctx, comm, f):
            _view(comm, f, region)
            for k in range(3):
                f.iwrite_all(np.full(region, 10 + k, dtype=np.uint8))
            # returns with requests still in flight

        s.run_async(body)
        got = np.asarray(s.fs.raw_bytes(PATH, 2 * region * 4, region * 4))
        assert (got.reshape(4, region) == 12).all()


# -- typed-failure parity ----------------------------------------------------


class TestTypedFailureParity:
    def test_deadline_exceeded_at_wait_carries_payload(self):
        """The same stalled-peer scenario test_liveness runs through
        the blocking surface, but delivered at ``Request.wait()`` —
        same type, same payload, same re-raised object on retry."""
        plan = FaultPlan(seed=0).rank_stall(1, delay=5e-2, round_index=1)
        s = _session(hints=dict(coll_deadline=2e-2), faults=plan)
        region, count = 64, 8
        payloads = {}

        def body(ctx, comm, f):
            _view(comm, f, region)
            req = f.iwrite_all(
                np.full(region * count, comm.rank, dtype=np.uint8)
            )
            try:
                req.wait()
            except DeadlineExceeded as e:
                payloads[ctx.rank] = (e.site, e.rank, e.deadline)
                # idempotent: a retry re-raises the very same object
                with pytest.raises(DeadlineExceeded) as info:
                    req.wait()
                assert info.value is e
                raise
            return "completed"

        with pytest.raises(RankFailed):
            s.run(body)
        assert payloads
        for rank, (site, erank, deadline) in payloads.items():
            assert erank == rank
            assert site
            assert deadline == pytest.approx(2e-2)

    def test_rank_crash_delivered_at_wait_survivors_complete(self):
        plan = FaultPlan(seed=0).rank_crash(
            1, call_index=0, round_index=1, site="exchange"
        )
        s = _session(hints=dict(exchange="two_layer"), faults=plan)
        region, count = 64, 8

        def body(ctx, comm, f):
            _view(comm, f, region)
            data = (
                np.arange(region * count, dtype=np.int64) * (comm.rank + 1) % 251
            ).astype(np.uint8)
            req = f.iwrite_all(data)
            ctx.advance(1e-3)  # overlapped compute
            try:
                req.wait()
            except RankCrashed as e:
                assert e.rank == 1 and ctx.rank == 1
                raise
            # survivors: read back own bytes after the crash settled
            out = np.zeros(region * count, dtype=np.uint8)
            f.seek(0)
            f.read_all(out)
            assert np.array_equal(out, data)
            return "survived"

        results = s.run(body)
        assert results[1] is None
        assert [r for i, r in enumerate(results) if i != 1] == ["survived"] * 3
        assert sorted(s.sim.crashed) == [1]

    def test_wait_after_crash_abort_on_closed_chain(self):
        """A second request chained after a crashed one dies with the
        same fail-stop error, not a hang or a silent pass."""
        plan = FaultPlan(seed=0).rank_crash(
            2, call_index=0, round_index=1, site="flush"
        )
        s = _session(hints=dict(exchange="two_layer"), faults=plan)
        region = 64

        def body(ctx, comm, f):
            _view(comm, f, region)
            r1 = f.iwrite_all(np.full(region * 8, 1, dtype=np.uint8))
            r2 = f.iwrite_all(np.full(region * 8, 2, dtype=np.uint8))
            try:
                r2.wait()
                r1.wait()
            except RankCrashed:
                assert ctx.rank == 2
                raise
            return "ok"

        results = s.run(body)
        assert results[2] is None
        assert sorted(s.sim.crashed) == [2]


# -- composition with the pipeline and the chaos harness ---------------------


class TestComposition:
    def test_async_composes_with_pipeline_hint(self):
        s = _session(hints=dict(pipeline_depth=2))
        region, count = 64, 16

        def body(ctx, comm, f):
            _view(comm, f, region)
            data = (
                np.arange(region * count, dtype=np.int64) * (comm.rank + 3) % 251
            ).astype(np.uint8)
            f.iwrite_all(data).wait()
            out = np.zeros_like(data)
            f.seek(0)
            f.iread_all(out).wait()
            return bool(np.array_equal(out, data))

        assert all(s.run(body))

    def test_chaos_async_mode_matches_sync_classification(self):
        """The harness's bounded-completion verdict is surface-blind:
        errors raised at Request.wait() classify exactly like inline
        ones because wait() re-raises the original objects."""
        for spec, kwargs in (
            ("transient-io:3", {}),
            ("stall:42", dict(liveness=True)),
        ):
            sync = ChaosHarness(spec, **kwargs)
            asyn = ChaosHarness(spec, async_io=True, **kwargs)
            run_s = sync.run_once(sync.plan.scaled(1.0))
            run_a = asyn.run_once(asyn.plan.scaled(1.0))
            assert run_s.verified and run_a.verified
            assert run_s.detected == run_a.detected

    def test_chaos_async_crash_rejoin_full_oracle(self):
        plan = FaultPlan(seed=0).rank_crash(
            1, call_index=0, round_index=1, site="exchange"
        )
        harness = ChaosHarness(plan, async_io=True)
        run = harness.run_once(plan)
        assert run.verified
        assert run.seconds > 0.0

    def test_async_spans_land_on_async_lane(self):
        s = Session(PATH, nprocs=2, hints=HINTS, trace=True)
        region = 64

        def body(ctx, comm, f):
            _view(comm, f, region)
            f.write_all(np.full(region, 4, dtype=np.uint8))
            f.iwrite_all(np.full(region, 5, dtype=np.uint8)).wait()

        s.run(body)
        doc = s.chrome_trace()

        def lanes(name):
            return {
                ev["tid"]
                for ev in doc["traceEvents"]
                if ev.get("ph") == "X" and ev.get("name") == name
            }

        # The inner collective span (named like the blocking op) lands
        # on whatever lane runs it, so "write_all" shows up on both
        # surfaces; the "iwrite_all" wrapper span is async-only and
        # must sit on the dedicated per-rank async lanes, never on the
        # rank rows (tids 0..nprocs-1).
        async_lanes, all_lanes = lanes("iwrite_all"), lanes("write_all")
        assert async_lanes, "no iwrite_all span recorded"
        assert all_lanes & {0, 1}, "no blocking write_all span on rank rows"
        assert async_lanes.isdisjoint({0, 1})
