"""Multi-tenant engine tests: schedulers, namespaces, isolation,
conservation, and the solo-vs-contended byte-identity property.

The load-bearing guarantees of ``repro.tenancy``:

* data written by a tenant under N-way contention reads back
  byte-identical to the same job run solo (contention changes *time*,
  never bytes) — composed with the ``two_layer`` exchange and a
  ``rank_stall`` fault in a *different* tenant;
* per-tenant registry mirrors sum exactly to the shared-fs globals
  (every byte of server traffic attributed to exactly one tenant);
* composite ``(tenant, rank)`` client ids keep two tenants' rank 0
  from aliasing in the lock manager's holder map and waits-for graph;
* the ``fair`` scheduler degenerates to exact FIFO with one tenant, so
  single-job runs are unaffected by the policy knob.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BYTE, Cluster, Session, contiguous, resized
from repro.config import CostModel
from repro.errors import FileSystemError, SimulationError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.fs.locks import ExtentLockManager
from repro.fs.schedule import FairShareScheduler, FIFOScheduler, make_scheduler
from repro.obs.metrics import MetricsRegistry, PrefixRegistry
from repro.tenancy import make_traffic


# -- schedulers ----------------------------------------------------------
class TestSchedulers:
    def test_fifo_is_one_queue_per_ost(self):
        s = FIFOScheduler()
        assert s.request(0, "a", 1.0, arrive=0.0, service=2.0) == 2.0
        # Second request queues behind the first regardless of tenant.
        assert s.request(0, "b", 1.0, arrive=1.0, service=1.0) == 3.0
        # A different OST is an independent queue.
        assert s.request(1, "b", 1.0, arrive=1.0, service=1.0) == 2.0
        s.reset()
        assert s.request(0, "a", 1.0, arrive=0.0, service=1.0) == 1.0

    def test_fair_degenerates_to_fifo_with_one_tenant(self):
        rng = np.random.default_rng(42)
        fifo, fair = FIFOScheduler(), FairShareScheduler()
        clock = 0.0
        for _ in range(200):
            clock += float(rng.random() * 1e-3)
            service = float(rng.random() * 1e-3)
            ost = int(rng.integers(0, 3))
            a = fifo.request(ost, "only", 1.0, clock, service)
            b = fair.request(ost, "only", 1.0, clock, service)
            assert a == pytest.approx(b, abs=0.0)
            # Closed loop: next arrival is after this completion.
            clock = max(clock, a)

    def test_fair_caps_mouse_interference(self):
        """A small request behind a huge backlog waits at most its own
        fair share under ``fair``, but the whole backlog under FIFO."""
        fifo, fair = FIFOScheduler(), FairShareScheduler()
        for s in (fifo, fair):
            s.request(0, "elephant", 1.0, arrive=0.0, service=1.0)
        done_fifo = fifo.request(0, "mouse", 1.0, arrive=0.0, service=0.01)
        done_fair = fair.request(0, "mouse", 1.0, arrive=0.0, service=0.01)
        assert done_fifo == pytest.approx(1.01)
        # own = 0.01; interference capped at own * (1/1) = 0.01.
        assert done_fair == pytest.approx(0.02)

    def test_wfq_weight_halves_interference(self):
        fair = FairShareScheduler(weighted=True)
        fair.request(0, "elephant", 1.0, arrive=0.0, service=1.0)
        done_w1 = fair.request(0, "m1", 1.0, arrive=0.0, service=0.01)
        fair.reset()
        fair.request(0, "elephant", 1.0, arrive=0.0, service=1.0)
        done_w2 = fair.request(0, "m2", 2.0, arrive=0.0, service=0.01)
        assert done_w1 == pytest.approx(0.02)
        assert done_w2 == pytest.approx(0.015)

    def test_make_scheduler_names_and_passthrough(self):
        assert make_scheduler(None).name == "fifo"
        assert make_scheduler("fair-share").name == "fair"
        assert make_scheduler("weighted").name == "wfq"
        inst = FairShareScheduler()
        assert make_scheduler(inst) is inst
        with pytest.raises(FileSystemError):
            make_scheduler("lottery")


# -- metrics namespaces (satellite 1) ------------------------------------
class TestPrefixRegistry:
    def test_view_prefix_writes_through_and_reads_stripped(self):
        reg = MetricsRegistry()
        view = reg.view(prefix="tenant.A.")
        assert isinstance(view, PrefixRegistry)
        view.counter("fs.bytes", "p").value = 7
        assert reg.value("tenant.A.fs.bytes", "p") == 7
        assert view.value("fs.bytes", "p") == 7
        assert view.names() == ["fs.bytes"]
        # The parent sees the namespaced name; the view never sees
        # instruments outside its prefix.
        reg.counter("fs.bytes", "p").value = 3
        assert view.total("fs.bytes") == 7
        assert reg.total("fs.bytes") == 3

    def test_nested_prefixes_flatten(self):
        reg = MetricsRegistry()
        inner = reg.view(prefix="tenant.A.").view(prefix="net.")
        inner.counter("msgs").value = 2
        assert reg.value("tenant.A.net.msgs") == 2
        assert inner.prefix == "tenant.A.net."
        assert inner.parent is reg

    def test_snapshot_prefix_filter(self):
        reg = MetricsRegistry()
        reg.counter("tenant.A.x").value = 1
        reg.counter("tenant.B.x").value = 2
        reg.counter("global.y").value = 3
        snap = reg.snapshot(prefix="tenant.A.")
        assert snap == {"tenant.A.x": 1}

    def test_fold_extracts_standalone_namespace(self):
        reg = MetricsRegistry()
        reg.view(prefix="tenant.A.").counter("x", 1).value = 5
        folded = reg.fold("tenant.A.")
        assert folded.value("x", 1) == 5
        # Standalone copy: mutating it never touches the parent.
        folded.counter("x", 1).value = 99
        assert reg.value("tenant.A.x", 1) == 5

    def test_merge_of_prefix_view_folds_slice(self):
        reg = MetricsRegistry()
        reg.view(prefix="tenant.A.").counter("x").value = 4
        out = MetricsRegistry()
        out.counter("x").value = 1
        out.merge(reg.view(prefix="tenant.A."))
        assert out.value("x") == 5

    def test_key_view_over_prefix(self):
        reg = MetricsRegistry()
        v = reg.view(3, prefix="tenant.A.")
        v.counter("calls").value = 2
        assert reg.value("tenant.A.calls", 3) == 2
        assert v.snapshot() == {"calls": 2}


# -- lock manager composite ids (satellite 2) -----------------------------
class TestTenantLockIds:
    def test_two_tenants_rank0_do_not_alias(self):
        locks = ExtentLockManager(64)
        a0, b0 = ("A", 0), ("B", 0)
        locks.acquire(a0, 0, 64)
        charge = locks.acquire(b0, 0, 64)
        # A real revocation: the holder was tenant A's rank 0, not
        # "already us" (the aliasing the int keying caused).
        assert charge.revoked_granules == 1
        assert charge.revoked_ranges == [(a0, 0, 64)]
        assert locks.holder_of(0) == b0

    def test_waits_for_cycle_with_composite_ids(self):
        locks = ExtentLockManager(64)
        a0, b0 = ("A", 0), ("B", 0)
        locks.note_wait(a0, b0)
        locks.note_wait(b0, a0)
        assert locks.find_cycle(a0) == (a0, b0)
        locks.clear_wait(a0)
        assert locks.find_cycle(a0) is None

    def test_pins_keyed_by_composite(self):
        locks = ExtentLockManager(64)
        a0, b0 = ("A", 0), ("B", 0)
        locks.acquire(a0, 0, 128)
        assert locks.pin_range(a0, 0, 128, now=0.0, expires=1.0) == 2
        # The same local rank in another tenant is another client: its
        # accesses are blocked by A's pin, its own pins pin nothing.
        assert locks.blocking_pin(b0, 0, 64) == (a0, 0.0, 1.0)
        assert locks.pin_range(b0, 0, 128, now=0.0, expires=1.0) == 0
        assert locks.release_all(a0) == 2
        assert locks.blocking_pin(b0, 0, 64) is None


# -- fault plan composite actors ------------------------------------------
class TestFaultActorMatching:
    def test_applies_to_matches_tuple_component(self):
        ev = FaultEvent("transient_io", rate=1.0, ranks=frozenset({1}))
        assert ev.applies_to(1)
        assert not ev.applies_to(0)
        assert ev.applies_to(("A", 1))
        assert not ev.applies_to(("A", 0))

    def test_applies_to_wildcard(self):
        ev = FaultEvent("transient_io", rate=1.0)
        assert ev.applies_to(("B", 3))


# -- the Cluster engine ----------------------------------------------------
_REGION = 64


def _tile_body(count: int):
    """Seeded interleaved tile write + read-back; returns the bytes."""

    def body(ctx, comm, f):
        tile = resized(contiguous(_REGION, BYTE), 0, _REGION * comm.size)
        f.set_view(disp=comm.rank * _REGION, filetype=tile)
        data = (
            np.arange(_REGION * count, dtype=np.int64) * (comm.rank + 2) % 251
        ).astype(np.uint8)
        f.write_all(data)
        f.seek(0)
        back = np.zeros_like(data)
        f.read_all(back)
        return back

    return body


_TWO_LAYER_HINTS = {
    "coll_impl": "new",
    "cb_nodes": 2,
    "exchange": "two_layer",
    "procs_per_node": 2,
}


class TestClusterContention:
    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_contended_readback_matches_solo(self, seed):
        """Property: each tenant's read-back under 3-way contention is
        byte-identical to its solo run — with the two_layer exchange
        and a rank_stall fault in one tenant (the victim's contention
        *and* its stall must not leak into anyone's bytes)."""
        rng = np.random.default_rng(seed)
        count = int(rng.integers(2, 9))
        nprocs = int(rng.choice([2, 4]))
        stall = FaultPlan(seed=seed).rank_stall(1, delay=0.005)

        cl = Cluster(scheduler="fair")
        cl.add_tenant(
            "stalled", _tile_body(count), nprocs=4,
            hints=_TWO_LAYER_HINTS, faults=stall,
        )
        cl.add_tenant(
            "clean", _tile_body(count), nprocs=nprocs, hints=_TWO_LAYER_HINTS,
            arrival=float(rng.random() * 1e-3),
        )
        cl.add_background("scan", nprocs=1, total_bytes=1 << 15)
        contended = cl.run()

        for name, tenant_nprocs in (("stalled", 4), ("clean", nprocs)):
            solo = Session(
                f"/data/{name}", nprocs=tenant_nprocs, hints=_TWO_LAYER_HINTS
            )
            solo_back = solo.run(_tile_body(count))
            for rank in range(tenant_nprocs):
                assert np.array_equal(
                    contended[name].results[rank], solo_back[rank]
                ), (name, rank)

        # The stall fired — and only in its own tenant's namespace.
        assert cl.registry.value("tenant.stalled.faults.stalls") >= 1
        assert cl.registry.value("tenant.clean.faults.injected") == 0
        assert cl.registry.value("tenant.clean.faults.stalls") == 0

    def test_conservation_of_server_traffic(self):
        """Per-tenant registry mirrors sum exactly to the shared-fs
        globals for every mirrored series (the acceptance check)."""
        cl = Cluster(scheduler="wfq")
        cl.add_tenant("A", _tile_body(4), nprocs=4,
                      hints={"cb_nodes": 2, "tenant_priority": 2})
        cl.add_tenant("B", _tile_body(2), nprocs=2, arrival=5e-4)
        cl.add_background("random", nprocs=1, ops=16)
        cl.add_background("metadata", nprocs=1, files=8)
        cl.run()
        for metric in (
            "fs.bytes.written",
            "fs.bytes.read",
            "fs.server.writes",
            "fs.server.reads",
            "fs.rmw.pages",
            "lock.rpcs",
            "lock.revocations",
        ):
            mirrored, total = cl.conservation(metric)
            assert mirrored == total, metric

    def test_single_tenant_fair_matches_fifo_exactly(self):
        """The policy knob is invisible without competition: one
        tenant's makespan is bit-identical under fifo and fair."""
        spans = {}
        for sched in ("fifo", "fair"):
            cl = Cluster(scheduler=sched)
            cl.add_tenant("only", _tile_body(4), nprocs=4,
                          hints={"cb_nodes": 2})
            out = cl.run()
            spans[sched] = out["only"].makespan
        assert spans["fifo"] == spans["fair"]

    def test_trace_rows_labeled_per_tenant(self):
        cl = Cluster(trace=True)
        cl.add_tenant("A", _tile_body(1), nprocs=2, hints={"cb_nodes": 1})
        cl.add_tenant("B", _tile_body(1), nprocs=2, hints={"cb_nodes": 1})
        cl.run()
        doc = cl.chrome_trace()
        labels = {
            ev["tid"]: ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev.get("ph") == "M" and ev.get("name") == "thread_name"
        }
        assert labels == {0: "A:r0", 1: "A:r1", 2: "B:r0", 3: "B:r1"}

    def test_tenant_metrics_fold(self):
        cl = Cluster()
        cl.add_tenant("A", _tile_body(2), nprocs=2, hints={"cb_nodes": 1})
        cl.run()
        folded = cl.tenant_metrics("A")
        assert folded.total("coll.writes") > 0
        assert folded.total("coll.reads") > 0
        assert folded.value("fs.bytes.written") == 2 * 2 * _REGION

    def test_admission_validation(self):
        cl = Cluster()
        cl.add_tenant("A", _tile_body(1))
        with pytest.raises(SimulationError):
            cl.add_tenant("A", _tile_body(1))
        with pytest.raises(SimulationError):
            cl.add_tenant("B", _tile_body(1), nprocs=0)
        with pytest.raises(SimulationError):
            cl.add_tenant("C", _tile_body(1), arrival=-1.0)
        with pytest.raises(SimulationError):
            cl.add_tenant("D", _tile_body(1), kind="batch")
        with pytest.raises(SimulationError):
            make_traffic("ddos")
        with pytest.raises(SimulationError):
            Cluster().run()

    def test_arrival_delays_admission(self):
        cl = Cluster()
        cl.add_tenant("late", _tile_body(1), nprocs=2,
                      hints={"cb_nodes": 1}, arrival=0.25)
        out = cl.run()
        res = out["late"]
        assert res.t0 >= 0.25
        # Makespan excludes the arrival delay.
        assert res.makespan < 0.25

    def test_shared_path_tenants_contend_on_locks(self):
        """Two tenants on the *same* path revoke each other's extents —
        visible as cross-tenant lock revocations, yet both still read
        back their own (interleaved, disjoint) tiles correctly."""

        def half_body(half):
            def body(ctx, comm, f):
                size = comm.size
                tile = resized(
                    contiguous(_REGION, BYTE), 0, _REGION * size * 2
                )
                f.set_view(
                    disp=(half * size + comm.rank) * _REGION, filetype=tile
                )
                data = np.full(_REGION * 2, 50 * half + comm.rank, np.uint8)
                f.write_all(data)
                f.seek(0)
                back = np.zeros_like(data)
                f.read_all(back)
                return bool(np.array_equal(back, data))

            return body

        cl = Cluster(scheduler="fair")
        cl.add_tenant("A", half_body(0), nprocs=2, path="/shared",
                      hints={"cb_nodes": 1})
        cl.add_tenant("B", half_body(1), nprocs=2, path="/shared",
                      hints={"cb_nodes": 1})
        out = cl.run()
        assert all(out["A"].results) and all(out["B"].results)

    def test_traffic_generators_deterministic(self):
        results = []
        for _ in range(2):
            cl = Cluster(scheduler="fair")
            cl.add_background("scan", nprocs=1, total_bytes=1 << 14)
            cl.add_background("random", nprocs=1, ops=8)
            cl.add_background("metadata", nprocs=1, files=4)
            out = cl.run()
            results.append(
                (
                    {k: v.makespan for k, v in out.items()},
                    cl.registry.total("fs.bytes.written"),
                )
            )
        assert results[0] == results[1]
