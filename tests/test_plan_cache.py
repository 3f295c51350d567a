"""Plan-cache behaviour: steady state, invalidation matrix, keying.

Three layers of assurance that a stale replay is impossible:

* **Steady state** — after the first (cold) call, every identical call
  replays: hit counters advance, and the planner's pair counters
  (``coll.client.pairs`` / ``coll.agg.pairs``) stay exactly flat — the
  cached step evaluates zero offset/length pairs.
* **Invalidation matrix** — every mutating event (``set_view``, hint
  change, ppn/topology change, a ``rank_stall`` realm carve, a
  ``rank_crash`` re-carve, an ``agg_crash`` failover, a tenant switch)
  must force a rebuild.  A cache hit after any of these is a test
  failure.
* **Keying** — the rank-local signature is sensitive to each key
  component individually, so entries written under one configuration
  can never be looked up under another.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CostModel
from repro.core import CollectiveFile
from repro.core.compat import BOUNDARY_KINDS
from repro.core.plancache import PlanCache
from repro.datatypes import BYTE, contiguous, resized
from repro.errors import HintConflict
from repro.faults import FaultPlan
from repro.fs import SimFileSystem
from repro.mpi import Communicator, Hints
from repro.obs.session import Session
from repro.sim import Simulator

PATH = "/plans"
NPROCS, REGION, COUNT, STEPS = 4, 64, 4, 4
IMPLS = ("new", "old")
COST = CostModel(page_size=64, stripe_size=256, num_osts=2)


def _hints(impl, **extra):
    values = dict(
        coll_impl=impl, cb_nodes=2, cb_buffer_size=256, plan_cache=True
    )
    values.update(extra)
    return values


def _payload(rank, step):
    return (
        (np.arange(REGION * COUNT, dtype=np.int64) * (rank + 3) + step) % 251
    ).astype(np.uint8)


def _checkpoint_body(steps=STEPS):
    """set_view once, then ``steps`` fixed-shape writes with fresh
    bytes; returns per-step (client+agg) pair-counter deltas and the
    cache counters."""

    def body(ctx, comm, f):
        tile = resized(contiguous(REGION, BYTE), 0, REGION * comm.size)
        f.set_view(disp=comm.rank * REGION, filetype=tile)
        reg, rank = f.registry, ctx.rank

        def pairs():
            return reg.value("coll.client.pairs", rank) + reg.value(
                "coll.agg.pairs", rank
            )

        deltas = []
        for step in range(steps):
            before = pairs()
            f.write_at_all(0, _payload(comm.rank, step))
            deltas.append(pairs() - before)
        pc = f.plancache
        return deltas, (pc.hits, pc.misses, pc.invalidations, pc.bypasses)

    return body


# -- steady state -------------------------------------------------------------


@pytest.mark.parametrize("impl", IMPLS)
def test_steady_state_cached_step_evaluates_zero_pairs(impl):
    s = Session(PATH, nprocs=NPROCS, hints=_hints(impl))
    results = s.run(_checkpoint_body())
    assert sum(deltas[0] for deltas, _ in results) > 0  # the cold build pays
    for rank, (deltas, counters) in enumerate(results):
        hits, misses, invalidations, bypasses = counters
        assert deltas[1:] == [0] * (STEPS - 1), (rank, deltas)
        assert (hits, misses, bypasses) == (STEPS - 1, 1, 0), (rank, counters)
        assert invalidations == 1  # the body's one set_view


@pytest.mark.parametrize("impl", IMPLS)
def test_read_hits_write_entry(impl):
    """Entries are direction-independent: a read of the same shape
    replays the write's plan with the send/recv roles swapped."""

    def body(ctx, comm, f):
        tile = resized(contiguous(REGION, BYTE), 0, REGION * comm.size)
        f.set_view(disp=comm.rank * REGION, filetype=tile)
        data = _payload(comm.rank, 0)
        f.write_at_all(0, data)
        out = np.zeros_like(data)
        f.read_at_all(0, out)
        assert np.array_equal(out, data)
        pc = f.plancache
        return pc.hits, pc.misses

    s = Session(PATH, nprocs=NPROCS, hints=_hints(impl))
    for hits, misses in s.run(body):
        assert (hits, misses) == (1, 1)


# -- invalidation matrix ------------------------------------------------------


@pytest.mark.parametrize("impl", IMPLS)
def test_set_view_forces_rebuild(impl):
    """An identical call after ``set_view`` must rebuild, even when the
    new view is byte-for-byte the old one."""

    def body(ctx, comm, f):
        tile = resized(contiguous(REGION, BYTE), 0, REGION * comm.size)
        f.set_view(disp=comm.rank * REGION, filetype=tile)
        f.write_at_all(0, _payload(comm.rank, 0))
        f.write_at_all(0, _payload(comm.rank, 1))
        pc = f.plancache
        assert (pc.hits, pc.misses) == (1, 1)
        f.set_view(disp=comm.rank * REGION, filetype=tile)
        f.write_at_all(0, _payload(comm.rank, 2))
        # A hit here would be a stale replay: the view epoch moved.
        assert (pc.hits, pc.misses, pc.invalidations) == (1, 2, 2)
        return True

    s = Session(PATH, nprocs=NPROCS, hints=_hints(impl))
    assert all(s.run(body))


#: One mutating fault event per plan-affecting kind: any of these being
#: armed must stand the cache down for every call of the run.
_CARVING_FAULTS = {
    "rank_stall": lambda: FaultPlan(0).rank_stall(
        1, delay=1e-2, call_index=0, round_index=0
    ),
    "agg_crash": lambda: FaultPlan(0).agg_crash(0, call_index=0, round_index=1),
    "rank_crash": lambda: FaultPlan(0).rank_crash(
        3, call_index=0, round_index=1
    ),
}


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("kind", sorted(_CARVING_FAULTS))
def test_realm_carving_faults_bypass_cache(impl, kind):
    """rank_stall carves, rank_crash re-carves, agg_crash fails over:
    with any such kind armed there must be no hits, no misses, no
    stored plans — only bypasses.  A hit under these is a stale
    replay waiting to happen.  The original code has no role failover,
    so ``old`` x ``agg_crash`` — which used to pass here because the
    event silently never fired — is refused at open instead."""
    assert kind in BOUNDARY_KINDS
    extra = {"liveness": True} if kind == "rank_stall" else {}
    if (impl, kind) == ("old", "agg_crash"):
        with pytest.raises(HintConflict) as refused:
            Session(
                PATH, nprocs=NPROCS, hints=_hints(impl), faults=_CARVING_FAULTS[kind]()
            )
        assert refused.value.rule == "old.agg_crash"
        return
    s = Session(
        PATH,
        nprocs=NPROCS,
        hints=_hints(impl, **extra),
        faults=_CARVING_FAULTS[kind](),
    )
    results = s.run(_checkpoint_body(steps=2))
    survivors = [r for r in results if r is not None]
    assert survivors, kind
    for deltas, (hits, misses, _, bypasses) in survivors:
        assert hits == 0, (kind, impl)
        assert misses == 0, (kind, impl)
        assert bypasses == 2, (kind, impl)


def test_tenant_switch_forces_rebuild():
    """Two tenants running the identical pattern on the same file must
    never share plans: the second tenant's first call is a miss (its
    handle carries a fresh cache), not a replay of the first's."""
    fs = SimFileSystem(COST)
    hints = Hints(**_hints("new"))

    def main(ctx):
        comm = Communicator(ctx, COST)
        tile = resized(contiguous(REGION, BYTE), 0, REGION * comm.size)
        counts = []
        caches = []
        for tenant in ("tenantA", "tenantB"):
            f = CollectiveFile(
                ctx, comm, fs, PATH, hints=hints, cost=COST,
                client_id=(tenant, ctx.rank),
            )
            f.set_view(disp=comm.rank * REGION, filetype=tile)
            f.write_at_all(0, _payload(comm.rank, 0))
            f.write_at_all(0, _payload(comm.rank, 1))
            caches.append(f.plancache)
            counts.append((f.plancache.hits, f.plancache.misses))
            f.close()
        assert caches[0] is not caches[1]
        return counts

    for counts in Simulator(NPROCS).run(main):
        # Counters are registry-interned per rank, so tenant B's reads
        # include tenant A's totals: after A (1 hit, 1 miss), after B
        # they must be exactly (2, 2) — B rebuilt, it did not replay
        # A's entry (which would read (3, 1)).
        assert counts[0] == (1, 1)
        assert counts[1] == (2, 2)


# -- keying -------------------------------------------------------------------

#: Hint/topology mutations that must each change the cache key.
_REKEYING_HINTS = (
    {"cb_buffer_size": 512},
    {"cb_nodes": 1},
    {"procs_per_node": 2},          # topology change
    {"realm_strategy": "balanced"},
    {"exchange": "nonblocking"},
    {"io_method": "naive"},
)


@pytest.mark.parametrize("mutation", _REKEYING_HINTS, ids=lambda m: next(iter(m)))
def test_hint_and_topology_changes_change_key(mutation):
    """Each key component, mutated alone, must change the rank-local
    signature — so a plan built under one configuration is unreachable
    from any other."""
    fs = SimFileSystem(COST)
    memflat = contiguous(REGION, BYTE).flatten()

    def main(ctx):
        comm = Communicator(ctx, COST)
        sigs = []
        for extra in ({}, {}, mutation):
            f = CollectiveFile(
                ctx, comm, fs, PATH,
                hints=Hints(**_hints("new", **extra)), cost=COST,
            )
            sigs.append(
                PlanCache._local_signature(
                    f._env(ctx, comm, f.adio, f.view), memflat, REGION, 0, "new"
                )
            )
            f.close()
        return sigs

    for base, same, mutated in Simulator(2).run(main):
        assert base == same        # deterministic under identical config
        assert base != mutated, mutation


def test_signature_covers_access_and_impl():
    fs = SimFileSystem(COST)
    memflat = contiguous(REGION, BYTE).flatten()

    def main(ctx):
        comm = Communicator(ctx, COST)
        f = CollectiveFile(
            ctx, comm, fs, PATH, hints=Hints(**_hints("new")), cost=COST
        )
        env = f._env(ctx, comm, f.adio, f.view)
        base = PlanCache._local_signature(env, memflat, REGION, 0, "new")
        assert base != PlanCache._local_signature(env, memflat, REGION, 0, "old")
        assert base != PlanCache._local_signature(env, memflat, REGION // 2, 0, "new")
        assert base != PlanCache._local_signature(env, memflat, REGION, 8, "new")
        other = resized(contiguous(REGION // 2, BYTE), 0, REGION).flatten()
        assert base != PlanCache._local_signature(env, other, REGION, 0, "new")
        f.close()
        return True

    assert all(Simulator(2).run(main))


# -- observability ------------------------------------------------------------


def test_trace_spans_mark_replay_store_and_invalidate():
    """Every store, replay, and invalidation is a first-class span, and
    cold planning spans appear exactly once per miss."""
    s = Session(PATH, nprocs=NPROCS, hints=_hints("new"), trace=True)

    def body(ctx, comm, f):
        tile = resized(contiguous(REGION, BYTE), 0, REGION * comm.size)
        f.set_view(disp=comm.rank * REGION, filetype=tile)
        for step in range(3):
            f.write_at_all(0, _payload(comm.rank, step))
        return f.plancache.misses, f.plancache.hits

    results = s.run(body)
    assert all(r == (1, 2) for r in results)
    states = [e.state for e in s.tracer.events]
    assert states.count("plan:store") == NPROCS
    assert states.count("plan:replay") == 2 * NPROCS
    assert states.count("plan:invalidate") == NPROCS
    # Cold planning ran exactly once per rank: replays never re-plan.
    assert states.count("tp:plan") == NPROCS
    store = next(e for e in s.tracer.events if e.state == "plan:replay")
    assert store.info.get("key")


def test_lru_eviction_is_bounded():
    """More distinct views than ``capacity`` must not grow the cache
    without bound (and eviction order stays collective-consistent)."""
    s = Session(PATH, nprocs=2, hints=_hints("new"))

    def body(ctx, comm, f):
        cap = PlanCache.capacity
        tile = resized(contiguous(REGION, BYTE), 0, REGION * comm.size)
        f.set_view(disp=comm.rank * REGION, filetype=tile)
        for step in range(cap + 3):
            # Distinct data_lo per step → distinct keys, same view.
            f.write_at_all(step, _payload(comm.rank, step))
        pc = f.plancache
        assert len(pc) <= cap
        assert pc.misses == cap + 3 and pc.hits == 0
        return True

    assert all(s.run(body))
