"""Schedule-equivalence pins for the engine's dispatcher.

Each cell is a small run that parks ranks in one of the engine's
blockers — message receives under every exchange backend and both
drivers, timed receives under ``coll_deadline``, spawn/join and
``waitany`` under ``pipeline_depth``, lock-pin waits with lease reclaim
and early unlock, two tenants on one file system.  A cell's *schedule*
is the tracer's ``(lane, state, t0, t1)`` list in span-close order; its
digest and the run's makespan are pinned to values captured on the
commit **before** the dispatcher stopped polling (``PINS`` below), so a
scheduler change that moves a single wake-up by one ulp, or reorders
two equal-time ranks, fails here rather than in a benchmark.

The ``rw-``/``cache-``/``journal-``/``crash-`` cells pin the round loop
itself — reads, pipelined reads, plan-cache replays, the journal
bracket, fail-stop re-plans under both drivers — and were captured on
the parent of the commit that merged the drivers' loop copies into
``core/rounds.py``.

A cell's *counts* are pinned the same way: the digest of the non-zero
entries of its metrics-registry snapshot (floats exact), so a counter
that is renamed, re-keyed, bumped twice or summed in another order
fails here too.

The same digests must come out under ``PYTHONHASHSEED`` 0 and 1
(ROADMAP's determinism gate (iv), in the small).  Re-capture — only when
a change is *meant* to move virtual time — with
``PYTHONPATH=src python tests/test_engine_schedule.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np
import pytest

from repro import Cluster, Session
from repro.config import CostModel, LivenessConfig
from repro.core.request import waitall, waitany
from repro.datatypes import BYTE, contiguous, resized
from repro.errors import DeadlineExceeded, WaitTimeout
from repro.faults import FaultPlan
from repro.fs import SimFileSystem
from repro.hpio.patterns import HPIOPattern
from repro.liveness import LivenessState, find_liveness, install_liveness
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator, Tracer

_SMALL = CostModel(page_size=64, stripe_size=256, num_osts=2)

#: What a cell returns: makespan, the run's tracer, the run's registry.
Cell = Tuple[float, Tracer, MetricsRegistry]


def _digest(tracer: Tracer) -> str:
    h = hashlib.sha256()
    for ev in tracer.events:
        h.update(f"{ev.rank}|{ev.state}|{ev.t0.hex()}|{ev.t1.hex()}\n".encode())
    return h.hexdigest()[:16]


def _exact(value) -> object:
    """JSON-able form of a snapshot value with floats as ``.hex()``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    return value


def nonzero_snapshot(snapshot: Dict[str, object]) -> Dict[str, object]:
    """The entries of a ``MetricsRegistry.snapshot()`` that counted
    something (counters/gauges != 0, histograms with samples), floats
    exact.  Zero-valued series are left out on purpose: which of them a
    component interns up front is not a result."""
    return {
        label: _exact(value)
        for label, value in snapshot.items()
        if (value["count"] if isinstance(value, dict) else value)
    }


def _registry_digest(registry: MetricsRegistry) -> str:
    text = json.dumps(nonzero_snapshot(registry.snapshot()), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _tile(comm, f, region: int) -> None:
    f.set_view(
        disp=comm.rank * region,
        filetype=resized(contiguous(region, BYTE), 0, region * comm.size),
    )


# -- cells -------------------------------------------------------------------
def _hpio(impl: str, exchange: str) -> Cell:
    """Flat HPIO write, 8 ranks, 2 aggregators, several rounds."""
    pat = HPIOPattern(nprocs=8, region_size=32, region_count=24)
    hints = {"coll_impl": impl, "exchange": exchange, "cb_nodes": 2, "cb_buffer_size": 1024}
    if exchange == "two_layer":
        hints["procs_per_node"] = 2
    s = Session("/hpio", nprocs=pat.nprocs, hints=hints, trace=True)

    def body(ctx, comm, f):
        f.set_view(disp=pat.file_disp(comm.rank), filetype=pat.filetype(comm.rank, "succinct"))
        buf = np.full(pat.buffer_bytes(), comm.rank + 1, dtype=np.uint8)
        f.write_all(buf, memtype=pat.memtype(), count=1)

    s.run(body)
    return s.makespan, s.tracer, s.registry


def _deadline() -> Cell:
    """Timed receives: a stalled aggregator failed over under an armed
    ``coll_deadline``, then a receive whose budget expires in-rank."""
    region, count = 16, 12
    s = Session(
        "/live",
        nprocs=4,
        cost=_SMALL,
        hints={"cb_buffer_size": 96, "cb_nodes": 2, "coll_deadline": 0.5, "liveness": True},
        faults=FaultPlan(7).rank_stall(0, delay=5e-2, round_index=1),
        trace=True,
    )

    def body(ctx, comm, f):
        _tile(comm, f, region)
        f.write_all(np.full(region * count, comm.rank + 1, dtype=np.uint8))
        liv = find_liveness(ctx.shared)
        liv.begin_call(ctx.rank, ctx.now)
        expired = False
        try:
            with ctx.trace("late-recv"):
                if comm.rank == 0:
                    comm.recv(1, 7)  # rank 1 sends only after the budget
                elif comm.rank == 1:
                    ctx.advance(0.6)
                    comm.send("late", 0, 7)
                else:
                    for _ in range(5):
                        ctx.advance(0.11)
        except DeadlineExceeded:
            expired = True  # the raise charged us to the budget instant
        finally:
            liv.end_call(ctx.rank)
        if expired:
            comm.recv(1, 7)
        return expired

    s.run(body)
    return s.makespan, s.tracer, s.registry


def _pipeline() -> Cell:
    """Spawn/join: pipelined rounds plus chained ``iwrite_all`` requests
    completed through ``waitany``, a timed ``wait`` and ``waitall``."""
    region = 64
    s = Session(
        "/pipe",
        nprocs=4,
        hints={"coll_impl": "new", "cb_nodes": 2, "cb_buffer_size": 256, "pipeline_depth": 2},
        trace=True,
    )

    def body(ctx, comm, f):
        _tile(comm, f, region)
        reqs = [f.iwrite_all(np.full(region * 4, k + comm.rank, dtype=np.uint8)) for k in range(3)]
        first = waitany(reqs)
        try:
            reqs[-1].wait(timeout=1e-6)
        except WaitTimeout:
            ctx.advance(1e-4)
        waitall(reqs)
        return first

    s.run(body)
    return s.makespan, s.tracer, s.registry


def _lock_pins() -> Cell:
    """Lock-pin waits: granule 0's holder never unlocks (the lease
    reclaims it), granule 1's holder unlocks early (causal wake)."""
    path = "/locked"
    fs = SimFileSystem(_SMALL)
    fs.ensure_file(path)
    tracer = Tracer()

    def write(ctx, granule: int) -> None:
        data = np.full(64, ctx.rank + 1, dtype=np.uint8)
        with ctx.trace("write", granule=granule):
            fs.server_write(ctx, ctx.rank, path, [granule * 64], [64], data)

    def main(ctx):
        if ctx.rank == 0:
            write(ctx, 0)
            ctx.advance(1.0)
        elif ctx.rank == 1:
            ctx.advance(1e-3)
            write(ctx, 0)
        elif ctx.rank == 2:
            write(ctx, 1)
            ctx.advance_to(1e-2)
            fs._file(path).locks.release_all(2, ctx.now)
            ctx.advance(1.0)
        else:
            ctx.advance(2e-3)
            write(ctx, 1)
        return ctx.now

    sim = Simulator(4, tracer=tracer)
    FaultPlan(seed=4).lock_hold(rate=1.0, hold=5e-2).install(sim)
    install_liveness(sim.shared, LivenessState(LivenessConfig(lock_lease=2e-2)))
    times = sim.run(main)
    return max(times[1], times[3]), tracer, fs.registry


def _cluster() -> Cell:
    """Two tenants interleaving on one file system and lock table."""

    def tile_body(count: int):
        def body(ctx, comm, f):
            _tile(comm, f, 64)
            data = (np.arange(64 * count, dtype=np.int64) * (comm.rank + 2) % 251).astype(np.uint8)
            f.write_all(data)
            f.seek(0)
            f.read_all(np.zeros_like(data))

        return body

    cl = Cluster(scheduler="fair", trace=True)
    cl.add_tenant("A", tile_body(4), nprocs=4, hints={"cb_nodes": 2})
    cl.add_tenant("B", tile_body(2), nprocs=2, arrival=5e-4)
    out = cl.run()
    return max(r.makespan for r in out.values()), cl.tracer, cl.registry


def _steps(
    impl: str,
    *,
    steps: int = 1,
    async_io: bool = False,
    faults: Optional[FaultPlan] = None,
    **hints,
) -> Cell:
    """``steps`` identical write_all + read_all pairs, 4 ranks, 2
    aggregators, 4 rounds per call.  A rank killed by ``faults`` just
    stops; the survivors finish the program."""
    region, count = 64, 8
    s = Session(
        "/steps",
        nprocs=4,
        hints={"coll_impl": impl, "cb_nodes": 2, "cb_buffer_size": 256, **hints},
        faults=faults,
        trace=True,
    )

    def body(ctx, comm, f):
        _tile(comm, f, region)
        data = (np.arange(region * count, dtype=np.int64) * (comm.rank + 3) % 251).astype(np.uint8)
        out = np.zeros_like(data)
        for _ in range(steps):
            f.seek(0)
            if async_io:
                f.iwrite_all(data).wait()
                f.seek(0)
                f.iread_all(out).wait()
            else:
                f.write_all(data)
                f.seek(0)
                f.read_all(out)

    s.run(body)
    return s.makespan, s.tracer, s.registry


def _round_loop_cells() -> Dict[str, Callable[[], Cell]]:
    cells: Dict[str, Callable[[], Cell]] = {}
    for impl in ("new", "old"):
        cells[f"rw-{impl}-serial"] = lambda impl=impl: _steps(impl)
        for depth in (1, 2):
            cells[f"rw-{impl}-depth{depth}"] = lambda impl=impl, depth=depth: _steps(
                impl, pipeline_depth=depth
            )
        cells[f"rw-{impl}-async-depth4"] = lambda impl=impl: _steps(
            impl, async_io=True, pipeline_depth=4
        )
        cells[f"rw-{impl}-transient-depth2"] = lambda impl=impl: _steps(
            impl, faults=FaultPlan(9).transient_io(rate=0.2), pipeline_depth=2, io_retries=8
        )
        cells[f"cache-{impl}-serial"] = lambda impl=impl: _steps(impl, steps=3, plan_cache=True)
        cells[f"cache-{impl}-depth2"] = lambda impl=impl: _steps(
            impl, steps=3, plan_cache=True, pipeline_depth=2
        )
        # Aggregators are ranks 0 and 2; rank 1 is a pure client.
        for role, rank in (("client", 1), ("agg", 2)):
            for site in ("boundary", "exchange", "flush"):
                cells[f"crash-{impl}-{role}-{site}"] = (
                    lambda impl=impl, rank=rank, site=site: _steps(
                        impl, faults=FaultPlan(3).rank_crash(rank, round_index=1, site=site)
                    )
                )
        cells[f"crash-{impl}-read"] = lambda impl=impl: _steps(
            impl, faults=FaultPlan(3).rank_crash(2, call_index=1, round_index=1, site="exchange")
        )
    # The journal bracket and the aggregator-role failover only exist on
    # the new driver at the capture commit.
    cells["journal-new"] = lambda: _steps("new", journal_writes=True)
    cells["journal-new-cache"] = lambda: _steps(
        "new", steps=3, journal_writes=True, plan_cache=True
    )
    cells["journal-new-crash-agg-flush"] = lambda: _steps(
        "new",
        faults=FaultPlan(3).rank_crash(2, round_index=1, site="flush"),
        journal_writes=True,
    )
    cells["agg-crash-new"] = lambda: _steps(
        "new", faults=FaultPlan(3).agg_crash(2, round_index=2)
    )
    return cells


#: The old driver always exchanges post-everything-then-wait and ignores
#: the ``exchange`` hint (three identical schedules), so it gets one cell.
CELLS: Dict[str, Callable[[], Cell]] = {
    "hpio-new-alltoallw": lambda: _hpio("new", "alltoallw"),
    "hpio-new-nonblocking": lambda: _hpio("new", "nonblocking"),
    "hpio-new-two_layer": lambda: _hpio("new", "two_layer"),
    "hpio-old": lambda: _hpio("old", "alltoallw"),
    "deadline": _deadline,
    "pipeline": _pipeline,
    "lock-pins": _lock_pins,
    "cluster": _cluster,
    **_round_loop_cells(),
}

#: cell -> (makespan.hex(), schedule digest, registry digest).  The first
#: two were captured on the parent of the commit that introduced the
#: cell (the first eight: the polling dispatcher); the registry digests
#: on the parent of the commit that retired the legacy stat façades.
PINS: Dict[str, Tuple[str, str, str]] = {
    "hpio-new-alltoallw": ("0x1.18fc7883069cdp-5", "e584abbc9df426ef", "a96a612dfcb63623"),
    "hpio-new-nonblocking": ("0x1.06920dc261c95p-5", "63eb586021c06a22", "377fc4692420e167"),
    "hpio-new-two_layer": ("0x1.28bf5af25d92bp-5", "ac60d29aa4484d30", "e7457a4ccdf3b7c7"),
    "hpio-old": ("0x1.f8385091a3723p-6", "61701ef459ca16a5", "6b0c666d9e363f71"),
    "deadline": ("0x1.38474aa295224p-1", "da3c1ac30c4bed7c", "f99b0a130c21ec9c"),
    "pipeline": ("0x1.1174c07443ed7p-6", "151150463fbaf78a", "5523034776c98483"),
    "lock-pins": ("0x1.5d2637de939ebp-6", "76d6452d13dadc24", "f956e3945202e9ca"),
    "cluster": ("0x1.c52eca5515b25p-8", "af07f5f5dde87ec7", "46757e17bf82970a"),
    # Round-loop cells, captured on the parent of the one-loop refactor.
    "rw-new-serial": ("0x1.6c845054e939cp-6", "979a11c02281d02c", "8a266e0b8b20ebc4"),
    "rw-new-depth1": ("0x1.3c05ddc3f13a7p-6", "e83216c6973ea9ca", "4a35d99038c8c207"),
    "rw-new-depth2": ("0x1.db263c29aee36p-7", "668c1a489836125b", "97f321cc2a017993"),
    "rw-new-async-depth4": ("0x1.d852864612f3ep-7", "33b4055b65be92a3", "53d24d327b8bf917"),
    "rw-new-transient-depth2": ("0x1.0ebaf0bb19d07p-6", "a8f8186729b952bf", "8bcad4409b98e9b6"),
    "cache-new-serial": ("0x1.f12748fd0e92dp-5", "dfa705fbdc5f4a44", "b691fa4a450b4b1e"),
    "cache-new-depth2": ("0x1.30ad1c5042b7ep-5", "1dc8087f93a1a3e6", "ed38a2e91af5e46b"),
    "crash-new-client-boundary": ("0x1.fc429172eea58p-6", "da529b6a612aa245", "ea8d2bcacac2cc7b"),
    "crash-new-client-exchange": ("0x1.fc429172eea58p-6", "d7250deafd878d96", "278574ff6fef6eae"),
    "crash-new-client-flush": ("0x1.fc429172eea58p-6", "8b2d30d53bc677c8", "278574ff6fef6eae"),
    "crash-new-agg-boundary": ("0x1.7ee0d526cc4e7p-7", "d49c047a4dc3e86b", "18cf10565e6e60e3"),
    "crash-new-agg-exchange": ("0x1.7ee0d526cc4e7p-7", "f277d742edd23331", "d4ae87580c788f5b"),
    "crash-new-agg-flush": ("0x1.7ee0d526cc4e7p-7", "983a1455ca569c38", "d4ae87580c788f5b"),
    "crash-new-read": ("0x1.fdde0eb4e9d42p-7", "9e8003c4f76b6371", "204f570484c18603"),
    "rw-old-serial": ("0x1.8407308c62028p-6", "fe7c2dd3f255dcb5", "7781cc28dfde97b2"),
    "rw-old-depth1": ("0x1.3b0a59bc602b0p-6", "72e31d87ca2873e6", "8113839d55a5e658"),
    "rw-old-depth2": ("0x1.bac976f903130p-7", "dbad9a0531d5772d", "a3f86c4523e5ddcd"),
    "rw-old-async-depth4": ("0x1.555bf9e66071dp-7", "be07c76ed0dc5caf", "64d632a6ffc69499"),
    "rw-old-transient-depth2": ("0x1.f298ad33b6f80p-7", "f70a15d3221f3905", "7cc568aa9c8585b3"),
    "cache-old-serial": ("0x1.124c56a3dc38ap-4", "d36215070a33b7f1", "45ca416da03304d6"),
    "cache-old-depth2": ("0x1.2aa4fdafe7bb0p-5", "972cbd73bd4e2256", "390581465719cdc6"),
    "crash-old-client-boundary": ("0x1.df922ea56bb98p-6", "466381caacab72a8", "525173afebdd21e9"),
    "crash-old-client-exchange": ("0x1.df922ea56bb98p-6", "a41f7c8e53f537a3", "445588f5064555d5"),
    "crash-old-client-flush": ("0x1.df922ea56bb98p-6", "9f08777396ce6636", "445588f5064555d5"),
    "crash-old-agg-boundary": ("0x1.4f50813c9284ap-7", "eb7456019cde3637", "a9820ad0e7633548"),
    "crash-old-agg-exchange": ("0x1.4f50813c9284ap-7", "eff7548423cd7eed", "e9c7c587825ffefb"),
    "crash-old-agg-flush": ("0x1.4f50813c9284ap-7", "0a59aec202798340", "e9c7c587825ffefb"),
    "crash-old-read": ("0x1.1672b55fd2e3ap-6", "1a1b55b86c2ff5ac", "6102abf39dde11dd"),
    "journal-new": ("0x1.65957cee6cfe5p-6", "45050fe4fa6dfd03", "4a30dd054dd24a76"),
    "journal-new-cache": ("0x1.dfd50bdbb3f7ap-5", "bdaf9fe0c98d69cf", "61ecad3fc4898360"),
    "journal-new-crash-agg-flush": ("0x1.e03fd8216b8f0p-7", "409af2f50a5ecfdc", "41689705683be9d7"),
    "agg-crash-new": ("0x1.84fa19eefee53p-7", "91b66cf202fa498f", "00a447af75899562"),
}


def _observe(name: str) -> Tuple[str, str, str]:
    makespan, tracer, registry = CELLS[name]()
    assert tracer.events, "cell recorded no spans"
    return float(makespan).hex(), _digest(tracer), _registry_digest(registry)


def capture() -> Dict[str, Tuple[str, str, str]]:
    return {name: _observe(name) for name in CELLS}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_schedule_matches_parent_capture(name):
    assert _observe(name) == PINS[name]


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_schedule_independent_of_hash_seed(hashseed):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    got = {k: tuple(v) for k, v in json.loads(proc.stdout).items()}
    assert got == PINS


if __name__ == "__main__":
    print(json.dumps(capture(), indent=1))
