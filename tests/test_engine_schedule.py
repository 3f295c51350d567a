"""Schedule-equivalence pins for the engine's dispatcher.

Each cell is a small run that parks ranks in one of the engine's
blockers — message receives under every exchange backend and both
drivers, timed receives under ``coll_deadline``, spawn/join and
``waitany`` under ``pipeline_depth``, lock-pin waits with lease reclaim
and early unlock, two tenants on one file system.  A cell's *schedule*
is the tracer's ``(lane, state, t0, t1)`` list in span-close order; its
digest and the run's makespan are pinned (``PINS`` below: captured on
the parent of the change a cell was introduced for, re-captured only
when a change moves virtual time on purpose), so a scheduler change that moves a single wake-up by one ulp, or reorders
two equal-time ranks, fails here rather than in a benchmark.

The ``rw-``/``cache-``/``journal-``/``crash-`` cells pin the round loop
itself — reads, pipelined reads, plan-cache replays, the journal
bracket, fail-stop re-plans under both drivers — and were introduced
on the parent of the commit that merged the drivers' loop copies into
``core/rounds.py``.

A cell's *counts* are pinned the same way: the digest of the non-zero
entries of its metrics-registry snapshot (floats exact), so a counter
that is renamed, re-keyed, bumped twice or summed in another order
fails here too.

The same digests must come out under ``PYTHONHASHSEED`` 0 and 1
(ROADMAP's determinism gate (iv), in the small).
``PYTHONPATH=src python tests/test_engine_schedule.py`` prints one
``cell.makespan`` / ``cell.schedule`` / ``cell.counts: old -> new`` line
per pinned value that moved (exit 1 if any); ``--write`` also rewrites
those rows of ``PINS`` in this file — only when a change is *meant* to
move virtual time, with the printed lines pasted into the PR.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
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

#: cell -> (makespan.hex(), schedule digest, registry digest).  Each was
#: first captured on the parent of the commit that introduced it (the
#: first eight cells: the polling dispatcher; the registry digests: the
#: commit that retired the legacy stat façades) and held bit-identical
#: until ``allgather`` went from the ring to Bruck's algorithm, which
#: moved every cell with a collective call in it (all but ``lock-pins``)
#: and re-captured them once — EXPERIMENTS.md "PR 24" has old -> new.
PINS: Dict[str, Tuple[str, str, str]] = {
    "hpio-new-alltoallw": ("0x1.171d280d8fbdbp-5", "668ad9240921a6cd", "401766d6a50a5de8"),
    "hpio-new-nonblocking": ("0x1.04b2bd4ceaea2p-5", "b3bbc230e43a2626", "ef79b5efe5c20568"),
    "hpio-new-two_layer": ("0x1.2500fbe96e87dp-5", "6e30cdcc6457e4aa", "7a5d65d6b6a70ae4"),
    "hpio-old": ("0x1.f479afa6b5b3dp-6", "9544dda9cbcbc4a3", "19501fc940792cc0"),
    "deadline": ("0x1.383fcd60bf46cp-1", "cbd1c2bf4fcf0e22", "bc8dfc3c3d29b00f"),
    "pipeline": ("0x1.1075c59eff0dbp-6", "525ba3899bccf5e6", "0c55e3bb7f6eeaa1"),
    "lock-pins": ("0x1.5d2637de939ebp-6", "76d6452d13dadc24", "f956e3945202e9ca"),
    "cluster": ("0x1.bddb9714b4fe9p-8", "c946098ce27b5df0", "198a8589dfc2729a"),
    # Round-loop cells, captured on the parent of the one-loop refactor.
    "rw-new-serial": ("0x1.6a4594d17ba9bp-6", "f1bab2e316f435b3", "03e73fd81c1d4718"),
    "rw-new-depth1": ("0x1.3a27224083aa5p-6", "428c246e0235da03", "e239b549a48e1869"),
    "rw-new-depth2": ("0x1.d768c522d3c33p-7", "a735ab907ac069dc", "09cf6d4d61b01960"),
    "rw-new-async-depth4": ("0x1.d4950f3f37d3cp-7", "3552fb6053cda9f0", "ad436732595c48a9"),
    "rw-new-transient-depth2": ("0x1.0cdc3537ac405p-6", "5092e9bd080e3b82", "67487fd4db390406"),
    "cache-new-serial": ("0x1.ee733fad2ac43p-5", "be1a442f8d4c194a", "bcd1089609c33afe"),
    "cache-new-depth2": ("0x1.2d6913005ee92p-5", "4ecdaa65e74b6545", "6c4863d357ecfe91"),
    "crash-new-client-boundary": ("0x1.f0cb89341ff18p-6", "fff77fab920fc26b", "3594b1be6bcb6160"),
    "crash-new-client-exchange": ("0x1.f0cb89341ff18p-6", "ee016415fe3ac481", "f64b8085df0c156d"),
    "crash-new-client-flush": ("0x1.f0cb89341ff18p-6", "a8378ccd63f61650", "f64b8085df0c156d"),
    "crash-new-agg-boundary": ("0x1.7d07eb17bbd5bp-7", "bc8413138afafc80", "4b9ba9e164e21df1"),
    "crash-new-agg-exchange": ("0x1.7d07eb17bbd5bp-7", "a20f7dd392a9d7d3", "2e1d984e86dbeff0"),
    "crash-new-agg-flush": ("0x1.7d07eb17bbd5bp-7", "1ddcbfc4184a76b4", "2e1d984e86dbeff0"),
    "crash-new-read": ("0x1.d2020b72a0d18p-7", "6c066caa7765add0", "f4fa58131db6be3e"),
    "rw-old-serial": ("0x1.98e6454a7a2dap-6", "7907fc79c0bdc11c", "9a79aa4f8d3d6899"),
    "rw-old-depth1": ("0x1.28e6e8992e6bfp-6", "48d77a285177670b", "4ef06931a95e454b"),
    "rw-old-depth2": ("0x1.a5b0fb0b39ccfp-7", "5a9e9ec7477e7417", "78c17627de52ad12"),
    "rw-old-async-depth4": ("0x1.2b814f86ae162p-7", "010b595607bb276b", "3a2342d8f5ce0941"),
    "rw-old-transient-depth2": ("0x1.f0e32f6427920p-7", "0a515b4dbbb61eb4", "25e8729421224362"),
    "cache-old-serial": ("0x1.22b0d29ba9fafp-4", "471f627b11dc87c6", "913a038d0774647e"),
    "cache-old-depth2": ("0x1.19606d3c25802p-5", "85aa9f6d989468b5", "78da12edf8b775a8"),
    "crash-old-client-boundary": ("0x1.e072cf439a41fp-6", "3b804cb47c5c78c8", "432dd958282d4d6f"),
    "crash-old-client-exchange": ("0x1.e072cf439a41fp-6", "c55954cc3b30d655", "cedc92d08f7afd95"),
    "crash-old-client-flush": ("0x1.e072cf439a41fp-6", "851786319e62b595", "cedc92d08f7afd95"),
    "crash-old-agg-boundary": ("0x1.55a6ff40def36p-7", "3f762f7bfd4ec7c0", "d903cfb1656301a6"),
    "crash-old-agg-exchange": ("0x1.55a6ff40def36p-7", "6c5512349d8047dd", "89b74096a63bfbfa"),
    "crash-old-agg-flush": ("0x1.55a6ff40def36p-7", "c8ab1cdde4b52d65", "89b74096a63bfbfa"),
    "crash-old-read": ("0x1.05ae35e2c65bdp-6", "15e473b46a4764dd", "f75e2aa040255fc4"),
    "journal-new": ("0x1.5d9459612ad94p-6", "03ca273e5ef79225", "ddad983910a2ab50"),
    "journal-new-cache": ("0x1.dc91724157244p-5", "06d1bbaccabc2398", "77e3746cbc24c5f9"),
    "journal-new-crash-agg-flush": ("0x1.de66ee125b163p-7", "089e218ddba80893", "4b3a600ce7448138"),
    "agg-crash-new": ("0x1.813ca2e823c51p-7", "d5a0cf20233a09ca", "52a17f1f91192cb6"),
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
        [sys.executable, str(Path(__file__).resolve()), "--json"],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    got = {k: tuple(v) for k, v in json.loads(proc.stdout).items()}
    assert got == PINS


def _pin_diff(new: Dict[str, Tuple[str, str, str]]) -> list:
    """``cell.field: old -> new`` per pinned value that differs
    (makespans printed as numbers, pinned as ``.hex()``)."""
    lines = []
    for name, now in new.items():
        was = PINS.get(name, (None, None, None))
        for field, old, cur in zip(("makespan", "schedule", "counts"), was, now):
            if old != cur:
                if field == "makespan":
                    old, cur = old and float.fromhex(old), float.fromhex(cur)
                lines.append(f"{name}.{field}: {old!r} -> {cur!r}")
    return lines


def _rewrite_pins(new: Dict[str, Tuple[str, str, str]]) -> None:
    """Replace the ``PINS`` rows of this file, one ``"cell": (...)`` line each."""
    path = Path(__file__)
    text = path.read_text()
    for name, pin in new.items():
        row = f'    "{name}": ({", ".join(json.dumps(v) for v in pin)}),'
        text, n = re.subn(rf'^    "{re.escape(name)}": \(.*\),$', lambda m: row, text, flags=re.M)
        assert n == 1, f"PINS has {n} rows for {name!r}"
    path.write_text(text)


def main(argv) -> int:
    if argv not in ([], ["--write"], ["--json"]):
        print(f"usage: {Path(__file__).name} [--write | --json]")
        return 2
    got = capture()
    if argv == ["--json"]:  # what test_schedule_independent_of_hash_seed reads
        print(json.dumps(got, indent=1))
        return 0
    lines = _pin_diff(got)
    print("\n".join(lines) or f"{len(got)} cells identical to PINS")
    if argv == ["--write"]:
        _rewrite_pins(got)
        print(f"rewrote PINS in {Path(__file__).name} ({len(lines)} values moved)")
        return 0
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
