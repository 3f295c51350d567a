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
(ROADMAP's determinism gate (iv), in the small).  ``PINS`` is rewritten
only by ``tests/pins.py`` (through :func:`rewrite_rows`), after a change
*meant* to move virtual time; its report prints one ``cell.makespan`` /
``cell.schedule`` / ``cell.counts: old -> new`` line per pinned value
that moved.
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
from repro.config import CostModel
from repro.core.request import waitall, waitany
from repro.datatypes import BYTE, contiguous, resized, vector
from repro.errors import DeadlineExceeded, WaitTimeout
from repro.faults import FaultPlan
from repro.fs import SimFileSystem
from repro.hpio.patterns import HPIOPattern
from repro.liveness import LivenessState, find_liveness, install_liveness
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator, Tracer

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from run import diff  # noqa: E402  (benchmarks/run.py: the one pin differ)

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
    install_liveness(sim.shared, LivenessState())
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


def _independent(read: bool) -> Cell:
    """Independent I/O through the view, 4 ranks at once.  Write cell:
    every rank ``write_ind``s its own strided span (disjoint extents, so
    concurrent sieve read-modify-writes cannot collide) from a strided
    memory type.  Read cell: a ``write_all`` of interleaved tiles, then
    every rank ``read_ind``s its tiles into a strided memory type while
    the others do the same."""
    region, count = 16, 12
    span = 2 * region * count
    s = Session("/ind", nprocs=4, cost=_SMALL, hints={"cb_nodes": 2}, trace=True)
    memtype = vector(count, region, 2 * region, BYTE)
    mask = np.arange(span) // region % 2 == 0  # the bytes memtype selects

    def data(rank: int) -> np.ndarray:
        return (np.arange(span, dtype=np.int64) * (rank + 5) % 251).astype(np.uint8)

    def body(ctx, comm, f):
        if not read:
            f.set_view(
                disp=comm.rank * span,
                filetype=resized(contiguous(region, BYTE), 0, 2 * region),
            )
            f.write_ind(data(comm.rank), memtype=memtype)
            return
        _tile(comm, f, region)
        f.write_all(data(comm.rank)[mask])
        f.seek(0)
        out = np.zeros(span, dtype=np.uint8)
        f.read_ind(out, memtype=memtype)
        assert np.array_equal(out[mask], data(comm.rank)[mask])

    s.run(body)
    if not read:
        for rank in range(4):  # file span and memory span share one layout
            got = s.fs.raw_bytes("/ind", rank * span, span)
            assert np.array_equal(got[mask], data(rank)[mask])
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
    "ind-write": lambda: _independent(False),
    "ind-read": lambda: _independent(True),
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
    "hpio-new-alltoallw": ("0x1.04b1c20b7cc6fp-5", "da6884241dee038b", "24806f792fc74152"),
    "hpio-new-nonblocking": ("0x1.04b2bd4ceaea2p-5", "b3bbc230e43a2626", "ef79b5efe5c20568"),
    "hpio-new-two_layer": ("0x1.2500fbe96e87dp-5", "6e30cdcc6457e4aa", "7a5d65d6b6a70ae4"),
    "hpio-old": ("0x1.f479afa6b5b3dp-6", "9544dda9cbcbc4a3", "19501fc940792cc0"),
    "deadline": ("0x1.3506441a0c8b7p-1", "da2c936919908e36", "e2674302503ad5a4"),
    "pipeline": ("0x1.a5bee691db38fp-7", "b37725d5ae2308fe", "4816aaa6c688ecfd"),
    "lock-pins": ("0x1.5d2637de939ebp-6", "76d6452d13dadc24", "f956e3945202e9ca"),
    "cluster": ("0x1.bdc51fbd9c364p-8", "e82d2593850ff227", "099f3ef6afa69ef7"),
    # Independent-layer cells, captured on the parent of the change that
    # routed write_ind/read_ind, the suspect tail and rejoin resume
    # through one helper; ``ind-read`` re-captured by that change, which
    # charges read_ind's byte touch before its read (schedule and counts
    # moved, the makespan did not).
    "ind-write": ("0x1.186a4dea85bbcp-8", "64367d2f8c09a559", "fc22b30768dded0f"),
    "ind-read": ("0x1.cb0354e809783p-6", "de02a44f907b7372", "bef5e56d01561d84"),
    # Round-loop cells, captured on the parent of the one-loop refactor.
    "rw-new-serial": ("0x1.a5c7904565979p-6", "a7d910058cced5a1", "8f39378f62be6cd7"),
    "rw-new-depth1": ("0x1.42ed68507de3ap-6", "536c42b370b10ce4", "b100e9712e9eae7c"),
    "rw-new-depth2": ("0x1.c7b05ba15835ap-7", "2ea5cecdccb164af", "5f251809b66aba67"),
    "rw-new-async-depth4": ("0x1.44499f3510dffp-7", "695c120cbe9c2061", "b3d5d3d76ceed808"),
    "rw-new-transient-depth2": ("0x1.ad070acd63c4cp-7", "4aa8d7894e485355", "22bafb827e2216ff"),
    "cache-new-serial": ("0x1.243fb585eb96bp-4", "b145e0b3f6d85050", "2769f948b477776d"),
    "cache-new-depth2": ("0x1.1c7af1d7673ccp-5", "066d7c8d94ade3cb", "c229018bbc5cc216"),
    "crash-new-client-boundary": ("0x1.e81ec420e4c76p-6", "fe0fb54573756901", "a78af57ae2ed2b56"),
    "crash-new-client-exchange": ("0x1.e81ec420e4c76p-6", "f37fe3e68c70dd97", "0fb6d2d3a30861a6"),
    "crash-new-client-flush": ("0x1.e81ec420e4c76p-6", "5400b9f3f79c07ed", "0fb6d2d3a30861a6"),
    "crash-new-agg-boundary": ("0x1.5a7797b57b947p-7", "f5b8deaf2bbbd019", "6d26eafcb4bf41e8"),
    "crash-new-agg-exchange": ("0x1.5a7797b57b947p-7", "e00af09f35c73a16", "01ea5a2319abd258"),
    "crash-new-agg-flush": ("0x1.5a7797b57b947p-7", "081974e6b4cf4271", "01ea5a2319abd258"),
    "crash-new-read": ("0x1.eb89256070447p-7", "bb3b47d3ed121649", "3a59b0fb907ebb68"),
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
    "journal-new": ("0x1.82ae43efccd8ap-6", "1861715d41b0f6cf", "124e40a2509d1e30"),
    "journal-new-cache": ("0x1.111b7caf67d97p-4", "f38e39c139d1d005", "7ffc95cabf6e51fa"),
    "journal-new-crash-agg-flush": ("0x1.bbd69ab01ad4ep-7", "20c0e63b53e58e6e", "fba692536e38af7f"),
    "agg-crash-new": ("0x1.4f558b2a55a5dp-7", "72e07ecb73641cfd", "def7a9837ca16aee"),
}


def _observe(name: str) -> Tuple[str, str, str]:
    makespan, tracer, registry = CELLS[name]()
    assert tracer.events, "cell recorded no spans"
    return float(makespan).hex(), _digest(tracer), _registry_digest(registry)


def capture() -> Dict[str, Tuple[str, str, str]]:
    return {name: _observe(name) for name in CELLS}


def flat(pins: Dict[str, Tuple[str, str, str]]) -> Dict[str, str]:
    """``cell.makespan`` / ``cell.schedule`` / ``cell.counts`` -> pinned value."""
    return {
        f"{name}.{field}": value
        for name, pin in pins.items()
        for field, value in zip(("makespan", "schedule", "counts"), pin)
    }


@pytest.mark.parametrize("name", sorted(CELLS))
def test_schedule_matches_parent_capture(name):
    assert not diff(flat({name: PINS[name]}), flat({name: _observe(name)}))


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


def rewrite_rows(path: Path, block: str, rows: Dict[str, str]) -> None:
    """In the ``block = {`` ... ``}`` literal of the file at ``path``,
    replace the one line ``    KEY: VALUE,`` of each ``KEY -> VALUE`` of
    ``rows`` (both Python source text): the in-file rewriter of ``PINS``
    here and of ``test_engine_scaling.py``'s ``_MAKESPANS``.  A key with
    no such line, or with two, is an error, and the file is left as it
    was."""
    text = path.read_text()
    found = re.search(rf"^{re.escape(block)}\b[^\n]*= {{\n(.*?)^}}$", text, flags=re.M | re.S)
    if found is None:
        raise ValueError(f"{path.name} has no {block} = {{...}} block")
    body = found.group(1)
    for key, value in rows.items():
        body, n = re.subn(
            rf"^    {re.escape(key)}: .*,$", lambda m: f"    {key}: {value},", body, flags=re.M
        )
        if n != 1:
            raise ValueError(f"{block} in {path.name} has {n} rows for {key}")
    path.write_text(text[: found.start(1)] + body + text[found.end(1) :])


def pin_rows(pins: Dict[str, Tuple[str, str, str]]) -> Dict[str, str]:
    """``PINS`` rows as :func:`rewrite_rows` takes them."""
    return {
        json.dumps(name): f"({', '.join(json.dumps(v) for v in pin)})"
        for name, pin in pins.items()
    }


if __name__ == "__main__":
    # What test_schedule_independent_of_hash_seed reads.
    if sys.argv[1:] != ["--json"]:
        sys.exit(f"usage: {Path(__file__).name} --json")
    print(json.dumps(capture(), indent=1))
