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
from typing import Callable, Dict, Tuple

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
from repro.sim import Simulator, Tracer

_SMALL = CostModel(page_size=64, stripe_size=256, num_osts=2)


def _digest(tracer: Tracer) -> str:
    h = hashlib.sha256()
    for ev in tracer.events:
        h.update(f"{ev.rank}|{ev.state}|{ev.t0.hex()}|{ev.t1.hex()}\n".encode())
    return h.hexdigest()[:16]


def _tile(comm, f, region: int) -> None:
    f.set_view(
        disp=comm.rank * region,
        filetype=resized(contiguous(region, BYTE), 0, region * comm.size),
    )


# -- cells -------------------------------------------------------------------
def _hpio(impl: str, exchange: str) -> Tuple[float, Tracer]:
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
    return s.makespan, s.tracer


def _deadline() -> Tuple[float, Tracer]:
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
    return s.makespan, s.tracer


def _pipeline() -> Tuple[float, Tracer]:
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
    return s.makespan, s.tracer


def _lock_pins() -> Tuple[float, Tracer]:
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
    return max(times[1], times[3]), tracer


def _cluster() -> Tuple[float, Tracer]:
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
    return max(r.makespan for r in out.values()), cl.tracer


#: The old driver always exchanges post-everything-then-wait and ignores
#: the ``exchange`` hint (three identical schedules), so it gets one cell.
CELLS: Dict[str, Callable[[], Tuple[float, Tracer]]] = {
    "hpio-new-alltoallw": lambda: _hpio("new", "alltoallw"),
    "hpio-new-nonblocking": lambda: _hpio("new", "nonblocking"),
    "hpio-new-two_layer": lambda: _hpio("new", "two_layer"),
    "hpio-old": lambda: _hpio("old", "alltoallw"),
    "deadline": _deadline,
    "pipeline": _pipeline,
    "lock-pins": _lock_pins,
    "cluster": _cluster,
}

#: cell -> (makespan.hex(), schedule digest), captured on the parent of
#: the commit that introduced this file (the polling dispatcher).
PINS: Dict[str, Tuple[str, str]] = {
    "hpio-new-alltoallw": ("0x1.18fc7883069cdp-5", "e584abbc9df426ef"),
    "hpio-new-nonblocking": ("0x1.06920dc261c95p-5", "63eb586021c06a22"),
    "hpio-new-two_layer": ("0x1.28bf5af25d92bp-5", "ac60d29aa4484d30"),
    "hpio-old": ("0x1.f8385091a3723p-6", "61701ef459ca16a5"),
    "deadline": ("0x1.38474aa295224p-1", "da3c1ac30c4bed7c"),
    "pipeline": ("0x1.1174c07443ed7p-6", "151150463fbaf78a"),
    "lock-pins": ("0x1.5d2637de939ebp-6", "76d6452d13dadc24"),
    "cluster": ("0x1.c52eca5515b25p-8", "af07f5f5dde87ec7"),
}


def capture() -> Dict[str, Tuple[str, str]]:
    out = {}
    for name, cell in CELLS.items():
        makespan, tracer = cell()
        out[name] = (float(makespan).hex(), _digest(tracer))
    return out


@pytest.mark.parametrize("name", sorted(CELLS))
def test_schedule_matches_parent_capture(name):
    makespan, tracer = CELLS[name]()
    assert tracer.events, "cell recorded no spans"
    assert (float(makespan).hex(), _digest(tracer)) == PINS[name]


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
    import warnings

    warnings.simplefilter("ignore", DeprecationWarning)
    print(json.dumps(capture(), indent=1))
