"""Golden replay of the ``fs`` data plane (helper, not a test module).

Each seed expands — with ``random.Random`` only, never the code under
test — into one configuration (cache mode, capacity, lock granularity,
rank count, integrity, replication, transient faults) and one op list
per rank.  Running it drives :class:`~repro.fs.client.LocalFile` and
records what the rest of the system can observe of the cache and the
store: the ordered server calls with their extents, the bytes every
read returned, cache occupancy after every op, the final file image,
the final registry snapshot and every rank's final virtual clock.

``tests/data/fs_dataplane_golden.json`` holds the digests recorded on
the commit *before* the extent-granular rewrite; the replay test in
``test_fs_dataplane_model.py`` demands they still match.  Run this file
to re-record (``--dump DIR`` writes the full per-seed logs instead, for
diffing two checkouts).
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np

from repro.config import CostModel
from repro.errors import FileSystemError
from repro.faults.plan import FaultPlan
from repro.fs import FSClient, SimFileSystem
from repro.sim import Simulator

GOLDEN = Path(__file__).parent / "data" / "fs_dataplane_golden.json"
#: 0-23 draw every mode/capacity/geometry; the rest were picked because
#: their draw arms transient faults on a caching mode (failed flushes).
SEEDS = tuple(range(24)) + (25, 26, 28, 32)
MODES = ("coherent", "incoherent", "writethrough", "off")
PATH = "/g"


def _config(seed: int) -> dict:
    rng = random.Random(seed * 7919 + 1)
    big = seed % 6 == 5  # default 4 KiB pages, MiB-sized extents
    return {
        "mode": MODES[seed % 4],
        "page": 4096 if big else 64,
        "capacity": rng.choice([2, 3, 5, 8, 16, 64]) * (16 if big else 1),
        "lock": rng.choice([None, 2, 4]),  # granularity in pages
        "nprocs": rng.choice([1, 2, 3]),
        "integrity": rng.random() < 0.4,
        "replication": 2 if rng.random() < 0.3 else 1,
        "fault_rate": 0.08 if rng.random() < 0.35 else 0.0,
        "region": rng.choice([32, 128, 768]),  # pages
        "ops": 36,
    }


def _batch(rng: random.Random, cfg: dict):
    ps, region = cfg["page"], cfg["region"] * cfg["page"]
    style = rng.random()
    if style < 0.25:  # one long contiguous run (a sieve window)
        length = rng.randrange(ps, region // 2)
        return [rng.randrange(0, region - length)], [length]
    n = rng.randrange(1, 7)
    offs = [rng.randrange(0, region) for _ in range(n)]
    lens = [rng.choice([0, 1, ps // 2, ps, ps + 1, rng.randrange(0, 5 * ps)]) for _ in range(n)]
    if style < 0.5:  # sorted, disjoint-ish: the collective flush shape
        offs.sort()
    return offs, lens


def _ops(seed: int, rank: int, cfg: dict) -> list:
    rng = random.Random(seed * 104729 + rank)
    region = cfg["region"] * cfg["page"]
    ops = []
    for _ in range(cfg["ops"]):
        r = rng.random()
        if r < 0.38:
            offs, lens = _batch(rng, cfg)
            ops.append(("write", offs, lens, rng.randrange(1 << 30)))
        elif r < 0.76:
            ops.append(("read", *_batch(rng, cfg)))
        elif r < 0.84:
            ops.append(("sync",))
        elif r < 0.88:
            ops.append(("invalidate",))
        elif r < 0.96:
            lo = rng.randrange(0, region)
            ops.append(("invalidate_range", lo, lo + rng.randrange(0, region // 2), rng.random() < 0.5))
        else:
            ops.append(("truncate", rng.randrange(0, region)))
    return ops


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def run_sequence(seed: int) -> dict:
    """Run one seeded sequence; returns ``{"summary": ..., "log": ...}``."""
    cfg = _config(seed)
    cost = CostModel(page_size=cfg["page"], stripe_size=cfg["page"] * 4, num_osts=2)
    gran = None if cfg["lock"] is None else cfg["lock"] * cfg["page"]
    fs = SimFileSystem(cost, lock_granularity=gran)
    fs.ensure_file(PATH)
    if cfg["integrity"]:
        fs.enable_integrity(PATH)
    fs.enable_replication(PATH, cfg["replication"])
    log: list = []

    real_read, real_write, real_lock = fs.server_read, fs.server_write, fs.acquire_extents

    def server_read(ctx, client_id, path, offsets, lengths, **kw):
        log.append(["R", client_id, np.asarray(offsets).tolist(), np.asarray(lengths).tolist(), sorted(kw.items())])
        return real_read(ctx, client_id, path, offsets, lengths, **kw)

    def server_write(ctx, client_id, path, offsets, lengths, data, **kw):
        log.append([
            "W", client_id, np.asarray(offsets).tolist(), np.asarray(lengths).tolist(),
            hashlib.sha256(np.asarray(data, dtype=np.uint8).tobytes()).hexdigest()[:16],
            sorted(kw.items()),
        ])
        return real_write(ctx, client_id, path, offsets, lengths, data, **kw)

    def acquire_extents(ctx, client_id, path, offsets, lengths):
        log.append(["L", client_id, np.asarray(offsets).tolist(), np.asarray(lengths).tolist()])
        return real_lock(ctx, client_id, path, offsets, lengths)

    fs.server_read, fs.server_write, fs.acquire_extents = server_read, server_write, acquire_extents

    def retrying(fn):
        for _ in range(200):
            try:
                return fn()
            except FileSystemError as exc:
                log.append(["E", type(exc).__name__])
        raise AssertionError("transient faults never cleared")

    def main(ctx):
        f = FSClient(fs, ctx).open(
            PATH, cache_mode=cfg["mode"], cache_capacity_pages=cfg["capacity"]
        )
        for op in _ops(seed, ctx.rank, cfg):
            kind = op[0]
            try:
                if kind == "write":
                    _, offs, lens, dseed = op
                    data = np.random.default_rng(dseed).integers(
                        0, 256, size=sum(lens), dtype=np.uint8
                    )
                    f.write_batch(offs, lens, data)
                elif kind == "read":
                    got = f.read_batch(op[1], op[2])
                    log.append(["D", ctx.rank, hashlib.sha256(got.tobytes()).hexdigest()[:16]])
                elif kind == "sync":
                    log.append(["S", ctx.rank, f.sync()])
                elif kind == "invalidate":
                    f.invalidate()
                elif kind == "invalidate_range":
                    log.append(["I", ctx.rank, f.cache.invalidate_range(op[1], op[2], keep_dirty=op[3])])
                elif kind == "truncate":
                    f.truncate(op[1])
            except FileSystemError as exc:
                log.append(["E", ctx.rank, kind, type(exc).__name__])
            log.append(["C", ctx.rank, f.cache.cached_pages, f.cache.dirty_pages, ctx.now])
        log.append(["X", ctx.rank, retrying(f.close)])
        return ctx.now

    sim = Simulator(cfg["nprocs"])
    if cfg["fault_rate"]:
        FaultPlan(seed).transient_io(rate=cfg["fault_rate"]).install(sim)
    clocks = sim.run(main)
    store = fs.page_store(PATH)
    size = fs.file_size(PATH)
    summary = {
        "config": cfg,
        "events": len(log),
        "server_calls": sum(1 for e in log if e[0] in "RW"),
        "log_sha256": _digest(log),
        "file_size": size,
        "file_sha256": hashlib.sha256(fs.raw_bytes(PATH, 0, size).tobytes()).hexdigest(),
        "allocated_pages": store.allocated_pages,
        "checksum": store.checksum(),
        "clocks": clocks,
        "registry": fs.registry.snapshot(),
    }
    return {"summary": summary, "log": log}


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--dump":
        out = Path(argv[1])
        out.mkdir(parents=True, exist_ok=True)
        for seed in SEEDS:
            (out / f"seed{seed:02d}.json").write_text(
                json.dumps(run_sequence(seed), indent=0, sort_keys=True)
            )
        return 0
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({str(s): run_sequence(s)["summary"] for s in SEEDS}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"recorded {len(SEEDS)} sequences -> {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
