"""The four spine workloads: seed-driven inputs, rank bodies and oracles.

Everything the program sees is generated here from the seed *before*
the clock starts (payload buffers, zeroed read targets, oracle file
images), and every iteration's bytes are checked against the oracle
*after* the clock stops.  The oracles are plain index arithmetic over
the HPIO / time-series layout — they do not call the datatype engine
they are checking.

Datatypes are the one input built inside the timed region: constructing
and flattening them is library work (``MPI_Type_commit``), so each rank
body asks the pattern for fresh filetype/memtype objects every
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import Session
from repro.config import DEFAULT_COST_MODEL
from repro.hpio.patterns import HPIOPattern
from repro.hpio.timeseries import TimeSeriesPattern

PATH = "/spine"
_GAP = 0xEE  # memory-gap filler, so a gather that leaks gap bytes is caught


@dataclass(frozen=True)
class Spec:
    """A workload's fixed side: name, cluster shape, hints, run length."""

    name: str
    why: str
    nprocs: int
    hints: Dict[str, object]
    iterations: int  # timed iterations of a full run (split over 3 blocks)
    lock_granularity: Optional[int] = None


_NEW = {"coll_impl": "new", "exchange": "alltoallw"}

SPECS: Dict[str, Spec] = {
    s.name: s
    for s in (
        Spec(
            "fig4_write",
            "Fig. 4 small-region cell (16 ranks, 64 B x 4096, 4 MiB, one write_all): "
            "flatten/intersect/pack in datatypes do most of the host work",
            nprocs=16,
            hints={**_NEW, "cb_nodes": 16},
            iterations=60,
        ),
        Spec(
            "fig4_read",
            "same geometry read back from a pre-populated file with a cold cache: "
            "gather vs scatter, fetch vs flush, so a write-side gain that costs reads shows",
            nprocs=16,
            hints={**_NEW, "cb_nodes": 16},
            iterations=60,
        ),
        Spec(
            "fig7_steps",
            "Fig. 6/7 time series, 8 set_view+write_all steps through incoherent caches "
            "with stripe locks: fs cache/store/lock work dominates and per-call planning repeats",
            nprocs=16,
            hints={
                **_NEW,
                "cb_nodes": 8,
                "cache_mode": "incoherent",
                "cache_pages": 4096,
                "io_method": "datasieve",
            },
            iterations=16,
            lock_granularity=DEFAULT_COST_MODEL.stripe_size,
        ),
        Spec(
            "ranks_many",
            "64 ranks moving 64 KiB: almost no bytes, ~10k scheduling decisions, "
            "so sim handoff and mpi matching dominate and datatypes/fs do little",
            nprocs=64,
            hints={**_NEW, "cb_nodes": 4},
            iterations=16,
        ),
    )
}


def _jitter(rng: np.random.Generator, seed: int, count: int) -> int:
    """Seed 0 is the documented geometry; other seeds move the count by
    1 to 8 (at most 1/32), enough to shift realm, page and round edges.
    Never by 0: the documented counts put realm edges on page edges, and
    on ``ranks_many`` that case's virtual time is 14 % below every
    neighbour's.  The README says why this is narrower than the issue's
    1/16."""
    if seed == 0:
        return count
    span = min(8, max(count // 32, 1))
    return count + (int(rng.integers(-span, span + 1)) or span)


@dataclass
class Workload:
    """One generated instance: inputs, a rank body and an oracle check."""

    spec: Spec
    #: Data bytes one iteration moves (the size MiB/s are quoted at).
    payload_bytes: int
    body: Callable
    check: Callable[[Session], bool]
    #: The oracle: the file's bytes after a correct write / before a read.
    image: np.ndarray
    #: Whether ``image`` is installed before the ranks start (read workloads).
    prefill: bool = False
    #: Restores per-iteration state (zeroes the read targets).
    reset: Callable[[], None] = lambda: None

    @property
    def name(self) -> str:
        return self.spec.name

    def session(self) -> Session:
        """A fresh cluster (cold caches, empty lock table) for one iteration."""
        self.reset()
        s = Session(
            PATH,
            nprocs=self.spec.nprocs,
            hints=self.spec.hints,
            lock_granularity=self.spec.lock_granularity,
        )
        if self.prefill:
            s.fs.raw_write(PATH, 0, self.image)
        return s


def _runs(starts: np.ndarray, length: int) -> np.ndarray:
    """Byte indices of ``length``-byte runs beginning at ``starts``."""
    return (starts[:, None] + np.arange(length, dtype=np.int64)[None, :]).ravel()


def _hpio(spec: Spec, seed: int, region_size: int, region_count: int, read: bool) -> Workload:
    rng = np.random.default_rng([seed, len(spec.name), spec.nprocs])
    pat = HPIOPattern(
        nprocs=spec.nprocs,
        region_size=region_size,
        region_count=_jitter(rng, seed, region_count),
        region_spacing=128,
        mem_contig=False,
        file_contig=False,
    )
    k = np.arange(pat.region_count, dtype=np.int64)
    mem_idx = _runs(k * pat.slot, pat.region_size)

    def file_idx(rank: int) -> np.ndarray:
        return _runs((k * pat.nprocs + rank) * pat.slot, pat.region_size)

    reset: Callable[[], None] = lambda: None

    if read:
        image = rng.integers(0, 256, size=pat.file_extent, dtype=np.uint8)
        expect = []
        for r in range(pat.nprocs):
            e = np.zeros(pat.buffer_bytes(), dtype=np.uint8)
            e[mem_idx] = image[file_idx(r)]
            expect.append(e)
        bufs = [np.zeros(pat.buffer_bytes(), dtype=np.uint8) for _ in range(pat.nprocs)]
        def reset() -> None:
            for b in bufs:
                b.fill(0)

        def check(session: Session) -> bool:
            return all(np.array_equal(b, e) for b, e in zip(bufs, expect))

    else:
        image = np.zeros(pat.file_extent, dtype=np.uint8)
        bufs = []
        for r in range(pat.nprocs):
            b = np.full(pat.buffer_bytes(), _GAP, dtype=np.uint8)
            data = rng.integers(0, 256, size=pat.bytes_per_client, dtype=np.uint8)
            b[mem_idx] = data
            image[file_idx(r)] = data
            bufs.append(b)

        def check(session: Session) -> bool:
            got = session.fs.raw_bytes(PATH, 0, pat.file_extent)
            return np.array_equal(got, image)

    def body(ctx, comm, f) -> None:
        rank = comm.rank
        f.set_view(disp=pat.file_disp(rank), filetype=pat.filetype(rank, "succinct"))
        if read:
            f.read_all(bufs[rank], memtype=pat.memtype(), count=1)
        else:
            f.write_all(bufs[rank], memtype=pat.memtype(), count=1)

    return Workload(spec, pat.total_bytes, body, check, image, read, reset)


def _timeseries(spec: Spec, seed: int, points: int) -> Workload:
    rng = np.random.default_rng([seed, len(spec.name), spec.nprocs])
    ts = TimeSeriesPattern(
        nprocs=spec.nprocs,
        element_size=32,
        elems_per_point=100,
        points=_jitter(rng, seed, points),
        timesteps=8,
    )
    image = np.zeros(ts.file_bytes, dtype=np.uint8)
    bufs: List[List[np.ndarray]] = []
    point0 = np.arange(ts.points, dtype=np.int64) * ts.point_bytes
    for r in range(ts.nprocs):
        elems = ts.my_elements(r) * ts.element_size
        per_step = []
        for t in range(ts.timesteps):
            # Data order: point by point, this rank's elements in order.
            starts = (point0[:, None] + t * ts.slot_bytes + elems[None, :]).ravel()
            data = rng.integers(0, 256, size=starts.size * ts.element_size, dtype=np.uint8)
            image[_runs(starts, ts.element_size)] = data
            per_step.append(data)
        bufs.append(per_step)

    def body(ctx, comm, f) -> None:
        rank = comm.rank
        for t in range(ts.timesteps):
            f.set_view(disp=0, filetype=ts.filetype(rank, t))
            f.write_all(bufs[rank][t])

    def check(session: Session) -> bool:
        return np.array_equal(session.fs.raw_bytes(PATH, 0, ts.file_bytes), image)

    return Workload(spec, ts.bytes_per_step * ts.timesteps, body, check, image)


def build(name: str, seed: int, *, smoke: bool = False) -> Workload:
    """Generate workload ``name`` from ``seed`` (same seed, same inputs).

    ``smoke`` quarters ranks, aggregators and counts: small enough to
    check the harness end to end in seconds, not a measurement."""
    spec = SPECS[name]
    q = 1
    if smoke:
        q = 4
        spec = replace(
            spec, nprocs=spec.nprocs // q, hints={**spec.hints, "cb_nodes": spec.hints["cb_nodes"] // q}
        )
    if name == "fig7_steps":
        return _timeseries(spec, seed, 768 // q)
    if name == "ranks_many":
        return _hpio(spec, seed, 8, 128 // q, read=False)
    return _hpio(spec, seed, 64, 4096 // q, read=name == "fig4_read")
