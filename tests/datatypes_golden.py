"""Golden replay of the ``datatypes`` layer (helper, not a test module).

Each cell expands — with ``random.Random`` only, never the code under
test — into constructor arguments, cursor queries, buffers and segment
batches, and digests (sha256 over ``tobytes()`` + dtype + shape) what
the rest of the system can observe of the layer: every
:class:`FlatType` a constructor yields, every :class:`SegmentBatch`
(three arrays and both cost counters) of monotone
:meth:`FlatCursor.intersect` sequences, ``data_to_file_segments`` over
non-monotonic memory types, the byte streams and destination buffers of
gather/scatter, and what ``datasieve_*`` / ``listio_*`` / ``naive_*``
leave in a :class:`LocalFile`, return, and charge in virtual time.

``tests/data/datatypes_golden.json`` holds the digests recorded on the
commit *before* the block-granular rewrite (type commit per block, one
segment-copy kernel, global-index tiled intersection); the replay test
in ``test_datatypes_blockwise.py`` demands they still match.  Run this
file to re-record — only do that on purpose.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Callable, Dict

import numpy as np

from repro.config import CostModel
from repro.core.realms import make_cyclic_realms
from repro.datatypes import (
    BYTE,
    DISTRIBUTE_BLOCK,
    DISTRIBUTE_CYCLIC,
    DISTRIBUTE_NONE,
    INT,
    SHORT,
    contiguous,
    darray,
    hindexed,
    hvector,
    indexed,
    indexed_block,
    resized,
    struct,
    subarray,
    vector,
)
from repro.datatypes.flatten import FlatType
from repro.datatypes.packing import gather_segments, scatter_segments
from repro.datatypes.segments import FlatCursor, SegmentBatch, data_to_file_segments
from repro.errors import ReproError
from repro.fs import FSClient, SimFileSystem
from repro.hpio.patterns import HPIOPattern
from repro.hpio.timeseries import TimeSeriesPattern
from repro.io.datasieve import datasieve_read, datasieve_write
from repro.io.listio import listio_read, listio_write
from repro.io.naive import naive_read, naive_write
from repro.sim import Simulator

GOLDEN = Path(__file__).parent / "data" / "datatypes_golden.json"
SEEDS = range(4)
PATH = "/g"


# -- digests -----------------------------------------------------------------
class Digest:
    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def array(self, arr) -> None:
        arr = np.ascontiguousarray(arr)
        self._h.update(f"{arr.dtype}{arr.shape}".encode())
        self._h.update(arr.tobytes())

    def value(self, *values) -> None:
        self._h.update(repr(values).encode())

    def flat(self, flat: FlatType) -> None:
        for arr in (flat.offsets, flat.lengths, flat.data_prefix):
            self.array(arr)
        self.value(
            flat.extent, flat.size, flat.span_lo, flat.span_hi,
            bool(flat.is_monotonic), bool(flat.is_contiguous),
        )

    def batch(self, batch: SegmentBatch) -> None:
        for arr in (batch.file_offsets, batch.lengths, batch.data_offsets):
            self.array(arr)
        self.value(int(batch.pairs_evaluated), int(batch.tiles_skipped))

    def attempt(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` (which feeds this digest); a typed rejection is an
        outcome like any other, its wording is not."""
        try:
            fn()
        except ReproError as exc:
            self.value("raises", type(exc).__name__)

    def hex(self) -> str:
        return self._h.hexdigest()


def _bytes(rng: random.Random, n: int) -> np.ndarray:
    return np.frombuffer(rng.randbytes(n), dtype=np.uint8).copy()


# -- constructors --------------------------------------------------------------
def _children(rng: random.Random) -> Dict[str, object]:
    return {
        "byte": BYTE,
        "int": INT,
        "contig": contiguous(rng.randrange(1, 9), BYTE),
        "gapped": vector(rng.randrange(2, 5), rng.randrange(1, 3), rng.randrange(3, 6), INT),
        "padded": resized(contiguous(rng.randrange(1, 6), SHORT), 0, 16),
        "nonmono": hindexed([1, 2, 1], [24, 0, 12], INT),
        "empty": contiguous(0, BYTE),
    }


def _ints(rng: random.Random, n: int, hi: int) -> list:
    return [rng.randrange(0, hi) for _ in range(n)]


def _build(rng: random.Random, ctor: str, child):
    n = rng.randrange(0, 6)
    if ctor == "contiguous":
        return contiguous(rng.randrange(0, 7), child)
    if ctor == "vector":
        return vector(rng.randrange(0, 7), rng.randrange(0, 5), rng.randrange(0, 7), child)
    if ctor == "hvector":
        return hvector(rng.randrange(0, 7), rng.randrange(0, 5), rng.randrange(0, 96), child)
    if ctor == "indexed":
        return indexed(_ints(rng, n, 4), _ints(rng, n, 20), child)
    if ctor == "hindexed":
        return hindexed(_ints(rng, n, 4), _ints(rng, n, 200), child)
    if ctor == "indexed_block":
        return indexed_block(rng.randrange(0, 4), _ints(rng, n, 20), child)
    if ctor == "resized":
        return resized(child, 0, rng.randrange(0, 64))
    if ctor == "subarray":
        nd = rng.randrange(1, 4)
        sizes = [rng.randrange(1, 6) for _ in range(nd)]
        subsizes = [rng.randrange(0, s + 1) for s in sizes]
        starts = [rng.randrange(0, s - sub + 1) for s, sub in zip(sizes, subsizes)]
        return subarray(sizes, subsizes, starts, child)
    if ctor == "darray":
        nd = rng.randrange(1, 4)
        gsizes = [rng.randrange(1, 9) for _ in range(nd)]
        psizes = [rng.randrange(1, 4) for _ in range(nd)]
        distribs = [
            rng.choice([DISTRIBUTE_BLOCK, DISTRIBUTE_CYCLIC]) if p > 1
            else rng.choice([DISTRIBUTE_NONE, DISTRIBUTE_BLOCK, DISTRIBUTE_CYCLIC])
            for p in psizes
        ]
        dargs = [rng.choice([0, 0, 1, 2, 3]) for _ in range(nd)]
        rank = rng.randrange(0, int(np.prod(psizes)))
        return darray(gsizes, distribs, dargs, psizes, rank, child)
    raise AssertionError(ctor)


CTORS = (
    "contiguous", "vector", "hvector", "indexed", "hindexed",
    "indexed_block", "resized", "subarray", "darray",
)


def _cell_ctor(ctor: str, child_name: str, seed: int) -> str:
    rng = random.Random(f"{ctor}/{child_name}/{seed}")
    child = _children(rng)[child_name]
    d = Digest()
    for _ in range(6):
        d.attempt(lambda: d.flat(_build(rng, ctor, child).flatten()))
    return d.hex()


def _cell_struct(seed: int) -> str:
    rng = random.Random(f"struct/{seed}")
    d = Digest()
    for _ in range(8):
        kids = list(_children(rng).values())
        n = rng.randrange(0, 6)
        types = [rng.choice(kids) for _ in range(n)]
        d.attempt(
            lambda: d.flat(struct(_ints(rng, n, 4), _ints(rng, n, 300), types).flatten())
        )
    return d.hex()


def _cell_spine_types() -> str:
    """The types the spine workloads commit, at their real sizes."""
    d = Digest()
    pat = HPIOPattern(nprocs=16, region_size=64, region_count=4099)
    d.flat(pat.memtype().flatten())
    d.flat(pat.filetype(3, "succinct").flatten())
    d.flat(pat.filetype(3, "enumerated").flatten())
    ts = TimeSeriesPattern(nprocs=16, points=771, timesteps=8)
    for rank, step in ((0, 0), (5, 3), (15, 7)):
        d.flat(ts.filetype(rank, step).flatten())
    return d.hex()


# -- intersection ----------------------------------------------------------------
def _queries(rng: random.Random, lo: int, hi: int, n: int) -> list:
    """A monotone sequence of [lo, hi) windows: gaps, touching windows,
    empty and inverted ones, starting before and ending after the access."""
    span = max(hi - lo, 8)
    cuts = sorted(rng.randrange(max(lo - span // 8, 0), hi + span // 8 + 1) for _ in range(2 * n))
    out = []
    for a, b in zip(cuts[::2], cuts[1::2]):
        out.append((a, b))
        if rng.random() < 0.15:
            out.append((b, a))
    return out


def _walk(d: Digest, flat: FlatType, disp: int, total: int, data_lo: int, queries) -> None:
    def run() -> None:
        cur = FlatCursor(flat, disp, total, data_lo)
        d.value(cur.tiles, cur.first_byte, cur.last_byte)
        for lo, hi in queries:
            d.batch(cur.intersect(lo, hi))
        cur.reset()
        d.batch(cur.all_segments())

    d.attempt(run)


def _random_monotonic(rng: random.Random) -> FlatType:
    n = rng.randrange(1, 9)
    offs, lens, pos = [], [], rng.randrange(0, 8)
    for _ in range(n):
        ln = rng.randrange(1, 20)
        offs.append(pos)
        lens.append(ln)
        pos += ln + rng.choice([0, 1, 3, 17])
    return FlatType(offs, lens, pos - offs[0] + rng.choice([0, 0, 5, 64]))


def _cell_intersect(kind: str, seed: int) -> str:
    rng = random.Random(f"intersect/{kind}/{seed}")
    d = Digest()
    if kind in ("succinct", "enumerated"):
        pat = HPIOPattern(
            nprocs=rng.choice([4, 16]), region_size=rng.choice([8, 64]),
            region_count=rng.randrange(40, 300),
        )
        rank = rng.randrange(pat.nprocs)
        flat = pat.filetype(rank, kind).flatten()
        disp, total = pat.file_disp(rank), pat.bytes_per_client
    elif kind == "timeseries":
        ts = TimeSeriesPattern(nprocs=16, points=rng.randrange(20, 90), timesteps=8)
        rank = rng.randrange(16)
        flat = ts.filetype(rank, rng.randrange(8)).flatten()
        disp, total = 0, ts.bytes_per_rank_per_step(rank) * ts.points
    else:
        flat = _random_monotonic(rng)
        disp, total = rng.randrange(0, 100), flat.size * rng.randrange(1, 40)
    for variant in range(4):
        tot, data_lo = total, 0
        if variant & 1:  # partial last tile
            tot = max(total - rng.randrange(1, flat.size + 1), 1)
        if variant & 2:  # access starting mid-stream
            data_lo = rng.randrange(1, tot + 1)
        hi = disp + flat.extent * (tot // max(flat.size, 1) + 1)
        _walk(d, flat, disp, tot, data_lo, _queries(rng, disp, hi, rng.randrange(3, 40)))
    return d.hex()


def _cell_cyclic_realms(seed: int) -> str:
    """Persistent cyclic realms: each aggregator's realm cut to round
    windows (many intervals each), every client cursor walked through
    them in order."""
    rng = random.Random(f"cyclic/{seed}")
    d = Digest()
    naggs = rng.choice([2, 3, 4])
    pat = HPIOPattern(nprocs=4, region_size=rng.choice([8, 24]), region_count=rng.randrange(60, 200))
    realms = make_cyclic_realms(naggs, rng.choice([16, 100, 512]), anchor=rng.randrange(0, 64))
    rounds = rng.randrange(2, 6)
    step = -(-pat.file_extent // rounds)
    for kind in ("succinct", "enumerated"):
        for rank in range(pat.nprocs):
            flat = pat.filetype(rank, kind).flatten()
            for realm in realms:
                def run(flat=flat, rank=rank, realm=realm) -> None:
                    cur = FlatCursor(flat, pat.file_disp(rank), pat.bytes_per_client)
                    for r in range(rounds):
                        dom = realm.domain(r * step, (r + 1) * step)
                        d.array(dom.starts)
                        d.array(dom.ends)
                        for lo, hi in zip(dom.starts.tolist(), dom.ends.tolist()):
                            d.batch(cur.intersect(lo, hi))

                d.attempt(run)
    return d.hex()


# -- data stream -> memory segments ---------------------------------------------
def _memtypes(rng: random.Random) -> Dict[str, FlatType]:
    n = rng.randrange(2, 9)
    displs = rng.sample(range(0, 40), n)  # unsorted, distinct
    return {
        "contig": contiguous(rng.randrange(8, 64), BYTE).flatten(),
        "hvector": hvector(rng.randrange(2, 40), rng.randrange(1, 70), 96, BYTE).flatten(),
        "nonmono": hindexed([rng.randrange(1, 4) for _ in range(n)], [8 * x for x in displs], INT).flatten(),
        "reversed": hindexed([1] * n, [16 * (n - i) for i in range(n)], contiguous(12, BYTE)).flatten(),
        "overlap": vector(rng.randrange(2, 6), 3, 2, INT).flatten(),
        "two_level": resized(
            hindexed([1] * 5, [64 * i for i in range(5)], contiguous(32, BYTE)), 0, 1000
        ).flatten(),
    }


def _cell_d2f(seed: int) -> str:
    rng = random.Random(f"d2f/{seed}")
    d = Digest()
    for name, flat in _memtypes(rng).items():
        stream = flat.size * rng.randrange(1, 12)
        for _ in range(12):
            lo = rng.randrange(0, stream)
            hi = rng.randrange(lo, stream + flat.size)
            total = rng.choice([None, None, stream, rng.randrange(0, stream + 1)])
            disp = rng.choice([0, 0, rng.randrange(0, 1000)])
            d.attempt(
                lambda: d.batch(data_to_file_segments(flat, disp, lo, hi, total_bytes=total))
            )
    return d.hex()


# -- batches for the byte movers ------------------------------------------------------
def _batches(rng: random.Random) -> Dict[str, SegmentBatch]:
    """Memory-side batches of every shape the copy paths distinguish."""
    out: Dict[str, SegmentBatch] = {}
    for name, flat in _memtypes(rng).items():
        stream = flat.size * rng.randrange(2, 10)
        lo = rng.randrange(0, stream // 2)
        out[name] = data_to_file_segments(flat, 0, lo, rng.randrange(lo + 1, stream + 1))
    reg = data_to_file_segments(hvector(300, 64, 192, BYTE).flatten(), 0, 0, 300 * 64)
    out["regular"] = reg
    out["ragged"] = data_to_file_segments(hvector(300, 64, 192, BYTE).flatten(), 0, 37, 300 * 64 - 11)
    out["single"] = data_to_file_segments(contiguous(100, BYTE).flatten(), 0, 3, 90)
    out["big"] = data_to_file_segments(hvector(6, 700, 1024, BYTE).flatten(), 0, 5, 4000)
    perm = list(range(reg.num_segments))
    rng.shuffle(perm)
    out["shuffled"] = SegmentBatch(reg.file_offsets[perm], reg.lengths[perm], reg.data_offsets[perm])
    # Irregular, with zero-length segments and gaps in the data stream.
    n = rng.randrange(5, 60)
    fo, ln, do, fpos, dpos = [], [], [], 0, 0
    for _ in range(n):
        length = rng.choice([0, 1, 2, 7, 33, rng.randrange(0, 90)])
        fpos += rng.choice([0, 0, 1, 5, 40])
        dpos += rng.choice([0, 0, 0, 3])
        fo.append(fpos)
        ln.append(length)
        do.append(dpos)
        fpos += length
        dpos += length
    i64 = lambda xs: np.array(xs, dtype=np.int64)  # noqa: E731
    out["irregular"] = SegmentBatch(i64(fo), i64(ln), i64(do))
    return out


def _extent(batch: SegmentBatch) -> int:
    if batch.empty:
        return 0
    return int((batch.file_offsets + batch.lengths).max())


def _cell_pack(seed: int) -> str:
    rng = random.Random(f"pack/{seed}")
    d = Digest()
    for name, batch in _batches(rng).items():
        d.value(name)
        buf = _bytes(rng, _extent(batch) + rng.randrange(0, 9))
        d.array(gather_segments(buf, batch))
        dest = _bytes(rng, buf.size)
        scatter_segments(dest, batch, _bytes(rng, batch.total_bytes))
        d.array(dest)
    return d.hex()


# -- the strided I/O methods --------------------------------------------------------
def _file_batches(rng: random.Random) -> Dict[str, SegmentBatch]:
    """File-side batches the way a flush sees them: ``data_offsets``
    index a collective buffer laid out in file order."""
    out: Dict[str, SegmentBatch] = {}
    pat = HPIOPattern(nprocs=4, region_size=rng.choice([8, 64]), region_count=rng.randrange(30, 120))
    out["hpio"] = FlatCursor(pat.filetype(1).flatten(), pat.file_disp(1), pat.bytes_per_client).all_segments()
    ts = TimeSeriesPattern(nprocs=16, points=rng.randrange(5, 20), timesteps=4)
    flat = ts.filetype(2, 1).flatten()
    out["timeseries"] = FlatCursor(flat, 0, flat.size * ts.points).all_segments()
    dense = out["hpio"]
    out["dense"] = SegmentBatch(  # adjacent segments: nothing to pre-read
        np.arange(dense.num_segments, dtype=np.int64) * pat.region_size + 13,
        dense.lengths.copy(),
        dense.data_offsets.copy(),
    )
    for name, batch in _batches(rng).items():
        if name in ("irregular", "shuffled", "ragged", "big"):
            out[f"mem-{name}"] = batch
    return out


def _cell_io(seed: int) -> str:
    rng = random.Random(f"io/{seed}")
    d = Digest()
    cost = CostModel(page_size=64, stripe_size=256, num_osts=2)
    for name, batch in _file_batches(rng).items():
        size = _extent(batch) + rng.randrange(0, 100)
        image = _bytes(rng, size)
        data = _bytes(rng, int((batch.data_offsets + batch.lengths).max()) + rng.randrange(0, 5))
        window = rng.choice([64, 1000, 1 << 16])
        for method in ("datasieve", "listio", "naive"):
            fs = SimFileSystem(cost)
            fs.raw_write(PATH, 0, image)
            mode = rng.choice(["off", "coherent"])

            def main(ctx):
                local = FSClient(fs, ctx).open(PATH, cache_mode=mode)
                if method == "datasieve":
                    datasieve_write(local, batch, data, buffer_size=window)
                    got = datasieve_read(local, batch, buffer_size=window)
                elif method == "listio":
                    listio_write(local, batch, data)
                    got = listio_read(local, batch)
                else:
                    naive_write(local, batch, data)
                    got = naive_read(local, batch)
                local.close()
                return got, ctx.now

            got, now = Simulator(1).run(main)[0]
            d.value(name, method, now)
            d.array(got)
            d.array(fs.raw_bytes(PATH, 0, fs.file_size(PATH)))
    return d.hex()


# -- the cell table -------------------------------------------------------------------
def cells() -> Dict[str, Callable[[], str]]:
    table: Dict[str, Callable[[], str]] = {"spine-types": _cell_spine_types}
    for seed in SEEDS:
        for ctor in CTORS:
            for child in ("byte", "int", "contig", "gapped", "padded", "nonmono", "empty"):
                table[f"flat/{ctor}/{child}/{seed}"] = (
                    lambda c=ctor, k=child, s=seed: _cell_ctor(c, k, s)
                )
        table[f"flat/struct/{seed}"] = lambda s=seed: _cell_struct(s)
        for kind in ("succinct", "enumerated", "timeseries", "random"):
            table[f"intersect/{kind}/{seed}"] = lambda k=kind, s=seed: _cell_intersect(k, s)
        table[f"cyclic-realms/{seed}"] = lambda s=seed: _cell_cyclic_realms(s)
        table[f"data-to-file/{seed}"] = lambda s=seed: _cell_d2f(s)
        table[f"pack/{seed}"] = lambda s=seed: _cell_pack(s)
        table[f"io/{seed}"] = lambda s=seed: _cell_io(s)
    return table


def main() -> int:
    GOLDEN.parent.mkdir(exist_ok=True)
    recorded = {name: fn()[:32] for name, fn in cells().items()}
    GOLDEN.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cells -> {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
