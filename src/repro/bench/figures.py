"""Experiment definitions for every evaluation figure (§6).

Each ``figN_experiment`` returns the list of :class:`BenchResult` cells
and can be rendered with :func:`repro.bench.reporting.format_series`.
Three scales are available (``REPRO_BENCH_SCALE`` or the ``scale=``
argument):

* ``quick``   — a handful of cells, seconds; CI smoke.
* ``standard``— the default: every axis of the paper's figures with a
  reduced grid and scaled-down data volumes (the simulator moves real
  bytes, so paper-size runs take long wall-clock times).
* ``full``    — the paper's full grid (minutes of wall time).

Scaling notes (also in EXPERIMENTS.md): region *counts* and time-step
counts are reduced relative to the paper; region sizes, spacings,
extents, stripe/page geometry, and aggregator ratios are the paper's.
The cost model is calibrated so absolute MB/s lands in the paper's
range; the claims being reproduced are orderings and crossovers.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.bench.harness import BenchResult, run_hpio_write, run_timeseries
from repro.config import CostModel, DEFAULT_COST_MODEL
from repro.errors import ReproError
from repro.hpio.patterns import HPIOPattern
from repro.hpio.timeseries import TimeSeriesPattern
from repro.mpi import Hints

__all__ = [
    "bench_scale",
    "fig4_experiment",
    "fig5_experiment",
    "fig7_experiment",
    "ablation_heap",
    "ablation_exchange",
    "ablation_cb_size",
    "ablation_balanced_realms",
]

_SCALES = ("quick", "standard", "full")


def bench_scale(default: str = "standard") -> str:
    """Resolve the benchmark scale from REPRO_BENCH_SCALE."""
    scale = os.environ.get("REPRO_BENCH_SCALE", default).strip().lower()
    if scale not in _SCALES:
        raise ReproError(f"REPRO_BENCH_SCALE must be one of {_SCALES}, got {scale!r}")
    return scale


# ---------------------------------------------------------------------------
# Figure 4 — HPIO, 64 procs, noncontig memory & file; new+struct vs
# new+vect vs old+vect across aggregator counts and region sizes.
# ---------------------------------------------------------------------------

_FIG4_GRID = {
    "quick": dict(nprocs=16, counts=128, regions=[8, 512], aggs=[8]),
    "standard": dict(nprocs=64, counts=512, regions=[8, 64, 512, 4096], aggs=[8, 32]),
    "full": dict(
        nprocs=64,
        counts=1024,
        regions=[8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096],
        aggs=[8, 16, 24, 32],
    ),
}

_FIG4_METHODS = [
    ("new+struct", "new", "succinct"),
    ("new+vect", "new", "enumerated"),
    ("old+vect", "old", "succinct"),
]


def fig4_experiment(
    scale: Optional[str] = None, cost: CostModel = DEFAULT_COST_MODEL
) -> List[BenchResult]:
    """Reproduce Figure 4 (one BenchResult per plotted point)."""
    grid = _FIG4_GRID[scale or bench_scale()]
    results: List[BenchResult] = []
    for aggs in grid["aggs"]:
        for region in grid["regions"]:
            pattern = HPIOPattern(
                nprocs=grid["nprocs"],
                region_size=region,
                region_count=grid["counts"],
                region_spacing=128,
                mem_contig=False,
                file_contig=False,
            )
            for label, impl, rep in _FIG4_METHODS:
                r = run_hpio_write(
                    pattern,
                    impl=impl,
                    representation=rep,
                    hints=Hints(cb_nodes=aggs),
                    cost=cost,
                    label=f"fig4 {label} aggs={aggs} region={region}",
                )
                r.params.update({"method": label, "aggs": aggs, "region": region})
                results.append(r)
    return results


# ---------------------------------------------------------------------------
# Figure 5 — conditional data sieving: datasieve vs naive per flush,
# across filetype extents and useful-data fractions.
# ---------------------------------------------------------------------------

_FIG5_GRID = {
    "quick": dict(nprocs=8, aggs=4, file_mb=16, extents=[1024, 65536], fracs=[0.19, 0.97]),
    "standard": dict(
        nprocs=16,
        aggs=8,
        file_mb=64,
        extents=[1024, 8192, 16384, 65536],
        fracs=[0.03, 0.19, 0.50, 0.81, 0.97, 1.0],
    ),
    "full": dict(
        nprocs=16,
        aggs=8,
        file_mb=256,
        extents=[1024, 8192, 16384, 65536],
        fracs=[0.03, 0.19, 0.34, 0.50, 0.66, 0.81, 0.97, 1.0],
    ),
}


def fig5_experiment(
    scale: Optional[str] = None, cost: CostModel = DEFAULT_COST_MODEL
) -> List[BenchResult]:
    """Reproduce Figure 5: hold the filetype extent fixed per panel,
    sweep the useful-data fraction, compare the two flush methods."""
    grid = _FIG5_GRID[scale or bench_scale()]
    nprocs = grid["nprocs"]
    file_bytes = grid["file_mb"] << 20
    results: List[BenchResult] = []
    for extent in grid["extents"]:
        slots = file_bytes // extent
        count = max(slots // nprocs, 1)
        for frac in grid["fracs"]:
            if frac >= 1.0:
                region = extent  # the contiguous 100% point
            else:
                region = max((int(extent * frac) // 32) * 32, 32)
            pattern = HPIOPattern(
                nprocs=nprocs,
                region_size=region,
                region_count=count,
                region_spacing=extent - region,
                mem_contig=True,
                file_contig=False,
            )
            for method in ("datasieve", "naive"):
                r = run_hpio_write(
                    pattern,
                    impl="new",
                    representation="succinct",
                    hints=Hints(cb_nodes=grid["aggs"], io_method=method),
                    cost=cost,
                    label=f"fig5 {method} extent={extent} region={region}",
                )
                r.params.update(
                    {
                        "method": method,
                        "extent": extent,
                        "region": region,
                        "frac": round(region / extent, 3),
                    }
                )
                results.append(r)
    return results


# ---------------------------------------------------------------------------
# Figure 7 — PFR x file-realm alignment over client counts, incoherent
# write-back caches, time-series workload, half the clients aggregate.
# ---------------------------------------------------------------------------

_FIG7_GRID = {
    "quick": dict(clients=[8, 16], points=512, timesteps=4),
    "standard": dict(clients=[16, 32, 48, 64], points=2048, timesteps=8),
    "full": dict(clients=[16, 32, 48, 64], points=2048, timesteps=32),
}

_FIG7_CONFIGS = [
    ("pfr/fr-align", True, True),
    ("pfr/no-fr-align", True, False),
    ("no-pfr/fr-align", False, True),
    ("no-pfr/no-fr-align", False, False),
]


def fig7_experiment(
    scale: Optional[str] = None, cost: CostModel = DEFAULT_COST_MODEL
) -> List[BenchResult]:
    """Reproduce Figure 7 (paper element/point geometry; step count is
    scale-reduced)."""
    grid = _FIG7_GRID[scale or bench_scale()]
    results: List[BenchResult] = []
    for clients in grid["clients"]:
        ts = TimeSeriesPattern(
            nprocs=clients,
            element_size=32,
            elems_per_point=100,
            points=grid["points"],
            timesteps=grid["timesteps"],
        )
        for label, pfr, align in _FIG7_CONFIGS:
            hints = Hints(
                cb_nodes=max(clients // 2, 1),
                cache_mode="incoherent",
                persistent_file_realms=pfr,
                realm_alignment=cost.stripe_size if align else 0,
                cache_pages=4096,
                io_method="datasieve",
            )
            r = run_timeseries(
                ts,
                hints=hints,
                cost=cost,
                lock_granularity=cost.stripe_size,
                label=f"fig7 {label} clients={clients}",
                verify=False,  # verified separately in the test suite
            )
            r.params.update({"config": label, "clients": clients})
            results.append(r)
    return results


# ---------------------------------------------------------------------------
# Ablations — design choices DESIGN.md calls out.
# ---------------------------------------------------------------------------

def _ablation_pattern(nprocs: int = 16) -> HPIOPattern:
    return HPIOPattern(
        nprocs=nprocs, region_size=64, region_count=512, region_spacing=128
    )


def ablation_heap(cost: CostModel = DEFAULT_COST_MODEL) -> List[BenchResult]:
    """Binary-heap progress tracking vs per-round rescans (§5.3)."""
    # A small collective buffer forces many rounds; without the heap's
    # per-aggregator progress tracking the client rescans its access
    # from the start every round.
    pattern = HPIOPattern(
        nprocs=16, region_size=64, region_count=2048, region_spacing=128
    )
    out = []
    for use_heap in (True, False):
        r = run_hpio_write(
            pattern,
            impl="new",
            representation="enumerated",  # no tile skipping to hide rescans
            hints=Hints(cb_nodes=8, use_heap=use_heap, cb_buffer_size=64 * 1024),
            cost=cost,
            label=f"heap={use_heap}",
        )
        r.params.update({"use_heap": use_heap})
        out.append(r)
    return out


def ablation_exchange(cost: CostModel = DEFAULT_COST_MODEL) -> List[BenchResult]:
    """MPI_Alltoallw vs nonblocking vs two_layer data exchange (§5.4).

    Run on two networks: a commodity one (collective messages cost the
    same as point-to-point) and a BG/L-style one whose interconnect is
    specialized for collectives (``net_collective_factor`` 0.25).  The
    paper's argument is exactly that the alltoallw path pays off on the
    latter.  The two_layer rows run on the same networks but with an
    8-ranks-per-node topology armed, which is where intra-node
    aggregation has something to aggregate."""
    pattern = _ablation_pattern()
    out = []
    for net_label, factor in (("commodity", 1.0), ("collective-net", 0.25)):
        net_cost = cost.replace(net_collective_factor=factor)
        for mode in ("alltoallw", "nonblocking", "two_layer"):
            run_cost = (
                net_cost.replace(procs_per_node=8)
                if mode == "two_layer"
                else net_cost
            )
            r = run_hpio_write(
                pattern,
                impl="new",
                representation="succinct",
                hints=Hints(cb_nodes=8, exchange=mode),
                cost=run_cost,
                label=f"exchange={mode} net={net_label}",
            )
            r.params.update({"exchange": mode, "network": net_label})
            out.append(r)
    return out


def ablation_cb_size(cost: CostModel = DEFAULT_COST_MODEL) -> List[BenchResult]:
    """Collective-buffer-size sweep (ROMIO's most-tuned knob).

    Small buffers multiply the round count (per-round exchange and
    flush overheads dominate); past the point where one round covers an
    aggregator's realm, growing the buffer changes nothing.  The
    "flexible tuning" the paper's §4 promises is exactly making knobs
    like this cheap to explore."""
    pattern = HPIOPattern(
        nprocs=16, region_size=256, region_count=512, region_spacing=128
    )
    out = []
    for cb in (16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20):
        r = run_hpio_write(
            pattern,
            impl="new",
            representation="succinct",
            hints=Hints(cb_nodes=8, cb_buffer_size=cb),
            cost=cost,
            label=f"cb={cb >> 10}KB",
        )
        r.params.update({"cb_kb": cb >> 10, "rounds": r.metrics.value("coll.rounds", 0)})
        out.append(r)
    return out


def ablation_balanced_realms(cost: CostModel = DEFAULT_COST_MODEL) -> List[BenchResult]:
    """Even vs load-balanced realms on a skewed access (§5.2/§7).

    Half the ranks write a dense 16 MB block at the front of the file,
    half write a single tiny region 1 GB away: the aggregate access
    region spans the whole gigabyte, so the even partition hands all the
    dense data to one aggregator while three sit idle."""
    nprocs = 8
    region = 64 << 10
    count = 64
    far = 1 << 30
    out = []
    for strategy in ("even", "balanced"):
        hints = Hints(cb_nodes=4, realm_strategy=strategy, cache_mode="off")

        def body(ctx, comm, f):
            import numpy as np
            from repro.datatypes import BYTE, contiguous, resized

            rank = comm.rank
            if rank < nprocs // 2:
                # Dense interleaved block at the front.
                f.set_view(
                    disp=rank * region,
                    filetype=resized(contiguous(region, BYTE), 0, region * (nprocs // 2)),
                )
                buf = np.full(region * count, rank + 1, dtype=np.uint8)
            else:
                # One small region far away (sparse cluster).
                f.set_view(disp=far + rank * 4096, filetype=contiguous(4096, BYTE))
                buf = np.full(4096, rank + 1, dtype=np.uint8)
            f.write_all(buf)
            return buf.size

        from repro.bench.harness import run_collective

        r, _ = run_collective(
            nprocs,
            body,
            hints=hints,
            cost=cost,
            label=f"realms={strategy}",
            params={"strategy": strategy},
        )
        out.append(r)
    return out
