"""The experiment table: every evaluation of the reproduction, once.

An experiment is *cells + the comparisons that must hold*: a name, its
axes (ordered name -> values), one cell function ``axes -> row`` and its
named checks ``rows -> None``.  ``benchmarks/run.py`` runs them, prints
them, and holds the committed ``BENCH.json`` to them exactly; this
module only says what they are.  Sizes are the ones every recorded
number comes from (the paper's full axes are in DESIGN.md's evaluation
table; a subset run is ``run.py fig4``).

A row has one shape in every experiment::

    {"cell": {axis: value, ...},      # filled in by the runner
     "sim_makespan_s": float | None,  # virtual seconds (None: the run has none)
     "total_bytes": int,
     "verified": bool | None,         # None: not checked in this run
     "counts": {registry label: number},
     "extra": {name: value}}

``counts`` holds registry reads under the registry's own labels
(docs/observability.md): a bare dotted name is ``registry.total(name)``,
``name[key]`` is ``registry.value(name, key)``.  ``extra`` holds the few
values no registry has; each name is chosen here and used nowhere else:

* ``tp_plan_s`` / ``tp_route_s`` / ``tp_exchange_s`` / ``tp_io_s`` —
  ``time_by_state`` seconds of a traced run (the MPE-style decomposition);
* ``first_step_pairs`` — offset/length pairs evaluated by the first
  collective call of a loop (``plan_cache``);
* ``requests`` / ``p99_call_s`` / ``mean_call_s`` — a tenant's
  per-request latency list: its length, 99th percentile and mean;
* ``crashed`` — the ranks the engine recorded as dead (``crash_recovery``);
* ``completed`` — False when an ``ost_faults`` run died with a *typed*
  storage error (bounded, but there is no makespan to report).

Anything that is a pure function of stored rows (MB/s, steady-state
pairs, scratch bytes, the fairness spreads) is computed by the checks
and the printer, never stored.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import BYTE, Session, contiguous, resized
from repro.bench.chaos import ChaosHarness
from repro.bench.harness import run_collective, run_hpio_read, run_hpio_write, run_timeseries
from repro.bench.reporting import format_series, format_table
from repro.config import DEFAULT_COST_MODEL, CostModel
from repro.faults import FaultPlan
from repro.hpio.patterns import HPIOPattern
from repro.hpio.timeseries import TimeSeriesPattern
from repro.hpio.verify import apply_view, smoke_pattern, write_pattern
from repro.mpi import Hints
from repro.tenancy import Cluster

Row = Dict[str, object]
Rows = List[Row]


# ---------------------------------------------------------------------------
# Rows, the derived values checks and printers share, and the printers.
# ---------------------------------------------------------------------------

def _read(registry, label: str):
    name, _, key = label.partition("[")
    if not key:
        value = registry.total(name)
    else:
        key = key[:-1]
        value = registry.value(name, int(key) if key.isdigit() else key)
    return value.item() if isinstance(value, np.generic) else value


def _row(sim_makespan_s, total_bytes, verified, registry=None, counts=(), **extra) -> Row:
    return {
        "sim_makespan_s": sim_makespan_s,
        "total_bytes": int(total_bytes),
        "verified": verified,
        "counts": {label: _read(registry, label) for label in counts},
        "extra": extra,
    }


def _from_result(r, counts=(), **extra) -> Row:
    """The row of a :class:`~repro.bench.harness.BenchResult`."""
    return _row(r.sim_seconds, r.total_bytes, r.verified, r.metrics, counts, **extra)


def mbs(row: Row) -> Optional[float]:
    """Simulated bandwidth, MB/s (``BenchResult.bandwidth_mbs``)."""
    if row["sim_makespan_s"] is None:
        return None
    return row["total_bytes"] / (1024.0 * 1024.0) / row["sim_makespan_s"]


def by(rows: Rows, *axes: str) -> Dict[object, Row]:
    """Rows keyed by the named axis values (a bare value for one axis)."""
    if len(axes) == 1:
        return {row["cell"][axes[0]]: row for row in rows}
    return {tuple(row["cell"][a] for a in axes): row for row in rows}


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else 1e3 * seconds


def show_table(title: str, rows: Rows) -> str:
    """The default printer: per row the axis values, MB/s, the makespan
    and every stored count and extra — seconds printed as milliseconds."""
    lines = []
    for row in rows:
        line = {**row["cell"], "MB/s": mbs(row), "sim ms": _ms(row["sim_makespan_s"])}
        for name, value in {**row["counts"], **row["extra"]}.items():
            for suffix in ("_s", "_seconds"):
                if name.endswith(suffix):
                    name, value = name[: -len(suffix)] + " ms", _ms(value)
            line[name] = value
        lines.append(line)
    return format_table(title, lines)


def _series(x, series: str, x_label: str, panel: Optional[str] = None):
    """Printer for a figure: one ``format_series`` table of MB/s per
    ``panel`` value; ``x`` is an axis name or a function of the cell."""
    x_of = x if callable(x) else (lambda cell: cell[x])

    def show(title: str, rows: Rows) -> str:
        panels: Dict[object, Dict[object, Dict[object, float]]] = {}
        for row in rows:
            cell = row["cell"]
            grid = panels.setdefault(cell.get(panel), {})
            grid.setdefault(cell[series], {})[x_of(cell)] = mbs(row)
        return "\n\n".join(
            format_series(title.format(panel=p), grid, x_label=x_label)
            for p, grid in panels.items()
        )

    return show


@dataclass(frozen=True)
class Experiment:
    name: str
    title: str
    axes: Dict[str, Sequence]
    #: ``cell(**axis values)`` -> one row, or one per :attr:`fanout` entry.
    cell: Callable
    checks: Tuple[Callable[[Rows], None], ...]
    #: ``show(title, rows)`` -> the printed table(s).
    show: Callable[[str, Rows], str] = show_table
    #: Run once per experiment; its value reaches every cell as ``shared=``.
    setup: Optional[Callable[[], object]] = None
    #: ``fanout(**axis values)`` -> the extra cell keys of each row one
    #: cell yields (``multi_tenant``: one row per tenant).
    fanout: Optional[Callable] = None

    def cells(self) -> List[Tuple[Dict[str, object], List[Dict[str, object]]]]:
        """(axis values, the ``cell`` of every row they yield), in run order."""
        out = []
        for values in itertools.product(*self.axes.values()):
            point = dict(zip(self.axes, values))
            fans = self.fanout(**point) if self.fanout else [{}]
            out.append((point, [{**point, **fan} for fan in fans]))
        return out


# ---------------------------------------------------------------------------
# What most cells are: one verified HPIO collective write.
# ---------------------------------------------------------------------------

#: Figure 4's three curves: implementation x filetype representation.
_METHODS = {
    "new+struct": ("new", "succinct"),
    "new+vect": ("new", "enumerated"),
    "old+vect": ("old", "succinct"),
}


def _write(
    pattern: HPIOPattern,
    hints: Hints,
    method: str = "new+struct",
    cost: CostModel = DEFAULT_COST_MODEL,
    counts: Sequence[str] = (),
    tp: Sequence[str] = (),
) -> Row:
    """``tp`` names the ``time_by_state`` phases to keep as ``tp_<phase>_s``
    (the run is traced when there are any)."""
    impl, rep = _METHODS[method]
    r = run_hpio_write(
        pattern, impl=impl, representation=rep, hints=hints, cost=cost, trace=bool(tp)
    )
    times = r.counters.get("time_by_state", {})
    return _from_result(
        r, counts, **{f"tp_{p}_s": float(times.get(f"tp:{p}", 0.0)) for p in tp}
    )


def all_cells_verified(rows: Rows) -> None:
    for row in rows:
        assert row["verified"], row["cell"]


# ---------------------------------------------------------------------------
# Figure 4 — HPIO, 64 procs, noncontig memory & file; new+struct vs
# new+vect vs old+vect across aggregator counts and region sizes.
#
# Paper shape: the old implementation is the fastest or tied nearly
# everywhere; new+struct is comparable in about half the cases; new+vect
# is consistently the slowest (the O(M·A) datatype processing cost);
# differences shrink as the region grows (I/O time dominates).
# ---------------------------------------------------------------------------

def _fig4_cell(aggs: int, region: int, method: str) -> Row:
    pattern = HPIOPattern(
        nprocs=64,
        region_size=region,
        region_count=512,
        region_spacing=128,
        mem_contig=False,
        file_contig=False,
    )
    return _write(pattern, Hints(cb_nodes=aggs), method)


def fig4_old_fastest_on_average(rows: Rows) -> None:
    """The paper's headline: the new code does not consistently match the
    old; averaged over the grid the old implementation wins."""
    rates: Dict[str, List[float]] = {}
    for row in rows:
        rates.setdefault(row["cell"]["method"], []).append(mbs(row))
    avg = {m: sum(v) / len(v) for m, v in rates.items()}
    assert avg["old+vect"] >= avg["new+struct"] * 0.98, avg
    assert avg["new+struct"] > avg["new+vect"], avg


def struct_beats_vect_everywhere(rows: Rows) -> None:
    """Succinct datatypes beat enumerated ones cell by cell (tile
    skipping plus smaller metadata) — for reads too: the
    datatype-processing trade is direction-independent."""
    cells = by(rows, *(a for a in rows[0]["cell"] if a != "method"), "method")
    for key in cells:
        if key[-1] == "new+struct":
            assert mbs(cells[key]) >= mbs(cells[(*key[:-1], "new+vect")]), key


# ---------------------------------------------------------------------------
# Figure 5 — conditional data sieving: datasieve vs naive per flush,
# across filetype extents and useful-data fractions (file size fixed).
#
# Paper shape: at small extents (1 KB, 8 KB) sieving wins — the window
# pre-read drags in few gap bytes; at 64 KB naive wins — sieving reads
# and rewrites mostly gaps; the crossover sits around 16 KB (what
# ``ds_threshold_extent`` encodes); both jump at 100% (contiguous).
# ---------------------------------------------------------------------------

def _fig5_region(extent: int, frac: float) -> int:
    if frac >= 1.0:
        return extent  # the contiguous 100% point
    return max((int(extent * frac) // 32) * 32, 32)


def _fig5_pattern(nprocs: int, file_bytes: int, extent: int, frac: float) -> HPIOPattern:
    """``file_bytes`` of ``extent``-byte slots, ``frac`` of each written."""
    region = _fig5_region(extent, frac)
    return HPIOPattern(
        nprocs=nprocs,
        region_size=region,
        region_count=max(file_bytes // extent // nprocs, 1),
        region_spacing=extent - region,
        mem_contig=True,
        file_contig=False,
    )


def _fig5_cell(extent_kb: int, frac: float, method: str) -> Row:
    pattern = _fig5_pattern(16, 64 << 20, extent_kb << 10, frac)
    return _write(pattern, Hints(cb_nodes=8, io_method=method))


def fig5_small_extent_sieve_wins(rows: Rows) -> None:
    """At a 1 KB extent data sieving wins at every sampled fraction."""
    cells = by(rows, "extent_kb", "frac", "method")
    for extent_kb, frac, method in cells:
        if extent_kb == 1 and frac < 1.0 and method == "datasieve":
            assert mbs(cells[(1, frac, method)]) > mbs(cells[(1, frac, "naive")]), frac


def fig5_large_extent_naive_wins(rows: Rows) -> None:
    """At a 64 KB extent naive I/O wins on most of the sweep (the paper's
    crossover is below this extent)."""
    cells = by(rows, "extent_kb", "frac", "method")
    fracs = sorted({f for e, f, _ in cells if e == 64 and f < 1.0})
    wins = sum(mbs(cells[(64, f, "naive")]) > mbs(cells[(64, f, "datasieve")]) for f in fracs)
    assert fracs
    assert wins >= (len(fracs) + 1) // 2, f"naive won only {wins}/{len(fracs)} cells at 64 KB"


def fig5_conditional_tracks_the_winner(rows: Rows) -> None:
    """The conditional hint's threshold (16 KB) picks the right method at
    the extremes of the sweep."""
    from repro.datatypes.segments import SegmentBatch
    from repro.io.selection import choose_method

    hints = Hints(io_method="conditional")
    fake = SegmentBatch(np.array([0, 10]), np.array([4, 4]), np.array([0, 4]))
    assert choose_method(hints, 1024, fake) == "datasieve"
    assert choose_method(hints, 65536, fake) == "naive"


# ---------------------------------------------------------------------------
# Figure 7 — PFR x file-realm alignment over client counts, incoherent
# write-back caches, time-series workload, half the clients aggregate,
# 2 MB stripes (paper element/point geometry; 8 of the 32 time steps).
#
# Paper shape: pfr/fr-align is the clear winner at every client count
# (realms never move, boundaries sit on stripe boundaries: the lock
# manager goes quiet); exactly one of the two can be *worse* than
# neither; without PFRs every call flushes and invalidates, so the
# nominal bandwidths are low, as the paper notes.
# ---------------------------------------------------------------------------

_FIG7_CONFIGS = {
    "pfr/fr-align": (True, True),
    "pfr/no-fr-align": (True, False),
    "no-pfr/fr-align": (False, True),
    "no-pfr/no-fr-align": (False, False),
}


def _fig7_cell(clients: int, config: str) -> Row:
    pfr, align = _FIG7_CONFIGS[config]
    stripe = DEFAULT_COST_MODEL.stripe_size
    ts = TimeSeriesPattern(
        nprocs=clients, element_size=32, elems_per_point=100, points=2048, timesteps=8
    )
    hints = Hints(
        cb_nodes=clients // 2,
        cache_mode="incoherent",
        persistent_file_realms=pfr,
        realm_alignment=stripe if align else 0,
        cache_pages=4096,
        io_method="datasieve",
    )
    # verify=False: verified separately in the test suite.
    return _from_result(run_timeseries(ts, hints=hints, lock_granularity=stripe, verify=False))


def fig7_pfr_align_is_best(rows: Rows) -> None:
    """pfr/fr-align wins at every client count (the paper's one
    unambiguous conclusion), and by a real margin over the no-PFR
    configurations on average."""
    cells = by(rows, "clients", "config")
    clients = sorted({c for c, _ in cells})
    for c in clients:
        best = max(mbs(cells[(c, config)]) for config in _FIG7_CONFIGS)
        assert mbs(cells[(c, "pfr/fr-align")]) >= best * 0.99, c
    ratios = [
        mbs(cells[(c, "pfr/fr-align")]) / mbs(cells[(c, "no-pfr/no-fr-align")]) for c in clients
    ]
    assert sum(ratios) / len(ratios) > 1.5, ratios


def fig7_misaligned_pfr_pays_for_lock_traffic(rows: Rows) -> None:
    """Misaligned persistent realms leave the lock manager engaged: they
    must lose to aligned persistent realms."""
    cells = by(rows, "clients", "config")
    for c in sorted({c for c, _ in cells}):
        assert mbs(cells[(c, "pfr/fr-align")]) >= mbs(cells[(c, "pfr/no-fr-align")]) * 0.99, c


# ---------------------------------------------------------------------------
# Ablations — the §5 design decisions in isolation (not paper figures).
# ---------------------------------------------------------------------------

def _heap_cell(use_heap: bool) -> Row:
    """Binary-heap progress tracking vs per-round rescans (§5.3)."""
    # A small collective buffer forces many rounds; without the heap's
    # per-aggregator progress tracking the client rescans its access
    # from the start every round.
    return _write(
        HPIOPattern(nprocs=16, region_size=64, region_count=2048, region_spacing=128),
        Hints(cb_nodes=8, use_heap=use_heap, cb_buffer_size=64 * 1024),
        "new+vect",  # enumerated: no tile skipping to hide rescans
        counts=("coll.client.pairs",),
    )


def heap_never_slower_and_fewer_pairs(rows: Rows) -> None:
    """Without progress tracking, clients rescan their access every
    round: strictly more pair evaluations, never faster."""
    cells = by(rows, "use_heap")
    assert (
        cells[False]["counts"]["coll.client.pairs"] >= cells[True]["counts"]["coll.client.pairs"]
    )
    assert mbs(cells[True]) >= mbs(cells[False]) * 0.999


def _exchange_cell(network: str, exchange: str) -> Row:
    """MPI_Alltoallw vs nonblocking vs two_layer data exchange (§5.4).

    Two networks: a commodity one (collective messages cost the same as
    point-to-point) and a BG/L-style one whose interconnect is
    specialized for collectives (``net_collective_factor`` 0.25) — the
    paper's argument is exactly that alltoallw pays off on the latter.
    The two_layer rows arm an 8-ranks-per-node topology, which is where
    intra-node aggregation has something to aggregate."""
    cost = DEFAULT_COST_MODEL.replace(
        net_collective_factor={"commodity": 1.0, "collective-net": 0.25}[network]
    )
    if exchange == "two_layer":
        cost = cost.replace(procs_per_node=8)
    return _write(
        HPIOPattern(nprocs=16, region_size=64, region_count=512, region_spacing=128),
        Hints(cb_nodes=8, exchange=exchange),
        cost=cost,
    )


def exchange_close_on_commodity_alltoallw_ahead_on_collective_net(rows: Rows) -> None:
    cells = by(rows, "network", "exchange")
    # On a commodity network the two backends are close: alltoallw saves
    # the pack/unpack copies but pays pairwise rounds with every peer.
    a2a, nb = mbs(cells[("commodity", "alltoallw")]), mbs(cells[("commodity", "nonblocking")])
    assert abs(a2a - nb) / nb < 0.10
    # On a collective-optimized network (the paper's BG/L argument) the
    # alltoallw exchange must come out ahead.
    assert mbs(cells[("collective-net", "alltoallw")]) > mbs(
        cells[("collective-net", "nonblocking")]
    )


def _cb_size_cell(cb_kb: int) -> Row:
    """Collective-buffer-size sweep (ROMIO's most-tuned knob).

    Small buffers multiply the round count (per-round exchange and
    flush overheads dominate); past the point where one round covers an
    aggregator's realm, growing the buffer changes nothing."""
    return _write(
        HPIOPattern(nprocs=16, region_size=256, region_count=512, region_spacing=128),
        Hints(cb_nodes=8, cb_buffer_size=cb_kb << 10),
        counts=("coll.rounds[0]",),
    )


def small_cb_multiplies_rounds_large_cb_is_free(rows: Rows) -> None:
    cells = by(rows, "cb_kb")
    # Small buffers multiply rounds and lose bandwidth.
    assert cells[16]["counts"]["coll.rounds[0]"] > cells[1024]["counts"]["coll.rounds[0]"]
    assert mbs(cells[16]) < mbs(cells[1024])
    # Past one-round coverage, growing the buffer is free but not harmful.
    assert math.isclose(mbs(cells[4096]), mbs(cells[1024]), rel_tol=0.02)


def _balanced_realms_cell(strategy: str) -> Row:
    """Even vs load-balanced realms on a skewed access (§5.2/§7).

    Half the ranks write a dense 16 MB block at the front of the file,
    half write a single tiny region 1 GB away: the aggregate access
    region spans the whole gigabyte, so the even partition hands all the
    dense data to one aggregator while three sit idle."""
    nprocs, region, count, far = 8, 64 << 10, 64, 1 << 30

    def body(ctx, comm, f):
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

    r, _ = run_collective(
        nprocs, body, hints=Hints(cb_nodes=4, realm_strategy=strategy, cache_mode="off")
    )
    return _from_result(r)


def balanced_realms_win_on_skew(rows: Rows) -> None:
    """On a skewed access the histogram-balanced realms must win."""
    cells = by(rows, "strategy")
    assert mbs(cells["balanced"]) > mbs(cells["even"])


# ---------------------------------------------------------------------------
# HPIO contiguity matrix (the cited benchmark's full methodology): the
# paper's Figure 4 shows only the noncontig/noncontig quadrant; all four
# exercise the fast paths §6.3 mentions, each with its MPE-style time
# decomposition.
# ---------------------------------------------------------------------------

def _hpio_matrix_cell(mem_contig: bool, file_contig: bool) -> Row:
    pattern = HPIOPattern(
        nprocs=16,
        region_size=256,
        region_count=256,
        region_spacing=128,
        mem_contig=mem_contig,
        file_contig=file_contig,
    )
    return _write(
        pattern,
        Hints(cb_nodes=8, io_method="conditional"),
        tp=("plan", "route", "exchange", "io"),
    )


def contig_file_faster_than_noncontig(rows: Rows) -> None:
    cells = by(rows, "mem_contig", "file_contig")
    assert mbs(cells[(True, True)]) > mbs(cells[(True, False)])
    assert mbs(cells[(False, True)]) > mbs(cells[(False, False)])


def memory_contiguity_secondary(rows: Rows) -> None:
    """File contiguity matters much more than memory contiguity — the
    HPIO paper's observation, visible here because memory gathering is
    CPU-cheap next to file-side gaps."""
    cells = by(rows, "mem_contig", "file_contig")
    file_gap = mbs(cells[(True, True)]) / mbs(cells[(True, False)])
    mem_gap = mbs(cells[(True, True)]) / mbs(cells[(False, True)])
    assert file_gap > mem_gap


# ---------------------------------------------------------------------------
# Collective READ path (extension beyond the paper's plots): the read
# paths mirror the write paths (aggregators sieve-read their realms, then
# distribute), so the same method ordering must hold.
# ---------------------------------------------------------------------------

def _read_path_cell(region: int, method: str) -> Row:
    impl, rep = _METHODS[method]
    pattern = HPIOPattern(nprocs=16, region_size=region, region_count=256, region_spacing=128)
    return _from_result(
        run_hpio_read(pattern, impl=impl, representation=rep, hints=Hints(cb_nodes=8))
    )


# ---------------------------------------------------------------------------
# Cost-model sensitivity: the reproduction's claims should not hinge on
# one lucky parameter choice.  Vary the calibrated constants and check
# that the paper's orderings and crossovers are stable.
# ---------------------------------------------------------------------------

_CALL_COST_SCALE = {"half": 0.5, "default": 1.0, "double": 2.0}


def _crossover_cell(costs: str, extent: int, method: str) -> Row:
    scale = _CALL_COST_SCALE[costs]
    cost = DEFAULT_COST_MODEL.replace(
        io_call_overhead=DEFAULT_COST_MODEL.io_call_overhead * scale,
        ost_op_latency=DEFAULT_COST_MODEL.ost_op_latency * scale,
    )
    pattern = _fig5_pattern(8, 8 << 20, extent, 0.5)
    return _write(pattern, Hints(cb_nodes=4, io_method=method), cost=cost)


def crossover_tracks_call_overhead(rows: Rows) -> None:
    """Doubling the per-call overheads pushes the sieve/naive crossover
    to larger extents; halving them pulls it down — but the crossover
    exists for all three cost models."""
    cells = by(rows, "costs", "extent", "method")
    first_naive_win = {}
    for costs in _CALL_COST_SCALE:
        wins = [
            e
            for c, e, m in cells
            if (c, m) == (costs, "naive") and mbs(cells[(c, e, m)]) > mbs(cells[(c, e, "datasieve")])
        ]
        assert wins, costs
        first_naive_win[costs] = min(wins)
    assert (
        first_naive_win["half"] <= first_naive_win["default"] <= first_naive_win["double"]
    ), first_naive_win


_CPU_SCALE = {"cpu/4": 0.25, "default": 1.0, "cpu*4": 4.0}


def _cpu_scale_cell(cpu: str, method: str) -> Row:
    scale = _CPU_SCALE[cpu]
    cost = DEFAULT_COST_MODEL.replace(
        cpu_per_flat_pair=DEFAULT_COST_MODEL.cpu_per_flat_pair * scale,
        cpu_tile_skip=DEFAULT_COST_MODEL.cpu_tile_skip * scale,
    )
    pattern = HPIOPattern(nprocs=16, region_size=32, region_count=512, region_spacing=128)
    return _write(pattern, Hints(cb_nodes=8), method, cost)


def fig4_ordering_stable_under_cpu_scale(rows: Rows) -> None:
    """The old >= struct >= vect ordering holds when datatype-processing
    costs are scaled 4x either way."""
    cells = by(rows, "cpu", "method")
    for cpu in _CPU_SCALE:
        old, struct, vect = (mbs(cells[(cpu, m)]) for m in ("old+vect", "new+struct", "new+vect"))
        assert old >= struct * 0.97, (cpu, old, struct)
        assert struct >= vect, (cpu, struct, vect)


def _rmw_cell(region: int, penalty: str) -> Row:
    cost = DEFAULT_COST_MODEL
    if penalty == "zeroed":
        cost = cost.replace(page_rmw_penalty=0.0)
    pattern = HPIOPattern(
        nprocs=8,
        region_size=region,
        region_count=128,
        region_spacing=8192 - region,
        mem_contig=True,
    )
    return _write(pattern, Hints(cb_nodes=4, io_method="naive", cache_mode="off"), cost=cost)


def rmw_penalty_drives_alignment_gap(rows: Rows) -> None:
    """With the page-RMW penalty zeroed, page-aligned (4096 B) and
    unaligned (4064 B) naive writes converge; with it, aligned regions
    win."""
    cells = by(rows, "region", "penalty")
    gap_with = mbs(cells[(4096, "default")]) / mbs(cells[(4064, "default")])
    gap_without = mbs(cells[(4096, "zeroed")]) / mbs(cells[(4064, "zeroed")])
    assert gap_with > gap_without, (gap_with, gap_without)
    assert gap_with > 1.05, gap_with  # the 4 KB alignment spike mechanism


# ---------------------------------------------------------------------------
# The Figure-7 checkpoint loop shared by `pipeline` and `plan_cache`: the
# view is set once, then every time step rewrites the same slot geometry
# with fresh bytes (the steady state PFRs exist for).
# ---------------------------------------------------------------------------

_LOOP_NPROCS = 8
_PIPELINE_STEPS = 4
_PAIRS = ("coll.client.pairs", "coll.agg.pairs")

#: Time-series geometries: fine (many small interleaved elements —
#: pair-count-bound) and coarse (fewer, larger ones).
_LOOP_PATTERNS = {
    "ts-fine": dict(element_size=32, elems_per_point=64, points=192),
    "ts-coarse": dict(element_size=256, elems_per_point=8, points=96),
}


def _loop_pattern(pattern: str) -> TimeSeriesPattern:
    return TimeSeriesPattern(nprocs=_LOOP_NPROCS, timesteps=1, **_LOOP_PATTERNS[pattern])


def _checkpoint_loop(pattern: str, steps: int, hints: Hints) -> Tuple[Session, int, int]:
    """``steps`` rewrites of one view: (the session, bytes written,
    offset/length pairs the first step evaluated)."""
    ts = _loop_pattern(pattern)
    session = Session("/bench", nprocs=_LOOP_NPROCS, hints=hints)
    reg = session.registry

    def body(ctx, comm, f):
        f.set_view(disp=0, filetype=ts.filetype(comm.rank, 0))

        def pairs():
            return sum(reg.value(name, ctx.rank) for name in _PAIRS)

        written = 0
        before = pairs()
        for step in range(steps):
            buf = ts.step_buffer(comm.rank, step)
            f.write_at_all(0, buf)
            written += buf.size
            if step == 0:
                first_step_pairs = pairs() - before
        return written, first_step_pairs

    results = session.run(body)
    return session, sum(r[0] for r in results), sum(r[1] for r in results)


def loop_writes_every_step(rows: Rows) -> None:
    """Every configuration moves the same bytes: steps x one step's worth."""
    for row in rows:
        cell = row["cell"]
        steps = cell.get("steps", _PIPELINE_STEPS)
        assert row["total_bytes"] == steps * _loop_pattern(cell["pattern"]).bytes_per_step, cell


# -- pipeline: double-buffered rounds vs serialized.  At depth 0 every
# round is serialized (exchange, flush, exchange, ...); at depth >= 1 the
# flush of round k runs as an engine coroutine while the rank already
# exchanges round k+1, so the next exchange hides part of the I/O time.

_OVERLAP = "coll.pipeline.overlap_seconds"


def _pipeline_cell(pattern: str, impl: str, depth: int) -> Row:
    # A 32 KiB collective buffer forces each step through several
    # rounds (the 4 MiB default would finish in one, leaving nothing
    # to overlap) — the regime Figure 7's large checkpoints live in.
    hints = Hints(coll_impl=impl, cb_nodes=4, cb_buffer_size=32 * 1024, pipeline_depth=depth)
    s, total, _ = _checkpoint_loop(pattern, _PIPELINE_STEPS, hints)
    return _row(s.makespan, total, None, s.registry, (_OVERLAP, "coll.pipeline.stalls"))


def serialized_reports_zero_overlap(rows: Rows) -> None:
    """Depth 0 is the serialized path: no coroutines, no overlap."""
    for row in rows:
        if row["cell"]["depth"] == 0:
            assert row["counts"][_OVERLAP] == 0.0, row
            assert row["counts"]["coll.pipeline.stalls"] == 0, row


def depth2_overlaps_and_beats_serialized(rows: Rows) -> None:
    """The acceptance bar: at depth >= 2 every cell hides a nonzero
    slice of flush time behind the next exchange, and the hidden time
    shows up as a strictly lower makespan."""
    cells = by(rows, "pattern", "impl", "depth")
    for pattern, impl, depth in cells:
        if depth >= 2:
            piped, serial = cells[(pattern, impl, depth)], cells[(pattern, impl, 0)]
            assert piped["counts"][_OVERLAP] > 0.0, piped["cell"]
            assert piped["sim_makespan_s"] < serial["sim_makespan_s"], piped["cell"]


def depth_never_hurts(rows: Rows) -> None:
    """Any configured depth (including 1, which still back-pressures on
    every submit) completes no slower than serialized."""
    cells = by(rows, "pattern", "impl", "depth")
    for pattern, impl, depth in cells:
        assert (
            cells[(pattern, impl, depth)]["sim_makespan_s"]
            <= cells[(pattern, impl, 0)]["sim_makespan_s"]
        ), (pattern, impl, depth)


# -- plan_cache: persistent collective plans, cached vs cold.  With the
# cache off every step re-flattens the filetype and re-plans the rounds;
# with it on the first step builds the plan and every later step replays
# it with zero offset/length pairs evaluated, so the per-step
# ``cpu_per_flat_pair`` charge disappears from the simulated clock.

def _plan_cache_cell(pattern: str, steps: int, impl: str, cached: bool) -> Row:
    hints = Hints(coll_impl=impl, cb_nodes=4, plan_cache=cached)
    s, total, first_step_pairs = _checkpoint_loop(pattern, steps, hints)
    counts = _PAIRS + ("coll.plan.hits", "coll.plan.misses")
    return _row(s.makespan, total, None, s.registry, counts, first_step_pairs=first_step_pairs)


def _pairs_total(row: Row) -> int:
    return sum(row["counts"][name] for name in _PAIRS)


def cached_steady_state_evaluates_zero_pairs(rows: Rows) -> None:
    """The acceptance bar: after the cold first step, every cached step
    evaluates zero offset/length pairs — the whole pair budget is spent
    on step 0."""
    for row in rows:
        if row["cell"]["cached"]:
            assert row["extra"]["first_step_pairs"] > 0, row
            assert _pairs_total(row) - row["extra"]["first_step_pairs"] == 0, row
            assert row["counts"]["coll.plan.misses"] == _LOOP_NPROCS, row
            assert row["counts"]["coll.plan.hits"] == (row["cell"]["steps"] - 1) * _LOOP_NPROCS, row


def cold_pays_pairs_every_step(rows: Rows) -> None:
    """The differential's other half: uncached runs re-evaluate the
    full pair count on every step (linear in ``steps``)."""
    for row in rows:
        if not row["cell"]["cached"]:
            assert row["counts"]["coll.plan.hits"] == 0 and row["counts"]["coll.plan.misses"] == 0
            assert _pairs_total(row) == row["cell"]["steps"] * row["extra"]["first_step_pairs"], row


def cached_strictly_faster_than_cold(rows: Rows) -> None:
    """Replay drops the per-step datatype-processing charge, so cached
    simulated time is strictly below cold for every cell (and, the
    bytes being equal, its bandwidth strictly above)."""
    cells = by(rows, "pattern", "steps", "impl", "cached")
    for pattern, steps, impl, cached in cells:
        if cached:
            hot, cold = cells[(pattern, steps, impl, True)], cells[(pattern, steps, impl, False)]
            assert hot["sim_makespan_s"] < cold["sim_makespan_s"], hot["cell"]
            assert mbs(hot) > mbs(cold), hot["cell"]


# ---------------------------------------------------------------------------
# crash_recovery — resume vs. restart-from-scratch (docs/crash_recovery.md):
# one rank is killed at each phase boundary (epoch) of a collective
# write, the survivors finish, and the victim rejoins, replaying the
# journal's epoch commit records so it rewrites only the bytes no
# survivor committed on its behalf.
# ---------------------------------------------------------------------------

_CRASH_NPROCS, _CRASH_VICTIM = 4, 2
_CRASH_PATTERN = smoke_pattern(_CRASH_NPROCS)
_CRASH_TOTAL = _CRASH_PATTERN.total_bytes
_CRASH_HINTS = {"coll_impl": "new", "cb_nodes": 2, "cb_buffer_size": 256}
_CRASH_SITES = ("boundary", "exchange", "flush")
_REWRITTEN = "faults.crash.resume_rewritten_bytes"
_SKIPPED = "faults.crash.resume_skipped_bytes"


def _crash_body(ctx, comm, f):
    apply_view(f, _CRASH_PATTERN, comm.rank)
    write_pattern(f, _CRASH_PATTERN, comm.rank)


def _crash_baseline() -> np.ndarray:
    """The file an uninterrupted run leaves."""
    s = Session.open("/bench-crash", nprocs=_CRASH_NPROCS, hints=_CRASH_HINTS)
    s.run(_crash_body)
    return s.fs.raw_bytes("/bench-crash", 0, _CRASH_TOTAL)


def _crash_cell(site: str, epoch: int, shared: np.ndarray) -> Row:
    plan = FaultPlan(seed=0).rank_crash(
        _CRASH_VICTIM, call_index=0, round_index=epoch, site=site
    )
    s = Session.open("/bench-crash", nprocs=_CRASH_NPROCS, hints=_CRASH_HINTS, faults=plan)
    s.run(_crash_body)
    s.rejoin(_CRASH_VICTIM, _crash_body)
    got = s.fs.raw_bytes("/bench-crash", 0, _CRASH_TOTAL)
    return _row(
        s.makespan,
        _CRASH_TOTAL,
        bool(np.array_equal(got, shared)),
        s.registry,
        (_REWRITTEN, _SKIPPED),
        crashed=sorted(s.sim.crashed),
    )


def byte_identity_everywhere(rows: Rows) -> None:
    """Crash + rejoin + resume must reproduce the uninterrupted file
    exactly, whatever the crash epoch or site."""
    for row in rows:
        assert row["verified"], row
        assert row["extra"]["crashed"] == [_CRASH_VICTIM], row


def resume_strictly_beats_restart(rows: Rows) -> None:
    """The acceptance headline: at every crash epoch > 0 the resume
    path rewrites strictly fewer bytes than a restart-from-scratch."""
    for row in rows:
        # What a restart-from-scratch would rewrite: the victim's full
        # access for the call.
        scratch_bytes = row["counts"][_REWRITTEN] + row["counts"][_SKIPPED]
        if row["cell"]["epoch"] > 0:
            assert row["counts"][_REWRITTEN] < scratch_bytes, row
        else:
            # Nothing was committed before the first boundary — resume
            # degenerates to the full rewrite, never more.
            assert row["counts"][_REWRITTEN] <= scratch_bytes, row


def savings_grow_with_epoch(rows: Rows) -> None:
    """Later crashes leave more committed epochs behind: the skipped
    byte count is non-decreasing in the crash epoch (and the last crash
    skips strictly more than the first)."""
    cells = by(rows, "site", "epoch")
    for site in _CRASH_SITES:
        skipped = [cells[(s, e)]["counts"][_SKIPPED] for s, e in sorted(cells) if s == site]
        assert skipped == sorted(skipped), (site, skipped)
        assert skipped[-1] > skipped[0], (site, skipped)


# ---------------------------------------------------------------------------
# intra_node — the shape of Kang et al.'s intra-node aggregation result:
# with several ranks per node, ``two_layer`` gathers each node's frames
# to a leader over the cheap intra-node tier and crosses the expensive
# inter-node tier once per leader pair.
# ---------------------------------------------------------------------------

_INTRA_PATTERNS = {
    # Fine-grained interleaving: many small frames per round — the
    # message-count-bound case intra-node aggregation exists for.
    "noncontig-64B": dict(region_size=64, region_count=256, region_spacing=128),
    # Coarser regions: fewer, larger frames; the win narrows but the
    # inter-node tier still carries fewer envelopes.
    "noncontig-512B": dict(region_size=512, region_count=64, region_spacing=1024),
}


def _intra_node_cell(pattern: str, ppn: int, exchange: str) -> Row:
    return _write(
        HPIOPattern(nprocs=16, **_INTRA_PATTERNS[pattern]),
        # Small collective buffer: several rounds per call, so the
        # per-round exchange structure dominates and the sweep measures
        # what it claims to.
        Hints(cb_nodes=4, cb_buffer_size=16 * 1024, exchange=exchange),
        cost=CostModel(procs_per_node=ppn),
        counts=(
            "coll.rounds[0]",
            "net.inter.msgs",
            "net.inter.bytes",
            "net.intra.msgs",
            "net.intra.bytes",
            "exchange.coalesce.runs_in",
            "exchange.coalesce.runs_out",
        ),
        tp=("exchange",),
    )


def several_rounds_per_call(rows: Rows) -> None:
    """Multi-round runs, or the cb-size knob in the cell is mis-set."""
    assert all(row["counts"]["coll.rounds[0]"] > 1 for row in rows)


def _ppn8_pairs(rows: Rows):
    cells = by(rows, "pattern", "ppn", "exchange")
    return [
        (pattern, cells[(pattern, 8, "alltoallw")], cells[(pattern, 8, "two_layer")])
        for pattern in _INTRA_PATTERNS
    ]


def two_layer_moves_fewer_inter_node_bytes(rows: Rows) -> None:
    """At 8 ranks per node the two-layer exchange strictly reduces
    inter-node wire traffic for every access pattern."""
    for pattern, flat, layered in _ppn8_pairs(rows):
        assert layered["counts"]["net.inter.bytes"] < flat["counts"]["net.inter.bytes"], pattern
        assert layered["counts"]["net.inter.msgs"] < flat["counts"]["net.inter.msgs"], pattern


def two_layer_faster_exchange_at_ppn8(rows: Rows) -> None:
    """The headline: less simulated exchange time at procs_per_node=8."""
    for pattern, flat, layered in _ppn8_pairs(rows):
        assert layered["extra"]["tp_exchange_s"] < flat["extra"]["tp_exchange_s"], pattern


def flat_cluster_two_layer_still_correct(rows: Rows) -> None:
    """ppn=1 degenerates to per-rank leaders: still verified, and no
    intra-node traffic exists to count."""
    cells = by(rows, "pattern", "ppn", "exchange")
    for pattern in _INTRA_PATTERNS:
        row = cells[(pattern, 1, "two_layer")]
        assert row["counts"]["net.intra.msgs"] == 0
        assert row["counts"]["exchange.coalesce.runs_out"] > 0


# ---------------------------------------------------------------------------
# multi_tenant — scheduler x tenant-count fairness: one elephant tenant
# (few huge requests) and N-1 mice (many small ones) move the *same
# number of bytes each* through one shared file system.  Under ``fifo``
# a mouse's request queues behind whole elephant requests; ``fair`` caps
# the interference any tenant absorbs at its backlog's fair share;
# ``wfq`` additionally honors ``tenant_priority`` (mice get weight 2).
# ---------------------------------------------------------------------------

#: Bytes each tenant moves — fixed total load per (count, scheduler) cell.
_MT_BYTES = 2 * 1024 * 1024
_MT_ELEPHANT_REQUEST = 256 * 1024
_MT_MOUSE_REQUEST = 16 * 1024
#: One slow OST, a small stripe, and coarse extent locks make OST
#: service time dominate per-request overheads — the sweep measures
#: queueing policy, not lock RPCs.
_MT_COST = CostModel(
    num_osts=1, stripe_size=256 * 1024, ost_byte_time=1.0 / (16 * 1024 * 1024)
)


def _mt_tenants(tenants: int, scheduler: Optional[str] = None) -> List[Dict[str, str]]:
    return [{"tenant": "elephant"}] + [{"tenant": f"mouse{i}"} for i in range(tenants - 1)]


def _mt_writer(request_bytes: int):
    """A raw tenant body: stream ``_MT_BYTES`` to a private file in
    ``request_bytes`` chunks, returning per-request latencies."""

    def body(ctx, comm, client):
        f = client.open(f"/bench/{comm.rank}", cache_mode="off")
        block = np.full(request_bytes, 0xA5, dtype=np.uint8)
        latencies = []
        for offset in range(0, _MT_BYTES, request_bytes):
            t = ctx.now
            f.write(offset, block)
            latencies.append(ctx.now - t)
        f.close()
        return latencies

    return body


def _multi_tenant_cell(tenants: int, scheduler: str) -> Rows:
    cl = Cluster(cost=_MT_COST, scheduler=scheduler, lock_granularity=256 * 1024)
    names = [fan["tenant"] for fan in _mt_tenants(tenants)]
    for name in names:
        elephant = name == "elephant"
        cl.add_tenant(
            name,
            _mt_writer(_MT_ELEPHANT_REQUEST if elephant else _MT_MOUSE_REQUEST),
            nprocs=1,
            kind="raw",
            # wfq honors this; fifo/fair ignore it — same workload.
            hints={"tenant_priority": 1 if elephant else 2},
        )
    out = cl.run()
    # Attribution conservation at every cell, not just in the tests.
    mirrored, total = cl.conservation("fs.bytes.written")
    assert mirrored == total, (tenants, scheduler, mirrored, total)
    rows = []
    for name in names:
        # Sorted Python floats, not a numpy reduction: the committed
        # values must not depend on numpy's summation order.
        calls = sorted(float(c) for c in out[name].results[0])
        # numpy's default (linear) percentile.
        rank = 0.99 * (len(calls) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(calls) - 1)
        rows.append(
            _row(
                out[name].makespan,
                _MT_BYTES,
                None,
                cl.registry,
                (f"fs.ost.queue_wait_seconds[{name}]",),
                requests=len(calls),
                p99_call_s=calls[lo] + (calls[hi] - calls[lo]) * (rank - lo),
                mean_call_s=math.fsum(calls) / len(calls),
            )
        )
    return rows


def _spread(rows: Rows, value: Callable[[Row], float]) -> Dict[Tuple[int, str], float]:
    """max - min of ``value`` over the tenants of each (tenants, scheduler)."""
    groups: Dict[Tuple[int, str], List[float]] = {}
    for row in rows:
        groups.setdefault((row["cell"]["tenants"], row["cell"]["scheduler"]), []).append(value(row))
    return {key: max(vals) - min(vals) for key, vals in groups.items()}


def _makespan(row: Row) -> float:
    return row["sim_makespan_s"]


def _p99(row: Row) -> float:
    return row["extra"]["p99_call_s"]


def _show_multi_tenant(title: str, rows: Rows) -> str:
    makespan, p99 = _spread(rows, _makespan), _spread(rows, _p99)
    fairness = [
        {
            "tenants": n,
            "scheduler": sched,
            "spread makespan ms": _ms(makespan[(n, sched)]),
            "spread p99 ms": _ms(p99[(n, sched)]),
        }
        for n, sched in makespan
    ]
    return (
        show_table(title, rows)
        + "\n\n"
        + format_table("multi_tenant — cross-tenant spread (max - min)", fairness)
    )


def fair_share_strictly_lower_spread_than_fifo(rows: Rows) -> None:
    """The acceptance headline: at fixed total load, fair-share yields
    strictly lower cross-tenant makespan spread than FIFO."""
    spread = _spread(rows, _makespan)
    for n in sorted({n for n, _ in spread}):
        assert spread[(n, "fair")] < spread[(n, "fifo")], n


def fifo_starves_mice_not_elephants(rows: Rows) -> None:
    """Mechanism check: FIFO's unfairness is the mice waiting behind
    elephant-sized requests, so every mouse's p99 under FIFO exceeds
    its p99 under fair-share."""
    cells = by(rows, "tenants", "scheduler", "tenant")
    for n, sched, tenant in cells:
        if sched == "fifo" and tenant != "elephant":
            assert _p99(cells[(n, "fifo", tenant)]) > _p99(cells[(n, "fair", tenant)]), (n, tenant)


def wfq_no_worse_than_fair_for_weighted_mice(rows: Rows) -> None:
    """Weight-2 mice absorb at most the interference fair-share grants
    them (the weighted cap only shrinks)."""
    cells = by(rows, "tenants", "scheduler", "tenant")
    for n, sched, tenant in cells:
        if sched == "wfq" and tenant != "elephant":
            assert _p99(cells[(n, "wfq", tenant)]) <= _p99(cells[(n, "fair", tenant)]) + 1e-12, (
                n,
                tenant,
            )


# ---------------------------------------------------------------------------
# ost_faults — OST outages x breaker x replication (docs/storage_faults.md):
# the chaos-harness workload under each OST scenario.  Every cell must
# end with verified bytes or a *typed* storage error (the harness turns
# those into ``completed=False``; anything untyped propagates out of
# ``run_once`` and fails the run).
# ---------------------------------------------------------------------------

_OST_SEED = 7


def _ost_faults_cell(scenario: str, replication: int, breaker: bool) -> Row:
    harness = ChaosHarness(f"{scenario}:{_OST_SEED}", breaker=breaker, replication=replication)
    run = harness.run_once(harness.plan)
    return _row(
        # 0.0 seconds means the run died with a typed storage error —
        # bounded, just not completed: there is no makespan.
        run.seconds if run.seconds > 0.0 else None,
        harness.total_bytes,
        run.verified,
        run.registry,
        (
            "faults.retries",
            "fs.ost.down_hits",
            "fs.ost.breaker_fastfail",
            "fs.ost.failovers",
            "fs.ost.overloads",
            "fs.ost.quorum_failures",
            "fs.ost.rereplicated_bytes",
        ),
        completed=run.seconds > 0.0,
    )


def _breaker_off_on(rows: Rows, scenario: str) -> Tuple[Row, Row]:
    cells = by(rows, "scenario", "replication", "breaker")
    return cells[(scenario, 1, False)], cells[(scenario, 1, True)]


def breaker_strictly_fewer_wasted_probes(rows: Rows) -> None:
    """The acceptance headline: under a solid outage, breakers convert
    probes of a known-down OST into fast-fails — strictly fewer
    ``down_hits``, with the difference visible as fastfail rejections."""
    off, on = _breaker_off_on(rows, "ost-crash")
    assert on["counts"]["fs.ost.down_hits"] < off["counts"]["fs.ost.down_hits"], (on, off)
    assert on["counts"]["fs.ost.breaker_fastfail"] > 0, on


def breaker_never_probes_more(rows: Rows) -> None:
    """Under flapping the breaker may not *save* probes (the trip
    threshold can exceed what naive retries would spend) but it must
    never probe a down OST more often than no breaker at all."""
    off, on = _breaker_off_on(rows, "ost-flap")
    assert on["counts"]["fs.ost.down_hits"] <= off["counts"]["fs.ost.down_hits"], (on, off)
    assert on["counts"]["fs.ost.breaker_fastfail"] > 0, on


def replication_health_gates_probes(rows: Rows) -> None:
    """With replicas the plan phase consults OST health before any
    byte moves: a down OST is served around (reads) or reported as a
    quorum failure (writes) without ever being hammered."""
    for row in rows:
        if row["cell"]["scenario"] != "ost-slow" and row["cell"]["replication"] == 2:
            assert row["counts"]["fs.ost.down_hits"] == 0, row


def slow_ost_never_errors(rows: Rows) -> None:
    """``ost_slow`` is a brownout, not an outage: every cell completes
    (degraded, never rejected)."""
    for row in rows:
        if row["cell"]["scenario"] == "ost-slow":
            assert row["extra"]["completed"], row
            assert row["counts"]["fs.ost.down_hits"] == 0, row


# ---------------------------------------------------------------------------
# The table.
# ---------------------------------------------------------------------------

EXPERIMENTS: Dict[str, Experiment] = {
    e.name: e
    for e in (
        Experiment(
            "fig4",
            "Figure 4 — HPIO write, 64 procs, {panel} aggregators",
            {"aggs": (8, 32), "region": (8, 64, 512, 4096), "method": tuple(_METHODS)},
            _fig4_cell,
            (fig4_old_fastest_on_average, struct_beats_vect_everywhere),
            _series("region", "method", "region B", panel="aggs"),
        ),
        Experiment(
            "fig5",
            "Figure 5 — conditional data sieving, {panel} KB extent",
            {
                "extent_kb": (1, 8, 16, 64),
                "frac": (0.03, 0.19, 0.50, 0.81, 0.97, 1.0),
                "method": ("datasieve", "naive"),
            },
            _fig5_cell,
            (
                fig5_small_extent_sieve_wins,
                fig5_large_extent_naive_wins,
                fig5_conditional_tracks_the_winner,
            ),
            _series(
                lambda cell: _fig5_region(cell["extent_kb"] << 10, cell["frac"]),
                "method",
                "region B",
                panel="extent_kb",
            ),
        ),
        Experiment(
            "fig7",
            "Figure 7 — PFRs & file realm alignment",
            {"clients": (16, 32, 48, 64), "config": tuple(_FIG7_CONFIGS)},
            _fig7_cell,
            (fig7_pfr_align_is_best, fig7_misaligned_pfr_pays_for_lock_traffic),
            _series("clients", "config", "clients"),
        ),
        Experiment(
            "ablation_heap",
            "Ablation — heap progress tracking (§5.3)",
            {"use_heap": (True, False)},
            _heap_cell,
            (heap_never_slower_and_fewer_pairs,),
        ),
        Experiment(
            "ablation_exchange",
            "Ablation — exchange backend (§5.4)",
            {
                "network": ("commodity", "collective-net"),
                "exchange": ("alltoallw", "nonblocking", "two_layer"),
            },
            _exchange_cell,
            (exchange_close_on_commodity_alltoallw_ahead_on_collective_net,),
        ),
        Experiment(
            "ablation_cb_size",
            "Ablation — collective buffer size (§4)",
            {"cb_kb": (16, 64, 256, 1024, 4096)},
            _cb_size_cell,
            (small_cb_multiplies_rounds_large_cb_is_free,),
        ),
        Experiment(
            "ablation_balanced_realms",
            "Ablation — realm load balancing (§5.2/§7)",
            {"strategy": ("even", "balanced")},
            _balanced_realms_cell,
            (balanced_realms_win_on_skew,),
        ),
        Experiment(
            "hpio_matrix",
            "HPIO contiguity matrix — 16 procs, 8 aggregators, 256 B regions "
            "(tp_* is the MPE-style time decomposition)",
            {"mem_contig": (True, False), "file_contig": (True, False)},
            _hpio_matrix_cell,
            (all_cells_verified, contig_file_faster_than_noncontig, memory_contiguity_secondary),
        ),
        Experiment(
            "read_path",
            "Collective read — HPIO, 16 procs, 8 aggregators",
            {"region": (16, 128, 1024), "method": tuple(_METHODS)},
            _read_path_cell,
            (all_cells_verified, struct_beats_vect_everywhere),
            _series("region", "method", "region B"),
        ),
        Experiment(
            "sensitivity_crossover",
            "Sensitivity — crossover vs per-call overhead ({panel})",
            {
                "costs": tuple(_CALL_COST_SCALE),
                "extent": (1024, 4096, 16384, 65536, 262144),
                "method": ("datasieve", "naive"),
            },
            _crossover_cell,
            (crossover_tracks_call_overhead,),
            _series("extent", "method", "extent B", panel="costs"),
        ),
        Experiment(
            "sensitivity_cpu_scale",
            "Sensitivity — Figure 4 ordering vs CPU cost scale",
            {"cpu": tuple(_CPU_SCALE), "method": ("old+vect", "new+struct", "new+vect")},
            _cpu_scale_cell,
            (fig4_ordering_stable_under_cpu_scale,),
            _series("cpu", "method", "cpu"),
        ),
        Experiment(
            "sensitivity_rmw",
            "Sensitivity — page-RMW penalty vs naive-write alignment",
            {"region": (4096, 4064), "penalty": ("default", "zeroed")},
            _rmw_cell,
            (rmw_penalty_drives_alignment_gap,),
        ),
        Experiment(
            "pipeline",
            "pipeline — double-buffered rounds on the Figure-7 loop",
            {"pattern": tuple(_LOOP_PATTERNS), "impl": ("new", "old"), "depth": (0, 1, 2, 4)},
            _pipeline_cell,
            (
                serialized_reports_zero_overlap,
                depth2_overlaps_and_beats_serialized,
                depth_never_hurts,
                loop_writes_every_step,
            ),
        ),
        Experiment(
            "plan_cache",
            "plan_cache — cached vs cold on the Figure-7 loop",
            {
                "pattern": tuple(_LOOP_PATTERNS),
                "steps": (4, 8),
                "impl": ("new", "old"),
                "cached": (True, False),
            },
            _plan_cache_cell,
            (
                cached_steady_state_evaluates_zero_pairs,
                cold_pays_pairs_every_step,
                cached_strictly_faster_than_cold,
                loop_writes_every_step,
            ),
        ),
        Experiment(
            "crash_recovery",
            f"crash_recovery — rank {_CRASH_VICTIM} of {_CRASH_NPROCS} killed, then rejoined",
            {"site": _CRASH_SITES, "epoch": (0, 1, 2, 3, 4, 5)},
            _crash_cell,
            (byte_identity_everywhere, resume_strictly_beats_restart, savings_grow_with_epoch),
            setup=_crash_baseline,
        ),
        Experiment(
            "intra_node",
            "intra_node — procs-per-node x access pattern",
            {
                "pattern": tuple(_INTRA_PATTERNS),
                "ppn": (1, 4, 8),
                "exchange": ("alltoallw", "two_layer"),
            },
            _intra_node_cell,
            (
                all_cells_verified,
                several_rounds_per_call,
                two_layer_moves_fewer_inter_node_bytes,
                two_layer_faster_exchange_at_ppn8,
                flat_cluster_two_layer_still_correct,
            ),
        ),
        Experiment(
            "multi_tenant",
            "multi_tenant — elephant vs mice under each OST scheduler",
            {"tenants": (2, 3), "scheduler": ("fifo", "fair", "wfq")},
            _multi_tenant_cell,
            (
                fair_share_strictly_lower_spread_than_fifo,
                fifo_starves_mice_not_elephants,
                wfq_no_worse_than_fair_for_weighted_mice,
            ),
            _show_multi_tenant,
            fanout=_mt_tenants,
        ),
        Experiment(
            "ost_faults",
            f"ost_faults — OST scenario x replication x breaker (seed {_OST_SEED})",
            {
                "scenario": ("ost-crash", "ost-slow", "ost-flap"),
                "replication": (1, 2),
                "breaker": (False, True),
            },
            _ost_faults_cell,
            (
                all_cells_verified,
                breaker_strictly_fewer_wasted_probes,
                breaker_never_probes_more,
                replication_health_gates_probes,
                slow_ost_never_errors,
            ),
        ),
    )
}
