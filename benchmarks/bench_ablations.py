"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper — measurements of the §5 design decisions in
isolation:

* binary-heap progress tracking vs per-round rescans (§5.3);
* MPI_Alltoallw vs post-and-wait nonblocking exchange (§5.4);
* even vs load-balanced datatype realms on a skewed access (§5.2, §7's
  "better I/O aggregator load balancing" opportunity).
"""

from __future__ import annotations

import pytest

from conftest import attach_series
from repro.bench.figures import (
    ablation_balanced_realms,
    ablation_cb_size,
    ablation_exchange,
    ablation_heap,
)
from repro.bench.reporting import format_table


def _rows(results, key):
    return [
        {key: r.params.get(key, r.label), "MB/s": r.bandwidth_mbs}
        for r in results
    ]


def test_ablation_heap(benchmark):
    results = ablation_heap()
    print()
    print(format_table("Ablation — heap progress tracking (§5.3)", _rows(results, "use_heap")))
    attach_series(benchmark, results)
    with_heap = next(r for r in results if r.params["use_heap"])
    without = next(r for r in results if not r.params["use_heap"])
    # Without progress tracking, clients rescan their access every round:
    # strictly more pair evaluations, never faster.
    assert without.metrics.total("coll.client.pairs") >= with_heap.metrics.total(
        "coll.client.pairs"
    )
    assert with_heap.bandwidth_mbs >= without.bandwidth_mbs * 0.999
    benchmark.pedantic(lambda: ablation_heap(), rounds=1, iterations=1)


def test_ablation_exchange(benchmark):
    results = ablation_exchange()
    print()
    rows = [
        {
            "network": r.params["network"],
            "exchange": r.params["exchange"],
            "MB/s": r.bandwidth_mbs,
        }
        for r in results
    ]
    print(format_table("Ablation — data exchange backend (§5.4)", rows))
    attach_series(benchmark, results)
    cell = {
        (r.params["network"], r.params["exchange"]): r.bandwidth_mbs for r in results
    }
    # On a commodity network the two backends are close: alltoallw saves
    # the pack/unpack copies but pays pairwise rounds with every peer.
    assert (
        abs(cell[("commodity", "alltoallw")] - cell[("commodity", "nonblocking")])
        / cell[("commodity", "nonblocking")]
        < 0.10
    )
    # On a collective-optimized network (the paper's BG/L argument) the
    # alltoallw exchange must come out ahead.
    assert cell[("collective-net", "alltoallw")] > cell[("collective-net", "nonblocking")]
    benchmark.pedantic(lambda: ablation_exchange(), rounds=1, iterations=1)


def test_ablation_cb_size(benchmark):
    results = ablation_cb_size()
    print()
    rows = [
        {"cb_kb": r.params["cb_kb"], "rounds": r.params["rounds"], "MB/s": r.bandwidth_mbs}
        for r in results
    ]
    print(format_table("Ablation — collective buffer size (§4)", rows))
    attach_series(benchmark, results)
    by_cb = {r.params["cb_kb"]: r for r in results}
    # Small buffers multiply rounds and lose bandwidth.
    assert by_cb[16].params["rounds"] > by_cb[1024].params["rounds"]
    assert by_cb[16].bandwidth_mbs < by_cb[1024].bandwidth_mbs
    # Past one-round coverage, growing the buffer is free but not harmful.
    assert by_cb[4096].bandwidth_mbs == pytest.approx(by_cb[1024].bandwidth_mbs, rel=0.02)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_balanced_realms(benchmark):
    results = ablation_balanced_realms()
    print()
    print(format_table("Ablation — realm load balancing (§5.2/§7)", _rows(results, "strategy")))
    attach_series(benchmark, results)
    even = next(r for r in results if r.params["strategy"] == "even")
    balanced = next(r for r in results if r.params["strategy"] == "balanced")
    # On a skewed access the histogram-balanced realms must win.
    assert balanced.bandwidth_mbs > even.bandwidth_mbs
    benchmark.pedantic(lambda: ablation_balanced_realms(), rounds=1, iterations=1)
