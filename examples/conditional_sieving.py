#!/usr/bin/env python
"""Conditional data sieving: let the library pick the flush method.

The §6.3 experiment in miniature.  The same HPIO-style strided write is
run with three ``io_method`` hints — ``datasieve``, ``naive``, and
``conditional`` — on one *dense* pattern (small filetype extent, where
sieving wins) and one *sparse* pattern (large extent, where naive
per-segment I/O wins).  The conditional hint compares the filetype
extent against a fixed 16 KB threshold (the paper's crossover)
and should match the better fixed method on both patterns without the
user knowing where the crossover sits.

Run:  python examples/conditional_sieving.py
"""

from __future__ import annotations

from repro.bench.harness import run_hpio_write
from repro.hpio.patterns import HPIOPattern
from repro.mpi import Hints

NPROCS = 8
AGGS = 4

# Dense: 1 KB extent, regions are half of it -> sieve-friendly.
DENSE = HPIOPattern(
    nprocs=NPROCS, region_size=512, region_count=512,
    region_spacing=512, mem_contig=True,
)
# Sparse: 64 KB extent, small useful region -> naive-friendly.
SPARSE = HPIOPattern(
    nprocs=NPROCS, region_size=8192, region_count=64,
    region_spacing=57344, mem_contig=True,
)


def measure(pattern: HPIOPattern, method: str) -> float:
    result = run_hpio_write(
        pattern,
        impl="new",
        representation="succinct",
        hints=Hints(cb_nodes=AGGS, io_method=method),
        label=f"{method}",
    )
    assert result.verified
    return result.bandwidth_mbs


if __name__ == "__main__":
    for name, pattern in (("dense (1 KB extent)", DENSE), ("sparse (64 KB extent)", SPARSE)):
        extent = pattern.slot * pattern.nprocs
        print(f"{name}: filetype extent = {extent // 1024} KB per tile")
        rates = {m: measure(pattern, m) for m in ("datasieve", "naive", "conditional")}
        for m, mbs in rates.items():
            print(f"  io_method={m:<12} {mbs:8.2f} MB/s")
        best_fixed = max(("datasieve", "naive"), key=rates.get)
        print(f"  -> conditional picked the {best_fixed} side "
              f"({rates['conditional'] / rates[best_fixed] * 100:.0f}% of the better fixed method)\n")
        assert rates["conditional"] >= 0.9 * rates[best_fixed]
