"""Benchmark harness reproducing the paper's evaluation (§6).

* :mod:`~repro.bench.harness` — generic timed collective-I/O runs on a
  fresh simulated cluster, returning simulated bandwidth and counters;
* :mod:`~repro.bench.reporting` — plain-text series/table rendering;
* :mod:`~repro.bench.chaos` — fault-intensity sweeps measuring
  completion-time degradation with byte-level verification.

The experiments themselves (Figures 4, 5, 7, the ablations and every
later sweep) are one table outside the package,
``benchmarks/experiments.py``, run by ``benchmarks/run.py``.
"""

from repro.bench.chaos import ChaosHarness, ChaosPoint, ChaosReport, ChaosRun
from repro.bench.harness import BenchResult, run_hpio_write, run_timeseries
from repro.bench.reporting import format_series, format_table

__all__ = [
    "BenchResult",
    "ChaosHarness",
    "ChaosPoint",
    "ChaosReport",
    "ChaosRun",
    "run_hpio_write",
    "run_timeseries",
    "format_series",
    "format_table",
]
