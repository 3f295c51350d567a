"""Intra-node request aggregation: procs-per-node × access-pattern sweep.

Reproduces the shape of Kang et al.'s intra-node aggregation result on
the simulated cluster: with several ranks per node, the ``two_layer``
exchange gathers each node's frames to a leader over the cheap
intra-node tier and crosses the expensive inter-node tier once per
leader pair — strictly fewer inter-node messages (and envelope bytes)
than the flat alltoallw, and less simulated exchange time.

Unlike the figure benchmarks this file needs no pytest-benchmark: the
sweep is the product, and it is emitted to ``BENCH_intra_node.json`` at
the repo root so the perf trajectory records run over run.  Run it
either way::

    python -m pytest -q benchmarks/bench_intra_node.py
    PYTHONPATH=src python benchmarks/bench_intra_node.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.bench.harness import run_hpio_write
from repro.config import CostModel
from repro.hpio.patterns import HPIOPattern
from repro.mpi import Hints

_NPROCS = 16
_PPNS = (1, 4, 8)
_MODES = ("alltoallw", "two_layer")
#: Small collective buffer: several rounds per call, so the per-round
#: exchange structure dominates and the sweep measures what it claims to.
_CB_BYTES = 16 * 1024
_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_intra_node.json"

_PATTERNS = {
    # Fine-grained interleaving: many small frames per round — the
    # message-count-bound case intra-node aggregation exists for.
    "noncontig-64B": dict(region_size=64, region_count=256, region_spacing=128),
    # Coarser regions: fewer, larger frames; the win narrows but the
    # inter-node tier still carries fewer envelopes.
    "noncontig-512B": dict(region_size=512, region_count=64, region_spacing=1024),
}


def _run_cell(pattern_name: str, ppn: int, mode: str) -> Dict[str, object]:
    spec = _PATTERNS[pattern_name]
    pattern = HPIOPattern(nprocs=_NPROCS, **spec)
    cost = CostModel(procs_per_node=ppn)
    result = run_hpio_write(
        pattern,
        impl="new",
        representation="succinct",
        hints=Hints(cb_nodes=4, cb_buffer_size=_CB_BYTES, exchange=mode),
        cost=cost,
        label=f"{pattern_name} ppn={ppn} exchange={mode}",
        trace=True,
    )
    assert result.verified
    times = result.counters.get("time_by_state", {})
    reg = result.metrics
    return {
        "pattern": pattern_name,
        "ppn": ppn,
        "exchange": mode,
        "nprocs": _NPROCS,
        "total_bytes": result.total_bytes,
        "bandwidth_mbs": round(result.bandwidth_mbs, 3),
        "sim_seconds": result.sim_seconds,
        "exchange_seconds": float(times.get("tp:exchange", 0.0)),
        "rounds": reg.value("coll.rounds", 0),
        "inter_node_msgs": reg.value("net.inter.msgs"),
        "inter_node_bytes": reg.value("net.inter.bytes"),
        "intra_node_msgs": reg.value("net.intra.msgs"),
        "intra_node_bytes": reg.value("net.intra.bytes"),
        "coalesce_runs_in": reg.value("exchange.coalesce.runs_in"),
        "coalesce_runs_out": reg.value("exchange.coalesce.runs_out"),
    }


def _sweep() -> List[Dict[str, object]]:
    return [
        _run_cell(name, ppn, mode)
        for name in _PATTERNS
        for ppn in _PPNS
        for mode in _MODES
    ]


def emit_json(rows: List[Dict[str, object]]) -> Path:
    _JSON_PATH.write_text(
        json.dumps(
            {"benchmark": "intra_node", "nprocs": _NPROCS, "sweep": rows},
            indent=2,
        )
        + "\n"
    )
    return _JSON_PATH


def _cell(rows, pattern, ppn, mode):
    for row in rows:
        if (row["pattern"], row["ppn"], row["exchange"]) == (pattern, ppn, mode):
            return row
    raise KeyError((pattern, ppn, mode))


@pytest.fixture(scope="module")
def sweep_rows():
    rows = _sweep()
    emit_json(rows)
    return rows


def test_sweep_emits_json(sweep_rows):
    assert len(sweep_rows) == len(_PATTERNS) * len(_PPNS) * len(_MODES)
    recorded = json.loads(_JSON_PATH.read_text())
    assert len(recorded["sweep"]) == len(sweep_rows)
    # Multi-round runs, or the cb-size knob above is mis-set.
    assert all(row["rounds"] > 1 for row in sweep_rows)


def test_two_layer_moves_fewer_inter_node_bytes(sweep_rows):
    """At 8 ranks per node the two-layer exchange strictly reduces
    inter-node wire traffic for every access pattern."""
    for pattern in _PATTERNS:
        flat = _cell(sweep_rows, pattern, 8, "alltoallw")
        layered = _cell(sweep_rows, pattern, 8, "two_layer")
        assert layered["inter_node_bytes"] < flat["inter_node_bytes"], pattern
        assert layered["inter_node_msgs"] < flat["inter_node_msgs"], pattern


def test_two_layer_faster_exchange_at_ppn8(sweep_rows):
    """The headline: less simulated exchange time at procs_per_node=8."""
    for pattern in _PATTERNS:
        flat = _cell(sweep_rows, pattern, 8, "alltoallw")
        layered = _cell(sweep_rows, pattern, 8, "two_layer")
        assert layered["exchange_seconds"] < flat["exchange_seconds"], pattern


def test_flat_cluster_two_layer_still_correct(sweep_rows):
    """ppn=1 degenerates to per-rank leaders: still verified, and no
    intra-node traffic exists to count."""
    for pattern in _PATTERNS:
        row = _cell(sweep_rows, pattern, 1, "two_layer")
        assert row["intra_node_msgs"] == 0
        assert row["coalesce_runs_out"] > 0


def main() -> int:
    rows = _sweep()
    path = emit_json(rows)
    print(f"{'pattern':<16} {'ppn':>3} {'exchange':<10} {'MB/s':>9} "
          f"{'exch ms':>9} {'inter msgs':>10} {'inter KB':>9}")
    for row in rows:
        print(
            f"{row['pattern']:<16} {row['ppn']:>3} {row['exchange']:<10} "
            f"{row['bandwidth_mbs']:>9.2f} {row['exchange_seconds'] * 1e3:>9.3f} "
            f"{row['inter_node_msgs']:>10} {row['inter_node_bytes'] / 1024:>9.1f}"
        )
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
