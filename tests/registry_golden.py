"""Golden registry snapshots of the chaos sweeps (helper, not a test module).

One :class:`~repro.bench.chaos.ChaosHarness` sweep per canned fault
scenario, each under the flag that makes it fire (``integrity`` for the
bit-flip family, ``liveness`` for stalls and pinned locks,
``replication=2`` for the OST family), recorded as the non-zero entries
of every point's metrics-registry snapshot with floats exact.  Together
with the cells of ``test_engine_schedule.py`` this reaches the counters
only a fault path moves (``faults.*``, ``fs.ost.*``, ``retry.*``,
``journal.*``).

``tests/data/registry_golden.json`` was recorded on the commit *before*
the legacy stat façades were retired (and re-recorded once since, when
``allgather`` became log-depth: times, ``sim.*`` and a few draw-order
counts moved); ``test_obs_metrics.py`` demands the sweeps still produce
it.  It is rewritten only by ``tests/pins.py``, after a change *meant*
to move a count or a virtual time; its report prints one
``scenario[point].metric: old -> new`` line per entry that moved (floats
printed as numbers, stored as ``.hex()``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from repro.bench import ChaosHarness
from repro.faults import scenario_names

from test_engine_schedule import nonzero_snapshot

GOLDEN = Path(__file__).parent / "data" / "registry_golden.json"
SEED = 3

#: scenario -> the ChaosHarness flag it needs to do more than slow down.
_FLAGS: Dict[str, Dict[str, object]] = {
    **{name: {"integrity": True} for name in ("bit-flip", "bit-flip-net", "bit-flip-pages")},
    **{name: {"liveness": True} for name in ("stall", "gray", "lock-hold")},
    **{name: {"replication": 2} for name in ("ost-crash", "ost-slow", "ost-flap")},
}

SCENARIOS = tuple(scenario_names())


def run_sweep(scenario: str) -> List[Dict[str, object]]:
    """Non-zero registry entries of each point of one sweep."""
    harness = ChaosHarness(f"{scenario}:{SEED}", **_FLAGS.get(scenario, {}))
    return [nonzero_snapshot(p.counters) for p in harness.sweep().points]


def flat(scenario: str, points: List[Dict[str, object]]) -> Dict[str, object]:
    """One sweep as ``scenario[point].metric`` keys (histograms opened
    into ``.field`` / ``.buckets.k``), after its point count
    ``scenario.points``."""

    def opened(prefix: str, entries: Dict[str, object]):
        for key in sorted(entries):
            if isinstance(entries[key], dict):
                yield from opened(f"{prefix}.{key}", entries[key])
            else:
                yield f"{prefix}.{key}", entries[key]

    out: Dict[str, object] = {f"{scenario}.points": len(points)}
    for i, point in enumerate(points):
        out.update(opened(f"{scenario}[{i}]", point))
    return out
