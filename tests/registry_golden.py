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
it.  Run this file to re-record — only when a
change is *meant* to move a count or a virtual time; it prints one
``scenario[point].metric: old -> new`` line per entry that moved (floats
as ``.hex()``, as stored), the shape ``benchmarks/run.py --write`` prints,
so the re-capture is a diff to review and paste into the PR.
"""

from __future__ import annotations

import json
import sys
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


def _flat(point: Dict[str, object], prefix: str = "") -> Dict[str, object]:
    """Histogram entries opened into ``metric.field`` / ``metric.buckets.k``."""
    out: Dict[str, object] = {}
    for key, value in point.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _show(value: object) -> str:
    """Stored floats are ``.hex()`` strings; print them as numbers."""
    if isinstance(value, str) and "0x" in value:
        return repr(float.fromhex(value))
    return repr(value)


def diff(scenario: str, old: List[Dict[str, object]], new: List[Dict[str, object]]) -> List[str]:
    """``scenario[point].metric: old -> new`` for every entry that differs."""
    if len(old) != len(new):
        return [f"{scenario}: {len(old)} points -> {len(new)} points"]
    lines = []
    for i, (was, now) in enumerate(zip(map(_flat, old), map(_flat, new))):
        for metric in sorted(was.keys() | now.keys()):
            if was.get(metric) != now.get(metric):
                lines.append(
                    f"{scenario}[{i}].{metric}: {_show(was.get(metric))} -> {_show(now.get(metric))}"
                )
    return lines


def main(argv) -> int:
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    # Through JSON, so what is compared is what is stored.
    new = json.loads(json.dumps({s: run_sweep(s) for s in SCENARIOS}))
    moved = 0
    for scenario in SCENARIOS:
        lines = diff(scenario, old.get(scenario, []), new[scenario])
        moved += len(lines)
        print("\n".join(lines) or f"{scenario}: identical")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(new, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(SCENARIOS)} sweeps -> {GOLDEN} ({moved} entries moved)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
