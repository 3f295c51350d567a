#!/usr/bin/env python
"""Run the experiment table and hold ``BENCH.json`` to it.

Usage::

    python benchmarks/run.py [--check | --write] [name ...]

Runs the named experiments of ``benchmarks/experiments.py`` (default:
all), prints each as a table and runs its checks.  Every value is
simulated and deterministic, so the committed ``BENCH.json`` is held
*exactly*:

* ``--check`` also compares every regenerated row with ``BENCH.json``
  and exits 1 with one ``experiment[cell].field: old -> new`` line per
  difference (what CI runs);
* ``--write`` prints the same lines and rewrites the named experiments'
  entries — paste them into the PR description.  ``BENCH.json`` carries
  no commit id: it is versioned, and ``git log -p BENCH.json`` is the
  trajectory.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict, List

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT / "benchmarks"))

from experiments import EXPERIMENTS, Experiment, Rows  # noqa: E402

BENCH_JSON = _ROOT / "BENCH.json"


def run_experiment(exp: Experiment) -> Rows:
    """Every row of ``exp``, each with its ``cell``; a cell function
    that yields another number of rows than the table declares is an
    error (rows == product of axes x fan-out)."""
    shared = {"shared": exp.setup()} if exp.setup else {}
    rows: Rows = []
    for point, cells in exp.cells():
        out = exp.cell(**point, **shared)
        out = out if isinstance(out, list) else [out]
        if len(out) != len(cells):
            raise AssertionError(f"{exp.name}{point}: {len(out)} rows, table says {len(cells)}")
        rows.extend({"cell": cell, **row} for cell, row in zip(cells, out))
    return rows


def _fields(row: Dict[str, object]) -> Dict[str, object]:
    flat = {k: row.get(k) for k in ("sim_makespan_s", "total_bytes", "verified")}
    for group in ("counts", "extra"):
        flat.update({f"{group}.{k}": v for k, v in row.get(group, {}).items()})
    return flat


def diff(name: str, old: Rows, new: Rows) -> List[str]:
    """``name[cell].field: old -> new`` for every stored value that
    differs; parsed values are compared, never text."""

    def keyed(rows):
        return {",".join(f"{k}={v}" for k, v in row["cell"].items()): row for row in rows}

    old_by, new_by = keyed(old), keyed(new)
    lines = []
    for cell in list(old_by) + [c for c in new_by if c not in old_by]:
        if cell not in new_by or cell not in old_by:
            lines.append(f"{name}[{cell}]: " + ("row -> None" if cell in old_by else "None -> row"))
            continue
        was, now = _fields(old_by[cell]), _fields(new_by[cell])
        for field in list(was) + [f for f in now if f not in was]:
            if field not in was or field not in now or was[field] != now[field]:
                lines.append(f"{name}[{cell}].{field}: {was.get(field)!r} -> {now.get(field)!r}")
    return lines


def dump(doc: Dict[str, Rows]) -> str:
    """One row per line, so ``git log -p BENCH.json`` reads as a table."""
    entries = [
        f' "{name}": [\n' + ",\n".join("  " + json.dumps(row) for row in rows) + "\n ]"
        for name, rows in doc.items()
    ]
    return "{\n" + ",\n".join(entries) + "\n}\n"


def main(argv: List[str], path: Path = BENCH_JSON) -> int:
    flags = {a for a in argv if a.startswith("--")}
    names = [a for a in argv if a not in flags] or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS] + sorted(flags - {"--check", "--write"})
    if unknown or flags == {"--check", "--write"}:
        print(__doc__)
        print(f"unknown: {unknown}; experiments: {' '.join(EXPERIMENTS)}")
        return 2
    stored: Dict[str, Rows] = json.loads(path.read_text()) if path.exists() else {}
    failed = 0
    for name in names:
        exp = EXPERIMENTS[name]
        t0 = time.time()
        # Through JSON, so what is checked and compared is what is stored.
        rows = json.loads(json.dumps(run_experiment(exp)))
        print(exp.show(exp.title, rows))
        for check in exp.checks:
            try:
                check(rows)
            except AssertionError as exc:
                failed += 1
                print(f"CHECK FAILED {name}::{check.__name__}: {exc}")
        if flags:
            drift = (
                diff(name, stored[name], rows)
                if name in stored
                else [f"{name}: no entry in {path.name} -> {len(rows)} rows"]
            )
            print("\n".join(drift) or f"{name}: identical to {path.name}")
            if "--check" in flags:
                failed += len(drift)
            stored[name] = rows
        print(f"[{name}: {len(rows)} rows, {len(exp.checks)} checks, "
              f"{time.time() - t0:.1f} s wall]\n")
    if "--write" in flags:
        path.write_text(dump({n: stored[n] for n in EXPERIMENTS if n in stored}))
        print(f"wrote {path}")
    if failed:
        print(f"{failed} failed checks / differences")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
