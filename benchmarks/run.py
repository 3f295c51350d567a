#!/usr/bin/env python
"""Run the experiment table and hold ``BENCH.json`` to it.

Usage::

    python benchmarks/run.py [--check] [name ...]

Runs the named experiments of ``benchmarks/experiments.py`` (default:
all), prints each as a table and runs its checks.  The experiments are
independent, so they run in a pool of one worker process per CPU and
print in table order.  Every value is
simulated and deterministic, so the committed ``BENCH.json`` is held
*exactly*: ``--check`` also compares every regenerated row with
``BENCH.json`` and exits 1 with one ``experiment[cell].field: old ->
new`` line per difference (what CI runs).

``BENCH.json`` is rewritten only by ``tests/pins.py``, with the other
pin sets, after a change meant to move virtual time
(docs/cost_model.md "Moving virtual time on purpose").  It carries no
commit id: it is versioned, and ``git log -p BENCH.json`` is the
trajectory.  ``diff`` here is the one differ of every pin set.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

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


def _measure(name: str) -> Tuple[Rows, float]:
    """The rows of one experiment, through JSON so that what is checked
    and compared is what is stored, and the wall seconds they took."""
    t0 = time.time()
    rows = json.loads(json.dumps(run_experiment(EXPERIMENTS[name])))
    return rows, time.time() - t0


def run_all(names: List[str], workers: int = 0) -> Iterator[Tuple[str, Rows, float]]:
    """``(name, rows, wall seconds)`` of each named experiment, in the
    order of ``names``.  Every experiment is deterministic and shares
    nothing with another, so they run in a pool of ``workers`` processes
    (default: one per CPU, at most one per experiment); one worker runs
    them here, in this process (what the entry census needs: it records
    the functions this process enters)."""
    workers = workers or min(os.cpu_count() or 1, len(names))
    if workers == 1:
        for name in names:
            yield (name, *_measure(name))
        return
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
        for name, (rows, seconds) in zip(names, pool.map(_measure, names)):
            yield name, rows, seconds


_HEX_FLOAT = re.compile(r"-?0x[0-9a-f]\.?[0-9a-f]*p[-+]\d+")
_ABSENT = object()


def _show(value: object) -> str:
    """A stored value as the diff prints it: floats pinned as ``.hex()``
    strings print as numbers, everything else as its ``repr``."""
    if isinstance(value, str) and _HEX_FLOAT.fullmatch(value):
        return repr(float.fromhex(value))
    return repr(value)


def moved(old: Dict[str, object], new: Dict[str, object]) -> List[str]:
    """The keys of two flattened pin sets whose values differ (a key one
    side lacks counts): ``old``'s first, in their order, then the keys
    only ``new`` has.  Parsed values are compared, never text."""
    return [key for key in {**old, **new} if old.get(key, _ABSENT) != new.get(key, _ABSENT)]


def diff(old: Dict[str, object], new: Dict[str, object]) -> List[str]:
    """``key: old -> new`` for every key of :func:`moved`, ``None`` on
    the side that lacks it: the one differ of every pin set."""
    return [f"{key}: {_show(old.get(key))} -> {_show(new.get(key))}" for key in moved(old, new)]


def flat(name: str, rows: Rows) -> Dict[str, object]:
    """One experiment's stored values as ``name[cell].field`` keys, after
    its row count ``name.rows``."""
    out: Dict[str, object] = {f"{name}.rows": len(rows)}
    for row in rows:
        cell = f"{name}[" + ",".join(f"{k}={v}" for k, v in row["cell"].items()) + "]"
        for field in ("sim_makespan_s", "total_bytes", "verified"):
            out[f"{cell}.{field}"] = row.get(field)
        for group in ("counts", "extra"):
            out.update({f"{cell}.{group}.{k}": v for k, v in row.get(group, {}).items()})
    return out


def failed_checks(exp: Experiment, rows: Rows) -> List[str]:
    """One ``CHECK FAILED`` line per check of ``exp`` that does not hold
    on ``rows``."""
    failed = []
    for check in exp.checks:
        try:
            check(rows)
        except AssertionError as exc:
            failed.append(f"CHECK FAILED {exp.name}::{check.__name__}: {exc}")
    return failed


def dump(doc: Dict[str, Rows]) -> str:
    """One row per line, so ``git log -p BENCH.json`` reads as a table."""
    entries = [
        f' "{name}": [\n' + ",\n".join("  " + json.dumps(row) for row in rows) + "\n ]"
        for name, rows in doc.items()
    ]
    return "{\n" + ",\n".join(entries) + "\n}\n"


def main(argv: List[str], path: Path = BENCH_JSON, workers: int = 0) -> int:
    flags = {a for a in argv if a.startswith("--")}
    names = [a for a in argv if a not in flags] or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS] + sorted(flags - {"--check"})
    if unknown:
        print(__doc__)
        print(f"unknown: {unknown}; experiments: {' '.join(EXPERIMENTS)}")
        return 2
    stored: Dict[str, Rows] = json.loads(path.read_text()) if path.exists() else {}
    failed = 0
    for name, rows, seconds in run_all(names, workers):
        exp = EXPERIMENTS[name]
        print(exp.show(exp.title, rows))
        check_failures = failed_checks(exp, rows)
        if check_failures:
            print("\n".join(check_failures))
        failed += len(check_failures)
        if flags:
            drift = (
                diff(flat(name, stored[name]), flat(name, rows))
                if name in stored
                else [f"{name}: no entry in {path.name} -> {len(rows)} rows"]
            )
            print("\n".join(drift) or f"{name}: identical to {path.name}")
            failed += len(drift)
        print(f"[{name}: {len(rows)} rows, {len(exp.checks)} checks, "
              f"{seconds:.1f} s wall]\n")
    if failed:
        print(f"{failed} failed checks / differences")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
