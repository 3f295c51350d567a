#!/usr/bin/env python
"""Hold every virtual-time pin, or move them all on purpose, with one command.

Usage::

    python tests/pins.py --check    # report what moved; exit 1 if anything did
    python tests/pins.py --write    # report it, then rewrite every pin file

Both modes first run the byte oracles (``ORACLES``) and stop at the first
failure, so wrong bytes are never re-pinned.  They then capture the pin
sets of ``SETS`` — ``BENCH.json``, ``PINS`` of ``test_engine_schedule.py``,
``data/registry_golden.json``, ``data/cli_golden.json`` and
``_MAKESPANS`` of ``test_engine_scaling.py``, in that order — and print
one report: per set, a ``name: old -> new`` line per value that moved
(``benchmarks/run.py``'s ``diff``), then a summary of the makespan cells
that rose and fell, what moved with each, and the moved values per set.

``--write`` rewrites each file one row per line, as it is stored, so
``git diff`` reads as a table, then reruns ``cli_golden.py --check``
under both hash seeds.  A failed experiment check, a row not verified,
a CLI exit code or non-numeral token that moved, or a failed rerun is a
finding: either mode then exits 1.  The ``datatypes`` and ``fs``
data-plane golden replays are oracles, never rewritten here; a change
meant to move one re-records it with its own script first.  The guide
to the report is docs/cost_model.md "Moving virtual time on purpose".
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(ROOT / "tests")]

import cli_golden  # noqa: E402
import registry_golden  # noqa: E402
import run  # noqa: E402  (benchmarks/run.py)
import test_engine_scaling as scaling  # noqa: E402
import test_engine_schedule as schedule  # noqa: E402
from experiments import EXPERIMENTS  # noqa: E402

#: The protocol's step 1: what holds bytes, not times.  Each golden
#: replay sits in the file named with it.
ORACLES = (
    "tests/test_paper_shapes.py",
    "tests/test_exchange_differential.py",
    "tests/test_plan_cache_differential.py",
    "tests/test_pipeline_differential.py",
    "tests/test_collective_property.py",
    "tests/test_roundtrip_property.py",
    "tests/test_datatypes_blockwise.py",  # datatypes golden replay
    "tests/test_fs_dataplane_model.py",  # fs data-plane golden replay
)

#: The field that holds a cell's makespan, in every set that has one.
MAKESPAN_FIELDS = ("sim_makespan_s", "makespan")


@dataclass
class PinSet:
    """One pin file: how to read it and capture it anew, flatten either
    for ``run.diff``, write a capture back in the file's own format, and
    ``review`` (old, new) for what a diff does not show: lines to print
    and findings that fail the run."""

    name: str
    load: Callable[[], object]
    capture: Callable[[], object]
    flat: Callable[[object], Dict[str, object]]
    write: Callable[[object], None]
    review: Callable[[object, object], Tuple[List[str], List[str]]] = lambda old, new: ([], [])


def _json(value: object) -> object:
    """Through JSON, so what is compared is what is stored."""
    return json.loads(json.dumps(value))


def _each(flat_one: Callable[[str, object], Dict[str, object]]) -> Callable[[object], Dict[str, object]]:
    """The flattener of a ``{name: entry}`` file, from that of one entry."""
    return lambda doc: {key: v for name, entry in doc.items() for key, v in flat_one(name, entry).items()}


def _bench_review(old, new) -> Tuple[List[str], List[str]]:
    """Every named check on the new rows, and every row not verified."""
    failed = [line for name, rows in new.items() for line in run.failed_checks(EXPERIMENTS[name], rows)]
    failed += [
        f"NOT VERIFIED {name}{row['cell']}"
        for name, rows in new.items()
        for row in rows
        if row["verified"] is False
    ]
    return [], failed


def _cli_capture() -> List[Dict[str, object]]:
    rows = json.loads(cli_golden.GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        for row in rows:
            row["exit"], row["stdout"] = cli_golden.run_row(row["argv"], tmp, cli_golden.HASH_SEEDS[0])
    return rows


def _cli_flat(rows) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for row in rows:
        cell = "repro " + " ".join(row["argv"])
        out[f"{cell}.exit"] = row["exit"]
        out.update({f"{cell}[{i}]": line for i, line in enumerate(row["stdout"].splitlines())})
    return out


def _cli_review(old, new) -> Tuple[List[str], List[str]]:
    """``describe_change`` of every transcript that changed; one whose
    exit code or a non-numeral token moved is a finding."""
    lines, findings = [], []
    for was, now in zip(old, new):
        if (was["exit"], was["stdout"]) != (now["exit"], now["stdout"]):
            report, worded = cli_golden.describe_change(was, now["exit"], now["stdout"])
            lines += report
            if worded or was["exit"] != now["exit"]:
                findings.append(report[0])
    return lines, findings


SETS = (
    PinSet(
        "BENCH.json",
        load=lambda: json.loads(run.BENCH_JSON.read_text()),
        capture=lambda: {name: rows for name, rows, _ in run.run_all(list(EXPERIMENTS))},
        flat=_each(run.flat),
        write=lambda doc: run.BENCH_JSON.write_text(run.dump(doc)),
        review=_bench_review,
    ),
    PinSet(
        "PINS",
        load=lambda: schedule.PINS,
        capture=schedule.capture,
        flat=schedule.flat,
        write=lambda pins: schedule.rewrite_rows(Path(schedule.__file__), "PINS", schedule.pin_rows(pins)),
    ),
    PinSet(
        "registry_golden.json",
        load=lambda: json.loads(registry_golden.GOLDEN.read_text()),
        capture=lambda: _json({s: registry_golden.run_sweep(s) for s in registry_golden.SCENARIOS}),
        flat=_each(registry_golden.flat),
        write=lambda doc: registry_golden.GOLDEN.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n"),
    ),
    PinSet(
        "cli_golden.json",
        load=lambda: json.loads(cli_golden.GOLDEN.read_text()),
        capture=_cli_capture,
        flat=_cli_flat,
        write=lambda rows: cli_golden.GOLDEN.write_text(json.dumps(rows, indent=1) + "\n"),
        review=_cli_review,
    ),
    PinSet(
        "_MAKESPANS",
        load=lambda: scaling._MAKESPANS,
        capture=lambda: {key: scaling._run(*key).makespan for key in scaling._MAKESPANS},
        flat=lambda spans: {f"ranks={n},alltoall={a}.makespan": x for (n, a), x in spans.items()},
        write=lambda spans: schedule.rewrite_rows(
            Path(scaling.__file__), "_MAKESPANS", {repr(k): repr(x) for k, x in spans.items()}
        ),
    ),
)


def summarize(flats: Dict[str, Tuple[Dict[str, object], Dict[str, object]]]) -> List[str]:
    """The closing summary of a report: ``flats`` maps each set's name to
    its flattened (old, new).  Every makespan cell that rose or fell, by
    how much and which other keys of the same cell moved with it; then
    the count of moved values per set."""
    rose, fell, counts = [], [], []
    for name, (old, new) in flats.items():
        changed = run.moved(old, new)
        counts.append(f"{name} {len(changed)}")
        for key in changed:
            cell, _, field = key.rpartition(".")
            if field not in MAKESPAN_FIELDS:
                continue
            # Schedule makespans are pinned as ``.hex()``; a row without
            # a makespan stores None.
            was, now = (float.fromhex(v) if isinstance(v, str) else v for v in (old.get(key), new.get(key)))
            if was is None or now is None:
                continue
            companions = [k[len(cell) + 1 :] for k in changed if k.startswith(cell + ".") and k != key]
            line = f"  {name} {cell}: {was!r} -> {now!r} ({(now - was) / was * 100:+.3g} %)"
            if companions:
                line += f"; with {', '.join(companions)}"
            (rose if now > was else fell).append(line)
    return (
        [f"makespan cells: {len(rose)} rose, {len(fell)} fell"]
        + (["rose:"] + rose if rose else [])
        + (["fell:"] + fell if fell else [])
        + ["moved values: " + ", ".join(counts)]
    )


def run_oracles() -> List[str]:
    """The ``FAILED`` / ``ERROR`` lines of one ``pytest -x`` over
    ``ORACLES`` (empty when every oracle holds)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ORACLES],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if proc.returncode == 0:
        return []
    print(proc.stdout + proc.stderr)
    named = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return named or [f"pytest exited {proc.returncode}"]


def main(argv: List[str]) -> int:
    if argv not in (["--check"], ["--write"]):
        print(__doc__)
        return 2
    t0 = time.time()
    failed = run_oracles()
    if failed:
        print("byte oracles failed; nothing captured, no pin file written:")
        print("\n".join(failed))
        return 1
    print(f"byte oracles: {len(ORACLES)} files pass ({time.time() - t0:.0f} s)\n")
    flats: Dict[str, Tuple[Dict[str, object], Dict[str, object]]] = {}
    captured, findings = {}, []
    for pins in SETS:
        t1 = time.time()
        old, captured[pins.name] = pins.load(), pins.capture()
        flats[pins.name] = pins.flat(old), pins.flat(captured[pins.name])
        lines = run.diff(*flats[pins.name])
        notes, found = pins.review(old, captured[pins.name])
        findings += found
        print(f"== {pins.name}: {len(lines)} of {len(flats[pins.name][1])} values moved "
              f"({time.time() - t1:.0f} s)")
        print("\n".join(lines + notes + [""]))
    print("== summary")
    print("\n".join(summarize(flats) + findings))
    if argv == ["--write"]:
        for pins in SETS:
            pins.write(captured[pins.name])
        print(f"wrote {len(SETS)} pin sets; tests/cli_golden.py --check under both hash seeds:")
        if cli_golden.main(["--check"]) != 0:
            findings.append("cli_golden.py --check differs after the rewrite")
    print(f"[{time.time() - t0:.0f} s wall]")
    if findings:
        print(f"{len(findings)} finding(s): report them, do not re-pin around them")
        return 1
    drift = argv == ["--check"] and any(run.moved(*pair) for pair in flats.values())
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
