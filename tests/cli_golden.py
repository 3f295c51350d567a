"""Golden transcripts of CI's ``python -m repro ...`` lines (helper, not a test module).

``tests/data/cli_golden.json`` is the table: one row per invocation —
``job`` (the CI job that runs it), ``why`` (what the line is there to
catch), ``argv``, and the ``exit`` code and ``stdout`` it produced.  It
was recorded on the commit *before* the CLI moved onto
``Session``/argparse (11 transcripts re-recorded since, numerals only,
when ``allgather`` became log-depth), so ``--check`` is a diff of every
printed status, count, path and virtual time, not just of exit codes.

    python tests/cli_golden.py --check [JOB]      # rerun under two PYTHONHASHSEEDs, diff

The file is rewritten only by ``tests/pins.py`` (with the other pin
sets), after a change *meant* to move a printed time or count.  Its
report prints, per transcript that changed, the exit code (``old ->
new`` if it moved), how many lines differ and whether the difference is
``numerals only`` — every token equal once digits are masked, so no
status word (``ok``, ``verified``, ``DETECTED``, ``FAILED``, ...), name
or path moved — or lists the ``NON-NUMERAL`` lines
(:func:`describe_change`).  A change that is meant to move virtual time
must show numerals only and no exit code moved.

``--workdir DIR`` runs the commands there (CI's ``observability`` job
uploads the ``out.json`` the ``trace`` row writes); the default is a
throwaway directory.  Not tier-1: the 28 rows take ~13 s per seed.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
HASH_SEEDS = ("1", "77")


def run_row(argv, workdir: str, hash_seed: str):
    """(exit code, stdout) of ``python -m repro *argv`` in ``workdir``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout


_NUMERAL = re.compile(r"\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _words(line: str) -> list:
    """The line's tokens with every numeral masked (column padding,
    which follows the digits, is not a token)."""
    return _NUMERAL.sub("#", line).split()


def describe_change(row, code: int, out: str):
    """What ``pins.py`` prints for one changed row — a summary line
    plus the line pairs whose non-numeral tokens differ — and whether
    there were any such pairs."""
    was, now = row["stdout"].splitlines(), out.splitlines()
    differ = [(a, b) for a, b in zip(was, now) if a != b]
    worded = [(a, b) for a, b in differ if _words(a) != _words(b)]
    if len(was) != len(now):
        worded.append((f"<{len(was)} lines>", f"<{len(now)} lines>"))
    exit_note = f"exit {row['exit']}" + ("" if code == row["exit"] else f" -> {code}")
    kind = "NON-NUMERAL tokens moved" if worded else "numerals only"
    lines = [f"CHANGED python -m repro {' '.join(row['argv'])}: {exit_note}, "
             f"{len(differ)} of {len(was)} lines differ, {kind}"]
    for a, b in worded:
        lines += [f"  - {a}", f"  + {b}"]
    return lines, bool(worded)


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", nargs="?", const="", metavar="JOB", required=True,
                    help="rerun every row (or one CI job's rows) and diff")
    ap.add_argument("--workdir", help="run the commands here instead of a temp dir")
    ns = ap.parse_args(argv)
    rows = [r for r in json.loads(GOLDEN.read_text()) if not ns.check or r["job"] == ns.check]
    if not rows:
        print(f"no rows for job {ns.check!r}")
        return 2
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for row in rows:
            for seed in HASH_SEEDS:
                code, out = run_row(row["argv"], ns.workdir or tmp, seed)
                if (code, out) == (row["exit"], row["stdout"]):
                    continue
                bad += 1
                print(f"DIFF python -m repro {' '.join(row['argv'])} "
                      f"[PYTHONHASHSEED={seed}] exit {row['exit']} -> {code}")
                sys.stdout.writelines(difflib.unified_diff(
                    row["stdout"].splitlines(True), out.splitlines(True),
                    "recorded", "now"))
    if bad:
        print(f"cli_golden: {bad} transcript(s) differ")
        return 1
    print(f"cli_golden: {len(rows)} invocations x {len(HASH_SEEDS)} hash seeds identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
