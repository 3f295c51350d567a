"""Golden transcripts of CI's ``python -m repro ...`` lines (helper, not a test module).

``tests/data/cli_golden.json`` is the table: one row per invocation —
``job`` (the CI job that runs it), ``why`` (what the line is there to
catch), ``argv``, and the ``exit`` code and ``stdout`` it produced.  It
was recorded on the commit *before* the CLI moved onto
``Session``/argparse, so ``--check`` is a parent-vs-change diff of every
printed status, count, path and virtual time, not just of exit codes.

    python tests/cli_golden.py --check [JOB]      # rerun under two PYTHONHASHSEEDs, diff
    python tests/cli_golden.py --record           # refresh exit/stdout of the rows in the file

``--workdir DIR`` runs the commands there (CI's ``observability`` job
uploads the ``out.json`` the ``trace`` row writes); the default is a
throwaway directory.  Not tier-1: the 26 rows take ~12 s per seed.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
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


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", nargs="?", const="", metavar="JOB",
                      help="rerun every row (or one CI job's rows) and diff")
    mode.add_argument("--record", action="store_true",
                      help="rewrite exit/stdout of the rows in the file")
    ap.add_argument("--workdir", help="run the commands here instead of a temp dir")
    ns = ap.parse_args(argv)
    rows = json.loads(GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        workdir = ns.workdir or tmp
        if ns.record:
            for row in rows:
                row["exit"], row["stdout"] = run_row(row["argv"], workdir, HASH_SEEDS[0])
            GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")
            print(f"recorded {len(rows)} invocations -> {GOLDEN}")
            return 0
        rows = [r for r in rows if not ns.check or r["job"] == ns.check]
        if not rows:
            print(f"no rows for job {ns.check!r}")
            return 2
        bad = 0
        for row in rows:
            for seed in HASH_SEEDS:
                code, out = run_row(row["argv"], workdir, seed)
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
