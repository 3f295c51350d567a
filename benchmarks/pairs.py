"""Alternating A/B pairs of one spine workload, two source trees.

    python3 benchmarks/pairs.py A_TREE B_TREE --workload W --seed S --pairs N --seconds T
    python3 benchmarks/pairs.py . . --workload ranks_many --smoke   # A/A plumbing check

Each pair runs ``benchmarks/spine/run.py --workload W --seed S --seconds
T --trace 0`` once in each tree (a fresh interpreter each, its working
directory the tree), A first in even pairs and B first in odd ones, so
a machine that drifts during the sitting loads both sides alike.  Runs
are pinned with ``taskset -c 1`` where the command exists and the
process may use CPU 1.  ``A_TREE`` is the baseline (the parent).

It prints every run, then per end-to-end metric of ``BENCHMARK.json``:
each side's median and quartiles, B's change against A's median, the
pairs B won (strictly better in the metric's direction), and whether the
medians differ by more than A's inter-quartile range.  Exit 1 when a
run crashed, failed an operation or failed its oracle; the numbers
themselves never fail it.  ``--smoke`` passes ``--smoke`` to run.py
(quarter-size inputs, 2 iterations) and runs one pair.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np


def _pin() -> List[str]:
    if shutil.which("taskset") and 1 in os.sched_getaffinity(0):
        return ["taskset", "-c", "1"]
    return []


def run_once(tree: Path, args) -> dict:
    """One untraced run of the workload in ``tree``: its final JSON
    line, or ``{"error": ...}`` when it printed none."""
    cmd = _pin() + [
        sys.executable, "benchmarks/spine/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}


def _quartiles(xs: List[float]):
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return float(q1), float(med), float(q3)


def summarise(metrics: List[dict], runs: Dict[str, List[dict]]) -> List[str]:
    """One line per end-to-end metric (see the module docstring)."""
    lines = [
        f"{'metric':<16}{'A median [q1, q3]':<40}{'B median [q1, q3]':<40}"
        f"{'B vs A':>8}{'B won':>8}{'gap > A IQR':>13}"
    ]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        side = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in "AB"}
        (a1, am, a3), (b1, bm, b3) = _quartiles(side["A"]), _quartiles(side["B"])
        won = sum((b < a) if lower else (b > a) for a, b in zip(side["A"], side["B"]))
        change = (bm - am) / am if am else 0.0
        gap = abs(bm - am) > a3 - a1
        won_of = f"{won}/{len(side['B'])}"
        lines.append(
            f"{name:<16}{f'{am:.6g} [{a1:.6g}, {a3:.6g}]':<40}{f'{bm:.6g} [{b1:.6g}, {b3:.6g}]':<40}"
            f"{change:>+8.1%}{won_of:>8}{'yes' if gap else 'no':>13}"
        )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a_tree", type=Path, help="baseline source tree (the parent)")
    ap.add_argument("b_tree", type=Path, help="source tree of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--smoke", action="store_true", help="quarter-size inputs, one pair")
    args = ap.parse_args(argv)
    if args.smoke:
        args.pairs = 1
    trees = {"A": args.a_tree.resolve(), "B": args.b_tree.resolve()}
    metrics = json.loads((trees["A"] / "BENCHMARK.json").read_text())["end_to_end"]
    names = [m["name"] for m in metrics]
    print(f"# {args.workload} seed={args.seed} pairs={args.pairs} seconds={args.seconds}"
          f"{' smoke' if args.smoke else ''} pin={' '.join(_pin()) or 'none'}")
    print(f"# A={trees['A']}\n# B={trees['B']}")
    print(f"{'pair':>4} {'side':>4} " + " ".join(f"{n:>14}" for n in names) + f" {'failed':>6}")
    runs: Dict[str, List[dict]] = {"A": [], "B": []}
    bad = 0
    for i in range(args.pairs):
        for s in ("AB" if i % 2 == 0 else "BA"):
            got = run_once(trees[s], args)
            if "error" in got or not got.get("correct") or got.get("failed"):
                bad += 1
                print(f"{i:>4} {s:>4} {got.get('error') or got}")
                continue
            runs[s].append(got)
            print(f"{i:>4} {s:>4} " + " ".join(
                f"{got['metrics'][n]['value']:>14.6g}" for n in names
            ) + f" {got['failed']:>6}", flush=True)
    if bad:
        print(f"{bad} run(s) failed")
        return 1
    print()
    print("\n".join(summarise(metrics, runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
