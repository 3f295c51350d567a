"""Before/after (or A/A) table from two results files of ``run.py``.

    python benchmarks/spine/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians with their
quartiles, B's change against A, the metric's bound and a verdict.  When
either run's own quartile spread is wider than the bound the row reads
``unresolved`` — the runs cannot tell a regression of that size from
noise — never ``unchanged``.  A metric the results mark ``exact``
(``sim_makespan_s``: bit-deterministic for given inputs) is held to bound
0 when both runs used the same seed and size, so any difference shows.
``wall_raw_s`` rows (uncalibrated host seconds) and per-layer changes
follow without a verdict: they say where a difference sits, they do not
gate.  Exit status 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple


def quartiles(samples: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); one sample is its own."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[float, float, str]:
    """(change of B's median as a share of A's, widest own spread, verdict)."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    change = (bm - am) / am if am else 0.0
    spread = max((a3 - a1) / am if am else 0.0, (b3 - b1) / bm if bm else 0.0)
    worse = change if better == "lower" else -change
    if spread > bound:
        word = "unresolved"
    elif worse > bound:
        word = "REGRESSED"
    elif worse < -bound:
        word = "better"
    else:
        word = "unchanged"
    return change, spread, word


def compare(a: Dict, b: Dict) -> Tuple[List[str], bool]:
    lines = [f"A: commit {a['commit'][:12]} seed {a['seed']}    B: commit {b['commit'][:12]} seed {b['seed']}"]
    same_inputs = a["seed"] == b["seed"] and a["smoke"] == b["smoke"]
    if not same_inputs:
        lines.append("WARNING: the runs used different seeds or sizes; virtual time is not comparable")
    regressed = False
    lines.append(
        f"{'workload':12s} {'metric':16s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} "
        f"{'change':>8s} {'bound':>6s}  verdict"
    )
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            lines.append(f"{name:12s} missing from B")
            continue
        for metric, ea in wa["end_to_end"].items():
            eb = wb["end_to_end"][metric]
            bound = 0.0 if ea["exact"] and same_inputs else ea["bound"]
            change, spread, word = verdict(ea["samples"], eb["samples"], ea["better"], bound)
            regressed |= word == "REGRESSED"
            cells = []
            for e in (ea, eb):
                q1, med, q3 = quartiles(e["samples"])
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            lines.append(
                f"{name:12s} {metric:16s} {cells[0]:>34s} {cells[1]:>34s} "
                f"{100 * change:+7.2f}% {100 * bound:5.0f}%  {word}"
                + (f" (own spread {100 * spread:.1f}%)" if word == "unresolved" else "")
            )
        raw = [quartiles(w["derived"]["wall_raw_samples"]) for w in (wa, wb)]
        cells = [f"{med:.5g} [{q1:.5g}, {q3:.5g}]" for q1, med, q3 in raw]
        lines.append(
            f"{name:12s} {'wall_raw_s':16s} {cells[0]:>34s} {cells[1]:>34s} "
            f"{100 * (raw[1][1] - raw[0][1]) / raw[0][1]:+7.2f}%         not gated"
        )
        fa, fb = wa["derived"]["failed_frac"], wb["derived"]["failed_frac"]
        if fa or fb:
            lines.append(f"{name:12s} failed_frac      A {fa:.4g}  B {fb:.4g}")
            regressed |= fb > fa
    lines.append("")
    lines.append("per-layer (traced pass; no verdict):")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for metric, la in wa["per_layer"].items():
            lb = wb["per_layer"].get(metric)
            if lb is None or la["value"] == lb["value"]:
                continue
            base = la["value"]
            change = f"{100 * (lb['value'] - base) / base:+8.2f}%" if base else "     new"
            lines.append(
                f"  {name:12s} {metric:26s} {la['value']:>14.6g} -> {lb['value']:<14.6g} {la['unit']:6s} {change}"
            )
    return lines, regressed


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.load(open(path)) for path in argv)
    lines, regressed = compare(a, b)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
