"""The repo's benchmark: four workloads, two clocks, per-layer attribution.

Two ways in, one worker underneath:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` runs one
  workload in this process and ends with one JSON line (the contract in
  ``BENCHMARK.json``; ``--trace 0`` gives the end-to-end metrics from an
  *untraced* pass, ``--trace 1`` the per-layer metrics from a traced one);
* ``run.py [--seed N] [--smoke]`` runs all four, each block in a fresh
  subprocess of the first form, round-robin in three blocks so machine
  drift spreads evenly, then one traced subprocess per workload; checks
  determinism across iterations, passes and two ``PYTHONHASHSEED``
  values; prints every metric by name and writes one results JSON.

A sample is one ``Session.run(body)`` on a fresh ``Session``: inputs are
generated before the clock starts and bytes are verified after it stops.
See README.md for every metric's definition.
"""

from __future__ import annotations

import time

_T_PROCESS = time.perf_counter()  # setup_s counts from here, imports included

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
WORKER = HERE / "run.py"  # what a full run spawns per block

WARMUPS = 2  # per set-up: one cold iteration, one warm
SETUP_REPEATS = 3  # set-ups per untraced run; setup_s is their median
TRACED_ITERATIONS = 2
BLOCKS = 3
MIN_TIMED = 3  # a --seconds window always holds at least this many samples

#: Seconds one calibration pass takes on the reference machine (this
#: repo's 2-vCPU sandbox when its neighbours are quiet, pinned to one CPU).
#: It only fixes the unit: parent and change are scaled by the same value.
CALIB_NOMINAL_S = 0.020
#: Share of each iteration's wall spent calibrating just before it.
CALIB_SHARE = 0.15


def _import_program():
    """Put ``src/`` on the path; a checkout without the program is an error."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"spine: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import metrics
    import probes
    import workloads

    return metrics, probes, workloads


def pin() -> None:
    """Run on one CPU.  The engine runs one rank thread at a time, and on
    a shared VM a wake-up that crosses vCPUs costs ~4x one that does not
    and moves with the neighbours' load (README, "Noise")."""
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except OSError:
            pass  # not allowed here: measure unpinned rather than not at all


class Calibrator:
    """Times a fixed kernel next to every iteration.

    The kernel mixes what the simulator's host cost is made of — Python
    bytecode, many tiny numpy calls, a few large ones, thread hand-offs —
    and never touches ``repro``.  Host seconds are reported as
    :func:`calibrated` against the passes timed just before them, which
    is what lets two runs minutes apart on a shared box be compared at
    all (README, "Noise")."""

    def __init__(self) -> None:
        self._small = np.arange(64, dtype=np.int64)
        self._big = np.arange(20_000, dtype=np.int64)[::-1].copy()
        self.passes: List[float] = []
        self.budget = 0.0  # seconds to spend before the next iteration

    def _handoffs(self, n: int) -> None:
        ping, pong = threading.Event(), threading.Event()

        def partner() -> None:
            for _ in range(n):
                ping.wait()
                ping.clear()
                pong.set()

        thread = threading.Thread(target=partner)
        thread.start()
        for _ in range(n):
            ping.set()
            pong.wait()
            pong.clear()
        thread.join()

    def one_pass(self) -> float:
        small, big = self._small, self._big
        t0 = time.perf_counter()
        x = 0
        for i in range(150_000):
            x += i & 7
        for _ in range(2000):
            np.cumsum(small)
            np.searchsorted(small, 17)
            np.concatenate((small, small))
        for _ in range(10):
            np.argsort(big, kind="stable")
            np.cumsum(big)
        self._handoffs(300)
        return time.perf_counter() - t0

    def spend(self) -> List[float]:
        """At least one pass, then more until the budget is used."""
        t_end = time.perf_counter() + self.budget
        first = len(self.passes)
        self.passes.append(self.one_pass())
        while time.perf_counter() < t_end:
            self.passes.append(self.one_pass())
        return self.passes[first:]


def calibrated(seconds: float, passes: List[float]) -> float:
    """Host ``seconds`` rescaled to the reference machine by the
    calibration passes timed next to them."""
    return seconds * CALIB_NOMINAL_S / statistics.fmean(passes)


def tail_percentile(samples: List[float]) -> Optional[Dict[str, float]]:
    """The highest percentile that still has ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


# -- one iteration ---------------------------------------------------------
def iterate(metrics, w, calib: Optional[Calibrator] = None, *, phases: bool = False) -> Dict[str, object]:
    """One sample.  Only ``Session.run`` is on the clock; calibration
    comes before ``busy`` starts, verification after the clock stops."""
    passes = calib.spend() if calib is not None else []
    t_start = time.perf_counter()
    session = w.session()
    acc = None
    if phases:
        from repro.obs.hooks import PhaseAccumulator

        acc = session.tracer.add_hook(PhaseAccumulator())
    gc.collect()
    error = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        session.run(w.body)
    except Exception as exc:  # a failed iteration is counted, the run goes on
        error = repr(exc)
    t1 = time.perf_counter()
    c1 = time.process_time()
    ok = error is None and w.check(session)
    counts = metrics.registry_counts(session, w.payload_bytes)
    if acc is not None:
        seconds = acc.time_by_state()
        counts.update({m: seconds.get(state, 0.0) for state, m in metrics.PHASES.items()})
    if calib is not None:
        calib.budget = CALIB_SHARE * (t1 - t0)
    return {
        "t0": t0, "t1": t1, "wall": t1 - t0, "cpu": c1 - c0, "busy": time.perf_counter() - t_start,
        "calib": passes,
        "makespan": session.makespan, "ok": ok, "error": error, "counts": counts,
    }


def _guard(samples: List[Dict[str, object]]) -> List[str]:
    """Virtual time and every exact count must repeat on every iteration
    that reports it (span-derived counts exist only on traced ones)."""
    seen: Dict[str, object] = {}
    mismatches = []
    for i, s in enumerate(samples):
        for key, value in [("sim_makespan_s", s["makespan"]), *s["counts"].items()]:
            if seen.setdefault(key, value) != value:
                mismatches.append(f"{key}: iteration {i} gave {value!r}, earlier {seen[key]!r}")
    return mismatches


def _traced_pass(metrics, probes, w, calib, name: str):
    """Two iterations under spans, one under the call counter; returns
    the iterations and the per-layer numbers (host seconds calibrated)."""
    timed, folded, spans = [], [], []
    with probes.Probes() as p:
        for _ in range(TRACED_ITERATIONS):
            s = iterate(metrics, w, calib, phases=True)
            logs, boundary_counts = p.harvest()
            fold = probes.attribute(logs, boundary_counts, s["t0"], s["t1"])
            s["counts"].update({k: v for k, v in fold.items() if not k.endswith("_s")})
            folded.append({k: calibrated(v, s["calib"]) for k, v in fold.items() if k.endswith("_s")})
            spans.append((logs, s["t0"]))
            timed.append(s)
    calls = probes.count_calls(lambda: timed.append(iterate(metrics, w)))
    OUT.mkdir(exist_ok=True)
    probes.write_chrome_trace(OUT / f"{name}.trace.json", spans)

    per_layer = dict(timed[0]["counts"])
    for key in folded[0]:
        per_layer[key] = statistics.median(f[key] for f in folded)
    per_layer.update({f"{layer}.calls": n for layer, n in calls.items()})
    metrics.derive(per_layer)
    return timed, per_layer


def _untraced_pass(metrics, probes, w, calib, args) -> List[Dict[str, object]]:
    """``--iterations`` samples, or as many as fit in ``--seconds``."""
    left = probes.installed()
    if left:
        raise RuntimeError(f"untraced pass would run with probes installed: {left}")
    timed: List[Dict[str, object]] = []
    deadline = time.perf_counter() + args.seconds

    def more() -> bool:
        if args.iterations:
            return len(timed) < args.iterations
        return len(timed) < MIN_TIMED or time.perf_counter() < deadline

    while more():
        timed.append(iterate(metrics, w, calib))
    return timed


# -- one workload, this process ----------------------------------------------
def run_workload(args) -> int:
    metrics, probes, workloads = _import_program()
    if args.workload not in workloads.SPECS:
        sys.exit(f"spine: unknown workload {args.workload!r}; have {sorted(workloads.SPECS)}")
    pin()
    t_import = time.perf_counter() - _T_PROCESS
    calib = Calibrator()
    warmups = 1 if args.smoke else WARMUPS
    repeats = 1 if (args.smoke or args.trace) else SETUP_REPEATS

    setups, setups_raw, warm = [], [], []
    for _ in range(repeats):
        passes = calib.spend()
        t0 = time.perf_counter()
        w = workloads.build(args.workload, args.seed, smoke=args.smoke)
        built = time.perf_counter() - t0
        warm = [iterate(metrics, w, calib) for _ in range(warmups)]
        passes = passes + [c for s in warm for c in s["calib"]]
        setups_raw.append(t_import + built + sum(s["busy"] for s in warm))
        setups.append(calibrated(setups_raw[-1], passes))

    per_layer: Dict[str, float] = {}
    if not args.trace:
        reference = timed = _untraced_pass(metrics, probes, w, calib, args)
    else:
        reference = [iterate(metrics, w, calib) for _ in range(TRACED_ITERATIONS)]  # untraced, adjacent
        timed, per_layer = _traced_pass(metrics, probes, w, calib, args.workload)
        wall_traced = per_layer.pop("trace.wall_s")
        wall_plain = statistics.median(calibrated(s["wall"], s["calib"]) for s in reference)
        per_layer["trace.overhead_frac"] = wall_traced / wall_plain - 1.0
        per_layer["trace.unattributed_frac"] = per_layer.pop("trace.unattributed_s") / wall_traced
        per_layer["trace.closure_frac"] = per_layer.pop("trace.closure_s") / wall_traced

    cpu_s = statistics.median(calibrated(s["cpu"], s["calib"]) for s in reference)
    per_layer["host.cpu_s"] = cpu_s
    per_layer["host.calib_ms"] = statistics.median(calib.passes) * 1e3
    unclocked = warm + (reference if args.trace else [])
    mismatches = _guard(unclocked + timed)
    failed = sum(not s["ok"] for s in timed)
    correct = failed == 0 and all(s["ok"] for s in unclocked) and not mismatches

    walls = [calibrated(s["wall"], s["calib"]) for s in reference]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "sim_makespan_s": timed[0]["makespan"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    mib = w.payload_bytes / 2**20
    derived = {
        "setup_cold_s": setups[0],  # the first set-up: lazy imports and first-call caches included
        "failed_frac": failed / len(timed),
        "sim_mib_per_s": mib / end_to_end["sim_makespan_s"] if end_to_end["sim_makespan_s"] else 0.0,
        "host_mib_per_s": mib / end_to_end["wall_s"],
        "wall_raw_s": statistics.median(s["wall"] for s in reference),
        "setup_raw_s": statistics.median(setups_raw),
        "host_cpu_s": cpu_s,
        "wall_samples": len(walls),
    }

    shown = end_to_end
    if args.trace:
        shown = {name: per_layer[name] for name, *_ in metrics.PER_LAYER}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} payload={mib:.3f} MiB")
    for name, value in shown.items():
        print(f"{name:28s} {value:.6g} {metrics.UNITS[name]}")
    if not args.trace:
        tail = tail_percentile(walls)
        if tail:
            print(f"{'wall_s tail':28s} p{tail['percentile']:.1f} = {tail['value']:.6g} s")
        for name, value in derived.items():
            print(f"{name:28s} {value:.6g}")
        print(f"{'host.calib_ms':28s} {per_layer['host.calib_ms']:.3f} ms over {len(calib.passes)} passes")
    for s in timed:
        if s["error"]:
            print(f"iteration failed: {s['error']}")
    for line in mismatches:
        print(f"DETERMINISM MISMATCH {line}")

    if args.detail:
        detail = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "payload_bytes": w.payload_bytes, "end_to_end": end_to_end, "derived": derived,
            "per_layer": per_layer, "wall_samples": walls, "smoke": args.smoke,
            "wall_raw_samples": [s["wall"] for s in reference],
            "calib_samples": [statistics.fmean(s["calib"]) for s in reference],
            "counts": {k: v for k, v in timed[0]["counts"].items() if k in warm[0]["counts"]},
            "attempted": len(timed), "failed": failed, "correct": correct, "mismatches": mismatches,
        }
        Path(args.detail).write_text(json.dumps(detail, indent=1))

    print(json.dumps({
        "correct": correct,
        "attempted": len(timed),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": metrics.UNITS[k]} for k, v in shown.items()},
    }))
    return 0 if correct else 1


# -- all workloads, one subprocess per block -----------------------------------
def _spawn(workload: str, args, *, trace: int, iterations: int, hashseed: int, tag: str) -> Dict:
    detail = OUT / f"{workload}.{tag}.json"
    detail.unlink(missing_ok=True)  # or a worker that dies would leave the last run's numbers to be read
    cmd = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(args.seed),
        "--trace", str(trace), "--iterations", str(iterations), "--detail", str(detail),
    ] + (["--smoke"] if args.smoke else [])
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    body = proc.stdout.rstrip().rsplit("\n", 1)[0]
    print(body, flush=True)
    # 0 = correct, 1 = ran to the end but an iteration or the guard failed
    if proc.returncode not in (0, 1) or not detail.is_file():
        sys.exit(f"spine: {workload} ({tag}) produced no result (exit {proc.returncode})")
    got = json.loads(detail.read_text())
    asked = {"workload": workload, "seed": args.seed, "trace": trace, "smoke": args.smoke}
    if any(got.get(key) != value for key, value in asked.items()):
        sys.exit(f"spine: {workload} ({tag}) answered another request than {asked}")
    return got


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_all(args) -> int:
    metrics, _, workloads = _import_program()
    OUT.mkdir(exist_ok=True)
    names = list(workloads.SPECS)
    blocks = 1 if args.smoke else BLOCKS
    runs: Dict[str, List[Dict]] = {n: [] for n in names}
    for block in range(blocks):
        for name in names:
            total = 2 * blocks if args.smoke else workloads.SPECS[name].iterations
            share = total // blocks + (block < total % blocks)
            runs[name].append(
                _spawn(name, args, trace=0, iterations=share, hashseed=block % 2, tag=f"block{block}")
            )
    traced = {
        n: _spawn(n, args, trace=1, iterations=0, hashseed=1, tag="traced") for n in names
    }

    mismatches: List[str] = []
    report: Dict[str, object] = {}
    for name in names:
        parts = runs[name] + [traced[name]]
        for part in parts:
            mismatches += [f"{name}: {m}" for m in part["mismatches"]]
            if part["end_to_end"]["sim_makespan_s"] != parts[0]["end_to_end"]["sim_makespan_s"]:
                mismatches.append(f"{name}: sim_makespan_s differs between passes or hash seeds")
            for key, value in parts[0]["counts"].items():
                if part["counts"].get(key) != value:
                    mismatches.append(f"{name}: {key} {part['counts'].get(key)!r} != {value!r}")
        samples = {
            "setup_s": [p["end_to_end"]["setup_s"] for p in runs[name]],
            "wall_s": [x for p in runs[name] for x in p["wall_samples"]],
            "sim_makespan_s": [p["end_to_end"]["sim_makespan_s"] for p in runs[name]],
            "peak_rss_mib": [p["end_to_end"]["peak_rss_mib"] for p in runs[name]],
        }
        attempted = sum(p["attempted"] for p in runs[name])
        failed = sum(p["failed"] for p in runs[name])
        wall = statistics.median(samples["wall_s"])
        sim = samples["sim_makespan_s"][0]
        mib = parts[0]["payload_bytes"] / 2**20
        report[name] = {
            "why": workloads.SPECS[name].why,
            "payload_bytes": parts[0]["payload_bytes"],
            "end_to_end": {
                m: {"unit": unit, "better": better, "bound": bound, "exact": m in metrics.EXACT,
                    "value": statistics.median(samples[m]), "samples": samples[m]}
                for m, unit, better, bound in metrics.END_TO_END
            },
            "derived": {
                "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
                "sim_mib_per_s": mib / sim if sim else 0.0, "host_mib_per_s": mib / wall,
                "wall_tail": tail_percentile(samples["wall_s"]),
                "wall_raw_s": [p["derived"]["wall_raw_s"] for p in runs[name]],
                "wall_raw_samples": [x for p in runs[name] for x in p["wall_raw_samples"]],
                "calib_samples": [x for p in runs[name] for x in p["calib_samples"]],
                "setup_cold_s": [p["derived"]["setup_cold_s"] for p in runs[name]],
                "calib_ms": [p["per_layer"]["host.calib_ms"] for p in parts],
            },
            "per_layer": {
                k: {"unit": metrics.UNITS[k], "value": v} for k, v in traced[name]["per_layer"].items()
            },
        }

    print("\n== summary (end-to-end from the untraced pass; per-layer from the traced pass) ==")
    for name in names:
        r = report[name]
        d = r["derived"]
        print(f"\n[{name}] {d['attempted']} iterations, {d['failed']} failed "
              f"(failed_frac {d['failed_frac']:.3g}), payload {r['payload_bytes'] / 2**20:.3f} MiB")
        for m, e in r["end_to_end"].items():
            print(f"  {m:26s} {e['value']:.6g} {e['unit']}  (n={len(e['samples'])})")
        if d["wall_tail"]:
            print(f"  {'wall_s tail':26s} p{d['wall_tail']['percentile']:.1f} = {d['wall_tail']['value']:.6g} s")
        print(f"  {'sim bandwidth':26s} {d['sim_mib_per_s']:.6g} MiB/s  (host {d['host_mib_per_s']:.6g} MiB/s)")
        print(f"  {'setup_cold_s per block':26s} " + " ".join(f"{x:.4g}" for x in d["setup_cold_s"]))
        print(f"  {'wall_raw_s per block':26s} " + " ".join(f"{x:.4g}" for x in d["wall_raw_s"]))
        print(f"  {'host.calib_ms per process':26s} " + " ".join(f"{c:.2f}" for c in d["calib_ms"]))
        pl = r["per_layer"]
        shares = {k[:-7]: pl[k]["value"] for k in pl if k.endswith(".self_s")}
        shares["sim"] = pl["sim.sched_s"]["value"]
        total = sum(shares.values()) or 1.0
        print("  traced self time: " + ", ".join(
            f"{layer} {100 * v / total:.0f}%" for layer, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        closed = abs(pl["trace.closure_frac"]["value"]) <= 0.05 and pl["trace.unattributed_frac"]["value"] <= 0.15
        print(f"  closure: error {pl['trace.closure_frac']['value']:.4f}, unattributed "
              f"{pl['trace.unattributed_frac']['value']:.3f}, tracing overhead "
              f"{pl['trace.overhead_frac']['value']:.3f} -> {'ok' if closed else 'NOT CLOSED'}")
    for line in mismatches:
        print(f"DETERMINISM MISMATCH {line}")

    ok = not mismatches and all(
        p["correct"] for name in names for p in runs[name] + [traced[name]]
    )
    result = {
        "schema": "spine/1", "commit": _commit(), "seed": args.seed, "smoke": args.smoke,
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "nproc": os.cpu_count(), "machine": platform.machine()},
        "ok": ok, "mismatches": mismatches, "workloads": report,
    }
    out = Path(args.out) if args.out else OUT / "results.json"
    out.write_text(json.dumps(result, indent=1))
    print(f"\nresults: {out}  ({'ok' if ok else 'FAILED'})")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run this one workload in-process (the BENCHMARK.json form)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0, help="length of the timed window")
    ap.add_argument("--iterations", type=int, default=0, help="timed iterations (overrides --seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="quarter-size inputs, 2 iterations: plumbing check")
    ap.add_argument("--detail", help="also write this run's samples and counts here (JSON)")
    ap.add_argument("--out", help="results file of a full run (default benchmarks/spine/out/results.json)")
    args = ap.parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
