"""Host byte copies of the ``fs`` data plane, per call site, on one spine workload.

    python3 benchmarks/copy_sites.py --workload fig7_steps --seed 3 --iterations 3
    python3 benchmarks/copy_sites.py --smoke      # quarter-size plumbing check

Every method of ``repro.fs.store.Slabs`` that moves slab bytes is
wrapped from out here (nothing under ``src/`` changes, and the bindings
are restored afterwards).  Per iteration, the table gives for each
(calling function, ``Slabs`` method) pair the calls, the bytes moved
and the milliseconds spent inside the method, on byte slabs only (the
cache's LRU stamps and the store's page map are left out).  Bytes are
the ``fs.store.copied`` delta of the call where the tree keeps that count
(copy-on-write copies included, references handed over count 0);
otherwise they are the length handed to ``write`` / ``read_into``, the
only copy paths of a tree whose slabs are not shared.  So the same
script measures a tree before and after slabs were shared.

The wrappers cost about a microsecond per call, inside the timed span;
compare sites and trees in one sitting, pinned to one CPU
(``taskset -c 1``).  The workloads are the spine's
(``benchmarks/spine/workloads.py``, imported, not changed).
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "spine")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from repro.fs import store  # noqa: E402
from repro.fs.store import Slabs  # noqa: E402

#: Slabs methods that can move bytes, and the argument whose length is
#: what they move in a tree without ``fs.store.copied``.
METHODS = {"write": 1, "read_into": 1, "fill": None, "share": None, "take": None}


def install(sites: dict, active: list) -> dict:
    """Wrap the methods, recording while ``active[0]``; returns the
    originals."""
    counted = hasattr(store, "copied")
    saved = {}
    for name, arg in METHODS.items():
        fn = getattr(Slabs, name, None)
        if fn is None:
            continue
        saved[name] = fn

        def wrapper(self, *args, _fn=fn, _name=name, _arg=arg, **kw):
            if self.dtype is not np.uint8 or not active[0]:
                return _fn(self, *args, **kw)
            before = store.copied if counted else 0
            t0 = time.perf_counter()
            try:
                return _fn(self, *args, **kw)
            finally:
                took = time.perf_counter() - t0
                caller = sys._getframe(1).f_code
                moved = store.copied - before if counted else len(args[_arg]) if _arg else 0
                row = sites[(getattr(caller, "co_qualname", caller.co_name), _name)]
                row[0] += 1
                row[1] += moved
                row[2] += took

        setattr(Slabs, name, wrapper)
    return saved


def measure(name: str, seed: int, iterations: int, smoke: bool) -> int:
    w = workloads.build(name, seed, smoke=smoke)
    w.session().run(w.body)  # imports, first-call caches
    sites: dict = defaultdict(lambda: [0, 0, 0.0])
    active = [False]  # the run only: not the prefill or the oracle check
    saved = install(sites, active)
    ok = True
    try:
        for _ in range(iterations):
            session = w.session()
            active[0] = True
            session.run(w.body)
            active[0] = False
            ok = ok and w.check(session)
    finally:
        for method, fn in saved.items():
            setattr(Slabs, method, fn)
    total_b = sum(row[1] for row in sites.values()) / iterations
    total_s = sum(row[2] for row in sites.values()) / iterations
    print(f"# {name} seed={seed} iterations={iterations}{' smoke' if smoke else ''}")
    print(f"# per iteration: {total_b / 1e6:.1f} MB copied, {1e3 * total_s:.1f} ms in Slabs")
    print(f"{'MB':>9} {'ms':>8} {'calls':>8}  call site")
    for (caller, method), (calls, moved, took) in sorted(sites.items(), key=lambda kv: -kv[1][1]):
        print(f"{moved / iterations / 1e6:9.1f} {1e3 * took / iterations:8.1f} "
              f"{calls / iterations:8.0f}  {caller} -> Slabs.{method}")
    if not ok:
        print("WRONG BYTES: the workload's oracle check failed")
    return 0 if ok and sites else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="fig7_steps", choices=sorted(workloads.SPECS))
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--iterations", type=int, default=3)
    ap.add_argument("--smoke", action="store_true", help="quarter-size inputs, one iteration")
    args = ap.parse_args(argv)
    iterations = 1 if args.smoke else args.iterations
    return measure(args.workload, args.seed, iterations, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
