"""Self time per function of one ``repro`` layer, on one spine workload.

    python3 benchmarks/layer_profile.py --workload fig7_steps --seed 3 --layer fs
    python3 benchmarks/layer_profile.py --smoke      # quarter-size plumbing check (CI)

Every function defined under ``src/repro/<layer>/`` — module functions,
methods, static and class methods, property accessors — is wrapped
from out here (nothing under ``src/`` changes, and every binding is
restored afterwards), the workload runs ``--iterations`` times, and the
table gives per iteration each function's self time and calls on the
rank threads.  Self time is a span's duration minus the spans of the
wrapped functions it called and minus the time its thread spent parked
in ``RankContext`` (the spine's ``sim`` boundary): while a rank is
parked another one runs, so, as in ``probes.attribute``, parking and
whatever runs inside it belong to no function.  Work in other layers
counts as its caller's.  A generator function's span covers only its
creation; its body runs inside whichever function consumes it.

The wrappers cost a few hundred nanoseconds per call and are charged to
the caller, so the table finds candidates; the spine (``run.py``, with
tracing off) measures the effect of a change.  Pin to one CPU
(``taskset -c 1``) for steadier numbers.  The workloads are the spine's
(``benchmarks/spine/workloads.py``, imported, not changed).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import inspect
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "spine")]

import probes  # noqa: E402  (the spine's boundary table: which calls park a rank)
import workloads  # noqa: E402

#: Functions that hand the processor to another rank.
PARKING = probes.BOUNDARY["sim"]
_PARKED = -1  # span code of a parking call


class Profiler:
    """Wraps one layer's functions; keeps one span list per thread."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._tls = threading.local()
        self._logs: List[list] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording -------------------------------------------------------------
    def _wrap(self, fn: Callable, code: int) -> Callable:
        tls, logs, clock = self._tls, self._logs, time.perf_counter

        def span(*args, **kwargs):
            try:
                spans, stack = tls.log
            except AttributeError:
                spans, stack = tls.log = ([], [])
                logs.append((threading.get_ident(), spans))
            index = len(spans)
            spans.append(None)
            stack.append(index)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (code, t0, t1, stack[-1] if stack else -1)

        span.__layer_profile__ = True
        span.__wrapped__ = fn
        return span

    def _code(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    # -- patching ----------------------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        old = vars(owner)[attr]
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _rebind(self, old, new) -> None:
        """Point every ``repro`` module global that is ``old`` at ``new``
        (a function imported by name lives in each importer)."""
        for mod in [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "repro"]:
            for key, value in list(vars(mod).items()):
                if value is old:
                    self._patch(mod, key, new)

    def _wrapped(self, member, name: str):
        """The wrapped form of a class attribute, or None to leave it."""
        if getattr(member, "__layer_profile__", False) or name == "__del__":
            return None
        if inspect.isfunction(member):
            return self._wrap(member, self._code(name))
        if isinstance(member, (staticmethod, classmethod)):
            return type(member)(self._wrap(member.__func__, self._code(name)))
        if isinstance(member, property):
            parts = [
                None if f is None else self._wrap(f, self._code(f"{name}.{label}"))
                for f, label in ((member.fget, "get"), (member.fset, "set"), (member.fdel, "del"))
            ]
            return property(*parts, member.__doc__)
        return None

    def install(self, layer: str) -> None:
        engine = importlib.import_module("repro.sim.engine")
        for attr in PARKING["repro.sim.engine"]["RankContext"]:
            self._patch(engine.RankContext, attr, self._wrap(vars(engine.RankContext)[attr], _PARKED))
        package = importlib.import_module(f"repro.{layer}")
        modules = [package] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(package.__path__, f"{package.__name__}.")
        ]
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for key, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # imported, not defined here
                if inspect.isfunction(obj) and not getattr(obj, "__layer_profile__", False):
                    self._rebind(obj, self._wrap(obj, self._code(f"{short}.{key}")))
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        new = self._wrapped(member, f"{key}.{attr}")
                        if new is not None:
                            self._patch(obj, attr, new)

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- attribution -------------------------------------------------------------
    def harvest(self) -> Tuple[Dict[int, float], Dict[int, int]]:
        """Self seconds and calls per function code on the rank threads
        since the last harvest; call it between runs, from the thread
        that starts them.  A span inside a parking call is dropped with
        it: its duration, too, holds other ranks' work."""
        self_s: Dict[int, float] = defaultdict(float)
        calls: Dict[int, int] = defaultdict(int)
        caller = threading.get_ident()
        for thread, spans in self._logs:
            parked: List[bool] = []
            for code, t0, t1, parent in spans if thread != caller else ():
                inside = parent >= 0 and parked[parent]
                parked.append(inside or code == _PARKED)
                if inside:
                    continue
                if parent >= 0:
                    self_s[spans[parent][0]] -= t1 - t0
                if code != _PARKED:
                    self_s[code] += t1 - t0
                    calls[code] += 1
            spans.clear()  # its thread may record more: keep the list
        return self_s, calls


def profile(name: str, seed: int, layer: str, iterations: int, smoke: bool) -> int:
    w = workloads.build(name, seed, smoke=smoke)
    w.session().run(w.body)  # imports, first-call caches
    prof = Profiler()
    prof.install(layer)
    walls, ok = [], True
    self_s: Dict[int, float] = defaultdict(float)
    calls: Dict[int, int] = defaultdict(int)
    try:
        for _ in range(iterations):
            session = w.session()
            gc.collect()
            prof.harvest()  # set-up and the last check: not the run
            t0 = time.perf_counter()
            session.run(w.body)
            walls.append(time.perf_counter() - t0)
            got_s, got_calls = prof.harvest()
            for code, s in got_s.items():
                self_s[code] += s
            for code, n in got_calls.items():
                calls[code] += n
            ok = ok and w.check(session)
    finally:
        prof.remove()

    rows = sorted(calls, key=lambda c: -self_s[c])
    total_s, total_calls = sum(self_s.values()), sum(calls.values())
    print(f"# {name} seed={seed} layer={layer} iterations={iterations}{' smoke' if smoke else ''}")
    print(f"# traced wall {1e3 * sum(walls) / iterations:.1f} ms/iteration; "
          f"{layer} self {1e3 * total_s / iterations:.1f} ms, {total_calls / iterations:.0f} calls")
    print(f"{'self ms':>9} {'calls':>9} {'us/call':>8}  function")
    for code in rows:
        s, n = self_s[code] / iterations, calls[code] / iterations
        print(f"{1e3 * s:9.2f} {n:9.0f} {1e6 * s / n:8.2f}  {prof.names[code]}")
    if not ok:
        print("WRONG BYTES: the workload's oracle check failed")
    return 0 if ok and rows else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="fig7_steps", choices=sorted(workloads.SPECS))
    ap.add_argument("--seed", type=int, default=3)
    # Not sim: its functions are the rank threads' outermost frames and
    # the parking itself, so their self time would be everyone's.
    ap.add_argument("--layer", default="fs", choices=[l for l in probes.LAYERS if l != "sim"])
    ap.add_argument("--iterations", type=int, default=5)
    ap.add_argument("--smoke", action="store_true", help="quarter-size inputs, one iteration")
    args = ap.parse_args(argv)
    iterations = 1 if args.smoke else args.iterations
    return profile(args.workload, args.seed, args.layer, iterations, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
