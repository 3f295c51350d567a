"""Entry census: which surface enters each function of ``src/repro`` (helper, not a test module).

Records which ``src/repro`` code objects are entered, phase by phase,
while running the three product surfaces

* every row of ``tests/data/cli_golden.json``, both CI groups, through
  ``repro.__main__.main(argv)``;
* the seven ``examples/*.py``, through ``runpy``;
* ``benchmarks/run.py --check``, through its ``main`` with one worker;

and then the tier-1 suite (``pytest -q`` in this process, ``-m 'not
slow'``), and sorts every ``def`` in ``src/repro`` into one of three
groups: *never entered*, *tier-1 only* (no product phase enters it) and
*product*.  The examples and the CLI rows run in this process because
their own harnesses start subprocesses with a fresh ``PYTHONPATH``,
which a profiler installed here never reaches.  During the product
phases it also records every ``Hints`` key constructed with a
non-default value.

    python tests/census.py            # print both lists and the hints no product turns
    python tests/census.py --check    # ... and exit 1 unless tests/data/census.json
                                      # accounts for them exactly

Entries are recorded with ``sys.setprofile`` and ``threading.setprofile``
(simulated ranks run on threads).  A test that installs its own
profiler gets it chained behind the census one, and clearing it clears
only its own, so a counting test cannot switch the census off.  A
function counts as entered when a code object starting on the line of
its ``def`` or of its first decorator (``co_firstlineno``) ran.

``tests/data/census.json`` holds two maps, ``never`` and ``tier1_only``,
from ``path::Qualname`` (path relative to ``src/repro``) to the one-line
reason the function stays.  ``--check`` fails on a function of either
group the matching map does not list, on a listed one that moved group
or is gone, so the file cannot go stale, and on a ``Hints`` key no
product phase turns: a hint with one value in use is a constant.  Under
the profiler the whole census takes 11–15 min on 2 CPUs.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
KEPT = Path(__file__).parent / "data" / "census.json"


class Recorder:
    """The census profiler, kept installed on every thread: a profiler
    some code installs runs behind it, and installing ``None`` (or
    restoring what ``getprofile`` returned) leaves only the census."""

    def __init__(self):
        self.codes = {}
        self._rec = self._record
        self._real = (sys.setprofile, sys.getprofile,
                      threading.setprofile, threading.getprofile)

    def _record(self, frame, event, arg):
        if event == "call":  # keyed by id: hashing a code object hashes its bytecode
            co = frame.f_code
            self.codes[id(co)] = co

    def _chained(self, inner):
        if inner is None or inner is self._rec or hasattr(inner, "inner"):
            return inner or self._rec
        record = self._rec

        def hook(frame, event, arg):
            record(frame, event, arg)
            return inner(frame, event, arg)

        hook.inner = inner
        return hook

    @staticmethod
    def _unwrap(hook):
        return getattr(hook, "inner", None)

    @contextlib.contextmanager
    def installed(self):
        set_sys, get_sys, set_thr, get_thr = self._real
        sys.setprofile = lambda f: set_sys(self._chained(f))
        sys.getprofile = lambda: self._unwrap(get_sys())
        threading.setprofile = lambda f: set_thr(self._chained(f))
        threading.getprofile = lambda: self._unwrap(get_thr())
        threading.setprofile(None)
        sys.setprofile(None)
        try:
            yield self
        finally:
            set_sys(None)
            set_thr(None)
            sys.setprofile, sys.getprofile, threading.setprofile, threading.getprofile = self._real

    def take(self):
        """{(file, first line)} of every code object entered under ``src/repro``
        since the last call, which starts the next phase's record."""
        prefix = str(SRC) + os.sep
        codes, self.codes = self.codes, {}
        return {(co.co_filename, co.co_firstlineno)
                for co in codes.values() if co.co_filename.startswith(prefix)}


@contextlib.contextmanager
def turned_hints():
    """The set of ``Hints`` keys constructed with a non-default value
    inside the block."""
    from repro.mpi.hints import Hints

    turned = set()
    init = Hints.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        turned.update(k for k, v in self.explicit().items() if v != Hints.default(k))

    Hints.__init__ = recording
    try:
        yield turned
    finally:
        Hints.__init__ = init


def functions():
    """[(key, file, first lines, line count)] of every ``def`` in ``src/repro``."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = ".".join(scope + [child.name])
                    for deco in child.decorator_list:  # a property's setter / deleter
                        if isinstance(deco, ast.Attribute) and deco.attr in ("setter", "deleter"):
                            name += f".{deco.attr}"
                    first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                    out.append((f"{rel}::{name}", str(path), {child.lineno, first},
                                child.end_lineno - first + 1))
                    walk(child, scope + [child.name])
                elif isinstance(child, ast.ClassDef):
                    walk(child, scope + [child.name])
                else:
                    walk(child, scope)

        walk(ast.parse(path.read_text(), str(path)), [])
    return out


@contextlib.contextmanager
def _quiet(cwd=None):
    """Stdout and stderr swallowed, ``cwd`` entered, ``sys.argv`` restored."""
    old_cwd, old_argv = os.getcwd(), sys.argv[:]
    sink = io.StringIO()
    try:
        if cwd:
            os.chdir(cwd)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            yield sink
    finally:
        os.chdir(old_cwd)
        sys.argv = old_argv


def _run_script(path: Path, *args: str) -> int:
    """Exit code of ``python path *args``, run in this process."""
    sys.argv = [str(path), *args]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        return 0 if exc.code is None else exc.code
    return 0


def run_tier1():
    import pytest

    return int(pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]))


def run_cli_rows():
    from repro.__main__ import main

    bad = 0
    for row in json.loads((ROOT / "tests" / "data" / "cli_golden.json").read_text()):
        with tempfile.TemporaryDirectory() as tmp, _quiet(tmp) as out:
            code = main(list(row["argv"]))
        if (code, out.getvalue()) != (row["exit"], row["stdout"]):
            print(f"  cli row {row['argv']}: exit {row['exit']} -> {code} or stdout differs")
            bad += 1
    return bad


def run_examples():
    bad = 0
    for path in sorted((ROOT / "examples").glob("*.py")):
        with tempfile.TemporaryDirectory() as tmp, _quiet(tmp):
            code = _run_script(path)
        if code:
            print(f"  example {path.name}: exit {code}")
            bad += 1
    return bad


def run_bench_check():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import run  # benchmarks/run.py

    with _quiet() as out:
        code = run.main(["--check"], workers=1)  # here, where the profiler sees it
    if code:
        print(out.getvalue()[-4000:])
    return code


#: (name, runner, is a product surface).  The product phases run first,
#: so what importing ``repro`` runs (decorators, module-level calls) is
#: counted as product, as it is for every user of the package.
PHASES = (("cli rows", run_cli_rows, True), ("examples", run_examples, True),
          ("run.py --check", run_bench_check, True), ("tier-1", run_tier1, False))


def _diff(group, found, listed):
    """Lines naming each function of ``group`` missing from or stale in ``listed``."""
    return ([f"{group.upper()}, not in {KEPT.name}: {key}" for key in sorted(set(found) - set(listed))]
            + [f"STALE in {KEPT.name} {group} (moved group or gone): {key}"
               for key in sorted(set(listed) - set(found))])


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 unless tests/data/census.json accounts for both lists exactly "
                         "and a product phase turns every hint")
    ns = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    failed, tier1, product, turned = [], set(), set(), set()
    with Recorder().installed() as rec:
        for name, phase, is_product in PHASES:
            t0 = time.perf_counter()
            with turned_hints() as keys:
                code = phase()
            entered = rec.take()
            (product if is_product else tier1).update(entered)
            if is_product:
                turned |= keys
            print(f"census: {name}: exit {code} ({time.perf_counter() - t0:.0f} s)", flush=True)
            if code:
                failed.append(name)
    from repro.mpi.hints import Hints

    funcs = functions()
    dupes = sorted(k for k, n in Counter(key for key, *_ in funcs).items() if n > 1)
    never, only = {}, {}
    for key, path, lines, n in funcs:
        if not any((path, line) in product for line in lines):
            hit = any((path, line) in tier1 for line in lines)
            (only if hit else never)[key] = n
    unturned = sorted(set(Hints.known_keys()) - turned)
    print(f"census: {len(funcs)} functions: {len(never)} never entered ({sum(never.values())} lines), "
          f"{len(only)} tier-1 only ({sum(only.values())} lines), "
          f"{len(funcs) - len(never) - len(only)} product")
    kept = json.loads(KEPT.read_text()) if KEPT.exists() else {}
    for group, found in (("never", never), ("tier1_only", only)):
        listed = kept.get(group, {})
        print(f"census: {group}:")
        for key in sorted(found):
            print(f"  {key}" + (f"  [kept: {listed[key]}]" if key in listed else ""))
    print(f"census: {len(Hints.known_keys()) - len(unturned)} of {len(Hints.known_keys())} "
          f"hints turned by a product phase; never turned: {', '.join(unturned) or 'none'}")
    if not ns.check:
        return 1 if failed else 0
    bad = (_diff("never", never, kept.get("never", {}))
           + _diff("tier1_only", only, kept.get("tier1_only", {}))
           + [f"HINT no product phase turns: {key}" for key in unturned]
           + [f"FAILED phase: {name}" for name in failed]
           + [f"AMBIGUOUS: two defs are named {key}" for key in dupes])
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
