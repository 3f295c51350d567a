"""Entry census: every function of ``src/repro`` that nothing runs (helper, not a test module).

Records which ``src/repro`` code objects are entered while running

* the tier-1 suite (``pytest -q`` in this process, ``-m 'not slow'``);
* every row of ``tests/data/cli_golden.json``, both CI groups, through
  ``repro.__main__.main(argv)``;
* the seven ``examples/*.py``, through ``runpy``;
* ``benchmarks/run.py --check``, through ``runpy``;

then lists every ``def`` in ``src/repro`` none of them entered.  The
examples and the CLI rows run in this process because their own
harnesses start subprocesses with a fresh ``PYTHONPATH``, which a
profiler installed here never reaches.

    python tests/census.py            # print the never-entered functions
    python tests/census.py --check    # ... and exit 1 unless they are exactly
                                      # the ones tests/data/census.json keeps

Entries are recorded with ``sys.setprofile`` and ``threading.setprofile``
(simulated ranks run on threads).  A test that installs its own
profiler gets it chained behind the census one, and clearing it clears
only its own, so a counting test cannot switch the census off.  A
function counts as entered when a code object starting on the line of
its ``def`` or of its first decorator (``co_firstlineno``) ran.

``tests/data/census.json`` maps each function kept although nothing
enters it (``path::Qualname``, path relative to ``src/repro``) to the
one-line reason it stays.  ``--check`` fails on a never-entered
function the file does not list, and on a listed one that is now
entered or gone, so the file cannot go stale.  Under the profiler the
whole census takes about 18 min on 2 CPUs.
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

    def entered(self):
        """{(file, first line)} of every code object entered under ``src/repro``."""
        prefix = str(SRC) + os.sep
        return {(co.co_filename, co.co_firstlineno)
                for co in self.codes.values() if co.co_filename.startswith(prefix)}


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
    path = ROOT / "benchmarks" / "run.py"
    with _quiet() as out:
        code = _run_script(path, "--check")
    if code:
        print(out.getvalue()[-4000:])
    return code


PHASES = (("tier-1", run_tier1), ("cli rows", run_cli_rows),
          ("examples", run_examples), ("run.py --check", run_bench_check))


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 unless the never-entered functions are exactly tests/data/census.json's")
    ns = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    failed = []
    with Recorder().installed() as rec:
        for name, phase in PHASES:
            t0 = time.perf_counter()
            code = phase()
            print(f"census: {name}: exit {code} ({time.perf_counter() - t0:.0f} s)", flush=True)
            if code:
                failed.append(name)
    entered = rec.entered()
    funcs = functions()
    dupes = sorted(k for k, n in Counter(key for key, *_ in funcs).items() if n > 1)
    never = {key: n for key, path, lines, n in funcs
             if not any((path, line) in entered for line in lines)}
    print(f"census: {len(never)} of {len(funcs)} functions never entered "
          f"({sum(never.values())} lines)")
    kept = json.loads(KEPT.read_text()) if KEPT.exists() else {}
    for key in sorted(never):
        print(f"  {key}" + (f"  [kept: {kept[key]}]" if key in kept else ""))
    if not ns.check:
        return 1 if failed else 0
    new = sorted(set(never) - set(kept))
    stale = sorted(set(kept) - set(never))
    for key in new:
        print(f"NEVER ENTERED, not in {KEPT.name}: {key}")
    for key in stale:
        print(f"STALE in {KEPT.name} (entered or gone): {key}")
    for name in failed:
        print(f"FAILED phase: {name}")
    for key in dupes:
        print(f"AMBIGUOUS: two defs are named {key}")
    return 1 if new or stale or failed or dupes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
