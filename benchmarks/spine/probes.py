"""Outside-in tracing: wrap each layer's public callables, record spans.

Nothing under ``src/`` knows about this file.  :data:`BOUNDARY` names,
per layer, the callables other layers enter it through; :class:`Probes`
rebinds them to timing wrappers for the traced iterations and restores
every binding afterwards.  A span is ``(boundary index, start, end,
parent)`` on a per-thread list, so nesting is per rank thread and the
untraced pass pays nothing.

Attribution rests on the engine's invariant that exactly one rank
thread runs at a time.  A ``sim`` span (``block``/``advance``/...) is
where a thread gives the processor away, so *seen from its caller* it
contains every other rank's work.  :func:`attribute` therefore never
sums ``sim`` span durations; it cuts each thread's life into *run
intervals* (its lifetime minus its outermost ``sim`` spans) and takes
``sim.sched_s`` as the wall time covered by no thread's run interval —
dispatch, ``Event`` hand-off, thread start and join.  If the invariant
or the bookkeeping broke, run intervals would overlap; that overlap is
the closure error the run prints.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.mpi.network import payload_nbytes

LAYERS = ("datatypes", "core", "mpi", "sim", "io", "fs")

_COLLECTIVES = (
    "barrier bcast reduce allreduce gather allgather scatter alltoall alltoallw"
).split()

#: layer -> module -> owner class ("" = module-level function) -> names.
#: This is the issue's list plus four ``datatypes`` entry points that
#: ``core`` calls directly (``FlatCursor.__init__``,
#: ``data_to_file_segments``, ``encode_flat``/``decode_flat``): without
#: them a quarter of ``core.self_s`` on ``fig7_steps`` (0.17 -> 0.23 s)
#: is ``datatypes`` work.  Constructors and ``__init__``s whose absence
#: moves no layer by 1 % of the wall are not wrapped.
BOUNDARY: Dict[str, Dict[str, Dict[str, List[str]]]] = {
    "datatypes": {
        "repro.datatypes.base": {"Datatype": ["flatten"]},
        "repro.datatypes.segments": {
            "FlatCursor": ["__init__", "intersect", "all_segments"],
            "SegmentBatch": ["coalesce"],
            "": ["data_to_file_segments"],
        },
        "repro.datatypes.packing": {
            "": ["gather_segments", "scatter_segments", "expand_indices"],
        },
        "repro.datatypes.serialize": {"": ["encode_flat", "decode_flat"]},
    },
    "core": {
        "repro.core.file_handle": {
            "CollectiveFile": ["set_view", "write_all", "read_all", "close"],
        },
        "repro.core.exchange": {"": ["exchange_data"]},
    },
    "mpi": {
        "repro.mpi.comm": {
            "Communicator": ["send", "isend", "recv", "irecv", "sendrecv"],
        },
        "repro.mpi.collectives": {"CollectiveMixin": list(_COLLECTIVES)},
    },
    "sim": {
        "repro.sim.engine": {
            "RankContext": ["block", "advance", "advance_to", "yield_now", "join"],
        },
    },
    "io": {
        "repro.io.adio": {
            "AdioFile": ["write_contig", "read_contig", "write_strided", "read_strided"],
        },
    },
    "fs": {
        "repro.fs.client": {
            "LocalFile": [
                "write", "read", "write_batch", "read_batch", "sync", "invalidate", "close",
            ],
        },
    },
}


def _meter_send(counts: Counter, args: tuple, out) -> None:  # (comm, obj, dest, ...)
    counts["mpi.msgs"] += 1
    counts["mpi.bytes"] += payload_nbytes(args[1])


def _meter_gather(counts: Counter, args: tuple, out) -> None:  # -> packed bytes
    counts["datatypes.pack_bytes"] += out.nbytes


def _meter_scatter(counts: Counter, args: tuple, out) -> None:  # (buf, batch, data)
    counts["datatypes.pack_bytes"] += args[2].nbytes


#: Counts taken at the boundary they describe (qualified name -> meter).
_METERS: Dict[str, Callable[[Counter, tuple, object], None]] = {
    "Communicator.send": _meter_send,
    "Communicator.isend": _meter_send,
    "packing.gather_segments": _meter_gather,
    "packing.scatter_segments": _meter_scatter,
}


@dataclass(frozen=True)
class Point:
    """One wrapped callable."""

    layer: str
    module: str
    owner: str
    attr: str

    @property
    def name(self) -> str:
        return f"{self.owner or self.module.rsplit('.', 1)[1]}.{self.attr}"


POINTS: Tuple[Point, ...] = tuple(
    Point(layer, module, owner, attr)
    for layer, modules in BOUNDARY.items()
    for module, owners in modules.items()
    for owner, attrs in owners.items()
    for attr in attrs
)
_LAYER_OF = np.array([LAYERS.index(p.layer) for p in POINTS])
_SIM = LAYERS.index("sim")
_IS_COLLECTIVE = np.array([p.owner == "CollectiveMixin" for p in POINTS])


def _repro_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def _rebind(old, new) -> None:
    """Point every ``repro.*`` module global that is ``old`` at ``new`` —
    a function imported by name lives in each importer's namespace."""
    for mod in _repro_modules():
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def installed() -> List[str]:
    """Names of wrappers currently reachable from ``repro`` (must be
    empty whenever an untraced iteration runs)."""
    found = []
    for mod in _repro_modules():
        for key, value in list(vars(mod).items()):
            if getattr(value, "__spine_probe__", False):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type):
                for attr, member in list(vars(value).items()):
                    if getattr(member, "__spine_probe__", False):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return sorted(set(found))


class Probes:
    """Installs the wrappers, owns the recorded spans and counts."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._logs: List[Tuple[str, list]] = []
        self._undo: List[Tuple[Point, object, object]] = []
        self.counts: Counter = Counter()

    # -- recording ---------------------------------------------------------
    def _open_log(self):
        log = self._tls.log = ([], [])
        self._logs.append((threading.current_thread().name, log[0]))
        return log

    def _wrap(self, fn: Callable, code: int, meter) -> Callable:
        tls, open_log, counts, clock = self._tls, self._open_log, self.counts, time.perf_counter

        def probe(*args, **kwargs):
            try:
                spans, stack = tls.log
            except AttributeError:
                spans, stack = open_log()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (code, t0, t1, parent)
            if meter is not None:
                meter(counts, args, out)
            return out

        probe.__spine_probe__ = True
        probe.__wrapped__ = fn
        return probe

    def harvest(self) -> Tuple[List[Tuple[str, list]], Counter]:
        """Spans and boundary counts recorded since the last harvest."""
        logs, self._logs = self._logs, []  # rank threads end with their iteration
        counts = Counter(self.counts)
        self.counts.clear()  # the wrappers hold this object
        return logs, counts

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        if self._undo:
            raise RuntimeError("probes already installed")
        for code, point in enumerate(POINTS):
            module = importlib.import_module(point.module)
            owner = getattr(module, point.owner) if point.owner else module
            original = vars(owner)[point.attr]
            wrapper = self._wrap(original, code, _METERS.get(point.name))
            if point.owner:
                setattr(owner, point.attr, wrapper)
            else:
                _rebind(original, wrapper)
            self._undo.append((point, original, wrapper))

    def remove(self) -> None:
        for point, original, wrapper in reversed(self._undo):
            if point.owner:
                module = importlib.import_module(point.module)
                setattr(getattr(module, point.owner), point.attr, original)
            else:
                _rebind(wrapper, original)  # also modules first imported mid-trace
        self._undo.clear()
        left = installed()
        if left:
            raise RuntimeError(f"probes left installed: {left}")

    def __enter__(self) -> "Probes":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


# -- attribution -----------------------------------------------------------
def _union(starts: np.ndarray, ends: np.ndarray) -> float:
    """Total length covered by the intervals ``[starts, ends)``."""
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], ends[order]
    reach = np.maximum.accumulate(ends)
    covered_from = np.maximum(starts, np.concatenate(([starts[0]], reach[:-1])))
    return float(np.clip(ends - covered_from, 0.0, None).sum())


def attribute(logs, counts: Counter, t_begin: float, t_end: float) -> Dict[str, float]:
    """Fold one traced iteration's spans into per-layer numbers.

    ``logs`` is :meth:`Probes.harvest` output — rank threads only, the
    driver thread enters no boundary — and ``[t_begin, t_end]`` the timed
    ``Session.run`` window on the driver thread.  Returns
    ``<layer>.self_s`` for the five layers that keep the processor,
    ``sim.sched_s``, the boundary counts, and the ``trace.*`` closure
    terms (seconds, not yet fractions)."""
    wall = t_end - t_begin
    self_s = np.zeros(len(LAYERS))
    run_starts, run_ends = [], []
    switches = collectives = 0

    for _, spans in logs:
        table = np.array(spans, dtype=float)
        code, parent = table[:, 0].astype(int), table[:, 3].astype(int)
        t0, t1 = table[:, 1], table[:, 2]
        dur = t1 - t0
        layer = _LAYER_OF[code]
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
        keeps_cpu = layer != _SIM
        self_s += np.bincount(
            layer[keeps_cpu], weights=(dur - children)[keeps_cpu], minlength=len(LAYERS)
        )

        parent_code = code[np.where(has_parent, parent, 0)]
        parked = (layer == _SIM) & ~(has_parent & (_LAYER_OF[parent_code] == _SIM))
        switches += int(parked.sum())
        collectives += int((_IS_COLLECTIVE[code] & ~(has_parent & _IS_COLLECTIVE[parent_code])).sum())

        # A rank thread's life runs from its first span to its last.
        run_starts.append(np.concatenate(([t0.min()], t1[parked])))
        run_ends.append(np.concatenate((t0[parked], [t1.max()])))

    starts, ends = np.concatenate(run_starts), np.concatenate(run_ends)
    run_total = float((ends - starts).sum())
    covered = _union(starts, ends)
    busy = float(self_s.sum())

    out: Dict[str, float] = {
        f"{name}.self_s": float(self_s[i]) for i, name in enumerate(LAYERS) if i != _SIM
    }
    out["sim.sched_s"] = wall - covered
    out["sim.switches"] = switches
    out["mpi.collectives"] = collectives
    for key in ("mpi.msgs", "mpi.bytes", "datatypes.pack_bytes"):
        out[key] = counts.get(key, 0)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = run_total - busy
    out["trace.closure_s"] = run_total - covered  # overlap between threads' run intervals
    return out


def chrome_trace(iterations) -> Dict[str, object]:
    """Chrome ``trace_event`` JSON: one process per traced iteration, one
    thread per rank, span/parent ids in ``args``."""
    events = []
    for pid, (logs, t_begin) in enumerate(iterations):
        for tid, (thread, spans) in enumerate(logs):
            events.append(
                {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "args": {"name": thread}}
            )
            for index, (code, t0, t1, parent) in enumerate(spans):
                point = POINTS[code]
                events.append({
                    "name": point.name, "cat": point.layer, "ph": "X", "pid": pid, "tid": tid,
                    "ts": (t0 - t_begin) * 1e6, "dur": (t1 - t0) * 1e6,
                    "args": {"span": index, "parent": parent, "iteration": pid},
                })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, iterations) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(iterations), fh)


# -- call counter ------------------------------------------------------------
def _layer_of_file(filename: str) -> Optional[str]:
    head, sep, tail = filename.rpartition("/repro/")
    if not sep:
        return None
    layer = tail.split("/", 1)[0]
    return layer if layer in LAYERS else None


def count_calls(fn: Callable[[], None]) -> Dict[str, int]:
    """Run ``fn`` under ``setprofile`` on every thread and count call and
    c_call events by the ``repro/<layer>/`` file of the frame they occur
    in: Python functions of the layer entered, plus C functions its code
    invokes.  Exact and repeatable; roughly 3x slower than a plain run."""
    per_code: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            per_code[frame.f_code] += 1

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    calls = {layer: 0 for layer in LAYERS}
    for code, n in per_code.items():
        layer = _layer_of_file(code.co_filename)
        if layer is not None:
            calls[layer] += n
    return calls
