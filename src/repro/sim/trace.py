"""MPE-style state tracing, upgraded to structured nested spans.

The paper used MPE logging to attribute the new implementation's
slowdowns to datatype-processing overhead.  :class:`Tracer` plays the
same role here: rank code wraps phases in ``ctx.trace("tp:io")`` /
``ctx.trace("tp:exchange")`` intervals, and the analysis helpers
aggregate virtual time per state so experiments can report *where*
time went, not just how much.

Spans nest: an interval opened while another is open on the same rank
records the enclosing span as its ``parent`` (``sid`` identifies each
span).  The per-state aggregation (:meth:`Tracer.time_by_state`) is
unchanged — nested spans are all counted — and two structured exports
ride on top:

* :meth:`Tracer.to_chrome_trace` — Chrome ``trace_event`` JSON
  (``{"traceEvents": [...]}``, complete ``"X"`` events, one thread per
  rank), loadable in Perfetto / ``chrome://tracing``;
* :meth:`Tracer.to_jsonl` — the line-per-event diffable form.

Phase-boundary hooks (:meth:`Tracer.add_hook`) fire at every span open
and close, so harnesses and benchmarks can meter phases live instead
of poking implementation internals.  Hooks fire even when event
*recording* is disabled; with neither enabled the trace context is a
bare ``yield`` — zero overhead on the fast path.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.sim.clock import VirtualClock

__all__ = ["TraceEvent", "Tracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One closed span on one rank, in virtual time.

    ``sid`` identifies the span; ``parent`` is the enclosing open
    span's sid (``None`` at top level) and ``depth`` its nesting depth
    — 0 for top-level spans."""

    rank: int
    state: str
    t0: float
    t1: float
    info: Dict[str, Any] = field(default_factory=dict)
    sid: int = 0
    parent: Optional[int] = None
    depth: int = 0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Collects :class:`TraceEvent` spans; cheap no-op when disabled."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: List[TraceEvent] = []
        #: Phase-boundary hooks (objects with span_open/span_close).
        self._hooks: List[Any] = []
        #: Per-rank stack of open span sids.
        self._open: Dict[int, List[int]] = {}
        #: Optional rank -> display label (multi-tenant runs set e.g.
        #: ``"A:r0"`` so one Chrome trace attributes rows per tenant).
        self.thread_labels: Dict[int, str] = {}
        self._next_sid = 1

    # -- hooks -----------------------------------------------------------
    def add_hook(self, hook: Any) -> Any:
        """Register a phase-boundary hook and return it.

        ``hook.span_open(rank, state, t, depth, info)`` fires when a
        span opens, ``hook.span_close(event)`` with the closed
        :class:`TraceEvent` when it closes.  Hooks fire even when the
        tracer's event recording is disabled."""
        self._hooks.append(hook)
        return hook

    def remove_hook(self, hook: Any) -> None:
        self._hooks.remove(hook)

    # -- recording -------------------------------------------------------
    @contextmanager
    def interval(
        self, rank: int, state: str, clock: VirtualClock, **info: Any
    ) -> Iterator[None]:
        """Record a span covering the clock's virtual time."""
        if not self.enabled and not self._hooks:
            yield
            return
        stack = self._open.setdefault(rank, [])
        sid = self._next_sid
        self._next_sid += 1
        parent = stack[-1] if stack else None
        depth = len(stack)
        stack.append(sid)
        t0 = clock.now
        for hook in self._hooks:
            hook.span_open(rank, state, t0, depth, info)
        try:
            yield
        finally:
            stack.pop()
            ev = TraceEvent(rank, state, t0, clock.now, dict(info), sid, parent, depth)
            if self.enabled:
                self.events.append(ev)
            for hook in self._hooks:
                hook.span_close(ev)

    # -- analysis --------------------------------------------------------
    def time_by_state(self, rank: Optional[int] = None) -> Dict[str, float]:
        """Total virtual seconds per state, optionally for one rank.

        Nested spans are all counted (the caller chooses
        non-overlapping states when exclusive accounting is wanted)."""
        totals: Dict[str, float] = {}
        for ev in self.events:
            if rank is not None and ev.rank != rank:
                continue
            totals[ev.state] = totals.get(ev.state, 0.0) + ev.duration
        return totals

    def ranks(self) -> List[int]:
        return sorted({ev.rank for ev in self.events})

    def children_of(self, span: "TraceEvent | int") -> List[TraceEvent]:
        """Closed spans directly nested under ``span`` (an event or sid)."""
        sid = span.sid if isinstance(span, TraceEvent) else span
        return [ev for ev in self.events if ev.parent == sid]

    def top_level(self, rank: Optional[int] = None) -> List[TraceEvent]:
        """Closed spans with no enclosing span (optionally one rank)."""
        return [
            ev
            for ev in self.events
            if ev.parent is None and (rank is None or ev.rank == rank)
        ]

    def last_event(self, rank: int) -> Optional[TraceEvent]:
        """The most recently *closed* span on ``rank`` (or None).

        Used by the engine's hang diagnostics: when a rank never
        terminates, its last closed span is the best available clue
        to where it got stuck."""
        for ev in reversed(self.events):
            if ev.rank == rank:
                return ev
        return None

    def summary(self) -> str:
        """Human-readable table: per-state totals across all ranks."""
        totals = self.time_by_state()
        if not totals:
            return "(no trace events)"
        width = max(len(s) for s in totals)
        lines = [
            f"{state:<{width}}  {seconds * 1e3:10.3f} ms"
            for state, seconds in sorted(totals.items(), key=lambda kv: -kv[1])
        ]
        return "\n".join(lines)

    # -- structured exports ----------------------------------------------
    def to_chrome_trace(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` JSON object (Perfetto-loadable).

        One complete (``"X"``) event per closed span — microsecond
        timestamps, ``tid`` = rank — plus thread-name metadata so the
        viewer labels each row ``rank N`` (or the entry from
        :attr:`thread_labels`, e.g. ``"A:r0"`` in multi-tenant runs).
        Span attributes travel in ``args`` along with the span/parent
        ids, so the nesting recorded here is recoverable from the
        export."""
        events: List[Dict[str, Any]] = []
        for rank in self.ranks():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": rank,
                    "ts": 0,
                    "args": {
                        "name": self.thread_labels.get(rank, f"rank {rank}")
                    },
                }
            )
        for ev in sorted(self.events, key=lambda e: (e.t0, e.rank, e.sid)):
            args: Dict[str, Any] = {"sid": ev.sid}
            if ev.parent is not None:
                args["parent"] = ev.parent
            args.update(ev.info)
            events.append(
                {
                    "name": ev.state,
                    "cat": ev.state.partition(":")[0],
                    "ph": "X",
                    "pid": 0,
                    "tid": ev.rank,
                    "ts": ev.t0 * 1e6,
                    "dur": ev.duration * 1e6,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_jsonl(self) -> str:
        """Serialize all spans as JSON lines (one event per line),
        suitable for external timeline viewers or diffing runs."""
        import json

        lines = []
        for ev in self.events:
            lines.append(
                json.dumps(
                    {
                        "rank": ev.rank,
                        "state": ev.state,
                        "t0": ev.t0,
                        "t1": ev.t1,
                        "info": ev.info,
                        "sid": ev.sid,
                        "parent": ev.parent,
                        "depth": ev.depth,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines)

    @classmethod
    def from_jsonl(cls, text: str) -> "Tracer":
        """Rebuild a tracer from :meth:`to_jsonl` output."""
        import json

        tracer = cls(enabled=True)
        max_sid = 0
        for line in text.splitlines():
            if not line.strip():
                continue
            d = json.loads(line)
            sid = d.get("sid", 0)
            max_sid = max(max_sid, sid)
            tracer.events.append(
                TraceEvent(
                    d["rank"],
                    d["state"],
                    d["t0"],
                    d["t1"],
                    d.get("info", {}),
                    sid,
                    d.get("parent"),
                    d.get("depth", 0),
                )
            )
        tracer._next_sid = max_sid + 1
        return tracer

    def timeline(self, rank: int, width: int = 60) -> str:
        """ASCII timeline of one rank's top-level states.

        Each state gets a row; '#' marks the buckets of virtual time
        during which a span of that state was open."""
        events = [ev for ev in self.events if ev.rank == rank]
        if not events:
            return f"(no events for rank {rank})"
        t_end = max(ev.t1 for ev in events)
        t_start = min(ev.t0 for ev in events)
        span = max(t_end - t_start, 1e-12)
        states = sorted({ev.state for ev in events})
        name_w = max(len(s) for s in states)
        rows = []
        for state in states:
            cells = [" "] * width
            for ev in events:
                if ev.state != state:
                    continue
                b0 = int((ev.t0 - t_start) / span * (width - 1))
                b1 = int((ev.t1 - t_start) / span * (width - 1))
                for b in range(b0, b1 + 1):
                    cells[b] = "#"
            rows.append(f"{state:<{name_w}} |{''.join(cells)}|")
        header = (
            f"rank {rank}: {t_start * 1e3:.3f} ms .. {t_end * 1e3:.3f} ms "
            f"({span * 1e3:.3f} ms span)"
        )
        return "\n".join([header] + rows)
