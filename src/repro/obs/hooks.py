"""Phase-boundary profiling hooks.

A *hook* is any object with ``span_open(rank, state, t, depth, info)``
and ``span_close(event)`` methods, registered on a tracer with
:meth:`~repro.sim.trace.Tracer.add_hook`.  Hooks fire at every phase
boundary (collective call, plan, exchange, flush, lock, journal
commit, failover) even when event recording is off, which is how the
chaos harness and the benchmarks observe phases without poking
implementation internals — and without paying for a full event log.

:class:`PhaseAccumulator` is the standard consumer: it folds closed
spans into per-state totals (optionally per rank) on the fly, so a
harness gets the MPE-style decomposition from a run that never stored
a single event.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.sim.trace import TraceEvent

__all__ = ["PhaseHook", "PhaseAccumulator"]


class PhaseHook:
    """No-op base class documenting the hook interface."""

    def span_open(
        self, rank: int, state: str, t: float, depth: int, info: Dict[str, Any]
    ) -> None:  # pragma: no cover - interface default
        pass

    def span_close(self, event: TraceEvent) -> None:  # pragma: no cover
        pass


class PhaseAccumulator(PhaseHook):
    """Folds closed spans into per-state time and count totals.

    ``prefix`` restricts accounting to matching states (e.g. ``"tp:"``
    for the two-phase phases).  Totals are virtual seconds, summed the
    same way :meth:`Tracer.time_by_state` sums stored events — so a
    harness using this hook with recording disabled reports identical
    numbers to one post-processing a full trace."""

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.by_rank: Dict[int, Dict[str, float]] = {}

    def span_close(self, event: TraceEvent) -> None:
        if self.prefix and not event.state.startswith(self.prefix):
            return
        d = event.duration
        self.seconds[event.state] = self.seconds.get(event.state, 0.0) + d
        self.counts[event.state] = self.counts.get(event.state, 0) + 1
        per = self.by_rank.setdefault(event.rank, {})
        per[event.state] = per.get(event.state, 0.0) + d

    def time_by_state(self, rank: Optional[int] = None) -> Dict[str, float]:
        if rank is None:
            return dict(self.seconds)
        return dict(self.by_rank.get(rank, {}))
