"""Deterministic discrete-event substrate.

Ranks run as ordinary Python threads, but a global scheduler allows
exactly one to execute at a time and always resumes the runnable rank
with the smallest virtual clock (rank id breaks ties).  This yields:

* determinism — given deterministic rank code, every run produces the
  same virtual timings and the same event order;
* race freedom — shared simulation state (file system servers, the lock
  manager, message queues) is only ever touched by the single running
  thread, so no fine-grained locking is needed anywhere above the
  engine.

The public pieces are :class:`~repro.sim.engine.Simulator`,
:class:`~repro.sim.engine.RankContext`, and the MPE-style
:class:`~repro.sim.trace.Tracer`.
"""

from repro.sim.clock import VirtualClock
from repro.sim.engine import BLOCK_TIMEOUT, RankContext, Signal, Simulator, Watchdog
from repro.sim.trace import TraceEvent, Tracer

__all__ = [
    "VirtualClock",
    "Simulator",
    "RankContext",
    "Signal",
    "Tracer",
    "TraceEvent",
    "Watchdog",
    "BLOCK_TIMEOUT",
]
