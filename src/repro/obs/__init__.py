"""Unified observability layer: metrics registry, span tracing, Session.

Every count a run keeps — collective rounds and pairs, network tiers,
page-cache hits, per-file server traffic, fault injections — lives in
one :class:`MetricsRegistry` of named, typed instruments, and its
dotted name (``net.inter.bytes``, ``cache.hits``, ``faults.injected``;
the full catalogue is in ``docs/observability.md``) is its only
spelling: components hold instruments taken from the registry, readers
read the name.  Span tracing
(:mod:`repro.sim.trace`) covers every collective phase and exports
Chrome ``trace_event`` JSON loadable in Perfetto, and
:class:`~repro.obs.session.Session` is the documented front door that wires the
simulator, file system, fault plan, liveness, integrity, and the
registry together.
"""

from repro.obs.metrics import (
    METRICS_KEY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsView,
    metrics_registry,
)
from repro.obs.hooks import PhaseAccumulator, PhaseHook
from repro.obs.schema import load_trace_schema, validate_chrome_trace


__all__ = [
    "METRICS_KEY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsView",
    "metrics_registry",
    "PhaseAccumulator",
    "PhaseHook",
    "load_trace_schema",
    "validate_chrome_trace",
]
