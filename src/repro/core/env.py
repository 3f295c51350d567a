"""Shared state handed to the round loop, and per-file statistics.

:class:`CollStats` used to be a bag of bare dataclass ints; it is now a
thin view over :class:`~repro.obs.metrics.MetricsRegistry` instruments
keyed by rank, so the same numbers surface under stable dotted names
(``coll.rounds``, ``exchange.bytes``, ``coll.meta.bytes``, ...) in the
session-wide registry while every existing ``stats.x += 1`` site keeps
working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional

from repro.config import CostModel
from repro.core.compat import Effective
from repro.core.file_view import FileView
from repro.core.pfr import PFRState
from repro.io.adio import AdioFile
from repro.mpi.comm import Communicator
from repro.mpi.hints import Hints
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import RankContext

if TYPE_CHECKING:  # pragma: no cover - plancache imports env types
    from repro.core.plancache import PlanCache

__all__ = ["CollStats", "CollEnv"]


class CollStats:
    """Per-rank collective-I/O counters, backed by the metrics registry.

    These are the numbers MPE logging surfaced for the paper's
    analysis: where the datatype-processing time went, how much data
    and metadata moved, which flush methods ran.  Each attribute is a
    property over a registry :class:`~repro.obs.metrics.Counter` under
    the dotted name in :data:`CollStats.METRICS` (key = rank)."""

    #: legacy attribute -> registry metric name.
    METRICS: Dict[str, str] = {
        "collective_writes": "coll.writes",
        "collective_reads": "coll.reads",
        "rounds": "coll.rounds",
        "client_pairs": "coll.client.pairs",
        "client_tiles_skipped": "coll.client.tiles_skipped",
        "agg_pairs": "coll.agg.pairs",
        "agg_tiles_skipped": "coll.agg.tiles_skipped",
        "bytes_exchanged": "exchange.bytes",
        "meta_bytes": "coll.meta.bytes",
        "coherence_flush_pages": "coll.coherence.flush_pages",
        "agg_service_seconds": "coll.agg.service_seconds",
    }

    def __init__(
        self, registry: Optional[MetricsRegistry] = None, rank: Hashable = None
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.rank = rank
        self._instruments = {
            attr: self.registry.counter(name, rank)
            for attr, name in self.METRICS.items()
        }
        self._last_service = self.registry.gauge("coll.agg.last_service_seconds", rank)
        #: per-aggregator assigned realm bytes of the most recent call
        #: (pre-clip; identical on every rank).  Lets tests observe
        #: balanced-strategy boundary movement between calls.  A list,
        #: so it stays a plain attribute rather than an instrument.
        self.last_realm_bytes: List[int] = []

    # -- gauge-backed fields ------------------------------------------------
    @property
    def last_agg_service_seconds(self) -> float:
        """Aggregator service seconds of the most recent call only —
        the balanced strategy's straggler-aware feedback signal."""
        return self._last_service.value

    @last_agg_service_seconds.setter
    def last_agg_service_seconds(self, v: float) -> None:
        self._last_service.value = v

    # -- flush methods ------------------------------------------------------
    def note_flush(self, method: str) -> None:
        self.registry.counter(f"coll.flush.{method}", self.rank).inc()

    def note_stand_down(self, rule_id: str) -> None:
        """Count one stand-down taken under ``repro.core.compat`` row
        ``rule_id`` (once per open; per round for a round-scope row)."""
        self.registry.counter(f"compat.stand_down.{rule_id}", self.rank).inc()

    @property
    def flush_methods(self) -> Dict[str, int]:
        """Collective-buffer flush method usage (method -> count)."""
        out: Dict[str, int] = {}
        for name in self.registry.names():
            if name.startswith("coll.flush."):
                n = self.registry.value(name, self.rank)
                if n:
                    out[name[len("coll.flush."):]] = n
        return out

    def snapshot(self) -> Dict[str, object]:
        """The legacy flat dict (old field names), read from the registry."""
        d: Dict[str, object] = {
            attr: inst.value for attr, inst in self._instruments.items()
        }
        d["last_agg_service_seconds"] = self._last_service.value
        d["flush_methods"] = self.flush_methods
        d["last_realm_bytes"] = list(self.last_realm_bytes)
        return d


def _counter_property(attr: str) -> property:
    def getter(self):
        return self._instruments[attr].value

    def setter(self, v):
        self._instruments[attr].value = v

    return property(getter, setter)


for _attr in CollStats.METRICS:
    setattr(CollStats, _attr, _counter_property(_attr))
del _attr


@dataclass
class CollEnv:
    """Everything the round loop needs for one collective call."""

    ctx: RankContext
    comm: Communicator
    cost: CostModel
    hints: Hints
    #: What the hints resolve to for this open (repro.core.compat):
    #: the round loop and the planners read this, not the raw hints,
    #: wherever features have to compose.
    eff: Effective
    adio: AdioFile
    view: FileView
    stats: CollStats
    pfr: Optional[PFRState] = None
    # Persistent plan cache (docs/plan_cache.md); None = plan every call.
    plancache: Optional["PlanCache"] = None
