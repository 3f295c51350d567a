"""Shared state handed to the round loop."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.config import CostModel
from repro.core.compat import Effective
from repro.core.file_view import FileView
from repro.core.pfr import PFRState
from repro.io.adio import AdioFile
from repro.mpi.comm import Communicator
from repro.mpi.hints import Hints
from repro.obs.metrics import MetricsView
from repro.sim.engine import RankContext

if TYPE_CHECKING:  # pragma: no cover - plancache imports env types
    from repro.core.plancache import PlanCache

__all__ = ["CollEnv"]


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
    #: This rank's view of the run's registry: the ``coll.*`` /
    #: ``exchange.bytes`` series MPE logging surfaced for the paper's
    #: analysis (pairs evaluated, data and metadata moved, flush methods).
    metrics: MetricsView
    # Handle-lifetime realm state (persistent realms, last assignment).
    pfr: PFRState
    # Persistent plan cache (docs/plan_cache.md); None = plan every call.
    plancache: Optional["PlanCache"] = None
