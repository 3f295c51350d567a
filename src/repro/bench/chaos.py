"""Chaos harness: completion-time degradation versus fault intensity.

A :class:`ChaosHarness` runs one fixed collective-write workload (the
smoke pattern of :mod:`repro.hpio.verify`) repeatedly: once fault-free
for the baseline, then once per requested intensity with the scenario's
probabilistic rates scaled by that intensity.  Every run is verified
byte-for-byte against the pattern's oracle — a chaos run that degrades
*correctness* instead of completion time is a failed run, whatever its
timing says.

"Verified" means *no silent corruption*: a run whose bytes mismatch the
oracle still passes if every mismatching page fails its checksum
sidecar (the corruption was caught — an fsck would find and repair
it).  "Terminates" means *bounded*: a run killed by one of the typed
errors of :data:`_BOUNDED` — detected corruption, a quorum-loss abort,
a liveness error under the liveness hints, a storage error under OST
events — is a reported outcome with no completion time; a hang or a
wrong byte nobody flagged are the outcomes the layers under test must
make impossible.

Each point rebuilds the whole simulated cluster from scratch (a fresh
:class:`~repro.obs.session.Session`), so points are independent and the
whole sweep is deterministic for a given (scenario, seed).

This module also holds :data:`ARMS`, the one flag → hint-overrides
table the harness and the CLI's commands arm their workloads from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import (
    AggregatorLost,
    CollectiveAborted,
    DeadlineExceeded,
    IntegrityError,
    LockDeadlock,
    OSTOverloaded,
    OSTUnavailable,
    ReproError,
    RetryBudgetExhausted,
    RetryExhausted,
    error_chain,
)
from repro.faults import FaultPlan, OST_KINDS, fired, load_scenario
from repro.hpio.verify import apply_view, expected_file_bytes, smoke_pattern, write_pattern
from repro.mpi import Hints
from repro.obs.metrics import MetricsRegistry
from repro.obs.session import Session

__all__ = ["ARMS", "arm", "SMOKE_HINTS", "ChaosRun", "ChaosPoint", "ChaosReport", "ChaosHarness"]

_PATH = "/chaos"
#: The harness workload: ``smoke_pattern(NPROCS)`` (16 interleaved 64 B
#: tiles per rank), one ``write_all``, default cost model.
NPROCS = 4
#: Default geometry: two aggregators, a collective buffer small enough
#: for several rounds per call — phase-boundary scenarios (agg-crash)
#: need boundaries to exist.
SMOKE_HINTS = Hints(cb_nodes=2, cb_buffer_size=512)

#: The one arming table: CLI flag (= harness keyword) -> hint overrides,
#: read by ``selfcheck`` / ``trace`` / ``mt`` / ``chaos`` and
#: :class:`ChaosHarness` through :func:`arm`.  A callable takes the
#: flag's value (and arms nothing below its threshold); a row with a
#: third column applies to those consumers only, on top of the general
#: row.  The per-consumer rows are the differences the commands had
#: before the table existed; printed virtual times depend on them, so
#: they are data here, not normalised: ``selfcheck`` / ``trace``
#: ``--integrity`` also journal collective writes, the harness budgets
#: half the CLI's deadline, a replicated selfcheck takes eight retries
#: (the default four sleep 1+2+4+8 ms, just past the canned 8 ms
#: ``ost-crash`` window; eight leave quorum-blocked writes headroom),
#: and a selfcheck under a fault plan needs a buffer small enough for
#: several rounds (4 KiB through the default 4 MiB buffer is one round:
#: an event keyed on boundary >= 1 would never fire).
ARMS = (
    ("integrity", {"integrity_pages": True, "integrity_network": True}),
    ("integrity", {"journal_writes": True}, ("selfcheck", "trace")),
    ("liveness", {"coll_deadline": 0.5, "liveness": True}),
    ("liveness", {"coll_deadline": 0.25}, ("chaos",)),
    ("ppn", lambda n: {"procs_per_node": n, "exchange": "two_layer"} if n > 1 else {}),
    ("replicate", lambda r: {"replication_factor": r} if r > 1 else {}),
    ("replicate", lambda r: {"io_retries": 8} if r > 1 else {}, ("selfcheck",)),
    ("plan_cache", {"plan_cache": True}),
    ("pipeline", lambda d: {"pipeline_depth": d} if d > 0 else {}),
    ("faults", {"cb_buffer_size": 512}, ("selfcheck",)),
)


def arm(consumer: str, **flags: object) -> Dict[str, object]:
    """The hint overrides ``consumer`` runs with under ``flags``
    (``arm("selfcheck", integrity=True, ppn=2)``; falsy = not armed)."""
    out: Dict[str, object] = {}
    for flag, hints, *only in ARMS:
        value = flags.get(flag)
        if value and (not only or consumer in only[0]):
            out.update(hints(value) if callable(hints) else hints)
    return out


#: Armed domain -> the typed errors that make a killed run a *bounded*
#: outcome (loud, reported, no completion time) instead of a harness
#: bug.  ``"always"``: corruption that was caught.  A quorum-loss abort
#: counts when the plan crashes ranks, a liveness error when the
#: liveness hints are armed, a storage error (a retry or budget
#: exhaustion raised *from* one keeps it in the chain) when the plan
#: carries OST events.  Frame re-requests exhausting at the
#: ``net-frame`` site are the one bounded outcome that is not a type.
_BOUNDED = {
    "always": (IntegrityError,),
    "crash": (CollectiveAborted,),
    "liveness": (DeadlineExceeded, LockDeadlock, AggregatorLost),
    "storage": (OSTUnavailable, OSTOverloaded, RetryBudgetExhausted),
}


@dataclass
class ChaosRun:
    """What one :meth:`ChaosHarness.run_once` produced."""

    #: Virtual completion seconds (0.0: killed by a bounded typed error).
    seconds: float
    #: No silent corruption.
    verified: bool
    #: Corruption was injected and caught.
    detected: bool
    #: The run's own registry (a fresh session per run).
    registry: MetricsRegistry
    #: Its snapshot at completion — what :class:`ChaosPoint` keeps.
    counters: Dict[str, object]


@dataclass
class ChaosPoint:
    """One intensity step of a chaos sweep."""

    rate_scale: float
    sim_seconds: float
    slowdown: float
    verified: bool
    #: Corruption was injected and caught (checksum mismatch flagged,
    #: frame re-requested, or the run killed loudly) — never silent.
    detected: bool = False
    #: The point's full metrics-registry snapshot (stable dotted names:
    #: ``faults.*``, ``cache.*``, ``fs.*``, ``net.*``, ...), so what
    #: fired and how the caches behaved is visible per intensity step.
    counters: Dict[str, object] = field(default_factory=dict)


@dataclass
class ChaosReport:
    """A full sweep: baseline plus one point per intensity."""

    scenario: str
    seed: int
    nprocs: int
    total_bytes: int
    baseline_seconds: float
    points: List[ChaosPoint] = field(default_factory=list)

    @property
    def all_verified(self) -> bool:
        return all(p.verified for p in self.points)

    def format(self) -> str:
        lines = [
            f"chaos sweep: scenario={self.scenario!r} seed={self.seed} "
            f"nprocs={self.nprocs} bytes={self.total_bytes}",
            f"  baseline (fault-free): {self.baseline_seconds * 1e3:9.3f} ms",
            f"  {'scale':>6} {'sim ms':>10} {'slowdown':>9} {'ok':>3}  faults",
        ]
        for p in self.points:
            flag = "BAD" if not p.verified else ("det" if p.detected else "ok")
            lines.append(
                f"  {p.rate_scale:6.2f} {p.sim_seconds * 1e3:10.3f} "
                f"{p.slowdown:8.2f}x {flag:>3}  {fired(p.counters)}"
            )
        return "\n".join(lines)


class ChaosHarness:
    """Sweep a fault scenario's intensity over a fixed collective write.

    ``scenario`` is a ``name[:seed]`` spec or an explicit
    :class:`FaultPlan`.  ``integrity`` / ``liveness`` / ``replication``
    arm the ``"chaos"`` rows of :data:`ARMS` on top of ``hints``;
    ``breaker`` is the session's; ``async_io`` issues the write as
    ``iwrite_all`` + ``Request.wait()``, which re-raises the operation's
    *original* typed exception object, so the chain the classifier
    walks is the one the inline path produces."""

    def __init__(
        self,
        scenario: str | FaultPlan,
        *,
        hints: Hints = SMOKE_HINTS,
        integrity: bool = False,
        liveness: bool = False,
        replication: int = 1,
        breaker: object = True,
        async_io: bool = False,
    ) -> None:
        if isinstance(scenario, FaultPlan):
            self.plan = scenario
            self.scenario_name = "<custom>"
        else:
            self.plan = load_scenario(scenario)
            self.scenario_name = scenario.partition(":")[0]
        self.pattern = smoke_pattern(NPROCS)
        self.hints = hints.replace(
            **arm("chaos", integrity=integrity, liveness=liveness, replicate=replication)
        )
        #: Which rows of :data:`_BOUNDED` apply: liveness armed, OST
        #: events in the plan, fail-stop rank crashes in the plan (the
        #: crashed ranks are rejoined and resumed, and after resume the
        #: *full* oracle must match — docs/crash_recovery.md).
        self.armed = {
            "always": True,
            "liveness": liveness,
            "storage": bool(self.plan.kinds & OST_KINDS),
            "crash": "rank_crash" in self.plan.kinds,
        }
        self.breaker = breaker
        self.async_io = async_io
        self.total_bytes = self.pattern.total_bytes

    def _write(self, async_io: bool):
        def body(ctx, comm, f):
            apply_view(f, self.pattern, comm.rank)
            write_pattern(f, self.pattern, comm.rank, async_io=async_io)

        return body

    def _bounded(self, exc: BaseException) -> bool:
        return any(
            (isinstance(e, RetryExhausted) and e.site == "net-frame")
            or any(self.armed[d] and isinstance(e, types) for d, types in _BOUNDED.items())
            for e in error_chain(exc)
        )

    def run_once(self, plan: Optional[FaultPlan]) -> ChaosRun:
        """One full run (open, write_all, close) under ``plan`` on a
        fresh :class:`~repro.obs.session.Session`; ``plan=None`` runs
        fault-free.  Failures outside :data:`_BOUNDED` propagate (they
        are harness bugs, not chaos outcomes)."""
        session = Session(
            _PATH, nprocs=NPROCS, hints=self.hints, faults=plan, breaker=self.breaker
        )
        write = self._write(self.async_io)

        def main(ctx):
            with session.opened(ctx) as (comm, f):
                write(ctx, comm, f)
            return ctx.now

        try:
            times = session.launch(main)
        except ReproError as exc:
            if not self._bounded(exc):
                raise
            return ChaosRun(0.0, True, True, session.registry, session.registry.snapshot())
        if self.armed["crash"]:
            # Rejoin every corpse and resume: replay the same program
            # (blocking), rewriting only what no survivor committed on
            # its behalf.
            for rank in sorted(session.sim.crashed):
                session.rejoin(rank, self._write(False))
        counters = session.registry.snapshot()
        seconds = max(t for t in times if t is not None)
        got = session.fs.raw_bytes(_PATH, 0, self.total_bytes)
        diff = np.flatnonzero(got != expected_file_bytes(self.pattern))
        detected = bool(
            counters.get("faults.net.corruptions_detected")
            or counters.get("faults.page.corruptions_detected")
        )
        verified = diff.size == 0
        if not verified:
            # Bytes are wrong.  That is still "caught" when every wrong
            # page fails its sidecar (an fsck scrub flags exactly the
            # damage); anything less is silent corruption.
            store = session.fs.page_store(_PATH)
            bad = set(store.verify_all())
            verified = bool(bad) and set((diff // store.page_size).tolist()) <= bad
            detected = detected or verified
        return ChaosRun(seconds, verified, detected, session.registry, counters)

    def sweep(
        self, rate_scales: Sequence[float] = (0.25, 0.5, 1.0, 2.0)
    ) -> ChaosReport:
        """Baseline plus one verified run per intensity."""
        base = self.run_once(None)
        if not base.verified:
            raise AssertionError("fault-free chaos baseline wrote corrupt data")
        report = ChaosReport(
            scenario=self.scenario_name,
            seed=self.plan.seed,
            nprocs=NPROCS,
            total_bytes=self.total_bytes,
            baseline_seconds=base.seconds,
        )
        for scale in rate_scales:
            run = self.run_once(self.plan.scaled(scale))
            report.points.append(
                ChaosPoint(
                    rate_scale=float(scale),
                    sim_seconds=run.seconds,
                    slowdown=run.seconds / base.seconds if base.seconds > 0 else float("inf"),
                    verified=run.verified,
                    detected=run.detected,
                    counters=run.counters,
                )
            )
        return report
