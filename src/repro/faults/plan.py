"""Deterministic, seeded fault plans (the chaos scenario DSL).

A :class:`FaultPlan` is a seed plus a list of :class:`FaultEvent`
specifications.  Events never fire by wall-clock randomness: every
injection decision is a pure hash of ``(seed, kind, actor, counter)``
(see :mod:`repro.faults.injector`), and time windows are *virtual*
times, so the same plan replayed against the same workload produces
byte-identical file contents and identical virtual completion times.

Event kinds
-----------

``transient_io``
    Server read/write calls fail with
    :class:`~repro.errors.TransientIOError` with probability ``rate``
    per call while the window is active.
``slow_disk``
    OST service time is multiplied by ``factor`` while active (a
    degraded disk / RAID rebuild).
``straggler``
    CPU charges on the affected ranks are multiplied by ``factor``
    while active (a slow or oversubscribed node).
``net_delay``
    Each message is delayed by an extra ``delay`` seconds with
    probability ``rate`` (congestion, duplicate ACK stalls).
``net_drop``
    Each message is *dropped* with probability ``rate``; the transport
    detects the loss after a ``delay``-second retransmit timeout and
    resends, so the message arrives late but the run stays live.
``lock_storm``
    Lock acquisitions that need an RPC pay ``extra_rpcs`` additional
    round-trips with probability ``rate`` (an overloaded lock manager
    timing out and re-enqueueing requests).
``agg_crash``
    Aggregator ``ranks`` lose their aggregator role at the
    ``round_index``-th phase boundary of collective call
    ``call_index``.  The rank stays alive as a client (its compute
    process is fine; its I/O delegate died) and the collective layer
    fails the realm over to the surviving aggregators — or raises
    :class:`~repro.errors.AggregatorLost` when no aggregator survives.
``bit_flip_page``
    With probability ``rate`` per server write, one bit of one just-
    written store page flips *after* the checksum sidecar was updated
    (media/DMA corruption).  Silent unless the ``integrity_pages``
    hint arms verification.
``bit_flip_net``
    With probability ``rate`` per data-frame message, one bit of the
    in-flight payload copy flips (link-level corruption slipping past
    a weak hardware CRC).  Silent unless ``integrity_network`` arms
    frame checksums, in which case the receiver detects it and
    re-requests the frame.
``rank_stall``
    Rank ``ranks`` freeze for ``delay`` virtual seconds at the
    ``round_index``-th phase boundary of collective call
    ``call_index`` (a GC pause, page-fault storm, OS jitter burst).
    Deterministic and boundary-addressed like ``agg_crash``, but
    transient: the rank resumes after the stall.  With the
    ``liveness`` hint on, peers declare the rank *suspect* and
    complete the collective without waiting for it.
``lock_hold``
    With probability ``rate`` per lock acquisition, the just-granted
    extent locks stay *pinned* for ``delay`` virtual seconds (a
    wedged lock-callback thread that cannot service revocations).
    Conflicting acquirers must wait; the liveness layer's lock lease
    caps the wait and a waits-for cycle among pinned holders is broken
    with a typed :class:`~repro.errors.LockDeadlock`.
``ost_crash``
    The named ``osts`` are *down* for the whole window: every server
    call needing one raises a typed
    :class:`~repro.errors.OSTUnavailable` before any byte moves.  The
    window's end is the OST's recovery epoch — replicated files
    re-replicate stale ranges from there on.
``ost_slow``
    Gray brownout: the named ``osts`` serve at ``factor``× service
    time while the window is active and report health *degraded* (not
    down — calls succeed, slowly).  Differs from ``slow_disk`` in
    being a first-class health state: it shows in the ``fs.ost.health``
    gauges, the per-OST trace rows, and the breaker's view.
``ost_flap``
    The named ``osts`` alternate up/down with half-period ``delay``
    seconds inside the window (a flaky controller or link): down
    during the odd half-periods, up during the even ones.  The worst
    case for naive retry loops — which is what the circuit breaker and
    retry budget exist for.
``rank_crash``
    Fail-stop process death: rank ``ranks`` dies — engine coroutine
    and all — inside round ``round_index`` of collective call
    ``call_index``, at the point named by ``site`` (``"boundary"``
    before the round's exchange, ``"exchange"`` mid-exchange,
    ``"flush"`` mid-flush).  Unlike ``agg_crash`` (the I/O delegate
    dies, the process lives) and ``rank_stall`` (transient), the rank
    is *gone*: survivors run the epoch-agreement protocol at the next
    phase boundary, converge on the dead set, shrink the exchange
    schedule, and complete their own bytes.  With ``journal_writes`` on,
    the per-epoch commit records let the dead rank
    ``Session.rejoin()`` later and rewrite only its un-committed
    bytes.

Scenario strings (``name[:seed]``, e.g. ``transient-io:42``) are
resolved by :func:`repro.faults.scenarios.load_scenario`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import FrozenSet, Iterator, List, Optional, Tuple

from repro.errors import ReproError

__all__ = [
    "FAULTS_KEY",
    "FaultPlanError",
    "FaultEvent",
    "FaultPlan",
    "EVENT_KINDS",
    "OST_KINDS",
    "CRASH_SITES",
]

#: Key under which the installed injector lives in ``Simulator.shared``.
FAULTS_KEY = "fault-injector"

EVENT_KINDS = (
    "transient_io",
    "slow_disk",
    "straggler",
    "net_delay",
    "net_drop",
    "lock_storm",
    "agg_crash",
    "bit_flip_page",
    "bit_flip_net",
    "rank_stall",
    "lock_hold",
    "ost_crash",
    "ost_slow",
    "ost_flap",
    "rank_crash",
)

#: Where inside its target round a ``rank_crash`` victim dies.
CRASH_SITES = ("boundary", "exchange", "flush")

#: Kinds evaluated against per-OST health (see :mod:`repro.fs.ostfault`).
OST_KINDS = frozenset({"ost_crash", "ost_slow", "ost_flap"})


class FaultPlanError(ReproError):
    """A fault plan or scenario specification is malformed."""


def _rankset(ranks) -> Optional[FrozenSet[int]]:
    if ranks is None:
        return None
    out = frozenset(int(r) for r in ranks)
    if any(r < 0 for r in out):
        raise FaultPlanError(f"ranks must be non-negative, got {sorted(out)}")
    return out


@dataclass(frozen=True)
class FaultEvent:
    """One fault specification (see the module docstring for kinds)."""

    kind: str
    #: Virtual-time window [start, end) in which the event is active.
    start: float = 0.0
    end: float = math.inf
    #: Probability per opportunity (per server call, per message, ...).
    rate: float = 1.0
    #: Affected ranks / client ids (``None`` = all).
    ranks: Optional[FrozenSet[int]] = None
    #: Affected OSTs for ``slow_disk`` (``None`` = all) and the
    #: ``ost_*`` health kinds (which must name them explicitly).
    osts: Optional[FrozenSet[int]] = None
    #: Slowdown multiplier for ``slow_disk`` / ``straggler``.
    factor: float = 1.0
    #: Extra seconds: added latency (``net_delay``) or retransmit
    #: timeout (``net_drop``).
    delay: float = 0.0
    #: Additional lock-manager round-trips per stormed acquisition.
    extra_rpcs: int = 1
    #: ``agg_crash`` target: which collective call (0-based, counted
    #: per rank in program order) ...
    call_index: int = 0
    #: ... and which phase boundary within it (0 = before round 0).
    round_index: int = 0
    #: ``rank_crash`` only: where inside the target round the victim
    #: dies (``"boundary"`` | ``"exchange"`` | ``"flush"``).
    site: str = "boundary"

    def validate(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; known kinds: {EVENT_KINDS}"
            )
        if not (0.0 <= self.rate <= 1.0):
            raise FaultPlanError(f"rate must be in [0, 1], got {self.rate}")
        if self.start < 0 or self.end < self.start:
            raise FaultPlanError(f"bad window [{self.start}, {self.end})")
        if self.factor < 1.0:
            raise FaultPlanError(f"factor must be >= 1, got {self.factor}")
        if self.delay < 0:
            raise FaultPlanError(f"delay must be >= 0, got {self.delay}")
        if self.extra_rpcs < 0:
            raise FaultPlanError(f"extra_rpcs must be >= 0, got {self.extra_rpcs}")
        if self.call_index < 0 or self.round_index < 0:
            raise FaultPlanError("call_index/round_index must be >= 0")
        if self.kind == "agg_crash" and self.ranks is None:
            raise FaultPlanError("agg_crash events must name the crashing ranks")
        if self.kind == "rank_stall":
            if self.ranks is None:
                raise FaultPlanError("rank_stall events must name the stalling ranks")
            if self.delay <= 0:
                raise FaultPlanError("rank_stall events need a positive delay")
        if self.kind == "lock_hold" and self.delay <= 0:
            raise FaultPlanError("lock_hold events need a positive hold (delay)")
        if self.kind in OST_KINDS and self.osts is None:
            raise FaultPlanError(f"{self.kind} events must name the affected osts")
        if self.kind == "ost_crash" and self.end == math.inf:
            raise FaultPlanError(
                "ost_crash events need a finite window end (the recovery epoch)"
            )
        if self.kind == "ost_slow" and self.factor <= 1.0:
            raise FaultPlanError(
                f"ost_slow events need a brownout factor > 1, got {self.factor}"
            )
        if self.kind == "ost_flap" and self.delay <= 0:
            raise FaultPlanError(
                "ost_flap events need a positive half-period (delay, seconds)"
            )
        if self.kind == "rank_crash":
            if self.ranks is None:
                raise FaultPlanError("rank_crash events must name the dying ranks")
            if self.site not in CRASH_SITES:
                raise FaultPlanError(
                    f"unknown crash site {self.site!r}; options: {CRASH_SITES}"
                )

    def active(self, t: float) -> bool:
        """True when virtual time ``t`` falls inside the event window."""
        return self.start <= t < self.end

    def applies_to(self, rank) -> bool:
        """True when the event targets ``rank``.

        ``rank`` is normally an int; multi-tenant runs pass composite
        ``(tenant, local_rank)`` client ids, which match on their int
        component — a plan scoped to one tenant's injector keeps using
        plain local ranks in ``ranks``."""
        if self.ranks is None:
            return True
        if rank in self.ranks:
            return True
        if isinstance(rank, tuple):
            return any(isinstance(p, int) and p in self.ranks for p in rank)
        return False


@dataclass
class FaultPlan:
    """A seeded, immutable-after-construction chaos schedule.

    Build one with the chained-builder DSL::

        plan = (FaultPlan(seed=42)
                .transient_io(rate=0.05)
                .slow_disk(factor=4.0, start=0.0, end=0.5, osts=[1])
                .agg_crash(rank=1, round_index=1))

    then hand it to :meth:`repro.faults.FaultInjector.install` (or
    ``plan.install(sim)``) before ``Simulator.run``.
    """

    seed: int = 0
    events: List[FaultEvent] = field(default_factory=list)

    # -- builder DSL -----------------------------------------------------
    def add(self, event: FaultEvent) -> "FaultPlan":
        event.validate()
        self.events.append(event)
        return self

    def transient_io(
        self, rate: float, *, start: float = 0.0, end: float = math.inf, ranks=None
    ) -> "FaultPlan":
        return self.add(
            FaultEvent("transient_io", start, end, rate, ranks=_rankset(ranks))
        )

    def slow_disk(
        self, factor: float, *, start: float = 0.0, end: float = math.inf, osts=None
    ) -> "FaultPlan":
        return self.add(
            FaultEvent("slow_disk", start, end, factor=factor, osts=_rankset(osts))
        )

    def straggler(
        self, factor: float, ranks, *, start: float = 0.0, end: float = math.inf
    ) -> "FaultPlan":
        return self.add(
            FaultEvent("straggler", start, end, factor=factor, ranks=_rankset(ranks))
        )

    def net_delay(
        self, rate: float, delay: float, *, start: float = 0.0, end: float = math.inf,
        ranks=None,
    ) -> "FaultPlan":
        return self.add(
            FaultEvent("net_delay", start, end, rate, delay=delay, ranks=_rankset(ranks))
        )

    def net_drop(
        self, rate: float, *, timeout: float = 5e-3, start: float = 0.0,
        end: float = math.inf, ranks=None,
    ) -> "FaultPlan":
        return self.add(
            FaultEvent("net_drop", start, end, rate, delay=timeout, ranks=_rankset(ranks))
        )

    def lock_storm(
        self, rate: float, *, extra_rpcs: int = 2, start: float = 0.0,
        end: float = math.inf, ranks=None,
    ) -> "FaultPlan":
        return self.add(
            FaultEvent(
                "lock_storm", start, end, rate,
                extra_rpcs=extra_rpcs, ranks=_rankset(ranks),
            )
        )

    def agg_crash(
        self, rank: int, *, call_index: int = 0, round_index: int = 0
    ) -> "FaultPlan":
        return self.add(
            FaultEvent(
                "agg_crash", ranks=_rankset([rank]),
                call_index=call_index, round_index=round_index,
            )
        )

    def rank_stall(
        self, rank: int, *, delay: float, call_index: int = 0, round_index: int = 0
    ) -> "FaultPlan":
        return self.add(
            FaultEvent(
                "rank_stall", ranks=_rankset([rank]), delay=delay,
                call_index=call_index, round_index=round_index,
            )
        )

    def rank_crash(
        self, rank: int, *, call_index: int = 0, round_index: int = 0,
        site: str = "boundary",
    ) -> "FaultPlan":
        """Rank ``rank`` dies fail-stop in round ``round_index`` of
        collective call ``call_index``, at ``site`` within the round."""
        return self.add(
            FaultEvent(
                "rank_crash", ranks=_rankset([rank]),
                call_index=call_index, round_index=round_index, site=site,
            )
        )

    def lock_hold(
        self, rate: float, *, hold: float = 5e-2, start: float = 0.0,
        end: float = math.inf, ranks=None,
    ) -> "FaultPlan":
        return self.add(
            FaultEvent("lock_hold", start, end, rate, delay=hold, ranks=_rankset(ranks))
        )

    def ost_crash(
        self, osts, *, start: float = 0.0, end: float = 0.0
    ) -> "FaultPlan":
        """OSTs hard-down during [start, end); ``end`` is the recovery
        epoch (re-replication may begin there)."""
        return self.add(FaultEvent("ost_crash", start, end, osts=_rankset(osts)))

    def ost_slow(
        self, osts, factor: float, *, start: float = 0.0, end: float = math.inf
    ) -> "FaultPlan":
        """Gray brownout: OSTs degraded (``factor``× service) in window."""
        return self.add(
            FaultEvent("ost_slow", start, end, factor=factor, osts=_rankset(osts))
        )

    def ost_flap(
        self, osts, *, period: float, start: float = 0.0, end: float = math.inf
    ) -> "FaultPlan":
        """OSTs alternate up/down with half-period ``period`` seconds."""
        return self.add(
            FaultEvent("ost_flap", start, end, delay=period, osts=_rankset(osts))
        )

    def page_bitflip(
        self, rate: float, *, start: float = 0.0, end: float = math.inf, ranks=None
    ) -> "FaultPlan":
        return self.add(
            FaultEvent("bit_flip_page", start, end, rate, ranks=_rankset(ranks))
        )

    def net_bitflip(
        self, rate: float, *, start: float = 0.0, end: float = math.inf, ranks=None
    ) -> "FaultPlan":
        return self.add(
            FaultEvent("bit_flip_net", start, end, rate, ranks=_rankset(ranks))
        )

    # -- queries ---------------------------------------------------------
    def of_kind(self, kind: str) -> Iterator[FaultEvent]:
        return (e for e in self.events if e.kind == kind)

    @property
    def kinds(self) -> FrozenSet[str]:
        """The event kinds this plan arms."""
        return frozenset(e.kind for e in self.events)

    def crashes_through(self, call_index: int, boundary: int) -> FrozenSet[int]:
        """Ranks whose aggregator role is dead at (or before) phase
        boundary ``boundary`` of collective call ``call_index``.

        Crashes are permanent: a rank dead in call 2 is still dead in
        call 5 (it never regains the aggregator role)."""
        dead: set[int] = set()
        for e in self.of_kind("agg_crash"):
            if (e.call_index, e.round_index) <= (call_index, boundary):
                dead.update(e.ranks or ())
        return frozenset(dead)

    def rank_crashes_through(self, call_index: int, boundary: int) -> FrozenSet[int]:
        """Ranks dead fail-stop at phase boundary ``boundary`` of call
        ``call_index`` — i.e. every ``rank_crash`` victim whose target
        round has been reached.  Death is permanent: once a victim's
        ``(call_index, round_index)`` is ``<=`` the queried boundary it
        stays in the set for every later boundary and call.  Like all
        fault detection here this is a pure function of the plan, so
        every survivor converges on the same dead set with no
        failure-detector messages — the agreement exchange then
        *confirms* (and exercises) the convergence."""
        dead: set[int] = set()
        for e in self.of_kind("rank_crash"):
            if (e.call_index, e.round_index) <= (call_index, boundary):
                dead.update(e.ranks or ())
        return frozenset(dead)

    def crash_for(self, rank: int, call_index: int) -> Optional[FaultEvent]:
        """The earliest ``rank_crash`` event that kills ``rank`` at or
        before call ``call_index`` (None when the rank survives it)."""
        best: Optional[FaultEvent] = None
        for e in self.of_kind("rank_crash"):
            if e.call_index <= call_index and rank in (e.ranks or ()):
                if best is None or (e.call_index, e.round_index) < (
                    best.call_index, best.round_index
                ):
                    best = e
        return best

    def stalls_at(self, call_index: int, boundary: int) -> dict:
        """``{rank: stall seconds}`` for ranks frozen at exactly phase
        boundary ``boundary`` of collective call ``call_index``.

        Unlike crashes, stalls are transient — they match one boundary
        exactly and the rank resumes afterwards.  Like crash detection,
        this is a pure function every rank evaluates identically."""
        out: dict[int, float] = {}
        for e in self.of_kind("rank_stall"):
            if (e.call_index, e.round_index) == (call_index, boundary):
                for r in e.ranks or ():
                    out[r] = max(out.get(r, 0.0), e.delay)
        return out

    def reseed(self, seed: int) -> "FaultPlan":
        """The same schedule under a different seed."""
        return FaultPlan(seed=seed, events=list(self.events))

    def scaled(self, rate_scale: float) -> "FaultPlan":
        """A copy with every probabilistic rate multiplied by
        ``rate_scale`` (clamped to 1); used by the chaos harness to
        sweep fault intensity with one scenario definition."""
        out = FaultPlan(seed=self.seed)
        scalable = (
            "transient_io", "net_delay", "net_drop", "lock_storm",
            "bit_flip_page", "bit_flip_net", "lock_hold",
        )
        for e in self.events:
            if e.kind in scalable:
                out.add(replace(e, rate=min(e.rate * rate_scale, 1.0)))
            else:
                out.add(e)
        return out

    def describe(self) -> List[Tuple[str, str]]:
        """(kind, human summary) per event, for CLI/report tables."""
        rows = []
        for e in self.events:
            bits = []
            if e.kind in (
                "transient_io", "net_delay", "net_drop", "lock_storm",
                "bit_flip_page", "bit_flip_net", "lock_hold",
            ):
                bits.append(f"rate={e.rate:g}")
            if e.kind in ("slow_disk", "straggler", "ost_slow"):
                bits.append(f"factor={e.factor:g}x")
            if e.kind == "ost_flap":
                bits.append(f"period={e.delay:g}s")
            elif e.delay:
                bits.append(f"delay={e.delay:g}s")
            if e.kind in ("agg_crash", "rank_stall", "rank_crash"):
                bits.append(
                    f"ranks={sorted(e.ranks or ())} call={e.call_index} "
                    f"boundary={e.round_index}"
                )
                if e.kind == "rank_crash":
                    bits.append(f"site={e.site}")
            elif e.ranks is not None:
                bits.append(f"ranks={sorted(e.ranks)}")
            if e.osts is not None:
                bits.append(f"osts={sorted(e.osts)}")
            if e.end != math.inf or e.start != 0.0:
                end = "inf" if e.end == math.inf else f"{e.end:g}"
                bits.append(f"window=[{e.start:g}, {end})")
            rows.append((e.kind, ", ".join(bits)))
        return rows

    # -- installation ----------------------------------------------------
    def install(self, sim) -> "FaultInjector":  # noqa: F821 - forward ref
        """Attach a fresh injector for this plan to ``sim``; returns it."""
        from repro.faults.injector import FaultInjector
        from repro.obs.metrics import metrics_registry

        return FaultInjector(self, metrics_registry(sim.shared)).install(sim)
