"""Fault injector: turns a :class:`FaultPlan` into hook decisions.

One injector is shared by every rank of a run (it lives in the
simulator's ``shared`` dict under :data:`~repro.faults.plan.FAULTS_KEY`
and on ``Simulator.faults`` for the engine's CPU hook).  Each hook
decision is a pure hash of ``(seed, kind, actor, counter)`` with
per-actor counters, so

* two runs of the same workload under the same plan make identical
  decisions (replayable chaos), and
* rank A's decisions do not depend on how many opportunities rank B
  has consumed (perturbation-robust keying).

Mutating hook state is safe without locks because the engine runs one
rank thread at a time.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.errors import TransientIOError
from repro.faults.plan import FAULTS_KEY, OST_KINDS, FaultPlan
from repro.fs import ostfault
from repro.obs.metrics import MetricsRegistry

__all__ = ["FAULT_COUNTERS", "FaultInjector", "fired"]

_U64 = float(1 << 64)


#: Every ``faults.*`` counter the injector and the resilience layers
#: reporting back to it bump — what was injected, what it cost, how it
#: was recovered from — in the order the CLI's fault tables print them.
#: All are interned when an injector is built, so a table shows the
#: counters that stayed at zero too.
FAULT_COUNTERS: Tuple[str, ...] = (
    "faults.io",
    "faults.disk.slowdowns",
    "faults.disk.extra_seconds",
    "faults.straggler.events",
    "faults.straggler.extra_seconds",
    "faults.stalls",
    "faults.stall_seconds",
    "faults.net.delayed",
    "faults.net.dropped",
    "faults.net.extra_seconds",
    "faults.lock.storm_rpcs",
    "faults.lock.holds",
    "faults.lock.hold_seconds",
    "faults.lock.lease_reclaims",
    "faults.lock.deadlocks",
    "faults.agg.crashes",
    "faults.failovers",
    "faults.realm_bytes_rebalanced",
    "faults.suspects_declared",
    "faults.deadlines_exceeded",
    "faults.retries",
    "faults.retry.backoff_seconds",
    "faults.retries_exhausted",
    "faults.page.bits_flipped",
    "faults.net.bits_flipped",
    "faults.page.corruptions_detected",
    "faults.net.corruptions_detected",
    "faults.net.redeliveries",
    "faults.ost.rejections",
    "faults.ost.slow_extra_seconds",
    "faults.ost.failovers",
    "faults.ost.quorum_failures",
    "faults.crashes",
    "faults.crash.agreements",
    "faults.crash.rejoins",
    "faults.crash.resume_rewritten_bytes",
    "faults.crash.resume_skipped_bytes",
    "faults.suppressed",
)


def fired(values: Mapping[str, object]) -> str:
    """``name=value, ...`` of the fault counters that are non-zero in a
    registry snapshot ``values`` (``-`` when nothing fired)."""
    return ", ".join(
        f"{name}={values[name]:g}" for name in FAULT_COUNTERS if values.get(name)
    ) or "-"


class FaultInjector:
    """Hook implementation consulted by the sim/mpi/fs/io layers."""

    def __init__(
        self, plan: FaultPlan, registry: Optional[MetricsRegistry] = None
    ) -> None:
        for event in plan.events:
            event.validate()
        self.plan = plan
        #: Where the ``faults.*`` series land: the run's shared registry
        #: (:meth:`FaultPlan.install` passes it), private when standalone.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._series = {name: self.registry.counter(name) for name in FAULT_COUNTERS}
        self._umbrella = self.registry.counter("faults.injected")
        #: (kind, actor) -> opportunities consumed so far.
        self._counters: Dict[Tuple[str, int], int] = {}
        #: rank -> collective calls begun (for agg_crash targeting).
        self._calls: Dict[int, int] = {}
        # Kind presence flags let the fault-free fast paths stay cheap.
        self._active_kinds = plan.kinds

    def install(self, sim) -> "FaultInjector":
        """Attach to a :class:`~repro.sim.engine.Simulator` before run."""
        sim.shared[FAULTS_KEY] = self
        sim.faults = self
        return self

    # -- counting ---------------------------------------------------------
    def _count(self, name: str, n=1) -> None:
        self._series[name].inc(n)

    def _injected(self, name: str, n: int = 1) -> None:
        """Count ``n`` *injected* events: ``name`` and the
        ``faults.injected`` umbrella (recovery and detection counters —
        retries, failovers — deliberately stay out of it)."""
        self._count(name, n)
        self._umbrella.inc(n)

    # -- deterministic coin flips ---------------------------------------
    def _chance(self, kind: str, actor: int, p: float) -> bool:
        """Seeded Bernoulli(p) draw for this (kind, actor) opportunity."""
        if p >= 1.0:
            self._counters[(kind, actor)] = self._counters.get((kind, actor), 0) + 1
            return True
        if p <= 0.0:
            return False
        n = self._counters.get((kind, actor), 0)
        self._counters[(kind, actor)] = n + 1
        digest = hashlib.blake2b(
            f"{self.plan.seed}/{kind}/{actor}/{n}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / _U64 < p

    def enabled(self, kind: str) -> bool:
        return kind in self._active_kinds

    def _draw(self, kind: str, actor: int) -> int:
        """Seeded 64-bit draw (position choice, not a coin flip).

        Keyed like :meth:`_chance` but under its own counter namespace,
        so interleaving position draws with coin flips never perturbs
        either sequence."""
        key = (kind + "#pos", actor)
        n = self._counters.get(key, 0)
        self._counters[key] = n + 1
        digest = hashlib.blake2b(
            f"{self.plan.seed}/{kind}#pos/{actor}/{n}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big")

    # -- sim.engine hook --------------------------------------------------
    def cpu_factor(self, rank: int, now: float) -> float:
        """Multiplier applied to CPU charges of ``rank`` at time ``now``."""
        if "straggler" not in self._active_kinds:
            return 1.0
        f = 1.0
        for e in self.plan.of_kind("straggler"):
            if e.active(now) and e.applies_to(rank):
                f *= e.factor
        return f

    def note_straggler(self, extra: float) -> None:
        self._injected("faults.straggler.events")
        self._count("faults.straggler.extra_seconds", extra)

    # -- liveness hooks ---------------------------------------------------
    def stalled_ranks(self, call_index: int, boundary: int) -> Dict[int, float]:
        """``{rank: stall seconds}`` frozen at exactly this boundary."""
        if "rank_stall" not in self._active_kinds:
            return {}
        return self.plan.stalls_at(call_index, boundary)

    def note_stall(self, seconds: float) -> None:
        self._injected("faults.stalls")
        self._count("faults.stall_seconds", seconds)

    def note_suspect(self) -> None:
        self._count("faults.suspects_declared")

    def note_deadline_exceeded(self) -> None:
        self._count("faults.deadlines_exceeded")

    # -- fs.filesystem hooks ----------------------------------------------
    def io_fault(self, client: int, path: str, site: str, now: float) -> None:
        """Raise :class:`TransientIOError` when a transient-I/O event
        fires for this server call; otherwise return normally."""
        if "transient_io" not in self._active_kinds:
            return
        for e in self.plan.of_kind("transient_io"):
            if e.active(now) and e.applies_to(client):
                if self._chance("transient_io", client, e.rate):
                    self._injected("faults.io")
                    raise TransientIOError(site, client, path)

    def disk_penalty(self, ost: int, now: float, service: float) -> float:
        """Extra service seconds for this OST request batch."""
        if "slow_disk" not in self._active_kinds:
            return 0.0
        f = 1.0
        for e in self.plan.of_kind("slow_disk"):
            if e.active(now) and (e.osts is None or ost in e.osts):
                f *= e.factor
        extra = service * (f - 1.0)
        if extra > 0.0:
            self._injected("faults.disk.slowdowns")
            self._count("faults.disk.extra_seconds", extra)
        return extra

    # -- fs.ostfault hooks -------------------------------------------------
    def has_ost_faults(self) -> bool:
        """Fast-path gate: any ``ost_*`` health kinds in the plan?"""
        return bool(self._active_kinds & OST_KINDS)

    def ost_down(self, ost: int, now: float) -> bool:
        if not self.has_ost_faults():
            return False
        return ostfault.ost_down(self.plan.events, ost, now)

    def ost_state(self, ost: int, now: float) -> int:
        if not self.has_ost_faults():
            return ostfault.UP
        return ostfault.ost_state(self.plan.events, ost, now)

    def ost_service_factor(self, ost: int, now: float) -> float:
        """Brownout multiplier from ``ost_slow`` events (stats noted)."""
        if "ost_slow" not in self._active_kinds:
            return 1.0
        return ostfault.ost_service_factor(self.plan.events, ost, now)

    def note_ost_rejection(self) -> None:
        self._injected("faults.ost.rejections")

    def note_ost_slow(self, extra: float) -> None:
        self._count("faults.ost.slow_extra_seconds", extra)

    def note_ost_failover(self) -> None:
        self._count("faults.ost.failovers")

    def note_ost_quorum_failure(self) -> None:
        self._count("faults.ost.quorum_failures")

    # -- fs.locks hook ----------------------------------------------------
    def lock_storm_rpcs(self, client: int, now: float) -> int:
        """Additional RPC round-trips this acquisition must pay."""
        if "lock_storm" not in self._active_kinds:
            return 0
        extra = 0
        for e in self.plan.of_kind("lock_storm"):
            if e.active(now) and e.applies_to(client):
                if self._chance("lock_storm", client, e.rate):
                    extra += e.extra_rpcs
        if extra:
            self._injected("faults.lock.storm_rpcs", extra)
        return extra

    def lock_hold_seconds(self, client: int, now: float) -> float:
        """Seconds the locks just granted to ``client`` stay pinned
        (0 = the holder's callback thread is healthy)."""
        if "lock_hold" not in self._active_kinds:
            return 0.0
        hold = 0.0
        for e in self.plan.of_kind("lock_hold"):
            if e.active(now) and e.applies_to(client):
                if self._chance("lock_hold", client, e.rate):
                    hold = max(hold, e.delay)
        if hold > 0.0:
            self._injected("faults.lock.holds")
            self._count("faults.lock.hold_seconds", hold)
        return hold

    def note_lock_reclaim(self, granules: int) -> None:
        self._injected("faults.lock.lease_reclaims", granules)

    def note_lock_deadlock(self) -> None:
        self._count("faults.lock.deadlocks")

    # -- mpi.network hook --------------------------------------------------
    def net_penalty(self, src: int, dst: int, now: float, transit: float) -> float:
        """Extra transit seconds for one message from ``src``.

        Drops are modelled as retransmission: the sender's transport
        notices the loss after the event's timeout and resends, so the
        payload arrives ``timeout + transit`` late instead of never
        (an outright loss would deadlock the receive side, which is a
        *bug* model, not a fault model)."""
        if not self._active_kinds & {"net_delay", "net_drop"}:
            return 0.0
        extra = 0.0
        for e in self.plan.of_kind("net_delay"):
            if e.active(now) and e.applies_to(src):
                if self._chance("net_delay", src, e.rate):
                    self._injected("faults.net.delayed")
                    extra += e.delay
        for e in self.plan.of_kind("net_drop"):
            if e.active(now) and e.applies_to(src):
                if self._chance("net_drop", src, e.rate):
                    self._injected("faults.net.dropped")
                    extra += e.delay + transit
        if extra:
            self._count("faults.net.extra_seconds", extra)
        return extra

    # -- corruption hooks ---------------------------------------------------
    def corrupt_stored(self, store, pages, client: int, now: float) -> None:
        """Maybe flip one bit of one just-written page of ``store``.

        ``pages`` are the (allocated) page indices the write touched;
        the flip happens *after* the sidecar update, which is exactly
        the window a real medium corrupts in.  The sidecar is left
        stale on purpose — that mismatch is what detection detects."""
        if not pages or "bit_flip_page" not in self._active_kinds:
            return
        for e in self.plan.of_kind("bit_flip_page"):
            if e.active(now) and e.applies_to(client):
                if self._chance("bit_flip_page", client, e.rate):
                    draw = self._draw("bit_flip_page", client)
                    store.flip_bit(pages[draw % len(pages)], draw // len(pages))
                    self._injected("faults.page.bits_flipped")

    def corrupt_net(self, src: int, dst: int, now: float) -> Optional[int]:
        """Position draw for flipping one bit of an in-flight payload,
        or ``None`` when this message travels clean.  The transport owns
        the actual flip (it holds the payload copy)."""
        if "bit_flip_net" not in self._active_kinds:
            return None
        for e in self.plan.of_kind("bit_flip_net"):
            if e.active(now) and e.applies_to(src):
                if self._chance("bit_flip_net", src, e.rate):
                    self._injected("faults.net.bits_flipped")
                    return self._draw("bit_flip_net", src)
        return None

    def note_page_corruption_detected(self) -> None:
        self._count("faults.page.corruptions_detected")

    def note_net_corruption_detected(self) -> None:
        self._count("faults.net.corruptions_detected")

    def note_net_redelivery(self) -> None:
        self._count("faults.net.redeliveries")

    # -- core.two_phase hooks ----------------------------------------------
    def begin_collective(self, rank: int) -> int:
        """Per-rank ordinal of the collective call now starting.

        Every rank makes the same collective calls in the same order,
        so the ordinal is globally consistent without communication."""
        n = self._calls.get(rank, 0)
        self._calls[rank] = n + 1
        return n

    def dead_aggregators(self, call_index: int, boundary: int) -> FrozenSet[int]:
        """Ranks whose aggregator role is gone at this phase boundary."""
        if "agg_crash" not in self._active_kinds:
            return frozenset()
        return self.plan.crashes_through(call_index, boundary)

    def note_failover(self, dead_rank: int, bytes_rebalanced: int) -> None:
        self._injected("faults.agg.crashes")
        self._count("faults.failovers")
        self._count("faults.realm_bytes_rebalanced", bytes_rebalanced)

    # -- fail-stop crash hooks ----------------------------------------------
    def crashed_ranks(self, call_index: int, boundary: int) -> FrozenSet[int]:
        """Ranks dead fail-stop at this phase boundary (``rank_crash``).

        Like :meth:`dead_aggregators` this is a pure function of the
        plan, evaluated identically by every survivor — the agreement
        exchange then confirms the converged set over real messages."""
        if "rank_crash" not in self._active_kinds:
            return frozenset()
        return self.plan.rank_crashes_through(call_index, boundary)

    def crash_event_for(self, rank: int, call_index: int):
        """The ``rank_crash`` event that kills ``rank`` by this call."""
        if "rank_crash" not in self._active_kinds:
            return None
        return self.plan.crash_for(rank, call_index)

    def note_crash(self) -> None:
        self._injected("faults.crashes")

    def note_agreement(self) -> None:
        self._count("faults.crash.agreements")

    def note_rejoin(self) -> None:
        self._count("faults.crash.rejoins")

    def note_resume(self, rewritten: int, skipped: int) -> None:
        self._count("faults.crash.resume_rewritten_bytes", rewritten)
        self._count("faults.crash.resume_skipped_bytes", skipped)

    def note_suppressed(self, n: int = 1) -> None:
        """Count fault events whose target rank was already dead when
        their boundary arrived — the event could not apply, and before
        this counter it silently vanished from the summary."""
        self._count("faults.suppressed", n)

    def suppressed_for(self, dead: FrozenSet[int], call_index: int, boundary: int) -> int:
        """How many plan events aimed at exactly this boundary target
        only already-dead ranks (stalls and role-crashes of a corpse
        cannot fire).  The caller gates the counting on one designated
        survivor so the total is counted once, not once per rank."""
        if not dead:
            return 0
        n = 0
        key = (call_index, boundary)
        for e in self.plan.events:
            if e.kind not in ("rank_stall", "agg_crash", "rank_crash"):
                continue
            if (e.call_index, e.round_index) != key:
                continue
            targets = e.ranks or frozenset()
            if not targets or not targets <= dead:
                continue
            if e.kind == "rank_crash":
                # The event that *creates* a death is not suppressed;
                # it is only when every victim already died at an
                # earlier boundary (a crash aimed at a corpse).
                earlier: set = set()
                for o in self.plan.of_kind("rank_crash"):
                    if o is not e and (o.call_index, o.round_index) < key:
                        earlier.update(o.ranks or ())
                if not targets <= earlier:
                    continue
            n += 1
        return n

    # -- io retry reporting -------------------------------------------------
    def note_retry(self, backoff: float) -> None:
        self._count("faults.retries")
        self._count("faults.retry.backoff_seconds", backoff)

    def note_retry_exhausted(self) -> None:
        self._count("faults.retries_exhausted")

