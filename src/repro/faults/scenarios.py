"""Canned chaos scenarios and the ``name[:seed]`` spec parser.

Each scenario is a function ``seed -> FaultPlan``.  They are the
library's regression vocabulary: the CLI's ``--faults`` flag, the CI
smoke run, and the chaos harness all speak these names.  Registering a
new scenario is one :func:`scenario` decorator away.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.faults.plan import FaultPlan, FaultPlanError

__all__ = ["SCENARIOS", "scenario", "load_scenario", "scenario_names"]

SCENARIOS: Dict[str, Callable[[int], FaultPlan]] = {}


def scenario(name: str):
    """Register ``fn(seed) -> FaultPlan`` under ``name``."""

    def register(fn: Callable[[int], FaultPlan]) -> Callable[[int], FaultPlan]:
        if name in SCENARIOS:
            raise FaultPlanError(f"duplicate scenario name {name!r}")
        SCENARIOS[name] = fn
        return fn

    return register


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def load_scenario(spec: str) -> FaultPlan:
    """Resolve ``name[:seed]`` (e.g. ``transient-io:42``) to a plan."""
    name, _, seed_text = spec.partition(":")
    name = name.strip().lower()
    if name not in SCENARIOS:
        raise FaultPlanError(
            f"unknown fault scenario {name!r}; known: {scenario_names()}"
        )
    seed = 0
    if seed_text:
        try:
            seed = int(seed_text)
        except ValueError as exc:
            raise FaultPlanError(f"bad scenario seed {seed_text!r}") from exc
    return SCENARIOS[name](seed)


@scenario("transient-io")
def _transient_io(seed: int) -> FaultPlan:
    """Occasional retryable server-call failures on every client."""
    return FaultPlan(seed).transient_io(rate=0.05)


@scenario("io-outage")
def _io_outage(seed: int) -> FaultPlan:
    """Every server call fails inside a short window: retries with
    backoff must ride the outage out (rate 1.0 makes the window a hard
    wall rather than a lottery)."""
    return FaultPlan(seed).transient_io(rate=1.0, start=5e-3, end=2e-2)


@scenario("slow-disk")
def _slow_disk(seed: int) -> FaultPlan:
    """One OST serving at quarter speed (degraded RAID member)."""
    return FaultPlan(seed).slow_disk(factor=4.0, osts=[0])


@scenario("straggler")
def _straggler(seed: int) -> FaultPlan:
    """Rank 1's CPU runs 8x slower (oversubscribed/thermally-throttled
    node) — the classic collective-I/O long pole."""
    return FaultPlan(seed).straggler(factor=8.0, ranks=[1])


@scenario("flaky-network")
def _flaky_network(seed: int) -> FaultPlan:
    """Delayed and dropped (retransmitted) messages."""
    return FaultPlan(seed).net_delay(rate=0.1, delay=2e-3).net_drop(
        rate=0.02, timeout=5e-3
    )


@scenario("lock-storm")
def _lock_storm(seed: int) -> FaultPlan:
    """Overloaded lock manager: acquisitions repeat their RPCs."""
    return FaultPlan(seed).lock_storm(rate=0.5, extra_rpcs=3)


@scenario("agg-crash")
def _agg_crash(seed: int) -> FaultPlan:
    """Aggregator rank 0 dies at the second phase boundary of the first
    collective call; survivors adopt its file realm.  (Rank 0 holds an
    aggregator role under every cb_nodes setting.)"""
    return FaultPlan(seed).agg_crash(rank=0, round_index=1)


@scenario("bit-flip-pages")
def _bit_flip_pages(seed: int) -> FaultPlan:
    """Stored pages silently corrupt after writes (bad medium/DMA).
    Run with the ``integrity_pages`` hint to see detection; without it,
    this is the silent-wrong-answer scenario."""
    return FaultPlan(seed).page_bitflip(rate=0.25)


@scenario("bit-flip-net")
def _bit_flip_net(seed: int) -> FaultPlan:
    """In-flight data frames corrupt on the wire.  With the
    ``integrity_network`` hint the receiver detects and re-requests;
    without it, corrupt exchange bytes land in the file."""
    return FaultPlan(seed).net_bitflip(rate=0.05)


@scenario("bit-flip")
def _bit_flip(seed: int) -> FaultPlan:
    """Both corruption surfaces at once — the end-to-end integrity
    soak (pair with integrity_pages + integrity_network)."""
    return FaultPlan(seed).page_bitflip(rate=0.2).net_bitflip(rate=0.05)


@scenario("stall")
def _stall(seed: int) -> FaultPlan:
    """Ranks wedge mid-collective (GC pause, NFS hiccup, ptrace stop):
    aggregator rank 0 stalls at the second phase boundary of the first
    call, client rank 3 at the first boundary of the second.  With the
    ``liveness`` hint the stalled ranks are suspected and completed
    around; with only ``coll_deadline`` armed, waiting ranks raise
    :class:`~repro.errors.DeadlineExceeded` instead of hanging."""
    return (
        FaultPlan(seed)
        .rank_stall(0, delay=5e-2, call_index=0, round_index=1)
        .rank_stall(3, delay=5e-2, call_index=1, round_index=0)
    )


@scenario("lock-hold")
def _lock_hold(seed: int) -> FaultPlan:
    """Wedged lock-callback threads: granted locks stay pinned so
    conflicting acquirers must wait for pin expiry — or for the
    liveness layer's lease reclaim / deadlock breaking."""
    return FaultPlan(seed).lock_hold(rate=0.3, hold=3e-2)


@scenario("gray")
def _gray(seed: int) -> FaultPlan:
    """Gray failure: nothing is down, everything is sick.  A stalling
    aggregator, a slow rank, a lossy network, and sticky locks — the
    combination that turns into a hang without a liveness layer."""
    return (
        FaultPlan(seed)
        .rank_stall(0, delay=4e-2, call_index=0, round_index=1)
        .straggler(factor=3.0, ranks=[1])
        .net_drop(rate=0.02, timeout=4e-3)
        .lock_hold(rate=0.2, hold=2e-2)
    )


@scenario("ost-crash")
def _ost_crash(seed: int) -> FaultPlan:
    """OST 0 dies mid-run and recovers (docs/storage_faults.md).

    Test-scale files (< one stripe) live entirely on OST 0, so every
    server call inside the window hits the outage.  The window is
    sized so the default retry policy's backoff can ride it out; with
    ``replication_factor >= 2`` reads degrade to surviving replicas,
    while writes ride the window on retries (majority write-quorum)."""
    return FaultPlan(seed).ost_crash([0], start=2e-3, end=1e-2)


@scenario("ost-slow")
def _ost_slow(seed: int) -> FaultPlan:
    """OST 0 browns out at quarter speed — like ``slow-disk`` but as a
    first-class health state: the OST reports *degraded*, feeds the
    ``fs.ost.health`` gauge, and gets its own trace lane."""
    return FaultPlan(seed).ost_slow([0], factor=4.0)


@scenario("ost-flap")
def _ost_flap(seed: int) -> FaultPlan:
    """OST 0 flaps — alternating 2 ms up/down phases for 20 ms.  The
    worst case for naive retry loops (a retry can land in the *next*
    down phase) and the scenario circuit breakers are judged on."""
    return FaultPlan(seed).ost_flap([0], period=2e-3, start=0.0, end=2e-2)


@scenario("rank-crash")
def _rank_crash(seed: int) -> FaultPlan:
    """Fail-stop rank death mid-collective (docs/crash_recovery.md).

    A non-aggregator rank (1) dies at the second phase boundary of the
    first collective; survivors agree on the dead set, shrink the
    exchange, and finish their own bytes.  Vary the seed to move the
    victim and site: seed picks from ranks {1, 2, 3} and the three
    crash sites, so a seed sweep exercises boundary, exchange, and
    flush deaths."""
    victims = (1, 2, 3)
    sites = ("boundary", "exchange", "flush")
    return FaultPlan(seed).rank_crash(
        victims[seed % len(victims)],
        call_index=0,
        round_index=1 + (seed // 3) % 3,
        site=sites[seed % len(sites)],
    )


@scenario("chaos")
def _chaos(seed: int) -> FaultPlan:
    """Everything at once, gently: the kitchen-sink soak scenario."""
    return (
        FaultPlan(seed)
        .transient_io(rate=0.02)
        .slow_disk(factor=2.0, osts=[0])
        .straggler(factor=2.0, ranks=[0])
        .net_delay(rate=0.05, delay=1e-3)
        .net_drop(rate=0.01, timeout=4e-3)
        .lock_storm(rate=0.2, extra_rpcs=2)
    )
