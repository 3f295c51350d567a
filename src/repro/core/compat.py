"""Feature × feature composition: one table, resolved once at open.

Whether two features compose — a hint with the implementation, with
another hint, with an armed fault kind — is decided here and nowhere
else.  :data:`RULES` is plain data, one row per decision;
:func:`resolve` walks it once per open and returns the
:class:`Effective` record that the handle, the round loop and the
planners read instead of re-deriving the answer from raw hints and the
injector.  A row either **stands down** (the run proceeds with the
row's ``overrides``; the decision is kept in ``Effective.decisions``,
counted once per open as ``compat.stand_down.<id>`` and overlaid on
``get_info()``) or **rejects** (:class:`~repro.errors.HintConflict`
naming the row, raised identically on every rank before the open
barrier).  :func:`resolve` is a pure function of ``(hints, armed fault
kinds)`` — never of rank, clock or file state — and an injector's kinds
are fixed at construction, so resolving at open is resolving per call.
docs/compatibility.md is this table, rendered (a tier-1 test compares).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, Iterable, Mapping, NamedTuple, Tuple

from repro.errors import HintConflict
from repro.mpi.hints import Hints

__all__ = ["RULES", "Rule", "Effective", "resolve", "BOUNDARY_KINDS", "STAND_DOWN", "REJECT"]

STAND_DOWN, REJECT = "stand_down", "reject"

#: Fault kinds whose events fire at a round boundary of a collective
#: call and can re-carve its schedule there (role failover, suspect
#: exclusion, fail-stop shrinkage).  Features that assume one fixed
#: schedule per call stand down while any of them is armed.
BOUNDARY_KINDS = frozenset({"agg_crash", "rank_stall", "rank_crash"})


class Rule(NamedTuple):
    """One row: ``when(hints, armed_kinds)`` holds -> ``verdict``."""

    id: str
    when: Callable[[Hints, FrozenSet[str]], bool]
    verdict: str
    #: hint key -> the value in use instead of the one asked for.
    overrides: Mapping[str, Any]
    #: The condition in words, then the reason.
    why: str
    #: ``"open"`` rows are settled by :func:`resolve`.  A ``"round"``
    #: row also needs the round to have ranks it must skip, which no
    #: open can know: :func:`resolve` records what it would switch to.
    scope: str = "open"


def _old(hints: Hints) -> bool:
    return hints["coll_impl"] == "old"


def _old_does(id: str, why: str, **does: Any) -> Rule:
    """A row for hints the original code never reads: it fires when one
    was set *explicitly* to something other than what that code
    ``does`` anyway — the default ``exchange=alltoallw``, or a harness
    handing ``old`` ``realm_strategy="even"``, is no request turned down."""

    def when(hints: Hints, armed: FrozenSet[str]) -> bool:
        asked = hints.explicit() if _old(hints) else {}
        return any(k in asked and asked[k] != v for k, v in does.items())

    asked_for = " or ".join(f"`{k}` ≠ `{str(v).lower()}`" for k, v in does.items())
    return Rule(id, when, STAND_DOWN, does, f"`coll_impl=old` with an explicit {asked_for}: {why}")


#: Rejecting rows first: a combination that cannot run fails whichever
#: implementation was asked for.
RULES: Tuple[Rule, ...] = (
    Rule(
        "aligned.needs_alignment",
        lambda h, armed: h["realm_strategy"] == "aligned" and not h["realm_alignment"],
        REJECT, {},
        "`realm_strategy=aligned` with `realm_alignment=0`: the strategy snaps realm "
        "boundaries to a grid and none is given",
    ),
    Rule(
        "old.agg_crash", lambda h, armed: _old(h) and "agg_crash" in armed, REJECT, {},
        "`coll_impl=old` with `agg_crash` armed: the original code has no "
        "aggregator-role failover, so the event could only vanish",
    ),
    _old_does(
        "old.realms",
        "the original code re-partitions the aggregate access region evenly on every "
        "call: realms may move between calls, so the per-call invalidate/sync of an "
        "incoherent cache stays on",
        realm_strategy="even", realm_alignment=0, persistent_file_realms=False,
    ),
    _old_does(
        "old.io_method",
        "the original code's collective buffer is its sieve buffer (integrated data "
        "sieving), so the collective path and `get_info()` say `datasieve`; the rule "
        "covers the collective path only — `write_ind`/`read_ind` on the handle still "
        "follow the hint",
        io_method="datasieve",
    ),
    _old_does(
        "old.exchange",
        "the original code posts every isend/irecv and waits; it has no alltoallw or "
        "two-layer exchange",
        exchange="nonblocking",
    ),
    _old_does(
        "old.use_heap",
        "the original code flattens the whole access once and clips it per window, "
        "so there is no per-aggregator progress to track",
        use_heap=False,
    ),
    _old_does(
        "old.procs_per_node",
        "the original code spaces aggregators by rank and elects no node leaders "
        "(the network is still priced by the cost model's nodes)",
        procs_per_node=0,
    ),
    Rule(
        "old.suspects", lambda h, armed: _old(h) and h["liveness"], STAND_DOWN,
        {"liveness": False},
        "`coll_impl=old` with `liveness`: the original code cannot complete a call "
        "around a suspect, so a `rank_stall` is ridden out; `coll_deadline` and the "
        "lock leases stay armed",
    ),
    Rule(
        "pfr.strategy",
        lambda h, armed: not _old(h)
        and h["persistent_file_realms"]
        and h["realm_strategy"] != "even",
        STAND_DOWN, {"realm_strategy": "even"},
        "`persistent_file_realms` with `realm_strategy` ≠ `even` (`coll_impl=new`): "
        "persistent realms are block-cyclic and fixed for the file's lifetime "
        "(`realm_alignment` still applies), so the strategy — and the balanced "
        "strategy's allreduce + allgather — is skipped",
    ),
    Rule(
        "recarve.pipeline",
        lambda h, armed: h["pipeline_depth"] > 0 and bool(armed & BOUNDARY_KINDS),
        STAND_DOWN, {"pipeline_depth": 0},
        "`pipeline_depth` > 0 with `agg_crash`, `rank_stall` or `rank_crash` armed: "
        "re-carving the schedule at a round boundary needs the strictly ordered "
        "serialized walk (data-path faults stay live inside the coroutines)",
    ),
    Rule(
        "recarve.plan_cache",
        lambda h, armed: h["plan_cache"] and bool(armed & BOUNDARY_KINDS),
        STAND_DOWN, {"plan_cache": False},
        "`plan_cache` with `agg_crash`, `rank_stall` or `rank_crash` armed: the "
        "executed schedule can diverge from the planned one and a replay evaluates no "
        "boundary, so every call plans cold and stores nothing (`coll.plan.bypass`)",
    ),
    Rule(
        "suspects.two_layer",
        lambda h, armed: not _old(h) and h["exchange"] == "two_layer",
        STAND_DOWN, {"exchange": "alltoallw"},
        "`exchange=two_layer` (`coll_impl=new`) in a round that must skip suspects or "
        "fail-stop corpses: re-electing node leaders mid-call is not worth the "
        "protocol, and the flat exchange has no leg to or from a rank with empty "
        "batches (`exchange.flat_fallbacks`)",
        scope="round",
    ),
)


@dataclass(frozen=True)
class Effective:
    """What one open actually runs with."""

    #: The two-phase implementation (planner + buffer method): "new" | "old".
    method: str
    #: Exchange backend, and the one for a round that must skip ranks.
    exchange: str
    exchange_skip: str
    #: Persistent file realms in force.
    pfr: bool
    #: Realms may move between calls under an incoherent client cache:
    #: invalidate before every collective call, sync + invalidate after
    #: every collective write (the Figure 7 cost PFRs remove).
    realm_coherence: bool
    journal: bool
    pipeline_depth: int
    plan_cache: bool
    #: Suspect-driven failover: a stalled rank is completed around.
    suspects: bool
    #: Armed fault kinds the round loop evaluates at every boundary.
    boundary_kinds: FrozenSet[str]
    #: Ids of the open-scope stand-downs taken, in table order, and
    #: their overrides merged (what ``get_info()`` overlays).
    decisions: Tuple[str, ...]
    overrides: Mapping[str, Any]


def resolve(hints: Hints, armed_kinds: Iterable[str] = ()) -> Effective:
    """Settle every row of :data:`RULES` for one open."""
    armed = frozenset(armed_kinds)
    overrides: dict = {}
    in_skip_rounds: dict = {}
    decisions = []
    for rule in RULES:
        if not rule.when(hints, armed):
            continue
        if rule.verdict == REJECT:
            raise HintConflict(rule.id, rule.why)
        if rule.scope == "round":
            in_skip_rounds.update(rule.overrides)
            continue
        overrides.update(rule.overrides)
        decisions.append(rule.id)

    def use(key: str) -> Any:
        return overrides.get(key, hints[key])

    # The original code's exchange is not a hint it reads: a default
    # (unasked-for) ``alltoallw`` must not reach it either.
    exchange = "nonblocking" if _old(hints) else use("exchange")
    pfr = use("persistent_file_realms")
    return Effective(
        method=hints["coll_impl"],
        exchange=exchange,
        exchange_skip=in_skip_rounds.get("exchange", exchange),
        pfr=pfr,
        realm_coherence=use("cache_mode") == "incoherent" and not pfr,
        journal=use("journal_writes"),
        pipeline_depth=use("pipeline_depth"),
        plan_cache=use("plan_cache"),
        suspects=use("liveness"),
        boundary_kinds=armed & BOUNDARY_KINDS,
        decisions=tuple(decisions),
        overrides=overrides,
    )
