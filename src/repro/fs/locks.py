"""Extent lock manager.

Models a Lustre-style distributed lock manager at a configurable
granularity (pages by default; the Figure 7 experiments use the stripe
size).  State is the current holder of each granule.  A server access
by client ``c`` over a byte range:

* costs nothing extra if ``c`` already holds every granule (the
  locality that file-realm alignment and PFRs buy);
* otherwise pays one lock RPC, plus a revocation penalty per granule
  currently held by a *different* client (the ping-pong misaligned
  realm boundaries cause).

The manager reports which (client, granule-range) pairs were revoked so
coherent caches can flush/invalidate the victim's pages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.errors import FileSystemError, LockDeadlock
from repro.faults.plan import FAULTS_KEY
from repro.liveness import LIVENESS_KEY, LOCK_LEASE
from repro.sim.engine import BLOCK_TIMEOUT, RankContext, Signal

__all__ = ["ClientId", "LockCharge", "ExtentLockManager"]

#: A lock-manager client identity.  Single-session runs use the bare
#: world rank (an ``int``); multi-tenant runs use a ``(tenant, rank)``
#: tuple so two tenants' rank 0 never alias in the holder map, the hold
#: table, or — critically — the waits-for graph used for deadlock
#: detection.  Any hashable works; equality is identity of the client.
ClientId = Hashable

#: A hold: (holder, since, until).  Only :class:`ExtentLockManager`
#: unpacks one.
Hold = Tuple[ClientId, float, float]


@dataclass
class LockCharge:
    """Outcome of a lock acquisition."""

    #: Number of lock-manager RPCs (0 when the grant already covered).
    rpcs: int
    #: Granules taken away from other clients.
    revoked_granules: int
    #: (victim client, granule_lo, granule_hi) byte ranges revoked.
    revoked_ranges: List[Tuple[ClientId, int, int]]

    @property
    def hit(self) -> bool:
        """True when the access was fully covered by an existing grant."""
        return self.rpcs == 0


class ExtentLockManager:
    """Per-file granule->holder map with transfer accounting, and the
    one wait on a range another client holds.

    Revocation is normally instant (a cost, not a wait).  A *hold*
    breaks that: a held granule cannot be revoked until its holder lets
    go, so a conflicting acquirer waits in :meth:`await_holds`.  The
    ``lock_hold`` fault model takes the only holds today — the holder's
    lock-callback thread is wedged and cannot service revocations.  The
    hold table, the waits-for graph, the signal a waiter blocks on and
    the instant of the last drop live here, and nothing outside this
    class unpacks a hold."""

    __slots__ = (
        "granularity",
        "_holder",
        "_holds",
        "_waiting",
        "_last_drop",
        "_holds_changed",
    )

    def __init__(self, granularity: int) -> None:
        if granularity <= 0:
            raise FileSystemError(f"lock granularity must be positive, got {granularity}")
        self.granularity = granularity
        self._holder: Dict[int, ClientId] = {}
        #: granule -> (holder, since, until): nobody else may take the
        #: granule before ``until`` unless the holder lets go first or
        #: the lease reclaims it.
        self._holds: Dict[int, Hold] = {}
        #: waiter client -> holder client it is blocked on (waits-for).
        self._waiting: Dict[ClientId, ClientId] = {}
        #: Virtual time of the most recent drop of a hold (release,
        #: expiry or lease reclaim): the causal wake time of a waiter
        #: whose blocking hold someone else dropped.
        self._last_drop = 0.0
        #: Notified on every drop: what :meth:`await_holds` blocks on.
        self._holds_changed = Signal()

    def _granules(self, lo: int, hi: int) -> range:
        if lo < 0 or hi < lo:
            raise FileSystemError(f"invalid lock range [{lo}, {hi})")
        if hi == lo:
            return range(0)
        g = self.granularity
        return range(lo // g, (hi - 1) // g + 1)

    def acquire(
        self, client: ClientId, lo: int, hi: int, *, faults=None, now: float = 0.0
    ) -> LockCharge:
        """Ensure ``client`` holds every granule of [lo, hi).

        ``faults``/``now`` feed the lock-storm fault model: when an
        installed :class:`repro.faults.FaultInjector` declares a storm
        active at virtual time ``now``, an acquisition that needs an
        RPC pays extra round-trips (the manager timing out and
        re-enqueueing the request).  Covered grants stay free — a storm
        punishes lock traffic, not lock locality."""
        granules = self._granules(lo, hi)
        missing = [g for g in granules if self._holder.get(g) != client]
        if not missing:
            return LockCharge(rpcs=0, revoked_granules=0, revoked_ranges=[])
        rpcs = 1
        if faults is not None:
            rpcs += faults.lock_storm_rpcs(client, now)
        revoked: List[Tuple[int, int, int]] = []
        n_revoked = 0
        g_size = self.granularity
        for g in missing:
            victim = self._holder.get(g)
            if victim is not None and victim != client:
                n_revoked += 1
                # Merge adjacent revocations from the same victim.
                if revoked and revoked[-1][0] == victim and revoked[-1][2] == g * g_size:
                    revoked[-1] = (victim, revoked[-1][1], (g + 1) * g_size)
                else:
                    revoked.append((victim, g * g_size, (g + 1) * g_size))
            self._holder[g] = client
        return LockCharge(rpcs=rpcs, revoked_granules=n_revoked, revoked_ranges=revoked)

    def holder_of(self, offset: int) -> Optional[ClientId]:
        """Current holder of the granule containing ``offset`` (tests)."""
        return self._holder.get(offset // self.granularity)

    def holds(self, client: ClientId, lo: int, hi: int) -> bool:
        """True when ``client`` currently holds every granule of [lo, hi)."""
        return all(self._holder.get(g) == client for g in self._granules(lo, hi))

    def release_all(self, client: ClientId, now: float = 0.0) -> int:
        """Drop every granule held by ``client``; returns the count.

        Also drops the client's holds (a closing client's callback
        thread is gone with it) and its waits-for edge."""
        mine = [g for g, c in self._holder.items() if c == client]
        for g in mine:
            del self._holder[g]
        self.release_holds(client, now)
        self._waiting.pop(client, None)
        return len(mine)

    # -- holds ------------------------------------------------------------
    def hold(self, client: ClientId, lo: int, hi: int, since: float, until: float) -> int:
        """Hold every [lo, hi) granule ``client`` holds until ``until``.

        Models the holder's lock-callback thread wedging *after* the
        grant: the holder keeps computing (and may itself wait on other
        holds — that is what makes genuine deadlock cycles possible),
        but nobody can revoke these granules until the hold clears.
        Returns the number of granules held."""
        n = 0
        for g in self._granules(lo, hi):
            if self._holder.get(g) == client:
                self._holds[g] = (client, since, until)
                n += 1
        return n

    def release_holds(self, client: ClientId, now: float = 0.0) -> int:
        """Drop every hold of ``client`` at ``now``; returns the count."""
        mine = [g for g, hold in self._holds.items() if hold[0] == client]
        for g in mine:
            del self._holds[g]
        if mine:
            self._dropped(now)
        return len(mine)

    def _dropped(self, now: float) -> None:
        self._last_drop = max(self._last_drop, now)
        self._holds_changed.notify()

    def _blocking(self, client: ClientId, lo: int, hi: int) -> Optional[Hold]:
        """The first hold in [lo, hi) of *another* client, or None: a
        client's own holds never block it."""
        for g in self._granules(lo, hi):
            hold = self._holds.get(g)
            if hold is not None and hold[0] != client:
                return hold
        return None

    def await_holds(self, ctx: RankContext, client: ClientId, lo: int, hi: int, path: str) -> None:
        """Block ``ctx`` (virtual time) until no other client's hold
        covers [lo, hi); returns at once when nothing is held.

        Three exits per blocking hold: the holder releases it (we wake
        at the release instant); it expires, or — with liveness
        installed — the lock server's lease reclaims it, at
        ``min(until, since + LOCK_LEASE)`` (we wake then and clear it);
        or we close a waits-for cycle — we are the victim, drop our own
        holds so the rest of the cycle can progress, and raise a typed,
        retryable :class:`~repro.errors.LockDeadlock`."""
        if not self._holds:
            return
        lease = LOCK_LEASE if ctx.shared.get(LIVENESS_KEY) is not None else math.inf
        while True:
            hold = self._blocking(client, lo, hi)
            if hold is None:
                self._waiting.pop(client, None)
                return
            holder, since, until = hold
            self._waiting[client] = holder
            cycle = self._cycle(client)
            if cycle is not None:
                self.release_holds(client, ctx.now)
                self._waiting.pop(client, None)
                faults = ctx.shared.get(FAULTS_KEY)
                if faults is not None:
                    faults.note_lock_deadlock()
                raise LockDeadlock(client, cycle, path)
            reclaim_at = min(until, since + lease)
            woke = ctx.block(
                lambda: None if self._blocking(client, lo, hi) is not None else self._last_drop,
                reason=f"lock-pin wait [{lo}, {hi}) on {path!r}",
                timeout_at=reclaim_at,
                on=self._holds_changed,
            )
            if woke is not BLOCK_TIMEOUT:
                # Someone dropped the hold: our wait ends at that drop.
                ctx.charge_to(woke)
                continue
            ctx.charge_to(reclaim_at)
            # Clear what has run out in [lo, hi): a hold past ``until``
            # (the holder's callback thread recovered), or past
            # ``since + lease`` (the server revoked unilaterally); only
            # the latter is a reclaim.
            now, dropped, reclaimed = ctx.now, 0, 0
            for g in self._granules(lo, hi):
                hold = self._holds.get(g)
                if hold is not None and (now >= hold[2] or now >= hold[1] + lease):
                    del self._holds[g]
                    dropped += 1
                    reclaimed += now < hold[2]
            if dropped:
                self._dropped(now)
            faults = ctx.shared.get(FAULTS_KEY)
            if reclaimed and faults is not None:
                faults.note_lock_reclaim(reclaimed)

    def _cycle(self, start: ClientId) -> Optional[Tuple[ClientId, ...]]:
        """The waits-for cycle through ``start``, or None.

        Walks the single outgoing edge per waiter; a client blocked on
        a hold whose holder is (transitively) blocked on one of *its*
        holds can never make progress without intervention."""
        path = [start]
        seen = {start}
        cur = start
        while True:
            nxt = self._waiting.get(cur)
            if nxt is None:
                return None
            if nxt == start:
                return tuple(path)
            if nxt in seen:
                return None  # a cycle exists, but start is not on it
            seen.add(nxt)
            path.append(nxt)
            cur = nxt
