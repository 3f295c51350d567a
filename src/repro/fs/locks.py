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

from repro.errors import FileSystemError
from repro.sim.engine import Signal

__all__ = ["ClientId", "LockCharge", "ExtentLockManager"]

#: A lock-manager client identity.  Single-session runs use the bare
#: world rank (an ``int``); multi-tenant runs use a ``(tenant, rank)``
#: tuple so two tenants' rank 0 never alias in the holder map, the pin
#: table, or — critically — the waits-for graph used for deadlock
#: detection.  Any hashable works; equality is identity of the client.
ClientId = Hashable


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
    """Per-file granule->holder map with transfer accounting.

    Revocation is normally instant (a cost, not a wait).  The
    ``lock_hold`` fault model breaks that: a *pinned* granule's holder
    has a wedged lock-callback thread and cannot service revocations,
    so a conflicting acquirer must wait — until the holder recovers
    (pin expiry), the liveness layer's lease reclaims the lock early,
    or a waits-for cycle is broken with a typed
    :class:`~repro.errors.LockDeadlock`.  The waits-for graph and pin
    table live here; the *waiting* itself (virtual-time blocking) is
    done by :class:`~repro.fs.filesystem.SimFileSystem`, which owns a
    rank context."""

    __slots__ = (
        "granularity",
        "_holder",
        "_pins",
        "_waiting",
        "last_pin_release",
        "pins_changed",
    )

    def __init__(self, granularity: int) -> None:
        if granularity <= 0:
            raise FileSystemError(f"lock granularity must be positive, got {granularity}")
        self.granularity = granularity
        self._holder: Dict[int, ClientId] = {}
        #: granule -> (holder, t_pinned, expires): the holder's callback
        #: thread is wedged until ``expires`` (fault-injected only).
        self._pins: Dict[int, Tuple[ClientId, float, float]] = {}
        #: waiter client -> holder client it is blocked on (waits-for).
        self._waiting: Dict[ClientId, ClientId] = {}
        #: Virtual time of the most recent voluntary pin release — the
        #: causal wake time for a waiter whose holder unlocked early.
        self.last_pin_release = 0.0
        #: Notified whenever pins are dropped (released or reclaimed):
        #: what a pin waiter in ``SimFileSystem._await_pins`` blocks on.
        self.pins_changed = Signal()

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

        Also drops the client's pins (a closing client's callback
        thread is gone with it) and its waits-for edge."""
        mine = [g for g, c in self._holder.items() if c == client]
        for g in mine:
            del self._holder[g]
        self.release_pins(client, now)
        self._waiting.pop(client, None)
        return len(mine)

    # -- pins (the lock_hold fault model) -------------------------------
    @property
    def pinned(self) -> bool:
        """Cheap fast-path guard: any pin outstanding at all?"""
        return bool(self._pins)

    def pin_range(
        self, client: ClientId, lo: int, hi: int, now: float, expires: float
    ) -> int:
        """Pin every [lo, hi) granule ``client`` holds until ``expires``.

        Models the holder's lock-callback thread wedging *after* the
        grant: the holder keeps computing (and may itself wait on other
        pins — that is what makes genuine deadlock cycles possible),
        but nobody can revoke these granules until the pin clears.
        Returns the number of granules pinned."""
        n = 0
        for g in self._granules(lo, hi):
            if self._holder.get(g) == client:
                self._pins[g] = (client, now, expires)
                n += 1
        return n

    def release_pins(self, client: ClientId, now: float = 0.0) -> int:
        """Drop every pin held by ``client``; returns the count."""
        mine = [g for g, pin in self._pins.items() if pin[0] == client]
        for g in mine:
            del self._pins[g]
        if mine:
            self.last_pin_release = max(self.last_pin_release, now)
            self.pins_changed.notify()
        return len(mine)

    def blocking_pin(
        self, client: ClientId, lo: int, hi: int
    ) -> Optional[Tuple[ClientId, float, float]]:
        """The first pin in [lo, hi) held by *another* client, or None.

        A client's own pins never block it — the wedged thread only
        fails to service revocations from others."""
        for g in self._granules(lo, hi):
            pin = self._pins.get(g)
            if pin is not None and pin[0] != client:
                return pin
        return None

    def reclaim_pins(self, lo: int, hi: int, now: float, lease: float = math.inf) -> int:
        """Clear expired pins in [lo, hi); returns lease *reclaims*.

        A pin is cleared once ``now`` reaches its natural expiry (the
        holder's callback thread recovered) or ``t_pinned + lease``
        (the lock server's lease ran out and it revoked unilaterally).
        Only the latter counts toward the returned reclaim count."""
        reclaimed = 0
        before = len(self._pins)
        for g in list(self._granules(lo, hi)):
            pin = self._pins.get(g)
            if pin is None:
                continue
            holder, t_pinned, expires = pin
            if now >= expires:
                del self._pins[g]
            elif now >= t_pinned + lease:
                del self._pins[g]
                reclaimed += 1
        if len(self._pins) != before:
            self.pins_changed.notify()
        return reclaimed

    # -- waits-for graph (deadlock detection) ---------------------------
    def note_wait(self, waiter: ClientId, holder: ClientId) -> None:
        """Record that ``waiter`` is blocked on a pin held by ``holder``."""
        self._waiting[waiter] = holder

    def clear_wait(self, waiter: ClientId) -> None:
        self._waiting.pop(waiter, None)

    def find_cycle(self, start: ClientId) -> Optional[Tuple[ClientId, ...]]:
        """The waits-for cycle through ``start``, or None.

        Walks the single outgoing edge per waiter; a client blocked on
        a pin whose holder is (transitively) blocked on one of *its*
        pins can never make progress without intervention."""
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
