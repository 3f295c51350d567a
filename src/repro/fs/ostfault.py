"""Per-OST fault domains: health state, circuit breaking, trace lanes.

PRs 1–3 made clients fallible; this module makes the *storage servers*
fallible.  Three fault kinds in :mod:`repro.faults.plan` drive a pure
health function over virtual time:

``ost_crash``
    down for the whole window; the window end is the recovery epoch.
``ost_slow``
    degraded (service multiplied by ``factor``) — a gray brownout.
``ost_flap``
    alternating up/down with half-period ``delay`` inside the window.

Health is **stateless**: :func:`ost_state` is a pure function of
``(plan events, ost, t)``, so every client evaluates the same truth
without communication and replays are deterministic.  The stateful
piece is the :class:`CircuitBreaker` — per-OST, owned by the file
system, shared by every tenant — which converts repeated down-OST
hits into fast local failures (open state) and probes for recovery
(half-open) instead of letting every retry pay a full server call
against a dead target.

Health states are small ints so they can live in ``fs.ost.health``
gauges: 0 = up, 1 = degraded, 2 = down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

__all__ = [
    "UP",
    "DEGRADED",
    "DOWN",
    "STATE_NAMES",
    "ost_state",
    "ost_down",
    "ost_service_factor",
    "next_recovery",
    "health_lanes",
    "chrome_lane_events",
    "append_ost_lanes",
    "OST_LANE_TID",
    "BreakerPolicy",
    "CircuitBreaker",
]

#: Gauge values for the ``fs.ost.health`` series.
UP, DEGRADED, DOWN = 0, 1, 2
STATE_NAMES = {UP: "up", DEGRADED: "degraded", DOWN: "down"}


def _flap_down(event, t: float) -> bool:
    """A flapping OST is down during the odd half-periods of its window."""
    return int((t - event.start) // event.delay) % 2 == 1


def ost_down(events: Iterable, ost: int, t: float) -> bool:
    """True when any crash/flap event holds ``ost`` down at time ``t``."""
    for e in events:
        if e.osts is None or ost not in e.osts:
            continue
        if e.kind == "ost_crash" and e.active(t):
            return True
        if e.kind == "ost_flap" and e.active(t) and _flap_down(e, t):
            return True
    return False


def ost_service_factor(events: Iterable, ost: int, t: float) -> float:
    """Combined brownout multiplier (1.0 = healthy) at time ``t``."""
    f = 1.0
    for e in events:
        if e.kind == "ost_slow" and e.active(t) and e.osts is not None and ost in e.osts:
            f *= e.factor
    return f


def ost_state(events: Iterable, ost: int, t: float) -> int:
    """The health gauge value for ``ost`` at time ``t``."""
    if ost_down(events, ost, t):
        return DOWN
    if ost_service_factor(events, ost, t) > 1.0:
        return DEGRADED
    return UP


def next_recovery(events: Iterable, ost: int, t: float) -> float:
    """Earliest time ``>= t`` at which ``ost`` is not down.

    Used by tests and the re-replication pass to find the recovery
    epoch; returns ``t`` itself when the OST is already up, ``inf``
    when no event schedule ever brings it back."""
    now = t
    for _ in range(10_000):
        if not ost_down(events, ost, now):
            return now
        candidates = []
        for e in events:
            if e.osts is None or ost not in e.osts or not e.active(now):
                continue
            if e.kind == "ost_crash":
                candidates.append(e.end)
            elif e.kind == "ost_flap" and _flap_down(e, now):
                k = int((now - e.start) // e.delay) + 1
                candidates.append(min(e.start + k * e.delay, e.end))
        if not candidates:
            return math.inf
        now = max(now, min(candidates))
    return math.inf


def _boundaries(events: List, ost: int, horizon: float) -> List[float]:
    """Times in [0, horizon] where ``ost``'s health may change."""
    cuts = {0.0, horizon}
    for e in events:
        if e.osts is None or ost not in e.osts:
            continue
        for t in (e.start, e.end):
            if 0.0 <= t <= horizon:
                cuts.add(t)
        if e.kind == "ost_flap" and e.delay > 0:
            t = e.start + e.delay
            stop = min(e.end, horizon)
            while t < stop:
                cuts.add(t)
                t += e.delay
    return sorted(cuts)


def health_lanes(
    events: Iterable, num_osts: int, horizon: float
) -> List[Tuple[int, str, float, float]]:
    """Non-``up`` health spans per OST, clamped to ``[0, horizon]``.

    Returns ``(ost, state_name, t0, t1)`` rows for the Chrome-trace
    exporter: one row per maximal span during which the OST's state is
    constant and not ``up``."""
    events = [e for e in events if e.kind in ("ost_crash", "ost_slow", "ost_flap")]
    lanes: List[Tuple[int, str, float, float]] = []
    if horizon <= 0.0 or not events:
        return lanes
    for ost in range(num_osts):
        cuts = _boundaries(events, ost, horizon)
        prev_t = cuts[0]
        prev_s = ost_state(events, ost, prev_t)
        for t in cuts[1:]:
            s = ost_state(events, ost, t)
            if s != prev_s:
                if prev_s != UP and t > prev_t:
                    lanes.append((ost, STATE_NAMES[prev_s], prev_t, t))
                prev_t, prev_s = t, s
        if prev_s != UP and horizon > prev_t:
            lanes.append((ost, STATE_NAMES[prev_s], prev_t, horizon))
    return lanes


@dataclass(frozen=True)
class BreakerPolicy:
    """Per-OST circuit-breaker knobs (virtual seconds)."""

    #: Consecutive down-hits that trip the breaker open.
    trip_after: int = 3
    #: Seconds the breaker stays open before allowing a half-open probe.
    cooldown: float = 5e-3

    def validate(self) -> None:
        if self.trip_after <= 0:
            raise ValueError(f"trip_after must be positive, got {self.trip_after}")
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")


#: Breaker states for the ``fs.ost.breaker_state`` gauge.
CLOSED, OPEN, HALF_OPEN = 0, 1, 2


class CircuitBreaker:
    """Classic three-state breaker over one OST's observed failures.

    *Closed*: calls flow; consecutive failures count up.  *Open*: calls
    are shed without touching the OST until ``cooldown`` elapses.
    *Half-open*: one probe call is allowed through — success closes the
    breaker, failure re-opens it (restarting the cooldown)."""

    __slots__ = ("policy", "failures", "opened_at", "state")

    def __init__(self, policy: BreakerPolicy = BreakerPolicy()) -> None:
        policy.validate()
        self.policy = policy
        self.failures = 0
        self.opened_at = 0.0
        self.state = CLOSED

    def allow(self, now: float) -> bool:
        """May a call touch the OST right now?  (False = shed it.)"""
        if self.state == CLOSED:
            return True
        if now - self.opened_at >= self.policy.cooldown:
            self.state = HALF_OPEN
            return True
        return False

    def record_failure(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self.state = OPEN
            self.opened_at = now
            return
        self.failures += 1
        if self.state == CLOSED and self.failures >= self.policy.trip_after:
            self.state = OPEN
            self.opened_at = now

    def record_success(self) -> None:
        self.failures = 0
        self.state = CLOSED


def breaker_states() -> Dict[str, int]:
    """Name -> gauge value map (docs/tests convenience)."""
    return {"closed": CLOSED, "open": OPEN, "half-open": HALF_OPEN}


#: Chrome-trace tid base for OST lanes — far above any rank tid so the
#: storage rows sort below the compute rows in the viewer.
OST_LANE_TID = 1_000_000


def chrome_lane_events(
    events: Iterable, num_osts: int, horizon: float
) -> List[Dict]:
    """Chrome ``trace_event`` rows for the per-OST health lanes.

    One metadata row names each faulted OST's lane (``ost N``), and one
    complete (``"X"``) event per non-``up`` health span shows when the
    OST was down or degraded — appended to a run's trace so storage
    outages line up against the compute rows."""
    lanes = health_lanes(events, num_osts, horizon)
    out: List[Dict] = []
    for ost in sorted({ost for ost, _, _, _ in lanes}):
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": OST_LANE_TID + ost,
                "ts": 0,
                "args": {"name": f"ost {ost}"},
            }
        )
    for ost, state, t0, t1 in lanes:
        out.append(
            {
                "name": f"ost:{state}",
                "cat": "ost",
                "ph": "X",
                "pid": 0,
                "tid": OST_LANE_TID + ost,
                "ts": t0 * 1e6,
                "dur": (t1 - t0) * 1e6,
                "args": {"ost": ost, "state": state},
            }
        )
    return out


def append_ost_lanes(doc: Dict, plan, num_osts: int) -> Dict:
    """Append the health lanes of ``plan``'s OST events (if it has any)
    to the Chrome trace ``doc``, out to the end of its last span."""
    from repro.faults.plan import OST_KINDS

    events = [e for e in plan.events if e.kind in OST_KINDS] if plan is not None else []
    if events:
        horizon = max(
            (
                (ev["ts"] + ev.get("dur", 0.0)) / 1e6
                for ev in doc["traceEvents"]
                if ev["ph"] == "X"
            ),
            default=0.0,
        )
        doc["traceEvents"].extend(chrome_lane_events(events, num_osts, horizon))
    return doc
