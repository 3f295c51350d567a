"""Per-rank virtual clock."""

from __future__ import annotations

__all__ = ["VirtualClock"]


class VirtualClock:
    """A monotonically non-decreasing simulated clock.

    Each rank owns one.  All performance accounting in the library goes
    through :meth:`advance` (relative) or :meth:`advance_to` (absolute,
    used when an operation completes at an externally determined time,
    e.g. a message arrival or an OST service completion).

    ``now`` is a plain attribute so reading it costs no call; only the
    engine writes it directly (its per-message paths, which have already
    ruled out a negative step).
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start negative: {start}")
        #: Current virtual time in seconds.
        self.now = float(start)

    def advance(self, dt: float) -> float:
        """Advance by ``dt`` seconds (must be >= 0); returns the new time."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt: {dt}")
        self.now += dt
        return self.now

    def advance_to(self, t: float) -> float:
        """Advance to absolute time ``t`` if it is in the future.

        A ``t`` in the past is a no-op (the clock never runs backwards);
        this is exactly the ``max(now, event_time)`` rule used for
        message arrival and resource service completion.
        """
        if t > self.now:
            self.now = float(t)
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self.now:.9f})"
