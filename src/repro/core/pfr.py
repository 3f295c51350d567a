"""Persistent file realm state (§5.2 / §6.4).

PFRs fix the realm assignment for the *entire file* at the first
collective call and keep it until close.  Because file realms are
non-overlapping and every request for a byte funnels through its one
aggregator, every process's view of that byte stays coherent even over
an incoherent client-side cache — and I/O locality improves because
aggregators always touch the same regions.

The realms are block-cyclic, anchored at byte zero, tiling forever:
that is what "designate region assignments for the entire file, not
just the region being accessed" requires, and it is a one-liner with
datatype-described realms (the paper's point about the old code needing
heavy modification).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.realms import FileRealm, make_cyclic_realms
from repro.errors import CollectiveIOError

__all__ = ["PFRState"]


class PFRState:
    """Cross-call realm state attached to an open collective file."""

    __slots__ = ("_realms", "_naggs", "block", "last_realm_bytes")

    def __init__(self) -> None:
        self._realms: Optional[List[FileRealm]] = None
        self._naggs = 0
        self.block = 0
        #: Per-aggregator assigned realm bytes of the most recent call,
        #: whatever the strategy (pre-clip; identical on every rank): a
        #: cached plan replays them, and tests watch balanced-strategy
        #: boundaries move between calls.
        self.last_realm_bytes: List[int] = []

    def realms_for(
        self, aar_lo: int, aar_hi: int, naggs: int, alignment: int
    ) -> List[FileRealm]:
        """Return the persistent realms, creating them on first use.

        The block size comes from the first call's aggregate access
        region (span / naggs), rounded up to ``alignment`` when set —
        anchored at byte 0 regardless of where the access begins."""
        if self._realms is None:
            span = max(aar_hi - aar_lo, 1)
            block = -(-span // naggs)
            if alignment:
                # Round DOWN to the alignment grid (min one unit): the
                # period then never exceeds the span, so the cyclic
                # tiling wraps and every aggregator keeps a fair share.
                # Rounding up would starve trailing aggregators whenever
                # the span is close to naggs * alignment.
                block = max(block // alignment, 1) * alignment
            block = max(block, 1)
            self._realms = make_cyclic_realms(naggs, block, anchor=0)
            self._naggs = naggs
            self.block = block
            return self._realms
        if naggs != self._naggs:
            raise CollectiveIOError(
                f"persistent file realms were established with {self._naggs} "
                f"aggregators; cannot switch to {naggs} before the file is closed"
            )
        return self._realms
