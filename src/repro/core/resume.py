"""Rejoin-time resumable collectives (docs/crash_recovery.md).

A rank killed fail-stop mid-collective left two durable artifacts
behind: the file bytes of every round the survivors committed with it
as a participant, and the per-epoch commit records the aggregators cut
into the write journal (:meth:`SimFileSystem.journal_record_epoch`).
``Session.rejoin`` restarts the rank in a one-process replay
simulation; when the replayed program reaches the collective write it
died in, :func:`resume_write` takes over instead of the round loop:

1. replay the epoch log and collect the committed intervals of every
   record for this call that lists the rank as a participant;
2. subtract them from the rank's own access — what remains is exactly
   the data the survivors completed *without* it;
3. rewrite only that remainder through the independent strided layer.

Committed rounds are never rewritten — that is the resume contract the
benchmarks verify (resume rewrites strictly fewer bytes than a restart
from scratch at every crash epoch > 0), and byte-identity with an
uninterrupted run is what the differential tests check.

:class:`ResumeComm` is the communicator stand-in for the replay: it
keeps the original rank/size coordinates so plans and views resolve
identically, and its one collective, the ``barrier`` of open and
close, returns at once — the replay never blocks on ranks that are not
there.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.env import CollEnv
from repro.core.plan import mem_batch_for, subtract_intervals
from repro.datatypes.packing import gather_segments
from repro.datatypes.segments import SegmentBatch
from repro.io.selection import choose_method

__all__ = ["ResumeComm", "resume_write"]


class ResumeComm:
    """One-process communicator facade for a rejoined rank.

    Presents the *original* ``rank`` and ``size`` so file views, realm
    math, and anything keyed on rank coordinates resolve exactly as in
    the crashed run, while ``barrier`` returns at once."""

    def __init__(self, ctx, cost, rank: int, size: int) -> None:
        self.ctx = ctx
        self.cost = cost
        self.rank = rank
        self.size = size
        self.comm_id = f"resume:{rank}"
        self.members: Tuple[int, ...] = tuple(range(size))

    def barrier(self) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResumeComm rank={self.rank}/{self.size}>"


def committed_intervals(fs, path: str, call_index: int, rank: int) -> List[tuple]:
    """File intervals durably committed for ``rank`` in call
    ``call_index``, straight from the epoch log."""
    out: List[tuple] = []
    for rec in fs.journal_replay(path):
        if rec["call_index"] != call_index:
            continue
        if rank not in rec["participants"]:
            continue
        out.extend(rec["intervals"])
    return out


def resume_write(
    env: CollEnv,
    buf: np.ndarray,
    memflat,
    total_bytes: int,
    data_lo: int,
    *,
    call_index: int,
    rank: int,
) -> Tuple[int, int]:
    """Resume one collective write for a rejoined rank.

    Returns ``(rewritten, skipped)`` byte counts: what actually went
    back through the independent layer versus what the epoch records
    proved already durable."""
    if total_bytes == 0:
        return 0, 0
    local = env.adio.local
    committed = committed_intervals(local.fs, local.path, call_index, rank)
    cursor = env.view.cursor(data_lo + total_bytes, data_lo)
    batch = cursor.all_segments()
    env.ctx.charge(batch.pairs_evaluated * env.cost.cpu_per_flat_pair)
    env.metrics.counter("coll.client.pairs").inc(batch.pairs_evaluated)
    total = 0 if batch.empty else int(batch.total_bytes)
    with env.ctx.trace("resume:write", call=call_index):
        missing = subtract_intervals(batch, committed)
        remaining = 0 if missing.empty else int(missing.total_bytes)
        skipped = total - remaining
        if remaining == 0:
            return 0, skipped
        # File batch with *dense* data offsets: the strided layer
        # expects data_offsets to index the packed stream it is handed.
        dense = np.zeros(missing.lengths.size, dtype=np.int64)
        np.cumsum(missing.lengths[:-1], out=dense[1:])
        fbatch = SegmentBatch(missing.file_offsets, missing.lengths.copy(), dense)
        membatch = mem_batch_for(
            memflat, missing.data_offsets - data_lo, missing.lengths
        )
        method = choose_method(env.hints, env.view.flat.extent, fbatch)
        env.metrics.counter(f"coll.flush.{method}").inc()
        env.ctx.charge(remaining * env.cost.cpu_per_byte_touch)
        env.adio.write_strided(fbatch, gather_segments(buf, membatch), method)
    return remaining, skipped
