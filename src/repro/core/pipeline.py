"""Round-level pipelining: double-buffered collective rounds.

Serialized two-phase rounds pay ``exchange + flush`` per round; the
paper conceded exactly this serialization (plus a copy) to layered
I/O.  :class:`RoundPipeline` recovers it: with the ``pipeline_depth``
hint set, the flush of round *k* runs as an engine coroutine (see
:meth:`repro.sim.engine.RankContext.spawn`) while the rank immediately
starts the exchange of round *k+1* — on the read path, the *fill* of
round *k+1* prefetches while round *k*'s exchange distributes.  The
pool is bounded: at most ``depth`` coroutines (collective buffers) are
in flight, and a submit past that limit back-pressures by joining the
oldest (counted in ``coll.pipeline.stalls``).

``pipeline_depth = 0`` (the default) never constructs a pipeline —
the round loop runs serialized, seed-identical — and neither does a
run with a boundary fault kind armed (rule ``recarve.pipeline``,
docs/compatibility.md).  Data-path faults — transient I/O errors, OST
flaps, bit flips — stay live inside the coroutines; their typed errors
are captured by the task handle and re-raised at the join, so the
caller's handling is identical to the inline path.

Metrics: ``coll.pipeline.depth`` (gauge, configured depth),
``coll.pipeline.stalls`` (back-pressure joins), and
``coll.pipeline.overlap_seconds`` — virtual seconds of coroutine work
that ran concurrently with the spawning rank's own progress, the
number the bench asserts is nonzero at depth >= 2.

Trace: coroutines record ``round:flush`` / ``round:fill`` spans on
their own per-slot lanes (:meth:`repro.sim.engine.Simulator.lane_for`),
so the Chrome export shows them overlapping the rank's
``round:exchange`` spans instead of corrupting the rank's span stack.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, List, Optional, Tuple

from repro.core.env import CollEnv
from repro.sim.engine import RankContext, TaskHandle

__all__ = ["RoundPipeline", "task_env"]


def task_env(env: CollEnv, tctx: RankContext) -> CollEnv:
    """``env`` rebound to a coroutine's context: the I/O stack charges
    the task's clock (via :meth:`repro.io.adio.AdioFile.rebound`) while
    hints, view, metrics, and the plan cache stay shared."""
    return replace(env, ctx=tctx, adio=env.adio.rebound(tctx))


class RoundPipeline:
    """Bounded pool of in-flight round coroutines for one collective call.

    Slots double as trace lanes: slot *s* of rank *r* always records on
    the same interned lane, and a slot is only reused after its task is
    joined, so the tracer's per-lane span stack stays well nested."""

    def __init__(self, env: CollEnv, depth: int) -> None:
        self.env = env
        self.ctx = env.ctx
        self.depth = depth
        self._rank = env.comm.rank
        self._stalls = env.metrics.counter("coll.pipeline.stalls")
        self._overlap = env.metrics.counter("coll.pipeline.overlap_seconds")
        env.metrics.gauge("coll.pipeline.depth").set(depth)
        #: In-flight (handle, slot) pairs, oldest first.
        self._inflight: List[Tuple[TaskHandle, int]] = []
        self._free = list(range(depth))

    @property
    def free_slots(self) -> int:
        return len(self._free)

    def submit(
        self,
        fn: Callable[[RankContext], Any],
        *,
        round_no: int,
        stage: str,
    ) -> TaskHandle:
        """Launch ``fn`` on a pool slot; back-pressure when full."""
        if not self._free:
            self._stalls.inc()
            self.join(self._inflight[0][0])
        slot = self._free.pop(0)
        lane = self.ctx._sim.lane_for(
            ("pipe", id(self.ctx.shared), self._rank, slot),
            f"rank {self._rank} pipeline[{slot}]",
        )
        handle = self.ctx.spawn(
            fn, label=f"{stage}[{round_no}]@r{self._rank}", lane=lane
        )
        self._inflight.append((handle, slot))
        return handle

    def join(self, handle: TaskHandle) -> Any:
        """Join one task: free its slot, account realized overlap, and
        return its value (or re-raise its captured error).  Joining a
        handle the pool already reclaimed (via back-pressure) is safe —
        the engine's join is idempotent."""
        entry = next((e for e in self._inflight if e[0] is handle), None)
        if entry is None:
            return self.ctx.join(handle)
        t_before = self.ctx.now
        try:
            return self.ctx.join(handle)
        finally:
            self._inflight.remove(entry)
            self._free.append(entry[1])
            self._free.sort()
            # Overlap = the part of the task's virtual-time span the
            # parent covered with its own work before joining.
            self._overlap.value += max(
                0.0, min(t_before, handle.t_end) - handle.t_start
            )

    def drain(self, *, suppress: bool = False) -> None:
        """Join everything still in flight, oldest first.

        The first captured error is re-raised after *all* tasks are
        joined (a coroutine must never be left running past its call);
        ``suppress=True`` swallows errors instead — used on the unwind
        path so a flush error never masks the primary exception."""
        first: Optional[BaseException] = None
        while self._inflight:
            try:
                self.join(self._inflight[0][0])
            except Exception as exc:  # noqa: BLE001 - deferred to caller
                if first is None:
                    first = exc
        if first is not None and not suppress:
            raise first
