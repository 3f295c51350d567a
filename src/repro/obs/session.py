"""The :class:`Session` façade — the documented front door to a run.

A session wires together everything a simulated collective-I/O
experiment needs — simulator, shared file system, hints, optional
fault plan, span tracer, and **one** metrics registry — so user code
stops hand-assembling ``Simulator``/``SimFileSystem``/``Communicator``
plumbing and poking scattered stats objects afterwards::

    import numpy as np
    from repro import Session, contiguous, resized, BYTE

    with Session.open("/data", nprocs=4,
                      hints={"coll_impl": "new", "cb_nodes": 2},
                      trace=True) as s:
        region = 64

        def body(ctx, comm, f):
            tile = resized(contiguous(region, BYTE), 0, region * comm.size)
            f.set_view(disp=comm.rank * region, filetype=tile)
            f.write_all(np.full(region, comm.rank, dtype=np.uint8))

        s.run(body)
        print(s.metrics.format("coll."))   # registry, stable names
        print(s.time_by_state())           # MPE-style decomposition
        s.write_trace("out.json")          # Perfetto-loadable JSON

Every component reports into :attr:`Session.registry` — the per-file
server counters and page caches through the file system's registry
reference, the per-rank collective counters / network tiers / fault
counters through ``Simulator.shared`` (the session pre-installs its
registry there under :data:`~repro.obs.metrics.METRICS_KEY`).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Union

from repro.config import CostModel, DEFAULT_COST_MODEL
from repro.obs.metrics import METRICS_KEY, MetricsRegistry
from repro.obs.schema import validate_chrome_trace

__all__ = ["Session", "opened_file"]


@contextmanager
def opened_file(ctx, comm, fs, path, hints, cost, **file_kw):
    """``with opened_file(...) as (comm, f)``: an open
    :class:`~repro.core.CollectiveFile`, closed collectively when the
    block completes — the opener of :meth:`Session.opened` and of a
    :class:`~repro.tenancy.Cluster`'s collective tenants."""
    from repro.core.file_handle import CollectiveFile
    from repro.errors import RankCrashed

    f = CollectiveFile(ctx, comm, fs, path, hints=hints, cost=cost, **file_kw)
    try:
        yield comm, f
    except RankCrashed:
        f.close()  # a corpse's close is a local teardown
        raise
    # Not a ``finally``: a rank leaving with an error (or the engine's
    # abort) has abandoned the collective its peers are in, and a
    # collective close could only hang on them and mask the error.
    f.close()


class Session:
    """One experiment: a path, a cluster shape, hints, and observability.

    Parameters
    ----------
    path:
        File path the session's collective file opens (shared by all
        ranks).
    nprocs:
        Ranks in the simulated cluster.
    hints:
        A :class:`~repro.mpi.hints.Hints` instance or a plain mapping
        of hint keys (``{"coll_impl": "new", "cb_nodes": 2}``).
    cost:
        The cluster cost model.
    faults:
        ``None``, a scenario spec string (``"bit-flip:42"``), or a
        :class:`~repro.faults.FaultPlan`; installed into every run.
    trace:
        When true, record structured spans (exportable with
        :meth:`chrome_trace`/:meth:`write_trace`).  Off by default —
        the tracer's fast path is a bare ``yield``.
    lock_granularity:
        Optional lock granularity override for the file system.
    queue_limit:
        Per-OST admission bound (virtual seconds of queueing delay;
        ``None`` = unbounded queues, the seed's behaviour).  See
        ``docs/storage_faults.md``.
    breaker:
        Per-OST circuit breakers: ``True`` (default policy), ``False``
        (off — every retry probes the OST), or a
        :class:`~repro.fs.ostfault.BreakerPolicy`.
    """

    def __init__(
        self,
        path: str = "/data",
        *,
        nprocs: int = 4,
        hints: Union[None, Dict[str, Any], "Hints"] = None,
        cost: CostModel = DEFAULT_COST_MODEL,
        faults: Union[None, str, "FaultPlan"] = None,
        trace: bool = False,
        lock_granularity: Optional[int] = None,
        queue_limit: Optional[float] = None,
        breaker: Any = True,
    ) -> None:
        from repro.fs.filesystem import SimFileSystem
        from repro.sim.trace import Tracer

        if nprocs <= 0:
            raise ValueError(f"nprocs must be positive, got {nprocs}")
        self.path = path
        self.nprocs = nprocs
        self.hints, self.plan = self._admit(hints, faults)
        self.cost = cost
        #: The session-wide metrics registry every component reports to.
        self.registry = MetricsRegistry()
        #: The session-wide span tracer (shared across runs, so a
        #: second run's spans append after the first's).
        self.tracer = Tracer(enabled=trace)
        self.fs = SimFileSystem(
            cost,
            lock_granularity=lock_granularity,
            registry=self.registry,
            queue_limit=queue_limit,
            breaker=breaker,
        )
        self._injector = None
        self._results: List[Any] = []
        self._t0: Optional[float] = None
        self._t1: Optional[float] = None
        #: The most recent run's simulator (``None`` before any run).
        self.sim = None

    @staticmethod
    def _resolve_plan(faults):
        if faults is None:
            return None
        from repro.faults import FaultPlan, load_scenario

        if isinstance(faults, FaultPlan):
            return faults
        return load_scenario(faults)

    @staticmethod
    def _admit(hints, faults):
        """``(Hints, FaultPlan | None)`` for one job, checked against the
        composition table (docs/compatibility.md) before any rank thread
        exists: an illegal combination raises ``HintConflict`` out of
        the caller's own constructor call, not ``RankFailed`` out of a
        run.  Shared with :meth:`repro.tenancy.Cluster.add_tenant`."""
        from repro.core import compat
        from repro.mpi.hints import Hints

        if hints is None:
            hints = Hints()
        elif not isinstance(hints, Hints):
            hints = Hints(**dict(hints))
        plan = Session._resolve_plan(faults)
        compat.resolve(hints, plan.kinds if plan is not None else ())
        return hints, plan

    @classmethod
    def open(cls, path: str = "/data", **kwargs: Any) -> "Session":
        """Open a session (the spelling used in the docs)."""
        return cls(path, **kwargs)

    # -- running -------------------------------------------------------------
    def _simulate(self, main: Callable[..., Any], nprocs: int, before=None) -> list:
        """``main(ctx)`` on ``nprocs`` ranks of a fresh simulator that
        shares this session's tracer and registry (``before(sim)`` runs
        before the ranks start); its dispatcher counts land in ``sim.*``."""
        from repro.sim.engine import Simulator

        sim = Simulator(nprocs, tracer=self.tracer)
        sim.shared[METRICS_KEY] = self.registry
        if before is not None:
            before(sim)
        try:
            return sim.run(main)
        finally:
            for name, count in sim.counters.items():
                self.registry.counter(f"sim.{name}").inc(count)

    def launch(self, main: Callable[..., Any]) -> list:
        """Run ``main(ctx)`` on every rank of a fresh simulator.

        The simulator shares this session's tracer and registry, and
        has the session's fault plan (if any) installed.  Returns the
        per-rank results."""

        def install(sim):
            if self.plan is not None:
                self._injector = self.plan.install(sim)
            self.sim = sim

        self._results = self._simulate(main, self.nprocs, install)
        return self._results

    def opened(self, ctx, comm=None, **file_kw):
        """The one opener: ``with s.opened(ctx) as (comm, f)`` inside a
        ``main(ctx)`` under :meth:`launch` gives the rank a communicator
        and an open :class:`~repro.core.CollectiveFile` on the session's
        fs / path / hints / cost, closed (collectively) when the block
        completes (:func:`opened_file`).  Untimed: :meth:`run` wraps its
        makespan bracket around this, :meth:`rejoin` passes its
        :class:`~repro.core.resume.ResumeComm`, and the chaos harness
        and the CLI's ``selfcheck`` / ``fsck`` use it as is."""
        from repro.mpi.comm import Communicator

        if comm is None:
            comm = Communicator(ctx, self.cost)
        return opened_file(
            ctx, comm, self.fs, self.path, self.hints, self.cost, **file_kw
        )

    def run(self, body: Callable[..., Any]) -> list:
        """Run ``body(ctx, comm, f)`` on every rank against the session file.

        Each rank gets a communicator and an open
        :class:`~repro.core.CollectiveFile` on :attr:`path` with the
        session's hints (:meth:`opened`); the file is closed
        (collectively) after ``body`` returns.  The timed window —
        :attr:`makespan` — spans the post-open barrier to the slowest
        rank's close, so deferred cache flushes are charged to the run
        that deferred them.
        Returns the per-rank ``body`` results."""
        from repro.liveness import find_crash_state
        from repro.mpi.agreement import AliveGroup

        def main(ctx):
            with self.opened(ctx) as (comm, f):
                t0 = comm.allreduce(ctx.now, op=max)
                out = body(ctx, comm, f)
            # The closing timestamp reduction runs over the survivors:
            # ranks dead fail-stop never reach it, and waiting on them
            # would hang the teardown forever.
            crash = find_crash_state(ctx.shared)
            if crash is not None and crash.dead:
                t1 = AliveGroup(comm, frozenset(crash.dead), -3).allreduce(
                    ctx.now, op=max
                )
            else:
                t1 = comm.allreduce(ctx.now, op=max)
            return (out, t0, t1)

        results = self.launch(main)
        # Crashed ranks yield no result; time the run off any survivor.
        finished = [r for r in results if r is not None]
        if finished:
            self._t0 = finished[0][1]
            self._t1 = finished[0][2]
        return [r[0] if r is not None else None for r in results]

    def run_async(self, body: Callable[..., Any]) -> list:
        """Like :meth:`run`, for bodies that use the nonblocking surface.

        ``body(ctx, comm, f)`` may leave ``iwrite_all``/``iread_all``
        requests in flight when it returns; this wrapper completes them
        with :func:`repro.core.request.waitall` before the collective
        close, so the first deferred typed error (``DeadlineExceeded``,
        storage faults, ...) re-raises on the issuing rank exactly as
        the blocking path would have raised it inline.  Returns the
        per-rank ``body`` results."""
        from repro.core.request import waitall

        def wrapped(ctx, comm, f):
            out = body(ctx, comm, f)
            waitall(f.outstanding())
            return out

        return self.run(wrapped)

    def rejoin(self, rank: int, body: Callable[..., Any]) -> Dict[str, Any]:
        """Restart a crashed ``rank`` and replay ``body`` to completion.

        The rank runs alone in a fresh one-process simulation against
        the *same* session file system and registry.  Its communicator
        (:class:`~repro.core.resume.ResumeComm`) keeps the original
        rank/size coordinates so views and plans resolve identically,
        but collectives are one-process identities; each collective
        write is routed through the resumable-write path, which replays
        the journal's epoch records and rewrites only the bytes no
        survivor committed on the rank's behalf.  Returns a dict with
        the rank's ``result`` plus ``rewritten``/``skipped`` byte
        totals.  See ``docs/crash_recovery.md``."""
        from repro.core.resume import ResumeComm

        if self.sim is None or rank not in self.sim.crashed:
            raise ValueError(
                f"rank {rank} did not crash in the last run "
                f"(crashed: {sorted(self.sim.crashed) if self.sim else []})"
            )
        if self._injector is not None:
            self._injector.note_rejoin()

        def replay(ctx):
            resume = ResumeComm(ctx, self.cost, rank, self.nprocs)
            with self.opened(
                ctx, resume, client_id=("rejoin", rank), resume_rank=rank
            ) as (comm, f):
                out = body(ctx, comm, f)
            return (out, f.resume_rewritten, f.resume_skipped)

        (result,) = self._simulate(replay, 1)
        out, rewritten, skipped = result
        if self._injector is not None:
            self._injector.note_resume(rewritten, skipped)
        return {"result": out, "rewritten": rewritten, "skipped": skipped}

    # -- results -------------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        """Alias for :attr:`registry` (reads nicely at call sites)."""
        return self.registry

    @property
    def makespan(self) -> float:
        """Virtual seconds from post-open barrier to slowest close of
        the most recent :meth:`run` (0.0 before any run)."""
        if self._t0 is None or self._t1 is None:
            return 0.0
        return max(self._t1 - self._t0, 0.0)

    def time_by_state(self, rank: Optional[int] = None) -> Dict[str, float]:
        """MPE-style per-state virtual-second totals (needs ``trace=True``)."""
        return self.tracer.time_by_state(rank)

    def chrome_trace(self) -> Dict[str, Any]:
        """The recorded spans as a Chrome ``trace_event`` JSON object.

        When the session's fault plan carries OST events, per-OST
        health lanes (``ost:down`` / ``ost:degraded`` spans on their
        own rows) are appended so storage outages line up against the
        compute rows."""
        from repro.fs.ostfault import append_ost_lanes

        return append_ost_lanes(
            self.tracer.to_chrome_trace(), self.plan, self.cost.num_osts
        )

    def write_trace(self, path: str, *, validate: bool = True) -> Dict[str, Any]:
        """Write the Chrome trace JSON to ``path`` and return it.

        Validates against the checked-in schema first (so a broken
        export fails loudly rather than producing a file Perfetto
        rejects)."""
        doc = self.chrome_trace()
        if validate:
            validate_chrome_trace(doc)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
        return doc

    def summary(self) -> str:
        """Human-readable digest: makespan, metrics (the ``faults.*``
        rows among them), per-OST breaker states."""
        lines = [
            f"session {self.path!r}: nprocs={self.nprocs}, "
            f"makespan={self.makespan * 1e3:.3f} ms"
        ]
        lines.append(self.registry.format())
        if self.fs._breakers:
            from repro.fs.ostfault import breaker_states

            names = {v: k for k, v in breaker_states().items()}
            lines.append("")
            lines.append("ost breakers:")
            for ost in sorted(self.fs._breakers):
                br = self.fs._breakers[ost]
                lines.append(
                    f"  ost {ost:<4} {names[br.state]:<9} "
                    f"failures={br.failures}"
                )
        return "\n".join(lines)

    # -- context manager -----------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Session({self.path!r}, nprocs={self.nprocs}, "
            f"trace={self.tracer.enabled})"
        )
