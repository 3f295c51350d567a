"""The one round loop both two-phase implementations run.

A collective call is three nested pieces, each written once here:

1. **source selection** (:func:`run_collective`) — a plan-cache hit
   replays the recorded schedule (:class:`_Replay`), anything else
   plans cold with the implementation's planner and stores the
   recording afterwards;
2. **per-call brackets** (:func:`_call`) — the liveness budget, the
   journal transaction with its barrier / commit / barrier, the call
   counters and the aggregator-service feedback;
3. **the rounds** (:func:`_rounds`) — one write-order loop and one
   read-order loop with round pipelining, the fail-stop crash sites
   and the epoch commits threaded through them.

What differs between the implementations is the paper's delta and sits
behind two small surfaces.  A **round source** (:class:`RoundSource`)
says how many rounds there are, who exchanges what in each
(:meth:`~RoundSource.route`, a :class:`~repro.core.plancache.RoundPlan`
in write orientation) and how faults reshape the schedule at a round
boundary: :class:`repro.core.two_phase_new._Plan` (§5.2/§5.3),
:class:`repro.core.two_phase_old._OldPlan` and :class:`_Replay`.  A
**buffer method** (§5.1) says how an aggregator's collective buffer
meets the file — ``stage`` / ``flush`` on writes, ``fill`` on reads
and ``active`` (does this rank move file bytes this round) — and names
its ``planner`` and its ``impl`` hint value:
:class:`repro.core.two_phase_new.Layered` and
:class:`repro.core.two_phase_old.IntegratedSieve`.

Which features are in force (exchange backend, pipeline, plan cache,
journal, boundary fault kinds) is ``env.eff``, settled once at open by
:mod:`repro.core.compat`; nothing here re-derives it from the hints.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.env import CollEnv
from repro.core.exchange import exchange_data
from repro.core.pipeline import RoundPipeline, task_env
from repro.core.plancache import PlanEntry, PlanRecorder, RoundPlan
from repro.datatypes.flatten import FlatType
from repro.errors import RankCrashed
from repro.faults.plan import FAULTS_KEY
from repro.liveness import LIVENESS_KEY, install_crash_state
from repro.mpi.agreement import AliveGroup, agree_dead_set
from repro.obs.metrics import metrics_registry

__all__ = ["run_collective", "RoundSource", "CONTINUE", "RESTART", "STOP"]

#: :meth:`RoundSource.boundary` verdicts: run round ``r``; the schedule
#: was re-carved, restart at round 0; this rank's part of the call is over.
CONTINUE, RESTART, STOP = range(3)


class RoundSource:
    """Per-call round schedule plus the fail-stop crash machinery
    (docs/crash_recovery.md) every schedule shares.

    Subclasses set ``nrounds`` and ``aggs`` and implement
    :meth:`_route`; a planner that can re-carve its schedule also
    implements :meth:`_gone` (the default, "carry on", is all a replay
    ever needs).  The crash machinery is armed only when the fault plan
    carries ``rank_crash`` events, so the fault-free path pays nothing."""

    nrounds: int
    aggs: List[int]
    #: Largest filetype extent in play (the conditional-sieving metric).
    ft_extent = 0
    #: Node topology for the exchange; None on flat clusters.
    topology = None
    #: True for a planner whose next call's realm weights read this
    #: call's ``service_seconds`` (replays of its plans publish them too).
    service_feedback = False

    def __init__(self, env: CollEnv, rec: Optional[PlanRecorder] = None) -> None:
        self.env = env
        self.rec = rec
        ctx, comm = env.ctx, env.comm
        self._injector = inj = ctx.shared.get(FAULTS_KEY)
        self._liveness = ctx.shared.get(LIVENESS_KEY)
        #: Which collective call this is: a pure function of per-rank
        #: program order, so every rank agrees without communication
        #: (fault events and journal transactions are keyed on it).
        self.call_index = inj.begin_collective(comm.rank) if inj is not None else 0
        self._boundary = 0
        #: Virtual seconds this rank spent servicing its aggregator role
        #: this call (routing + flushing).
        self.service_seconds = 0.0
        self._crash = None
        self._crash_pending: Optional[str] = None
        self._known_dead: set[int] = set()
        #: Ranks stalled by a ``rank_stall`` that were declared *suspect*
        #: and are completed around (``eff.suspects`` only).
        self._suspects: set[int] = set()
        #: The survivors' communicator view (see :attr:`coll`), so
        #: planning a new call never blocks waiting on a corpse from an
        #: earlier one.  None = fail-stop crashes are not armed.
        self.group: Optional[AliveGroup] = None
        if "rank_crash" in env.eff.boundary_kinds:
            self._crash = install_crash_state(ctx.shared)
            self._known_dead = set(self._crash.dead)
            self.group = AliveGroup(comm, frozenset(self._known_dead), -1)
        #: Ranks the exchange must not touch (corpses and suspects).
        self.skip: frozenset = frozenset(self._known_dead)

    @property
    def coll(self):
        """The alive group when fail-stop crashes are armed, the full
        communicator otherwise — every control collective of the call
        rides on this so corpses are never waited on."""
        return self.group if self.group is not None else self.env.comm

    @property
    def excluded(self) -> frozenset:
        """Ranks that can no longer act for the call (commit, record)."""
        return frozenset(self._known_dead)

    def _live_aggregators(self, aggs: List[int]) -> List[int]:
        """Ranks that died fail-stop in earlier calls never regain the
        aggregator role; if every chosen aggregator is a corpse,
        re-aggregate elastically over the survivors."""
        if not self._known_dead:
            return aggs
        alive = [a for a in aggs if a not in self._known_dead]
        if alive:
            return alive
        live = [x for x in range(self.env.comm.size) if x not in self._known_dead]
        return live[: max(1, len(aggs))]

    # -- per-round surface ---------------------------------------------------
    def boundary(self, r: int, buf: np.ndarray, write: bool) -> int:
        """Phase-boundary fault check, called before each round.

        ``r`` is the next round of the current epoch (== rounds
        completed since the last re-carve).  Detection needs no
        communication: every fault class evaluated here is a pure
        function of the per-rank collective-call ordinal and a
        monotonic boundary counter, which every rank tracks
        identically:

        * ``rank_stall`` — a transient stall.  The stall itself always
          fires (the fault model does not read the hints); under
          ``eff.suspects`` the stalled rank is additionally declared
          *suspect* and completed around;
        * ``agg_crash`` — permanent loss of an aggregator role;
        * ``rank_crash`` — a fail-stop death (:meth:`_fail_stop`).

        What is newly gone goes to the planner's :meth:`_gone`, whose
        verdict (``RESTART`` after a re-carve, ``STOP`` for a suspect
        whose tail is done) is returned."""
        env = self.env
        if not env.eff.boundary_kinds:
            return CONTINUE
        inj, liv, rank = self._injector, self._liveness, env.comm.rank
        boundary = self._boundary
        self._boundary += 1

        stalls = inj.stalled_ranks(self.call_index, boundary)
        if rank in stalls:
            delay = stalls[rank]
            with env.ctx.trace("fault:stall", round=r):
                env.ctx.advance(delay)
            inj.note_stall(delay)
            if liv is not None:
                # Renew my own budget: the deadline guards against
                # waiting on *others*, not against having been slow.
                liv.begin_call(rank, env.ctx.now)

        roles = inj.dead_aggregators(self.call_index, boundary)
        suspects: List[int] = []
        if stalls and env.eff.suspects:
            suspects = sorted(
                s for s in stalls if s not in self._suspects and s not in roles
            )
        crashed: List[int] = []
        reporter = 0
        if self._crash is not None:
            crashed, reporter = self._fail_stop(boundary)
            if self.dying:
                return CONTINUE
        return self._gone(r, buf, write, roles, suspects, crashed, reporter)

    def _gone(self, r, buf, write, roles, suspects, crashed, reporter) -> int:
        """Re-carve the schedule before round ``r``: ``roles`` are the
        aggregator roles lost so far, ``suspects`` and ``crashed`` the
        ranks newly suspected / newly dead fail-stop at this boundary;
        ``reporter`` is the one rank that counts events."""
        return CONTINUE

    def route(self, r: int) -> RoundPlan:
        """Round ``r``'s exchange schedule, in write orientation (client
        memory batches as ``send``, aggregator layouts as ``recv``; the
        read loop swaps them).  Also feeds the plan-cache recorder."""
        liv = self._liveness
        if liv is not None:
            liv.set_phase(self.env.comm.rank, f"route[{r}]")
        with self.env.ctx.trace("tp:route", round=r):
            rp = self._route(r)
        if self.rec is not None:
            self.rec.rounds.append(rp)
        return rp

    def _route(self, r: int) -> RoundPlan:
        raise NotImplementedError

    def commit_epoch(self, r: int) -> None:
        """Make written round ``r`` durable and cut its commit record."""

    # -- fail-stop crashes ---------------------------------------------------
    def _fail_stop(self, boundary: int) -> Tuple[List[int], int]:
        """Fail-stop check at a phase boundary: ``(newly_dead, reporter)``.

        Detection is a pure evaluation of the fault plan at ``(call,
        boundary)``, identical on every rank.  The *victim* records its
        death and dies here or — ``dying`` — walks on to its site;
        *survivors* run one epoch-agreement round and shrink the
        working group.  ``reporter`` is the one survivor that counts
        the event in the fault statistics."""
        inj, crash, env = self._injector, self._crash, self.env
        rank = env.comm.rank
        newly = sorted(
            c
            for c in inj.crashed_ranks(self.call_index, boundary)
            if c not in self._known_dead
        )
        # Once fail-stop deaths exist "rank 0 reports" stops being safe.
        reporter = next(x for x in range(env.comm.size) if x not in self._known_dead)
        if rank in newly:
            event = inj.crash_event_for(rank, self.call_index)
            site = event.site if event is not None else "boundary"
            if crash.mark_dead(rank, self.call_index, boundary):
                inj.note_crash()
            self._known_dead.add(rank)
            self.skip = frozenset(self.skip | {rank})
            if site == "boundary":
                raise RankCrashed(rank, site)
            self._crash_pending = site
            return [], reporter
        if self._known_dead and rank == reporter:
            # Plan events whose every target is already dead fire into
            # the void; count them *before* folding this boundary's
            # fresh deaths in.
            sup = inj.suppressed_for(
                frozenset(self._known_dead), self.call_index, boundary
            )
            if sup:
                inj.note_suppressed(sup)
        if not newly:
            return newly, reporter
        proposal = frozenset(self._known_dead | set(newly))
        with env.ctx.trace("crash:agree", epoch=boundary):
            self.group = agree_dead_set(env.comm, proposal, boundary)
        for c in newly:
            if crash.mark_dead(c, self.call_index, boundary):
                inj.note_crash()
        self._known_dead.update(newly)
        reporter = self.group.first_alive()
        if rank == reporter:
            inj.note_agreement()
        self.skip = frozenset(self.skip | set(newly))
        return newly, reporter

    @property
    def dying(self) -> bool:
        """True once this rank's fail-stop death is pending: it keeps
        walking the round structure with no exchange legs until its
        designated site raises."""
        return self._crash_pending is not None

    def crash_point(self, site: str) -> None:
        """Raise the pending death when its site (``exchange`` |
        ``flush``) is reached."""
        if self._crash_pending == site:
            raise RankCrashed(self.env.comm.rank, site)


class _Replay(RoundSource):
    """A cached plan as a round source: the planning phase elided
    entirely — no flattening, no AAR allreduce, no metadata exchange,
    no window intersection (zero offset/length pairs evaluated).

    Only ever built for a plan the cache agreed on collectively, and
    never while a boundary fault kind is armed (rule
    ``recarve.plan_cache``), so the recorded schedule is exact and
    every fault answer is the default.  The base still advances the
    collective-call ordinal: data-path fault kinds key their event
    windows on it."""

    def __init__(self, env: CollEnv, entry: PlanEntry) -> None:
        super().__init__(env)
        self.entry = entry
        self.nrounds = len(entry.rounds)
        self.aggs = entry.aggs
        self.ft_extent = entry.ft_extent
        self.topology = entry.topology
        env.pfr.last_realm_bytes = list(entry.realm_bytes)

    def route(self, r: int) -> RoundPlan:
        return self.entry.rounds[r]


def run_collective(
    env: CollEnv,
    method,
    buf: np.ndarray,
    memflat: FlatType,
    total_bytes: int,
    data_lo: int,
    *,
    write: bool,
) -> None:
    """Collective write of ``total_bytes`` from ``buf`` (laid out by
    ``memflat``) through the rank's file view, starting at data-stream
    position ``data_lo`` — or the read into ``buf`` — with ``method``'s
    planner and buffer handling."""
    cache = env.plancache
    entry = rec = None
    if cache is not None and not env.eff.plan_cache:
        cache.note_bypass()  # rule recarve.plan_cache: plan cold, store nothing
    elif cache is not None:
        entry = cache.begin(env, memflat, total_bytes, data_lo, method.impl)
        if entry is None:
            rec = cache.recording(method.impl)
    if entry is not None:
        with env.ctx.trace("plan:replay", key=entry.key_id, impl=method.impl):
            _call(env, method, _Replay(env, entry), buf, write)
        return
    with env.ctx.trace("tp:plan"):
        src = method.planner(env, memflat, total_bytes, data_lo, rec)
    _call(env, method, src, buf, write)
    if rec is not None:
        with env.ctx.trace("plan:store", key=rec.key_id, impl=method.impl):
            cache.commit(
                rec,
                nrounds=src.nrounds,
                aggs=src.aggs,
                ft_extent=src.ft_extent,
                topology=src.topology,
                realm_bytes=env.pfr.last_realm_bytes,
            )


def _call(env: CollEnv, method, src: RoundSource, buf: np.ndarray, write: bool) -> None:
    """The per-call brackets around the rounds."""
    comm, metrics = env.comm, env.metrics
    rank = comm.rank
    liv = src._liveness
    if liv is not None:
        liv.begin_call(rank, env.ctx.now)
    try:
        if write and env.eff.journal:
            # Crash-consistent path: aggregator flushes land in a shadow
            # transaction keyed by the collective-call ordinal (a
            # leftover transaction under a *different* ordinal is a
            # crashed call's journal and is discarded by txn_begin).
            local = env.adio.local
            local.fs.txn_begin(local.path, src.call_index)
            with env.adio.journaled():
                _rounds(env, method, src, buf, write)
            # Barrier — one committer publishes — barrier: the first
            # guarantees every aggregator's journal writes have landed,
            # the second that no rank returns before the commit is
            # visible.  Both run over the survivors (a corpse would
            # deadlock them), and the committer is the first aggregator
            # still able to act, so a crash with failover still commits;
            # a call that raises never does, and the file stays at its
            # pre-collective image (the crash-consistency contract).
            sync = src.coll
            sync.barrier()
            excluded = src.excluded
            committer = next((a for a in src.aggs if a not in excluded), src.aggs[0])
            if rank == committer:
                env.adio.retry.run(
                    env.ctx,
                    lambda: local.fs.txn_commit(
                        env.ctx, local.client.client_id, local.path
                    ),
                )
            sync.barrier()
        else:
            _rounds(env, method, src, buf, write)
    finally:
        if liv is not None:
            liv.end_call(rank)
    metrics.counter("coll.writes" if write else "coll.reads").inc()
    if method.planner.service_feedback:
        metrics.counter("coll.agg.service_seconds").inc(src.service_seconds)
        # This call only: the balanced strategy's straggler-aware
        # feedback signal, read back by the next call's planner.
        metrics.gauge("coll.agg.last_service_seconds").set(src.service_seconds)


def _task(env: CollEnv, stage: str, r: int, svc: List[float], fn, *args):
    """Coroutine body running ``fn(env, *args)`` for round ``r`` on the
    task's own clock (a context-rebound env) under a ``stage`` span on
    the slot's lane; ``svc`` collects the aggregator service seconds
    the serialized path would have charged inline."""

    def run(tctx):
        fenv = task_env(env, tctx)
        with tctx.trace(stage, round=r):
            t0 = tctx.now
            out = fn(fenv, *args)
            svc.append(tctx.now - t0)
            return out

    return run


def _rounds(env: CollEnv, method, src: RoundSource, buf: np.ndarray, write: bool) -> None:
    """Run the call's rounds, serialized or pipelined.

    Round pipelining (docs/async_io.md): when armed, flushes and fills
    run as engine coroutines so the flush of round r overlaps the
    exchange of round r+1 (on reads: the fill of round r+1 prefetches
    while round r's exchange distributes).  ``eff.pipeline_depth`` is 0
    whenever a boundary fault kind is armed (rule ``recarve.pipeline``),
    so every non-default :class:`RoundSource` answer only ever meets
    the serialized path."""
    ctx, comm, cost, eff = env.ctx, env.comm, env.cost, env.eff
    rounds = env.metrics.counter("coll.rounds")
    exchanged = env.metrics.counter("exchange.bytes")
    rank = comm.rank
    liv = src._liveness
    pipe: Optional[RoundPipeline] = (
        RoundPipeline(env, eff.pipeline_depth) if eff.pipeline_depth > 0 else None
    )
    exchange_span = "round:exchange" if pipe is not None else "tp:exchange"
    svc: List[float] = []

    def exchange(r: int, rp: RoundPlan, cbuf: Optional[np.ndarray]) -> None:
        if liv is not None:
            liv.set_phase(rank, f"exchange[{r}]")
        with ctx.trace(exchange_span, round=r):
            src.crash_point("exchange")
            if src.dying:
                return
            if write:
                sendbuf, sends, recvbuf, recvs = buf, rp.send, cbuf, rp.recv
            else:
                # Data flows aggregator -> client: the aggregator's
                # per-client layouts become SEND batches, the client's
                # memory batches RECV batches.
                sendbuf, sends, recvbuf, recvs = cbuf, rp.recv, buf, rp.send
            mode = eff.exchange_skip if src.skip else eff.exchange
            if mode != eff.exchange:
                # Rule suspects.two_layer, the one settled per round.
                env.metrics.counter("compat.stand_down.suspects.two_layer").inc()
                metrics_registry(ctx.shared).counter("exchange.flat_fallbacks").inc()
            exchanged.inc(
                exchange_data(
                    comm, cost, mode, sendbuf, sends, recvbuf, recvs,
                    skip=src.skip, topology=src.topology,
                )
            )

    try:
        if write:
            r = 0
            while r < src.nrounds:
                verdict = src.boundary(r, buf, write)
                if verdict == STOP:
                    break
                if verdict == RESTART:
                    r = 0
                    continue
                rounds.inc()
                rp = src.route(r)
                cbuf = method.stage(env, src, rp, r)
                exchange(r, rp, cbuf)
                if pipe is not None:
                    if cbuf is not None:
                        pipe.submit(
                            _task(env, "round:flush", r, svc, method.flush, src, rp, cbuf),
                            round_no=r,
                            stage="round:flush",
                        )
                else:
                    if liv is not None:
                        liv.set_phase(rank, f"io[{r}]")
                    with ctx.trace("tp:io", round=r):
                        src.crash_point("flush")
                        if cbuf is not None:
                            t0 = ctx.now
                            method.flush(env, src, rp, cbuf)
                            src.service_seconds += ctx.now - t0
                src.commit_epoch(r)
                r += 1
        else:
            routed: List[tuple] = []
            next_r = 0

            def route_ahead() -> None:
                """Route rounds ahead of the exchange and get their
                buffers filling: as far as the pipeline has free slots,
                or — serialized — exactly one round, and only when
                nothing is routed."""
                nonlocal next_r
                while next_r < src.nrounds and (
                    not routed
                    or (pipe is not None and pipe.free_slots > 0 and len(routed) <= pipe.depth)
                ):
                    verdict = src.boundary(next_r, buf, write)
                    if verdict == STOP:
                        next_r = src.nrounds
                        return
                    if verdict == RESTART:
                        next_r = 0
                        continue
                    rounds.inc()
                    rp = src.route(next_r)
                    filled = None
                    if pipe is not None:
                        if method.active(rp):
                            filled = pipe.submit(
                                _task(env, "round:fill", next_r, svc, method.fill, src, rp),
                                round_no=next_r,
                                stage="round:fill",
                            )
                    else:
                        if liv is not None:
                            liv.set_phase(rank, f"io[{next_r}]")
                        with ctx.trace("tp:io", round=next_r):
                            src.crash_point("flush")
                            if method.active(rp):
                                t0 = ctx.now
                                filled = method.fill(env, src, rp)
                                src.service_seconds += ctx.now - t0
                    routed.append((next_r, rp, filled))
                    next_r += 1

            route_ahead()
            while routed:
                r, rp, filled = routed.pop(0)
                if pipe is not None:
                    if filled is not None:
                        filled = pipe.join(filled)
                    # A slot just freed: launch the next fill before the
                    # exchange blocks on remote ranks.
                    route_ahead()
                exchange(r, rp, filled)
                if pipe is None:
                    # Round r+1 is routed only after round r's exchange.
                    route_ahead()
        if pipe is not None:
            pipe.drain()
    except BaseException:
        if pipe is not None:
            # Never leave a coroutine running past its call; its own
            # error must not mask the primary exception.
            pipe.drain(suppress=True)
        raise
    finally:
        src.service_seconds += sum(svc)
