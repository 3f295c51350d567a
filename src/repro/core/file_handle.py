"""MPI_File-like collective file handle.

One :class:`CollectiveFile` per rank per open file.  All ``*_all``
operations are collective: every rank of the communicator must call
them in the same order (a mismatch deadlocks, which the engine turns
into a :class:`~repro.errors.SimDeadlock` with a rank dump).

Cache-coherence protocol (the PFR story, §6.4): when the client cache
is *incoherent* and persistent file realms are **off**, realm
assignments may move between calls, so different aggregators may touch
the same bytes across calls.  The handle then conservatively

* invalidates the local cache before each collective call, and
* syncs (flushes dirty pages) after each collective write,

which is what keeps the file system state correct — and what makes the
non-PFR configurations slow in Figure 7.  With PFRs on, realms never
move, every byte has a single owner for the file's lifetime, and both
steps are skipped.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

import numpy as np

from repro.config import CostModel, DEFAULT_COST_MODEL
from repro.core import compat
from repro.core.env import CollEnv
from repro.core.file_view import FileView
from repro.core.pfr import PFRState
from repro.core.plancache import PlanCache
from repro.core.request import Request
from repro.core.rounds import run_collective
from repro.core.two_phase_new import Layered
from repro.core.two_phase_old import IntegratedSieve
from repro.datatypes.base import BYTE, Datatype
from repro.datatypes.flatten import FlatType
from repro.errors import CollectiveIOError, RankCrashed
from repro.faults.plan import FAULTS_KEY
from repro.fs.client import FSClient
from repro.fs.filesystem import SimFileSystem
from repro.integrity import IntegrityConfig, install_integrity
from repro.io.adio import AdioFile
from repro.liveness import LivenessState, install_liveness
from repro.config import LivenessConfig
from repro.io.retry import RetryBudget, RetryPolicy
from repro.liveness import find_crash_state
from repro.mpi.agreement import AliveGroup
from repro.mpi.comm import Communicator
from repro.mpi.hints import Hints
from repro.obs.metrics import MetricsView, metrics_registry
from repro.sim.engine import RankContext

__all__ = ["CollectiveFile"]


class CollectiveFile:
    """Collectively opened file with two-phase read/write."""

    def __init__(
        self,
        ctx: RankContext,
        comm: Communicator,
        fs: SimFileSystem,
        path: str,
        hints: Optional[Hints] = None,
        cost: CostModel = DEFAULT_COST_MODEL,
        client_id: Optional[Hashable] = None,
        resume_rank: Optional[int] = None,
    ) -> None:
        self.ctx = ctx
        self.comm = comm
        #: Rejoin replay mode (docs/crash_recovery.md): collective
        #: writes route through journal-replay resume instead of the
        #: round loop, rewriting only uncommitted bytes.
        self.resume_rank = resume_rank
        self._resume_calls = 0
        self.resume_rewritten = 0
        self.resume_skipped = 0
        self.fs = fs
        self.path = path
        self.hints = hints if hints is not None else Hints()
        # Every feature x feature decision of this open, settled once
        # (a reject raises here, identically on every rank, before the
        # open barrier).
        inj = ctx.shared.get(FAULTS_KEY)
        self.eff = compat.resolve(self.hints, inj.plan.kinds if inj is not None else ())
        self.cost = cost
        # Multi-tenant runs pass a (tenant, rank) client_id so that two
        # tenants' rank 0 never alias on the shared lock table / caches.
        client = FSClient(fs, ctx, client_id=client_id)
        self.local = client.open(
            path,
            cache_mode=self.hints["cache_mode"],
            cache_capacity_pages=self.hints["cache_pages"],
        )
        retry = RetryPolicy(
            retries=self.hints["io_retries"],
            backoff=self.hints["io_retry_backoff"],
            budget=(
                RetryBudget(self.hints["io_retry_budget"])
                if self.hints["io_retry_budget"]
                else None
            ),
        )
        self.adio = AdioFile(
            self.local, ds_buffer_size=self.hints["ds_buffer_size"], retry=retry
        )
        # Storage-side replication (docs/storage_faults.md): place each
        # stripe's pages on r distinct OSTs so an ost_crash degrades
        # instead of failing.  1 (default) = the seed's plain store.
        if self.hints["replication_factor"] > 1:
            fs.enable_replication(path, self.hints["replication_factor"])
        # End-to-end integrity (docs/integrity.md): arm the page sidecar
        # on the server and publish the config for the transport.  Both
        # default off, so the fast path never pays for the machinery.
        if self.hints["integrity_pages"] or self.hints["integrity_network"]:
            install_integrity(
                ctx.shared,
                IntegrityConfig(
                    pages=self.hints["integrity_pages"],
                    network=self.hints["integrity_network"],
                    net_retries=self.hints["io_retries"],
                    net_backoff=self.hints["io_retry_backoff"],
                ),
            )
        if self.hints["integrity_pages"]:
            fs.enable_integrity(path)
        # Liveness (docs/faults.md): a per-collective deadline and/or
        # suspect-driven failover.  Same dynamic-discovery pattern as
        # integrity — off by default, zero fast-path cost.
        if self.hints["coll_deadline"] > 0.0 or self.hints["liveness"]:
            install_liveness(
                ctx.shared,
                LivenessState(LivenessConfig(deadline=self.hints["coll_deadline"])),
            )
        self.view = FileView(0, BYTE, BYTE)
        # Per-rank collective counters report into the simulation's
        # shared metrics registry (coll.* / exchange.* series).
        self.registry = metrics_registry(ctx.shared)
        #: This rank's registry view (``coll.*``/``exchange.*`` series).
        self.metrics: MetricsView = self.registry.view(ctx.rank)
        for rule_id in self.eff.decisions:
            # One stand-down taken under ``repro.core.compat`` row
            # ``rule_id`` (once per open; a round-scope row per round).
            self.metrics.counter(f"compat.stand_down.{rule_id}").inc()
        self._call_seconds = self.metrics.histogram("coll.call.seconds")
        self.pfr = PFRState()
        # Persistent collective plans (docs/plan_cache.md): per-handle,
        # armed by the plan_cache hint; None keeps today's exact path.
        self.plancache = (
            PlanCache(self.registry, ctx.rank) if self.hints["plan_cache"] else None
        )
        #: Individual file pointer, counted in etypes (MPI semantics:
        #: advanced by pointer-relative operations, reset by set_view).
        self._pointer = 0
        self._open = True
        # Nonblocking surface (docs/async_io.md): outstanding requests
        # and the tail of this rank's coroutine chain — each async op
        # first joins its predecessor, so one rank's collectives issue
        # in program order on the shared communicator queues.
        self._requests: List[Request] = []
        self._async_tail = None
        # Opening is collective in MPI; synchronize so later collective
        # calls start aligned (over the survivors once ranks have died
        # fail-stop — a corpse would deadlock the full barrier).
        self._alive_barrier()

    # -- views --------------------------------------------------------------
    def set_view(
        self, disp: int = 0, etype: Datatype = BYTE, filetype: Optional[Datatype] = None
    ) -> None:
        """Collective MPI_File_set_view analogue.

        Resets the individual file pointer to zero, per MPI."""
        self._require_open()
        self._drain_async()
        self.view = FileView(disp, etype, filetype)
        self._pointer = 0
        if self.plancache is not None:
            # View epoch bump: every cached plan was carved against the
            # old view's flattened filetype and must not survive it.
            with self.ctx.trace("plan:invalidate", reason="set_view"):
                self.plancache.invalidate("set_view")
        self._alive_barrier()

    # -- individual file pointer ------------------------------------------------
    SEEK_SET = 0
    SEEK_CUR = 1

    def seek(self, offset_etypes: int, whence: int = SEEK_SET) -> None:
        """Move the individual file pointer (MPI_File_seek), counted in
        etypes relative to the view."""
        self._require_open()
        if whence == self.SEEK_SET:
            target = offset_etypes
        elif whence == self.SEEK_CUR:
            target = self._pointer + offset_etypes
        else:
            raise CollectiveIOError(f"unknown whence {whence!r}")
        if target < 0:
            raise CollectiveIOError(f"file pointer cannot go negative ({target})")
        self._pointer = target

    def get_position(self) -> int:
        """Current individual file pointer, in etypes (MPI_File_get_position)."""
        return self._pointer

    # -- helpers --------------------------------------------------------------
    def _crash_dead(self) -> frozenset:
        """Ranks known dead fail-stop in this simulation (empty when
        crashes were never armed)."""
        crash = find_crash_state(self.ctx.shared)
        return frozenset(crash.dead) if crash is not None else frozenset()

    def _alive_barrier(self) -> None:
        """Synchronize the live ranks.  Full-membership barriers
        deadlock forever once a rank died fail-stop; deaths only happen
        at collective-call boundaries, so every survivor reaching a
        teardown barrier sees the same dead set and interns the same
        shrunk communicator."""
        dead = self._crash_dead()
        if not dead:
            self.comm.barrier()
        else:
            AliveGroup(self.comm, dead, -2).barrier()

    def _require_open(self) -> None:
        if not self._open:
            raise CollectiveIOError(f"collective file {self.path!r} is closed")

    def _resolve_access(
        self, buf: np.ndarray, memtype: Optional[Datatype], count: int
    ) -> tuple[FlatType, int]:
        buf = np.asarray(buf)
        if buf.dtype != np.uint8 or buf.ndim != 1:
            raise CollectiveIOError("buffers must be 1-D numpy uint8 arrays")
        if count < 0:
            raise CollectiveIOError(f"count must be non-negative, got {count}")
        if memtype is None:
            # Whole buffer, contiguous.
            if count != 1:
                raise CollectiveIOError("count requires an explicit memtype")
            memflat = FlatType([0], [buf.size], buf.size) if buf.size else FlatType([], [], 0)
            if buf.size % self.view.etype.size != 0:
                raise CollectiveIOError(
                    f"access of {buf.size} bytes is not a whole number of etypes "
                    f"({self.view.etype.size} bytes)"
                )
            return memflat, buf.size
        memflat = memtype.flatten()
        total = memflat.size * count
        if count > 0 and memflat.size > 0:
            needed = (count - 1) * memflat.extent + memflat.span_hi
            if needed > buf.size:
                raise CollectiveIOError(
                    f"buffer of {buf.size} bytes too small for {count} x "
                    f"{memtype.name} (needs {needed})"
                )
        if total > 0 and total % self.view.etype.size != 0:
            raise CollectiveIOError(
                f"access of {total} bytes is not a whole number of etypes "
                f"({self.view.etype.size} bytes)"
            )
        # Tile the memory type to cover the full access.
        if count > 1:
            memflat = memflat.replicate(count)
        return memflat, total

    def _env(
        self, ctx: RankContext, comm: Communicator, adio: AdioFile, view: FileView
    ) -> CollEnv:
        return CollEnv(
            ctx=ctx,
            comm=comm,
            cost=self.cost,
            hints=self.hints,
            eff=self.eff,
            adio=adio,
            view=view,
            metrics=self.metrics,
            pfr=self.pfr,
            plancache=self.plancache,
        )

    def _prologue(self, adio: AdioFile) -> None:
        if self.eff.realm_coherence:
            # Realms may have moved since the last call: drop cached
            # pages so reads cannot see bytes another aggregator owns now.
            adio.local.invalidate()

    def _epilogue_write(self, ctx: RankContext, adio: AdioFile) -> None:
        if self.eff.realm_coherence:
            # Coherence flushes hit the server too; retry them under the
            # same policy as the data path or a transient fault here
            # would kill an otherwise-survivable collective call.
            flushed = adio.retry.run(ctx, adio.local.sync)
            adio.local.invalidate()
            self.metrics.counter("coll.coherence.flush_pages").inc(flushed)

    # -- collective operations ---------------------------------------------------
    def _run_body(
        self,
        ctx: RankContext,
        comm: Communicator,
        adio: AdioFile,
        view: FileView,
        buf8: np.ndarray,
        memflat: FlatType,
        total: int,
        start: int,
        *,
        write: bool,
        resume_call: Optional[int],
    ) -> None:
        """The one collective body: prologue, round loop, epilogue.

        Blocking operations run it inline (``ctx``/``comm``/``adio``
        are the handle's own); nonblocking operations run it in an
        engine coroutine with the task's context, a communicator clone
        on the same interned queues, and the adio view charging the
        task's clock."""
        self._prologue(adio)
        env = self._env(ctx, comm, adio, view)
        op_name = "write_all" if write else "read_all"
        t_begin = ctx.now
        with ctx.trace(op_name):
            if resume_call is not None:
                # Rejoin replay (docs/crash_recovery.md): the Nth
                # collective call of the replayed program is resumed
                # against the Nth call's epoch records.
                from repro.core.resume import resume_write

                rewritten, skipped = resume_write(
                    env, buf8, memflat, total, start,
                    call_index=resume_call, rank=self.resume_rank,
                )
                self.resume_rewritten += rewritten
                self.resume_skipped += skipped
            else:
                method = IntegratedSieve if self.eff.method == "old" else Layered
                run_collective(env, method, buf8, memflat, total, start, write=write)
        self._call_seconds.record(ctx.now - t_begin)
        if write:
            self._epilogue_write(ctx, adio)

    def _isubmit(
        self,
        buf: np.ndarray,
        memtype: Optional[Datatype],
        count: int,
        *,
        write: bool,
        data_lo: Optional[int] = None,
        sync: bool,
    ) -> Request:
        """Shared entry of all collective operations.

        ``data_lo`` is the starting data-stream byte; ``None`` means
        the individual file pointer.  ``sync=True`` runs the body
        inline and returns an already-complete request (the blocking
        operations are thin wrappers over this path); ``sync=False``
        spawns the body as an engine coroutine and returns a pending
        :class:`~repro.core.request.Request`.

        Access resolution and pointer motion happen *at submit* in
        both cases (MPI nonblocking semantics: the buffer extent and
        offset are fixed when the operation starts), except that the
        inline path defers the pointer advance until the body
        succeeds, preserving the blocking surface's exact error
        behaviour."""
        self._require_open()
        memflat, total = self._resolve_access(buf, memtype, count)
        use_pointer = data_lo is None
        start = self._pointer * self.view.etype.size if use_pointer else data_lo
        buf8 = np.asarray(buf, dtype=np.uint8)
        view = self.view
        resume_call: Optional[int] = None
        if self.resume_rank is not None:
            if not write:
                raise CollectiveIOError(
                    "rejoin replay sessions support collective writes only"
                )
            resume_call = self._resume_calls
            self._resume_calls += 1
        op_name = ("iwrite_all" if write else "iread_all") if not sync else (
            "write_all" if write else "read_all"
        )
        if sync:
            # A blocking collective is ordered after everything already
            # in flight on this rank — same rule real MPI imposes on
            # mixing split and blocking collectives on one handle.
            self._drain_async()
            self._run_body(
                self.ctx, self.comm, self.adio, view, buf8, memflat, total,
                start, write=write, resume_call=resume_call,
            )
            if use_pointer:
                self._pointer += total // self.view.etype.size
            return Request.completed(op=op_name)
        # Nonblocking: the pointer advances now (deterministically, in
        # program order), the collective runs as a coroutine chained
        # after this rank's previous async operation.
        if use_pointer:
            self._pointer += total // self.view.etype.size
        prev = self._async_tail
        comm_rank = self.comm.rank

        def body(tctx: RankContext) -> None:
            if prev is not None:
                try:
                    tctx.join(prev)
                except Exception:  # noqa: BLE001 - that op reports at its wait()
                    pass
                # RankCrashed (a BaseException) falls through: once an
                # earlier operation crashed this rank fail-stop, no
                # later operation of its may run.
            with tctx.trace(op_name):
                comm = Communicator(
                    tctx,
                    self.cost,
                    _comm_id=self.comm.comm_id,
                    _rank=self.comm.rank,
                    _members=self.comm.members,
                )
                self._run_body(
                    tctx, comm, self.adio.rebound(tctx), view, buf8, memflat,
                    total, start, write=write, resume_call=resume_call,
                )

        lane = self.ctx._sim.lane_for(
            ("async", id(self.ctx.shared), comm_rank),
            f"rank {comm_rank} async I/O",
        )
        handle = self.ctx.spawn(
            body, label=f"{op_name}@r{comm_rank}", lane=lane
        )
        self._async_tail = handle
        request = Request(self.ctx, handle, op=op_name)
        self._requests = [r for r in self._requests if not r.done]
        self._requests.append(request)
        return request

    def _drain_async(self) -> None:
        """Settle every outstanding nonblocking operation.

        Deferred errors stay parked on their requests (the caller may
        still ``wait()``/``exception()`` them); a fail-stop
        :class:`~repro.errors.RankCrashed` propagates immediately."""
        for request in self._requests:
            if not request.done:
                try:
                    request._settle()
                except RankCrashed:
                    self._requests = [r for r in self._requests if not r.done]
                    raise
        self._requests = [r for r in self._requests if not r.done]
        self._async_tail = None

    def outstanding(self) -> List[Request]:
        """The still-pending nonblocking requests, oldest first."""
        return [r for r in self._requests if not r.done]

    def write_all(
        self, buf: np.ndarray, memtype: Optional[Datatype] = None, count: int = 1
    ) -> None:
        """Collective write at the individual file pointer
        (MPI_File_write_all); the pointer advances past the data."""
        self._isubmit(buf, memtype, count, write=True, sync=True).wait()

    def read_all(
        self, buf: np.ndarray, memtype: Optional[Datatype] = None, count: int = 1
    ) -> None:
        """Collective read at the individual file pointer
        (MPI_File_read_all); the pointer advances past the data."""
        self._isubmit(buf, memtype, count, write=False, sync=True).wait()

    def write_at_all(
        self,
        offset_etypes: int,
        buf: np.ndarray,
        memtype: Optional[Datatype] = None,
        count: int = 1,
    ) -> None:
        """Collective write at an explicit offset (MPI_File_write_at_all).

        ``offset_etypes`` counts etypes into the view's accessible data
        stream.  Any offset is allowed (including mid-filetype); the
        individual file pointer does not move, per MPI."""
        if offset_etypes < 0:
            raise CollectiveIOError(f"offset must be non-negative, got {offset_etypes}")
        self._isubmit(
            buf, memtype, count, write=True,
            data_lo=offset_etypes * self.view.etype.size, sync=True,
        ).wait()

    def read_at_all(
        self,
        offset_etypes: int,
        buf: np.ndarray,
        memtype: Optional[Datatype] = None,
        count: int = 1,
    ) -> None:
        """Collective read at an explicit offset (MPI_File_read_at_all)."""
        if offset_etypes < 0:
            raise CollectiveIOError(f"offset must be non-negative, got {offset_etypes}")
        self._isubmit(
            buf, memtype, count, write=False,
            data_lo=offset_etypes * self.view.etype.size, sync=True,
        ).wait()

    # -- nonblocking (split) collective operations -------------------------------
    def iwrite_all(
        self, buf: np.ndarray, memtype: Optional[Datatype] = None, count: int = 1
    ) -> Request:
        """Nonblocking collective write (MPI_File_iwrite_all analogue).

        The access is resolved and the individual file pointer advances
        *now*; the two-phase collective itself runs as an engine
        coroutine overlapping this rank's subsequent work.  Complete it
        with :meth:`~repro.core.request.Request.wait` — typed failures
        (``DeadlineExceeded``, ``RankCrashed``, storage errors) are
        re-raised there, identical to the blocking path.  The caller
        must not touch ``buf`` until the request completes."""
        return self._isubmit(buf, memtype, count, write=True, sync=False)

    def iread_all(
        self, buf: np.ndarray, memtype: Optional[Datatype] = None, count: int = 1
    ) -> Request:
        """Nonblocking collective read; ``buf`` fills by completion."""
        return self._isubmit(buf, memtype, count, write=False, sync=False)

    def iwrite_at_all(
        self,
        offset_etypes: int,
        buf: np.ndarray,
        memtype: Optional[Datatype] = None,
        count: int = 1,
    ) -> Request:
        """Nonblocking collective write at an explicit offset."""
        if offset_etypes < 0:
            raise CollectiveIOError(f"offset must be non-negative, got {offset_etypes}")
        return self._isubmit(
            buf, memtype, count, write=True,
            data_lo=offset_etypes * self.view.etype.size, sync=False,
        )

    def iread_at_all(
        self,
        offset_etypes: int,
        buf: np.ndarray,
        memtype: Optional[Datatype] = None,
        count: int = 1,
    ) -> Request:
        """Nonblocking collective read at an explicit offset."""
        if offset_etypes < 0:
            raise CollectiveIOError(f"offset must be non-negative, got {offset_etypes}")
        return self._isubmit(
            buf, memtype, count, write=False,
            data_lo=offset_etypes * self.view.etype.size, sync=False,
        )

    # -- independent I/O ---------------------------------------------------------
    def write_ind(self, buf: np.ndarray, memtype: Optional[Datatype] = None, count: int = 1) -> None:
        """Independent write through the view (MPI_File_write): no
        cooperation with other ranks, straight through the independent
        I/O layer with the hinted method (§5.1's reused code path)."""
        self._independent_op(buf, memtype, count, write=True)

    def read_ind(self, buf: np.ndarray, memtype: Optional[Datatype] = None, count: int = 1) -> None:
        """Independent read through the view (MPI_File_read)."""
        self._independent_op(buf, memtype, count, write=False)

    def _independent_op(
        self, buf: np.ndarray, memtype: Optional[Datatype], count: int, *, write: bool
    ) -> None:
        from repro.datatypes.packing import gather_segments, scatter_segments
        from repro.datatypes.segments import data_to_file_segments
        from repro.io.selection import choose_method

        self._require_open()
        self._drain_async()
        memflat, total = self._resolve_access(buf, memtype, count)
        if total == 0:
            return
        buf = np.asarray(buf, dtype=np.uint8)
        start = self._pointer * self.view.etype.size
        batch = self.view.cursor(start + total, start).all_segments()
        # Rebase data offsets so they index the packed data stream.
        batch = type(batch)(
            batch.file_offsets,
            batch.lengths,
            batch.data_offsets - start,
            batch.pairs_evaluated,
            batch.tiles_skipped,
        )
        self.ctx.charge(batch.pairs_evaluated * self.cost.cpu_per_flat_pair)
        method = choose_method(self.hints, self.view.flat.extent, batch)
        self.metrics.counter(f"coll.flush.{method}").inc()
        mem_batch = data_to_file_segments(memflat, 0, 0, total)
        if write:
            # Gather the user data into data order; the file batch's
            # data_offsets already index that stream.
            data = gather_segments(buf, mem_batch)
            self.ctx.charge(total * self.cost.cpu_per_byte_touch)
            self.adio.write_strided(batch, data, method)
        else:
            data = self.adio.read_strided(batch, method)
            self.ctx.charge(total * self.cost.cpu_per_byte_touch)
            scatter_segments(buf, mem_batch, data[:total])
        self._pointer += total // self.view.etype.size

    # -- resize ---------------------------------------------------------------------
    def set_size(self, size: int) -> None:
        """Collective resize (MPI_File_set_size analogue).

        Every rank flushes its cached dirty data first — bytes past the
        cut are discarded server-side, not written back — then rank 0
        performs the single server resize and a barrier publishes it."""
        self._require_open()
        if size < 0:
            raise CollectiveIOError(f"file size must be non-negative, got {size}")
        self._drain_async()
        self.adio.retry.run(self.ctx, self.local.sync)
        self._alive_barrier()
        # The resizing rank is the first *survivor* — rank 0 may be dead.
        dead = self._crash_dead()
        committer = next(r for r in range(self.comm.size) if r not in dead)
        if self.comm.rank == committer:
            self.adio.retry.run(
                self.ctx,
                lambda: self.fs.resize(
                    self.ctx, self.local.client.client_id, self.path, size
                ),
            )
        self._alive_barrier()

    # -- lifecycle ------------------------------------------------------------------
    def sync(self) -> None:
        """Collective flush of client caches to the server."""
        self._require_open()
        self._drain_async()
        self.adio.retry.run(self.ctx, self.local.sync)
        self._alive_barrier()

    def close(self) -> None:
        """Collective close: flush, invalidate, synchronize.

        A rank that died fail-stop mid-collective still unwinds through
        its ``finally`` blocks before the engine reaps it; its close is
        a pure local teardown — a corpse's dirty cache dies with it
        (nothing may become durable after the crash point), and it
        cannot join the survivors' barrier it is dead in."""
        if not self._open:
            return
        self._publish_retry_budget()
        # Outstanding nonblocking operations must finish before the
        # handle goes away; their deferred errors stay on the requests.
        # This runs *before* the crash-dead check: a rank whose own
        # coroutine crashed it fail-stop learns of its death here (the
        # drain re-raises RankCrashed) instead of limping on as a
        # zombie past its close.
        self._drain_async()
        if self.comm.rank in self._crash_dead():
            self._open = False
            return
        # close() flushes dirty pages, which is a server write; give it
        # the same transient-fault protection as the data path.
        self.adio.retry.run(self.ctx, self.local.close)
        self._open = False
        self._alive_barrier()

    def _publish_retry_budget(self) -> None:
        """Surface the cross-operation retry budget in the registry so
        ``Session.summary()`` can report per-rank headroom."""
        budget = self.adio.retry.budget
        if budget is None:
            return
        self.registry.gauge("retry.budget.used", self.ctx.rank).set(budget.used)
        self.registry.gauge("retry.budget.remaining", self.ctx.rank).set(
            budget.remaining
        )

    def get_info(self) -> dict:
        """The hints actually in use (MPI_File_get_info analogue): every
        known key with its value — explicit or default — overlaid with
        what the stand-downs taken at open put in its place
        (docs/compatibility.md)."""
        return {**{key: self.hints[key] for key in self.hints}, **self.eff.overrides}

    @property
    def size(self) -> int:
        return self.local.size

    def __enter__(self) -> "CollectiveFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
