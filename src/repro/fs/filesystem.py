"""The shared file-system server model.

One :class:`SimFileSystem` instance is shared by every rank (it lives
in the simulator's ``shared`` dict or is captured by the rank mains).
Under the engine's single-running-thread invariant it needs no locking.

Cost model of one server call (a batch of contiguous extents):

* the calling client pays ``io_call_overhead``;
* extent locks are acquired per batch span (see
  :class:`~repro.fs.locks.ExtentLockManager`): an RPC when the grant is
  not already held, a revocation penalty per granule taken from another
  client, plus — for *coherent* victim caches — the victim's dirty
  pages in the range are flushed and invalidated;
* each extent is split over the file's OSTs by the stripe map; every
  OST charges ``ost_op_latency`` per request fragment plus
  ``ost_byte_time`` per byte plus ``page_rmw_penalty`` per partially
  covered page (writes only), serialized on that OST's availability —
  which is how OST contention between aggregators arises;
* the call completes when the slowest OST involved finishes.

**One store path.**  ``server_write``, ``server_read`` and
``txn_commit`` pick a target — the file's open
:class:`~repro.fs.store.Journal` for a journaled call, else its plain
or replicated store — and hand it the whole batch in one call of the
batch protocol (:mod:`repro.fs.store`); policy stays here.  What keeps
that bit-identical to the per-extent calls it replaced:

* the storage gate (:meth:`SimFileSystem._gate`, run after the heal)
  always judges the file's store: a journaled write to a replicated
  file passes quorum and admission on the replicated demand, and is
  charged the stripe map's;
* a read verifies an extent's main-store pages before its journal
  pages, and an :class:`~repro.errors.IntegrityError` names the first
  bad page in extent order;
* bit flips land where the bytes landed (a journaled write's: the
  shadow store), after the sidecar refresh;
* a replicated read is charged what its replicas served, and its
  failovers are counted once the whole batch was served.

**Storage fault domain** (``docs/storage_faults.md``): when a fault
plan carries OST events (``ost_crash`` / ``ost_slow`` / ``ost_flap``),
every server call passes the gate before touching any store byte:
per-OST circuit breakers fast-fail calls against OSTs that keep
failing, down OSTs raise a typed retryable
:class:`~repro.errors.OSTUnavailable`, ``ost_slow`` brownouts multiply
the affected OST's service time, and — with a ``queue_limit`` armed —
batches whose queueing delay would exceed it are shed with
:class:`~repro.errors.OSTOverloaded` instead of ever being booked.
Files opened with a ``replication_factor`` hint swap their store for a
:class:`~repro.fs.store.ReplicatedStore`: writes commit on a majority
write-quorum of live replicas (missed replicas are healed by
background re-replication once their OST recovers), reads fail over to
surviving fresh replicas.  The fault-free path runs none of this —
costs and contents stay bit-identical to the seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

import math

from repro.config import CostModel, DEFAULT_COST_MODEL
from repro.errors import (
    FileSystemError,
    IntegrityError,
    LockDeadlock,
    OSTOverloaded,
    OSTUnavailable,
)
from repro.faults.plan import FAULTS_KEY
from repro.fs.locks import ExtentLockManager, LockCharge
from repro.fs.ostfault import BreakerPolicy, CircuitBreaker
from repro.fs.schedule import OSTScheduler, make_scheduler
from repro.liveness import LIVENESS_KEY, LOCK_LEASE
from repro.obs.metrics import MetricsRegistry, MetricsView
from repro.sim.engine import BLOCK_TIMEOUT
from repro.fs.runs import ByteRuns
from repro.fs.store import Journal, PageStore, ReplicatedStore, stripe_pieces
from repro.sim.engine import RankContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.cache import PageCache

__all__ = ["SimFileSystem"]


#: The server-traffic series a tenant's ``tenant.<name>.`` mirror repeats.
_MIRRORED = (
    "fs.server.reads",
    "fs.server.writes",
    "fs.bytes.read",
    "fs.bytes.written",
    "fs.rmw.pages",
    "lock.rpcs",
    "lock.revocations",
)

#: Every per-file series (key = path), interned when the file is created:
#: a file system hosting several files reports distinct ``fs.*`` /
#: ``lock.*`` / ``journal.*`` series per path, zero rows included.
_FILE_SERIES = _MIRRORED + (
    "lock.revoke.flush_pages",
    "journal.writes",
    "journal.commits",
    "journal.aborts",
    "journal.pages_committed",
    "journal.epochs",
)


class _File:
    __slots__ = ("store", "locks", "series", "txn", "epoch_log")

    def __init__(
        self,
        page_size: int,
        lock_granularity: int,
        path: str,
        registry: MetricsRegistry,
    ) -> None:
        self.store = PageStore(page_size)
        self.locks = ExtentLockManager(lock_granularity)
        #: series name -> this path's counter.
        self.series = {name: registry.counter(name, path) for name in _FILE_SERIES}
        #: The open shadow-write transaction, if any.
        self.txn: Optional[Journal] = None
        #: Committed per-epoch records (``docs/crash_recovery.md``):
        #: one entry per collective round whose bytes are durable, in
        #: commit order.  A rejoining rank replays this log to learn
        #: which of its rounds survived its crash.
        self.epoch_log: List[dict] = []


class SimFileSystem:
    """Striped object store shared by all simulated clients.

    ``registry`` is the metrics registry the per-file counters (and the
    client page caches) report into; by default each file system owns a
    private one, and :class:`~repro.obs.session.Session` passes its own
    so server-side series land next to the rest of the run's metrics."""

    def __init__(
        self,
        cost: CostModel = DEFAULT_COST_MODEL,
        lock_granularity: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        scheduler: "OSTScheduler | str | None" = None,
        *,
        storage_faults=None,
        queue_limit: Optional[float] = None,
        breaker: "BreakerPolicy | bool" = True,
    ) -> None:
        cost.validate()
        self.cost = cost
        self.lock_granularity = (
            lock_granularity if lock_granularity is not None else cost.page_size
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        self._files: Dict[str, _File] = {}
        #: Per-OST serving discipline ("fifo" reproduces the seed's
        #: single-queue model exactly; "fair"/"wfq" arbitrate tenants).
        self.scheduler = make_scheduler(scheduler)
        #: client_id -> list of caches to notify on revocation.
        self._caches: Dict[Hashable, List["PageCache"]] = {}
        #: client_id -> tenant name, for scheduling and attribution.
        self._tenant_of: Dict[Hashable, str] = {}
        #: tenant name -> QoS weight (the ``tenant_priority`` hint).
        self._tenant_weight: Dict[str, float] = {}
        #: tenant name -> lazily-built mirror counters / histograms.
        self._tenant_mirrors: Dict[Optional[str], Dict[str, object]] = {}
        #: File-system-level fault injector (multi-tenant runs: OST
        #: faults belong to the shared storage, not any one tenant's
        #: plan — per-tenant overlays mask the shared FAULTS_KEY).
        self.storage_faults = storage_faults
        #: Admission-control bound on one batch fragment's queueing
        #: delay (virtual seconds; ``None`` = queues grow unboundedly,
        #: the seed's behaviour).
        self.queue_limit = queue_limit
        #: Per-OST circuit-breaker policy (``True`` = defaults,
        #: ``False`` = breakers disabled — every retry probes the OST).
        if breaker is True:
            self.breaker_policy: Optional[BreakerPolicy] = BreakerPolicy()
        elif breaker:
            self.breaker_policy = breaker
        else:
            self.breaker_policy = None
        self._breakers: Dict[int, CircuitBreaker] = {}

    # -- OST health / breakers ----------------------------------------------
    def _fault_views(self, ctx: Optional[RankContext]):
        """The distinct installed injectors carrying OST events."""
        views = []
        for inj in (
            self.storage_faults,
            ctx.shared.get(FAULTS_KEY) if ctx is not None else None,
        ):
            if inj is not None and inj not in views and inj.has_ost_faults():
                views.append(inj)
        return views

    def _breaker(self, ost: int) -> Optional[CircuitBreaker]:
        if self.breaker_policy is None:
            return None
        br = self._breakers.get(ost)
        if br is None:
            br = self._breakers[ost] = CircuitBreaker(self.breaker_policy)
        return br

    def _set_ost_gauges(self, views, now: float) -> None:
        for ost in range(self.cost.num_osts):
            state = max(inj.ost_state(ost, now) for inj in views)
            self.registry.gauge("fs.ost.health", ost).set(state)
            br = self._breakers.get(ost)
            if br is not None:
                self.registry.gauge("fs.ost.breaker_state", ost).set(br.state)

    def _ost_is_down(self, views, ost: int, now: float) -> bool:
        return any(inj.ost_down(ost, now) for inj in views)

    def _check_ost(self, views, ost: int, now: float, client_id, path: str, site: str) -> None:
        """Breaker-gated health check for one OST; raises typed errors.

        Fast-fails on an open breaker *without* touching the OST;
        otherwise a down OST counts one wasted hit (the probe that the
        breaker exists to avoid), feeds the breaker, and raises."""
        br = self._breaker(ost)
        if br is not None and not br.allow(now):
            self.registry.counter("fs.ost.breaker_fastfail").inc()
            raise OSTUnavailable(site, client_id, path, ost=ost, reason="breaker-open")
        if self._ost_is_down(views, ost, now):
            self.registry.counter("fs.ost.down_hits").inc()
            views[0].note_ost_rejection()
            if br is not None:
                br.record_failure(now)
                self.registry.gauge("fs.ost.breaker_state", ost).set(br.state)
            raise OSTUnavailable(site, client_id, path, ost=ost, reason="down")
        if br is not None and br.state != 0:
            br.record_success()
            self.registry.gauge("fs.ost.breaker_state", ost).set(br.state)

    def _up_set(self, views, now: float) -> Set[int]:
        """Live OSTs for replica placement: up *and* breaker-admitted."""
        up: Set[int] = set()
        for ost in range(self.cost.num_osts):
            br = self._breaker(ost)
            if br is not None and not br.allow(now):
                continue
            if self._ost_is_down(views, ost, now):
                if br is not None:
                    br.record_failure(now)
                continue
            if br is not None and br.state != 0:
                br.record_success()
            up.add(ost)
        return up

    def _check_admission(self, views, demand, rmw_pages, now, client_id, path, site) -> None:
        """Reject the batch when any fragment's queueing delay would
        exceed :attr:`queue_limit` — before any scheduler booking."""
        if self.queue_limit is None:
            return
        tenant = self._tenant_of.get(client_id)
        weight = self._tenant_weight.get(tenant, 1.0)
        for ost, service in self._service(*demand, rmw_pages):
            delay = self.scheduler.queue_delay(ost, tenant, weight, now, service)
            if delay > self.queue_limit:
                self.registry.counter("fs.ost.overloads").inc()
                if views:
                    views[0].note_ost_rejection()
                raise OSTOverloaded(
                    site,
                    client_id,
                    path,
                    ost=ost,
                    backlog=delay,
                    limit=self.queue_limit,
                )

    def _gate(
        self,
        ctx: RankContext,
        client_id: Hashable,
        f: "_File",
        path: str,
        offs: np.ndarray,
        lens: np.ndarray,
        site: str,
        *,
        rmw: int = 0,
        read: bool = False,
        admit: bool = True,
    ):
        """The storage gate: health/breaker checks, then (replicated
        stores) the heal and the availability or quorum check, then
        admission — typed retryable errors before any store byte or
        scheduler booking is touched.  It judges ``f.store``, also for
        a journaled call (a commit: a write of the journal's pages,
        without admission).  Returns ``(demand, up, views)``: the
        per-OST ``(bytes, request-fragments)`` demand for :meth:`_serve`
        (``None``: the stripe map's, or a replicated read's, which its
        servers report), the live set of a replicated store (``None``
        for a plain one).  The fault-free unreplicated path returns at
        once with no state touched."""
        views = self._fault_views(ctx)
        store = f.store
        plain = store.factor == 1
        if not views and not self._breakers and self.queue_limit is None and plain:
            return None, None, views
        now = ctx.now
        if views:
            self._set_ost_gauges(views, now)
        if plain:
            up = None
            demand = self._split_over_osts(offs, lens)
            if views or self._breakers:
                for ost in np.flatnonzero(demand[1]).tolist():
                    self._check_ost(views, ost, now, client_id, path, site)
        else:
            if views or self._breakers:
                up = self._up_set(views, now)
            else:
                up = set(range(self.cost.num_osts))
            self._heal(store, up)
            demand, short = store.plan(offs, lens, up, read=read)
            if short is not None:
                missing = next((x for x in short if x not in up), short[0])
                if read:
                    self.registry.counter("fs.ost.down_hits").inc()
                    if views:
                        views[0].note_ost_rejection()
                    raise OSTUnavailable(site, client_id, path, ost=missing, reason="down")
                self.registry.counter("fs.ost.quorum_failures").inc()
                if views:
                    views[0].note_ost_quorum_failure()
                raise OSTUnavailable(site, client_id, path, ost=missing, reason="quorum")
            if read:
                return None, up, views
        if admit:
            self._check_admission(views, demand, rmw, now, client_id, path, site)
        return demand, up, views

    # -- namespace ---------------------------------------------------------
    def ensure_file(self, path: str) -> None:
        if path not in self._files:
            self._files[path] = _File(
                self.cost.page_size, self.lock_granularity, path, self.registry
            )

    def exists(self, path: str) -> bool:
        return path in self._files

    def _file(self, path: str) -> _File:
        f = self._files.get(path)
        if f is None:
            raise FileSystemError(f"no such file: {path!r}")
        return f

    def file_size(self, path: str) -> int:
        return self._file(path).store.size

    def metrics(self, path: str) -> MetricsView:
        """The registry view keyed by ``path``: the file's ``fs.*`` /
        ``lock.*`` / ``journal.*`` series."""
        return self.registry.view(path)

    def paths(self) -> List[str]:
        """Every file in the namespace (fsck's iteration order)."""
        return sorted(self._files)

    def page_store(self, path: str) -> "PageStore | ReplicatedStore":
        """Direct access to a file's page store (fsck, tests)."""
        return self._file(path).store

    def enable_integrity(self, path: str) -> None:
        """Arm the CRC32 page sidecar for ``path`` (idempotent)."""
        self.ensure_file(path)
        self._file(path).store.enable_integrity()

    def enable_replication(self, path: str, factor: int) -> None:
        """Swap ``path``'s store for a :class:`ReplicatedStore` with
        ``factor`` replicas per stripe (the ``replication_factor``
        hint).  Idempotent for the same factor; existing contents are
        migrated, and an open journal publishes into the new store.
        ``factor=1`` is a no-op (the plain store *is* 1-way
        replication)."""
        if factor <= 1:
            return
        self.ensure_file(path)
        f = self._file(path)
        store = f.store
        if isinstance(store, ReplicatedStore):
            if store.factor != factor:
                raise FileSystemError(
                    f"{path!r} already replicated with factor {store.factor}, "
                    f"cannot re-open with {factor}"
                )
            return
        cost = self.cost
        repl = ReplicatedStore(
            cost.page_size,
            cost.stripe_size,
            cost.num_osts,
            factor,
            integrity=store.integrity,
        )
        ps = cost.page_size
        for idx in store.page_indices():
            repl.write(idx * ps, store.read(idx * ps, ps, verify=False))
        repl.size = store.size
        f.store = repl
        if f.txn is not None:
            f.txn.main = repl

    def replication_of(self, path: str) -> int:
        """The file's replication factor (1 = unreplicated)."""
        return self._file(path).store.factor

    def rereplicate(self, path: str, *, now: float = 0.0, faults=None) -> int:
        """Admin re-replication pass: rebuild stale replicas on OSTs
        that are up at ``now`` (``repro fsck``'s healing hook; the same
        healing also runs opportunistically before every server call on
        a replicated file).  Returns bytes healed."""
        f = self._file(path)
        if f.store.factor == 1:
            return 0
        views = [
            inj
            for inj in (faults, self.storage_faults)
            if inj is not None and inj.has_ost_faults()
        ]
        up = {
            ost
            for ost in range(self.cost.num_osts)
            if not self._ost_is_down(views, ost, now)
        }
        return self._heal(f.store, up)

    def _heal(self, store: ReplicatedStore, up: Set[int]) -> int:
        """Background re-replication, bytes healed (no client cost: the
        rebuild daemon is not on the caller's critical path)."""
        healed = store.rereplicate(up) if store.stale_bytes() else 0
        if healed:
            self.registry.counter("fs.ost.rereplicated_bytes").inc(healed)
        return healed

    def raw_bytes(self, path: str, offset: int, nbytes: int) -> np.ndarray:
        """Server-side contents, for verification only (no cost).

        Deliberately unverified: oracles compare these bytes against
        expectations even when pages are known-corrupt."""
        return self._file(path).store.read(offset, nbytes, verify=False)

    def raw_write(self, path: str, offset: int, data: np.ndarray) -> None:
        """Install contents directly, for test setup only (no cost)."""
        self.ensure_file(path)
        self._file(path).store.write(offset, data)

    def register_cache(self, client_id: Hashable, cache: "PageCache") -> None:
        self._caches.setdefault(client_id, []).append(cache)

    # -- tenancy -----------------------------------------------------------
    def register_tenant(
        self, client_id: Hashable, tenant: str, weight: float = 1.0
    ) -> None:
        """Attribute ``client_id``'s server traffic to ``tenant``.

        ``weight`` feeds the weighted OST schedulers (the
        ``tenant_priority`` hint); registration also arms the per-tenant
        ``tenant.<name>.fs.*`` / ``tenant.<name>.lock.*`` mirror
        counters, whose per-tenant totals sum to the shared globals
        (the conservation invariant the tenancy tests check)."""
        if weight <= 0:
            raise FileSystemError(f"tenant weight must be positive, got {weight}")
        self._tenant_of[client_id] = str(tenant)
        self._tenant_weight[str(tenant)] = float(weight)

    def _tenant_mirror(self, tenant: Optional[str]) -> Dict[str, object]:
        """Lazily-built per-tenant instruments (mirrors + queue waits)."""
        m = self._tenant_mirrors.get(tenant)
        if m is None:
            m = {
                "queue_wait": self.registry.histogram(
                    "fs.ost.queue_wait_seconds", tenant
                )
            }
            if tenant is not None:
                view = self.registry.view(prefix=f"tenant.{tenant}.")
                for name in _MIRRORED:
                    m[name] = view.counter(name)
            self._tenant_mirrors[tenant] = m
        return m

    def _count(self, f: _File, client_id: Hashable, name: str, n: int) -> None:
        """Add ``n`` to the file's ``name`` series and to the client's
        tenant mirror of it (untenanted clients have none)."""
        f.series[name].value += n
        tenant = self._tenant_of.get(client_id)
        if tenant is not None and n:
            self._tenant_mirror(tenant)[name].inc(n)

    # -- fault hooks ------------------------------------------------------
    @staticmethod
    def _maybe_io_fault(ctx: RankContext, client_id: Hashable, path: str, site: str) -> None:
        """Raise an injected :class:`~repro.errors.TransientIOError`
        when a fault plan says this server call fails.  The client has
        already paid the call overhead — a failed call costs real time,
        which is what makes retry storms expensive."""
        faults = ctx.shared.get(FAULTS_KEY)
        if faults is not None:
            faults.io_fault(client_id, path, site, ctx.now)

    # -- cost helpers ---------------------------------------------------------
    def _charge_locks(
        self,
        ctx: RankContext,
        f: _File,
        client_id: Hashable,
        offsets: np.ndarray,
        lengths: np.ndarray,
        path: str,
    ) -> None:
        """Acquire extent locks for a batch, one acquisition per merged
        contiguous run (span-locking the whole batch would over-lock
        wildly for sparse batches, e.g. a cyclic realm's flush)."""
        g = f.locks.granularity
        if offsets.size > 1 and not (offsets[1:] >= offsets[:-1]).all():
            order = np.argsort(offsets, kind="stable")
            offsets = offsets[order]
            lengths = lengths[order]
        faults = ctx.shared.get(FAULTS_KEY)
        runs: list[tuple[int, int]] = []
        run_lo = run_hi = None
        for o, l in zip(offsets.tolist(), lengths.tolist()):
            lo, hi = o, o + l
            if run_lo is None:
                run_lo, run_hi = lo, hi
            elif lo <= run_hi + g - 1:  # same or adjacent granule: merge
                run_hi = max(run_hi, hi)
            else:
                runs.append((run_lo, run_hi))
                run_lo, run_hi = lo, hi
        if run_lo is not None:
            runs.append((run_lo, run_hi))
        charges: list[LockCharge] = []
        for lo, hi in runs:
            # A conflicting *pinned* granule (lock_hold fault: the
            # holder's callback thread is wedged) cannot be revoked —
            # wait for recovery, lease reclaim, or deadlock breaking.
            if f.locks.pinned:
                self._await_pins(ctx, f, client_id, lo, hi, path)
            charges.append(
                f.locks.acquire(client_id, lo, hi, faults=faults, now=ctx.now)
            )
        if faults is not None and runs and faults.enabled("lock_hold"):
            hold = faults.lock_hold_seconds(client_id, ctx.now)
            if hold > 0.0:
                for lo, hi in runs:
                    f.locks.pin_range(client_id, lo, hi, ctx.now, ctx.now + hold)
        rpcs = sum(c.rpcs for c in charges)
        revoked = sum(c.revoked_granules for c in charges)
        self._count(f, client_id, "lock.rpcs", rpcs)
        self._count(f, client_id, "lock.revocations", revoked)
        ctx.charge(rpcs * self.cost.lock_rpc + revoked * self.cost.lock_revoke)
        # Coherent victims must flush and drop their pages in the range;
        # the requester waits for it, so the requester's clock pays.
        for charge in charges:
            for victim, r_lo, r_hi in charge.revoked_ranges:
                for cache in self._caches.get(victim, []):
                    if cache.path == path and cache.coherent:
                        flushed = cache.flush_and_invalidate_range(ctx, r_lo, r_hi)
                        f.series["lock.revoke.flush_pages"].value += flushed

    def _await_pins(
        self,
        ctx: RankContext,
        f: _File,
        client_id: Hashable,
        lo: int,
        hi: int,
        path: str,
    ) -> None:
        """Block (virtual time) until no conflicting pin covers [lo, hi).

        Three exits per conflicting pin: the holder releases early (we
        wake at its release time), the pin expires or the liveness
        lease reclaims it (we wake at that instant and clear it), or a
        waits-for cycle is found — we are the victim, drop our own pins
        so the rest of the cycle can progress, and raise a typed,
        retryable :class:`~repro.errors.LockDeadlock`."""
        locks = f.locks
        faults = ctx.shared.get(FAULTS_KEY)
        liv = ctx.shared.get(LIVENESS_KEY)
        lease = LOCK_LEASE if liv is not None else math.inf
        while True:
            pin = locks.blocking_pin(client_id, lo, hi)
            if pin is None:
                locks.clear_wait(client_id)
                return
            holder, t_pinned, expires = pin
            locks.note_wait(client_id, holder)
            cycle = locks.find_cycle(client_id)
            if cycle is not None:
                locks.release_pins(client_id, ctx.now)
                locks.clear_wait(client_id)
                if faults is not None:
                    faults.note_lock_deadlock()
                raise LockDeadlock(client_id, cycle, path)
            reclaim_at = min(expires, t_pinned + lease)
            woke = ctx.block(
                lambda: (
                    None
                    if locks.blocking_pin(client_id, lo, hi) is not None
                    else locks.last_pin_release
                ),
                reason=f"lock-pin wait [{lo}, {hi}) on {path!r}",
                timeout_at=reclaim_at,
                on=locks.pins_changed,
            )
            if woke is BLOCK_TIMEOUT:
                ctx.charge_to(reclaim_at)
                reclaimed = locks.reclaim_pins(lo, hi, ctx.now, lease)
                if reclaimed and faults is not None:
                    faults.note_lock_reclaim(reclaimed)
            else:
                # Holder unlocked early: our wait ends at its release.
                ctx.charge_to(float(woke))

    def _split_over_osts(
        self, offsets: np.ndarray, lengths: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(bytes_per_ost, request_fragments_per_ost) for a batch.

        A fragment is an extent cut at the stripe edges inside it; an
        extent that crosses none is one fragment, and a batch with no
        such crossing is counted as it stands.  (Per-OST byte sums go
        through float64, exact below 2**53 bytes.)"""
        cost = self.cost
        offs = np.asarray(offsets, dtype=np.int64)
        lens = np.asarray(lengths, dtype=np.int64)
        if not lens.all():
            offs, lens = offs[lens > 0], lens[lens > 0]
        _, lens, stripes, _ = stripe_pieces(offs, lens, cost.stripe_size)
        ost = stripes % cost.num_osts
        return (
            np.bincount(ost, weights=lens, minlength=cost.num_osts).astype(np.int64),
            np.bincount(ost, minlength=cost.num_osts),
        )

    @staticmethod
    def _partial_pages(offsets: np.ndarray, lengths: np.ndarray, page: int) -> int:
        """Pages touched but not fully covered, per extent (RMW count)."""
        if offsets.size == 0:
            return 0
        a = offsets.astype(np.int64)
        b = a + lengths.astype(np.int64)
        first_partial = (a % page) != 0
        last_partial = (b % page) != 0
        partial = first_partial.astype(np.int64) + last_partial.astype(np.int64)
        same_page = (a // page) == ((b - 1) // page)
        partial[same_page] = np.minimum(partial[same_page], 1)
        return int(partial.sum())

    def _service(
        self, bytes_per: np.ndarray, reqs_per: np.ndarray, rmw_pages: int
    ) -> List[Tuple[int, float]]:
        """(OST, service seconds) for every OST a batch's fragments
        reach, in OST order: per-fragment latency plus per-byte time,
        plus the batch's RMW penalty spread over the OSTs in proportion
        to their fragments."""
        cost = self.cost
        reqs, nbytes = reqs_per.tolist(), bytes_per.tolist()
        total_reqs = sum(reqs)
        return [
            (
                ost,
                reqs[ost] * cost.ost_op_latency
                + nbytes[ost] * cost.ost_byte_time
                + rmw_pages * (reqs[ost] / total_reqs) * cost.page_rmw_penalty,
            )
            for ost in range(len(reqs))
            if reqs[ost]
        ]

    def _serve(
        self,
        ctx: RankContext,
        client_id: Hashable,
        offsets: np.ndarray,
        lengths: np.ndarray,
        rmw_pages: int,
        *,
        demand: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        views=None,
    ) -> None:
        """Charge OST service for a batch, honoring per-OST queues.

        The queueing discipline itself lives in :attr:`scheduler`
        (FIFO by default; fair-share/weighted lanes for multi-tenant
        runs) — this method computes service demands, books them, and
        records each fragment's queueing delay against the client's
        tenant.  ``demand`` overrides the stripe-map split (replicated
        stores: every live replica does the write work, one replica the
        read work); ``views`` carries the OST-faulted injectors whose
        ``ost_slow`` brownouts inflate the affected OSTs' service."""
        faults = ctx.shared.get(FAULTS_KEY)
        if views is None:
            views = self._fault_views(ctx)
        if demand is not None:
            bytes_per, reqs_per = demand
        else:
            bytes_per, reqs_per = self._split_over_osts(offsets, lengths)
        arrive = ctx.now
        finish = arrive
        tenant = self._tenant_of.get(client_id)
        weight = self._tenant_weight.get(tenant, 1.0)
        wait_hist = self._tenant_mirror(tenant)["queue_wait"]
        for ost, service in self._service(bytes_per, reqs_per, rmw_pages):
            if faults is not None:
                service += faults.disk_penalty(ost, arrive, service)
            if views:
                factor = 1.0
                for inj in views:
                    factor *= inj.ost_service_factor(ost, arrive)
                if factor > 1.0:
                    extra = service * (factor - 1.0)
                    service += extra
                    views[0].note_ost_slow(extra)
            done = self.scheduler.request(ost, tenant, weight, arrive, service)
            wait_hist.record(max(0.0, done - arrive - service))
            finish = max(finish, done)
        ctx.charge_to(finish)
        ctx.yield_now()

    @staticmethod
    def _as_batch(
        offsets: Iterable[int] | np.ndarray, lengths: Iterable[int] | np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        offs = np.asarray(offsets, dtype=np.int64).ravel()
        lens = np.asarray(lengths, dtype=np.int64).ravel()
        if offs.shape != lens.shape:
            raise FileSystemError("offsets and lengths must have the same shape")
        if offs.size and (offs < 0).any() or (lens < 0).any():
            raise FileSystemError("offsets and lengths must be non-negative")
        keep = lens > 0
        if not keep.all():
            offs, lens = offs[keep], lens[keep]
        return offs, lens

    def acquire_extents(
        self,
        ctx: RankContext,
        client_id: Hashable,
        path: str,
        offsets: Iterable[int] | np.ndarray,
        lengths: Iterable[int] | np.ndarray,
    ) -> None:
        """Take the extent locks for a byte range without moving data.

        Coherent client caches call this before dirtying bytes: holding
        the lock while caching dirty data is what lets a later conflicting
        access find (and flush) that data via revocation — without it, a
        write-around cache would hide bytes from other clients.

        Acquisition verifies and retries: revoking a victim's dirty
        pages yields the processor, during which another client may
        steal the very granules being acquired.  The caller must
        actually hold them when this returns (its next step is dirtying
        bytes under their protection)."""
        f = self._file(path)
        offs, lens = self._as_batch(offsets, lengths)
        if offs.size == 0:
            return
        lo_all = offs.min()
        hi_all = int((offs + lens).max())
        with ctx.trace("fs:lock", path=path):
            for _ in range(64):
                self._charge_locks(ctx, f, client_id, offs, lens, path)
                held = all(
                    f.locks.holds(client_id, int(o), int(o + l))
                    for o, l in zip(offs.tolist(), lens.tolist())
                )
                if held:
                    return
        raise FileSystemError(
            f"extent lock livelock on {path!r} [{lo_all}, {hi_all}) for client {client_id}"
        )

    # -- server entry points -----------------------------------------------------
    def server_write(
        self,
        ctx: RankContext,
        client_id: Hashable,
        path: str,
        offsets: Iterable[int] | np.ndarray,
        lengths: Iterable[int] | np.ndarray,
        data: np.ndarray,
        *,
        acquire_locks: bool = True,
        journaled: bool = False,
    ) -> None:
        """One write call carrying a batch of contiguous extents.

        ``data`` holds the extents' bytes concatenated in batch order.
        With ``journaled=True`` the bytes land in the file's open shadow
        transaction instead of the main store (same locks, same costs,
        same fault exposure); they become visible only at
        :meth:`txn_commit`.
        """
        f = self._file(path)
        offs, lens = self._as_batch(offsets, lengths)
        data = np.asarray(data, dtype=np.uint8)
        total = int(lens.sum())
        if data.size != total:
            raise FileSystemError(
                f"server_write: data has {data.size} bytes, extents total {total}"
            )
        ctx.charge(self.cost.io_call_overhead)
        if offs.size == 0:
            return
        # Transient faults fire before the store is touched, so a
        # failed call leaves no partial contents and a retry is safe.
        self._maybe_io_fault(ctx, client_id, path, "server_write")
        if acquire_locks:
            self._charge_locks(ctx, f, client_id, offs, lens, path)
        rmw = self._partial_pages(offs, lens, self.cost.page_size)
        # Typed health/quorum/admission failures fire here, before any
        # byte mutates — a retried call starts from an untouched store.
        demand, up, views = self._gate(
            ctx, client_id, f, path, offs, lens, "server_write", rmw=rmw
        )
        self._count(f, client_id, "fs.rmw.pages", rmw)
        self._count(f, client_id, "fs.server.writes", 1)
        self._count(f, client_id, "fs.bytes.written", total)
        target = f.store
        if journaled:
            target = f.txn
            if target is None:
                raise FileSystemError(
                    f"journaled write on {path!r} without an open transaction"
                )
            f.series["journal.writes"].value += 1
            # The shadow store is plain: its bytes are charged by the
            # stripe map, whatever demand the gate judged f.store by.
            demand = None
        self._kept(ctx, target.write_extents(offs, lens, data, up), path)
        # Silent-corruption injection: bits flip in whichever store the
        # bytes landed in, after the checksum sidecar was updated.
        faults = ctx.shared.get(FAULTS_KEY)
        if faults is not None and faults.enabled("bit_flip_page"):
            faults.corrupt_stored(
                target, self._touched_pages(offs, lens), client_id, ctx.now
            )
        self._serve(ctx, client_id, offs, lens, rmw, demand=demand, views=views)

    def _touched_pages(self, offs: np.ndarray, lens: np.ndarray) -> List[int]:
        """Sorted page indices covered by a batch (corruption targets)."""
        runs = ByteRuns.of_blocks(zip(offs.tolist(), (offs + lens).tolist()), self.cost.page_size)
        return [page for first, stop in runs for page in range(first, stop)]

    def server_read(
        self,
        ctx: RankContext,
        client_id: Hashable,
        path: str,
        offsets: Iterable[int] | np.ndarray,
        lengths: Iterable[int] | np.ndarray,
        *,
        acquire_locks: bool = True,
        journaled: bool = False,
    ) -> np.ndarray:
        """One read call for a batch of extents; returns concatenated bytes.

        With ``journaled=True`` and an open transaction, bytes the
        journal owns overlay the main store (read-your-writes inside
        the transaction — data sieving's pre-reads need it)."""
        f = self._file(path)
        offs, lens = self._as_batch(offsets, lengths)
        ctx.charge(self.cost.io_call_overhead)
        total = int(lens.sum())
        out = np.empty(total, dtype=np.uint8)
        if offs.size == 0:
            return out
        self._maybe_io_fault(ctx, client_id, path, "server_read")
        if acquire_locks:
            self._charge_locks(ctx, f, client_id, offs, lens, path)
        demand, up, views = self._gate(
            ctx, client_id, f, path, offs, lens, "server_read", read=True
        )
        self._count(f, client_id, "fs.server.reads", 1)
        self._count(f, client_id, "fs.bytes.read", total)
        target = f.txn if journaled and f.txn is not None else f.store
        try:
            served, failovers = target.read_extents(offs, lens, out, up)
        except IntegrityError as exc:
            raise self._detected(ctx, exc, path) from exc
        # Failovers count once the whole batch was served.
        if failovers:
            self.registry.counter("fs.ost.failovers").inc(failovers)
            if views:
                for _ in range(failovers):
                    views[0].note_ost_failover()
        if served is not None:
            # Replicated: the demand is what the replicas actually served.
            demand = served
            self._check_admission(views, demand, 0, ctx.now, client_id, path, "server_read")
        self._serve(ctx, client_id, offs, lens, 0, demand=demand, views=views)
        return out

    @staticmethod
    def _detected(ctx: RankContext, exc: IntegrityError, path: str) -> IntegrityError:
        """Count a detected page corruption; the error, naming ``path``."""
        faults = ctx.shared.get(FAULTS_KEY)
        if faults is not None:
            faults.note_page_corruption_detected()
        return IntegrityError(exc.site, exc.page_index, path)

    @staticmethod
    def _kept(ctx: RankContext, pages: List[int], path: str) -> None:
        """Count each corrupt page a write kept the old sidecar of (the
        store's ``write_extents``) as a detection, named by a zero-length
        ``fs:kept_sidecar`` span on ``path``; its next read raises."""
        faults = ctx.shared.get(FAULTS_KEY)
        for page in pages:
            if faults is not None:
                faults.note_page_corruption_detected()
            with ctx.trace("fs:kept_sidecar", path=path, page=page):
                pass

    # -- epoch commit records (resumable collectives) -----------------------
    def journal_record_epoch(
        self,
        path: str,
        *,
        call_index: int,
        epoch: int,
        participants: Iterable[int],
        intervals: Iterable[Tuple[int, int]],
        journaled: bool = False,
    ) -> None:
        """Record one completed collective round (an *epoch*) for ``path``.

        ``participants`` are the world ranks whose data entered this
        round's exchange (a rank that crashed before the round is not a
        participant — its bytes for the round never reached an
        aggregator).  ``intervals`` are the file byte ranges the round's
        flush covered, union over all aggregator windows.

        Un-journaled collectives append straight to the durable epoch
        log: the round's bytes hit the main store before the record is
        cut, so the record never claims more than the store holds.
        With ``journaled=True`` the record is staged inside the open
        shadow transaction and becomes durable only when the
        transaction commits — uncommitted journal bytes and their epoch
        records vanish together."""
        f = self._file(path)
        record = {
            "call_index": int(call_index),
            "epoch": int(epoch),
            "participants": tuple(sorted(int(r) for r in participants)),
            "intervals": tuple(
                (int(lo), int(hi)) for lo, hi in intervals if int(hi) > int(lo)
            ),
        }
        if journaled and f.txn is not None:
            f.txn.epochs.append(record)
        else:
            self._publish_epoch(f, record)

    def _publish_epoch(self, f: _File, record: dict) -> None:
        rec = dict(record)
        rec["seq"] = len(f.epoch_log)
        f.epoch_log.append(rec)
        f.series["journal.epochs"].value += 1

    def journal_replay(self, path: str) -> List[dict]:
        """The committed epoch records for ``path``, in commit order.

        This is crash recovery's first step: a rejoining rank scans the
        replayed records for the rounds it participated in, intersects
        their intervals with its own access, and re-writes only what no
        committed epoch covers (:func:`repro.core.resume.resume_write`).
        Returns copies — the log itself is append-only."""
        return [dict(r) for r in self._file(path).epoch_log]

    # -- shadow-write transactions (the journal) -----------------------------
    def txn_begin(self, path: str, txid: int) -> None:
        """Open (or join) shadow transaction ``txid`` on ``path``.

        Collective callers all pass the same txid, so the first one
        creates the journal and the rest join it.  A *different* txid
        found open means the previous transaction never committed — a
        crashed collective call — and is discarded, which is exactly
        the crash-recovery contract: uncommitted journal bytes never
        reach the file."""
        f = self._file(path)
        if f.txn is not None and f.txn.txid != txid:
            self.txn_abort(path)
        if f.txn is None:
            f.txn = Journal(txid, f.store)

    def txn_active(self, path: str) -> bool:
        return self._file(path).txn is not None

    def txn_abort(self, path: str) -> None:
        """Discard the open transaction (its bytes were never visible)."""
        f = self._file(path)
        if f.txn is not None:
            f.txn = None
            f.series["journal.aborts"].value += 1

    def txn_commit(self, ctx: RankContext, client_id: Hashable, path: str) -> int:
        """Atomically publish the open transaction into the main store;
        returns the number of pages published.

        The injected-fault point, the storage gate and the verification
        of every shadow run (:meth:`Journal.commit`) all fire before the
        first byte is applied, in one batch with no yield point: a
        retried commit re-applies from an untouched journal, a crash
        leaves the pre-transaction image, and a corrupt journal raises
        a typed :class:`~repro.errors.IntegrityError` with the journal
        intact instead of being laundered into the file."""
        f = self._file(path)
        ctx.charge(self.cost.io_call_overhead)
        txn = f.txn
        if txn is None:
            return 0
        with ctx.trace("fs:journal_commit", path=path):
            self._maybe_io_fault(ctx, client_id, path, "txn_commit")
            ps = self.cost.page_size
            page_runs = txn.pages()
            first, stop = page_runs.arrays()
            _, up, _ = self._gate(
                ctx, client_id, f, path, first * ps, (stop - first) * ps, "txn_commit", admit=False
            )
            pages = page_runs.total
            ctx.charge(pages * self.cost.journal_commit_page)
            try:
                kept = txn.commit(up)
            except IntegrityError as exc:
                raise self._detected(ctx, exc, path) from exc
            self._kept(ctx, kept, path)
            f.txn = None
            f.series["journal.commits"].value += 1
            f.series["journal.pages_committed"].value += pages
            # Staged epoch records become durable with their bytes.
            for rec in txn.epochs:
                self._publish_epoch(f, rec)
        # Cached pre-commit copies of the published pages are stale in
        # every client; drop clean copies (dirty bytes are newer than
        # the commit and must survive to their own flush).
        for caches in self._caches.values():
            for cache in caches:
                if cache.path == path and cache.caching:
                    for lo, hi in page_runs:
                        cache.invalidate_range(lo * ps, hi * ps, keep_dirty=True)
        ctx.yield_now()
        return pages

    # -- resize --------------------------------------------------------------
    def resize(self, ctx: RankContext, client_id: Hashable, path: str, size: int) -> None:
        """Set the file's logical size (MPI_File_set_size's server op).

        Shrinking trims store pages and drops every client's cached
        pages from the truncation point on — callers flush dirty data
        first (the collective ``set_size`` does), because cached bytes
        past the cut are discarded, not written back."""
        f = self._file(path)
        ctx.charge(self.cost.io_call_overhead)
        self._maybe_io_fault(ctx, client_id, path, "server_resize")
        old = f.store.size
        f.store.truncate(size)
        if size < old:
            ps = self.cost.page_size
            cut = (size // ps) * ps
            for caches in self._caches.values():
                for cache in caches:
                    if cache.path == path:
                        cache.invalidate_range(cut, max(old, cut + ps))
