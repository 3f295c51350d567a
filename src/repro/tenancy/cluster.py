"""Multi-tenant admission: N concurrent jobs on one shared file system.

The single-job :class:`~repro.obs.session.Session` leaves the OSTs and
lock manager idle except for the workload under test — exactly the gap
EXPERIMENTS.md records against the paper's production-Lustre numbers.
A :class:`Cluster` closes it: one shared
:class:`~repro.fs.filesystem.SimFileSystem` (hence one set of OST
queues, one page store per path, one extent lock table) admits several
*tenant* jobs into **one** :class:`~repro.sim.engine.Simulator`, so
their collectives genuinely interleave in virtual time.

Isolation is by construction, not convention:

* each tenant's ranks get a :class:`~repro.sim.engine.ScopedContext`
  whose ``shared`` dict is a :class:`_TenantShared` overlay — reads
  fall through to the cluster-wide dict, writes land per-tenant — so
  communicator queues, fault injectors, liveness state, and the
  metrics registry resolve per job while the hardware stays shared;
* metrics write through a ``tenant.<name>.`` prefix view of the one
  cluster registry (:class:`~repro.obs.metrics.PrefixRegistry`), so a
  tenant's slice can be folded out and compared against its solo run;
* file-system clients identify as ``(tenant, local_rank)`` composite
  ids, so two tenants' rank 0 never alias on the lock table, the cache
  revocation map, or the waits-for deadlock graph;
* fault plans are per tenant: each gets its own
  :class:`~repro.faults.FaultInjector` (addressing the tenant's *local*
  ranks) in its overlay, and the engine's global straggler hook is a
  :class:`_ClusterFaults` composite that routes a world rank to the
  owning tenant's injector.

Scheduling contention is the shared file system's job — see
:mod:`repro.fs.schedule` for the ``fifo`` / ``fair`` / ``wfq`` OST
policies and the ``tenant_priority`` hint that feeds ``wfq`` weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, MutableMapping, Optional, Tuple, Union

from repro.config import CostModel, DEFAULT_COST_MODEL
from repro.errors import SimulationError
from repro.faults.plan import FAULTS_KEY
from repro.obs.metrics import METRICS_KEY, MetricsRegistry

__all__ = ["TenantSpec", "TenantResult", "Cluster"]


class _TenantShared(MutableMapping):
    """Copy-on-write overlay over the simulator's ``shared`` dict.

    Reads fall through to the base (the cluster's shared hardware
    models); writes — including ``setdefault`` misses, which is how
    the communicator, liveness, and integrity layers intern their
    state — land in the tenant-local layer.  One overlay per tenant,
    shared by all of that tenant's ranks."""

    __slots__ = ("_base", "_local")

    def __init__(self, base: MutableMapping) -> None:
        self._base = base
        self._local: Dict[Any, Any] = {}

    def __getitem__(self, key: Any) -> Any:
        if key in self._local:
            return self._local[key]
        return self._base[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        self._local[key] = value

    def __delitem__(self, key: Any) -> None:
        del self._local[key]

    def __iter__(self) -> Iterator[Any]:
        seen = set(self._local)
        yield from self._local
        for key in self._base:
            if key not in seen:
                yield key

    def __len__(self) -> int:
        return sum(1 for _ in self)


class _ClusterFaults:
    """Engine-facing fault composite: routes world ranks to tenants.

    The engine's straggler hook (:meth:`RankContext._perturbed`) calls
    ``cpu_factor(world_rank, now)`` then — if slowed — immediately
    ``note_straggler(extra)`` on the same object, single-threaded; the
    composite resolves the world rank to the owning tenant's injector
    and local rank, memoizing the injector between the two calls."""

    def __init__(self) -> None:
        #: world rank -> (tenant injector, tenant-local rank).
        self._map: Dict[int, Tuple[Any, int]] = {}
        self._last: Any = None

    def register(self, world_rank: int, injector: Any, local_rank: int) -> None:
        self._map[world_rank] = (injector, local_rank)

    def cpu_factor(self, rank: int, now: float) -> float:
        entry = self._map.get(rank)
        if entry is None:
            self._last = None
            return 1.0
        injector, local = entry
        self._last = injector
        return injector.cpu_factor(local, now)

    def note_straggler(self, extra: float) -> None:
        if self._last is not None:
            self._last.note_straggler(extra)


@dataclass
class TenantSpec:
    """One admitted job: shape, workload, and its private knobs.

    ``kind`` selects the harness: ``"collective"`` opens a
    :class:`~repro.core.CollectiveFile` per rank and calls
    ``body(ctx, comm, f)``; ``"raw"`` (traffic generators) hands the
    body a bare :class:`~repro.fs.client.FSClient` instead —
    ``body(ctx, comm, client)``."""

    name: str
    body: Callable[..., Any]
    nprocs: int = 4
    path: str = ""
    hints: Any = None
    plan: Any = None
    arrival: float = 0.0
    kind: str = "collective"
    #: Filled at admission: this tenant's world ranks.
    members: Tuple[int, ...] = field(default_factory=tuple)

    @property
    def weight(self) -> float:
        """QoS weight (the ``tenant_priority`` hint) for ``wfq``."""
        return float(self.hints["tenant_priority"])


@dataclass
class TenantResult:
    """Per-tenant outcome of one :meth:`Cluster.run`."""

    name: str
    #: One ``body`` return value per tenant-local rank.
    results: List[Any]
    #: Post-open barrier time (allreduce-max over the tenant's ranks).
    t0: float
    #: Slowest rank's completion time.
    t1: float

    @property
    def makespan(self) -> float:
        return max(self.t1 - self.t0, 0.0)


class Cluster:
    """N concurrent tenant jobs contending for one shared file system.

    Parameters
    ----------
    cost:
        The cluster-wide cost model (OST count, stripe size, network).
    scheduler:
        Per-OST serving discipline for the shared file system —
        ``"fifo"`` (the single-job default), ``"fair"``, or ``"wfq"``
        (see :mod:`repro.fs.schedule`).
    lock_granularity:
        Optional extent-lock granularity override.
    trace:
        Record structured spans; the one Chrome trace labels each row
        ``<tenant>:r<local_rank>``.
    storage_faults:
        ``None``, a scenario spec, or a
        :class:`~repro.faults.FaultPlan` of **storage-side** events
        (``ost_crash`` / ``ost_slow`` / ``ost_flap``).  Per-tenant
        ``faults=`` plans live in each tenant's overlay and mask the
        shared injector, so OST outages — which belong to the shared
        hardware, not any one job — install here, on the file system
        itself, and hit every tenant (``docs/storage_faults.md``).
    queue_limit / breaker:
        Admission bound and per-OST circuit breakers, forwarded to the
        shared :class:`~repro.fs.filesystem.SimFileSystem`.

    Usage::

        cl = Cluster(scheduler="fair")
        cl.add_tenant("A", body_a, nprocs=4, hints={"coll_impl": "new"})
        cl.add_tenant("B", body_b, nprocs=2, arrival=0.002)
        cl.add_background("scan", nprocs=1)
        out = cl.run()                    # {"A": TenantResult, ...}
        cl.registry.value("tenant.A.fs.bytes.written")
    """

    def __init__(
        self,
        *,
        cost: CostModel = DEFAULT_COST_MODEL,
        scheduler: Any = "fifo",
        lock_granularity: Optional[int] = None,
        trace: bool = False,
        storage_faults: Any = None,
        queue_limit: Optional[float] = None,
        breaker: Any = True,
    ) -> None:
        from repro.faults.injector import FaultInjector
        from repro.fs.filesystem import SimFileSystem
        from repro.obs.session import Session
        from repro.sim.trace import Tracer

        self.cost = cost
        #: The one cluster-wide registry; tenants write through
        #: ``tenant.<name>.`` prefix views of it.
        self.registry = MetricsRegistry()
        self.tracer = Tracer(enabled=trace)
        self.storage_plan = Session._resolve_plan(storage_faults)
        storage_injector = None
        if self.storage_plan is not None:
            storage_injector = FaultInjector(self.storage_plan, self.registry)
        self.storage_faults = storage_injector
        self.fs = SimFileSystem(
            cost,
            lock_granularity=lock_granularity,
            registry=self.registry,
            scheduler=scheduler,
            storage_faults=storage_injector,
            queue_limit=queue_limit,
            breaker=breaker,
        )
        self.tenants: List[TenantSpec] = []
        self._background = 0
        #: The most recent run's simulator (``None`` before any run).
        self.sim = None
        self._results: Dict[str, TenantResult] = {}

    # -- admission -------------------------------------------------------
    def add_tenant(
        self,
        name: str,
        body: Callable[..., Any],
        *,
        nprocs: int = 4,
        path: Optional[str] = None,
        hints: Union[None, Dict[str, Any], Any] = None,
        faults: Any = None,
        arrival: float = 0.0,
        kind: str = "collective",
    ) -> TenantSpec:
        """Admit one job.  ``path`` defaults to a private per-tenant
        file (tenants still contend on the shared OST queues); pass the
        same path to two tenants to add lock-table interference.
        ``arrival`` delays the job's start in virtual seconds (loosely
        coupled admission).  ``faults`` is a plan/scenario private to
        this tenant, addressing its *local* ranks."""
        from repro.obs.session import Session

        if nprocs <= 0:
            raise SimulationError(f"tenant {name!r}: nprocs must be positive")
        if arrival < 0.0:
            raise SimulationError(f"tenant {name!r}: arrival must be >= 0")
        if kind not in ("collective", "raw"):
            raise SimulationError(f"tenant {name!r}: unknown kind {kind!r}")
        if any(t.name == name for t in self.tenants):
            raise SimulationError(f"duplicate tenant name {name!r}")
        hints, plan = Session._admit(hints, faults)
        spec = TenantSpec(
            name=name,
            body=body,
            nprocs=nprocs,
            path=path if path is not None else f"/data/{name}",
            hints=hints,
            plan=plan,
            arrival=arrival,
            kind=kind,
        )
        self.tenants.append(spec)
        return spec

    def add_background(
        self,
        kind: str,
        *,
        name: Optional[str] = None,
        nprocs: int = 1,
        path: Optional[str] = None,
        arrival: float = 0.0,
        priority: int = 1,
        **params: Any,
    ) -> TenantSpec:
        """Admit a synthetic background-traffic tenant.

        ``kind`` is a :data:`repro.tenancy.traffic.TRAFFIC_KINDS` name
        (``scan`` / ``metadata`` / ``random``); ``params`` are passed
        to the generator factory."""
        from repro.tenancy.traffic import make_traffic

        self._background += 1
        name = name if name is not None else f"bg{self._background}-{kind}"
        body = make_traffic(kind, **params)
        return self.add_tenant(
            name,
            body,
            nprocs=nprocs,
            path=path,
            hints={"tenant_priority": priority},
            arrival=arrival,
            kind="raw",
        )

    # -- running ---------------------------------------------------------
    @property
    def nprocs(self) -> int:
        """Total world size (sum of tenant sizes)."""
        return sum(t.nprocs for t in self.tenants)

    def run(self) -> Dict[str, TenantResult]:
        """Run every admitted tenant concurrently; returns per-tenant
        results keyed by name.  Single-shot, like the simulator."""
        from repro.core.file_handle import CollectiveFile
        from repro.faults.injector import FaultInjector
        from repro.fs.client import FSClient
        from repro.mpi.comm import Communicator
        from repro.sim.engine import ScopedContext, Simulator

        if not self.tenants:
            raise SimulationError("Cluster.run() with no admitted tenants")
        sim = Simulator(self.nprocs, tracer=self.tracer)
        sim.shared[METRICS_KEY] = self.registry
        composite = _ClusterFaults()
        have_faults = False

        per_rank: List[Tuple[TenantSpec, _TenantShared, int]] = []
        base = 0
        for spec in self.tenants:
            spec.members = tuple(range(base, base + spec.nprocs))
            base += spec.nprocs
            overlay = _TenantShared(sim.shared)
            overlay[METRICS_KEY] = self.registry.view(prefix=f"tenant.{spec.name}.")
            injector = None
            if spec.plan is not None:
                injector = FaultInjector(spec.plan, overlay[METRICS_KEY])
                overlay[FAULTS_KEY] = injector
                have_faults = True
            for local, world in enumerate(spec.members):
                if injector is not None:
                    composite.register(world, injector, local)
                self.fs.register_tenant(
                    (spec.name, local), spec.name, weight=spec.weight
                )
                self.tracer.thread_labels[world] = f"{spec.name}:r{local}"
                per_rank.append((spec, overlay, local))
        if have_faults:
            sim.faults = composite

        cluster = self

        def main(ctx, spec: TenantSpec, overlay: _TenantShared, local: int):
            scoped = ScopedContext(ctx, overlay)
            if spec.arrival > 0.0:
                scoped.advance_to(spec.arrival)
            comm = Communicator(
                scoped,
                cluster.cost,
                _comm_id=f"tenant:{spec.name}",
                _rank=local,
                _members=spec.members,
            )
            client_id = (spec.name, local)
            if spec.kind == "collective":
                f = CollectiveFile(
                    scoped,
                    comm,
                    cluster.fs,
                    spec.path,
                    hints=spec.hints,
                    cost=cluster.cost,
                    client_id=client_id,
                )
                t0 = comm.allreduce(scoped.now, op=max)
                try:
                    out = spec.body(scoped, comm, f)
                finally:
                    f.close()
            else:
                client = FSClient(cluster.fs, scoped, client_id=client_id)
                t0 = comm.allreduce(scoped.now, op=max)
                out = spec.body(scoped, comm, client)
            t1 = comm.allreduce(scoped.now, op=max)
            return (spec.name, out, t0, t1)

        self.sim = sim
        raw = sim.run(main, per_rank_args=per_rank)

        self._results = {}
        for spec in self.tenants:
            rows = [raw[w] for w in spec.members]
            self._results[spec.name] = TenantResult(
                name=spec.name,
                results=[r[1] for r in rows],
                t0=rows[0][2],
                t1=rows[0][3],
            )
        return self._results

    # -- results ---------------------------------------------------------
    @property
    def results(self) -> Dict[str, TenantResult]:
        return self._results

    @property
    def makespans(self) -> Dict[str, float]:
        """Per-tenant makespans of the most recent run."""
        return {name: r.makespan for name, r in self._results.items()}

    @property
    def spread(self) -> float:
        """Cross-tenant makespan spread (max − min) — the fairness
        figure of merit the schedulers are compared on."""
        spans = list(self.makespans.values())
        return max(spans) - min(spans) if spans else 0.0

    def tenant_metrics(self, name: str) -> MetricsRegistry:
        """Tenant ``name``'s namespace folded out as a standalone
        registry (bare names — comparable against a solo run's)."""
        return self.registry.fold(f"tenant.{name}.")

    def conservation(self, metric: str) -> Tuple[float, float]:
        """(sum of per-tenant mirrors, shared-fs global) for ``metric``
        (e.g. ``"fs.bytes.written"``).  Equal when every byte of server
        traffic is attributed to exactly one tenant."""
        per_tenant = sum(
            self.registry.value(f"tenant.{t.name}.{metric}") for t in self.tenants
        )
        return per_tenant, self.registry.total(metric)

    def chrome_trace(self) -> Dict[str, Any]:
        """The one cluster-wide Chrome trace (per-tenant row labels).

        When the cluster has storage faults, per-OST health lanes are
        appended below the tenant rows."""
        from repro.fs.ostfault import append_ost_lanes

        return append_ost_lanes(
            self.tracer.to_chrome_trace(), self.storage_plan, self.cost.num_osts
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(t.name for t in self.tenants)
        return f"Cluster({self.fs.scheduler.name}; tenants=[{names}])"
