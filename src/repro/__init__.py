"""repro — reproduction of "A New Flexible MPI Collective I/O
Implementation" (Coloma et al., IEEE Cluster 2006).

A deterministic, simulation-backed implementation of the paper's
flexible two-phase collective I/O framework and every substrate it
needs: an MPI subset with derived datatypes, a Lustre-like striped file
system with extent locks and client caches, an ADIO-style independent
I/O layer, and both the new flexible and the original ROMIO-style
collective implementations.

Quickstart — the :class:`Session` façade wires the simulator, file
system, hints, metrics registry, and tracer together::

    import numpy as np
    from repro import Session, BYTE, contiguous, resized

    with Session.open("/data", nprocs=4,
                      hints={"io_method": "conditional"}) as s:

        def body(ctx, comm, f):
            region = 64
            tile = resized(contiguous(region, BYTE), 0, region * comm.size)
            f.set_view(disp=comm.rank * region, filetype=tile)
            f.write_all(np.full(region * 16, comm.rank, dtype=np.uint8))

        s.run(body)
        print(s.makespan, s.metrics.total("coll.rounds"))

See DESIGN.md for the architecture, docs/observability.md for the
metrics/tracing layer, and EXPERIMENTS.md for the paper-figure
reproductions.
"""

from repro.config import CostModel, DEFAULT_COST_MODEL, FaultConfig, LivenessConfig
from repro.core import CollectiveFile, FileView
from repro.datatypes import (
    BYTE,
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    INT64,
    SHORT,
    Datatype,
    contiguous,
    hindexed,
    hvector,
    indexed,
    indexed_block,
    resized,
    struct,
    subarray,
    vector,
)
from repro.errors import (
    AggregatorLost,
    CollectiveIOError,
    DatatypeError,
    DeadlineExceeded,
    FileSystemError,
    HintConflict,
    HintError,
    IntegrityError,
    LockDeadlock,
    MPIError,
    MissedWakeup,
    ReproError,
    RetryExhausted,
    SimDeadlock,
    SimHang,
    SimulationError,
    TransientIOError,
    TransientNetworkError,
)
from repro.faults import FaultInjector, FaultPlan, load_scenario
from repro.fs import FSClient, SimFileSystem
from repro.integrity import FsckReport, IntegrityConfig, fsck, scrub_store
from repro.io import AdioFile, RetryPolicy
from repro.liveness import LivenessState, find_liveness, install_liveness
from repro.mpi import ANY_SOURCE, ANY_TAG, Communicator, Hints
from repro.obs import (
    MetricsRegistry,
    MetricsView,
    PhaseAccumulator,
    PhaseHook,
    metrics_registry,
)
from repro.obs.session import Session
from repro.sim import RankContext, Signal, Simulator, Tracer, Watchdog
from repro.tenancy import Cluster, TenantResult, TenantSpec

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # engine
    "Simulator",
    "RankContext",
    "Signal",
    "Tracer",
    "Watchdog",
    # tenancy
    "Cluster",
    "TenantSpec",
    "TenantResult",
    # config
    "CostModel",
    "DEFAULT_COST_MODEL",
    # mpi
    "Communicator",
    "Hints",
    "ANY_SOURCE",
    "ANY_TAG",
    # datatypes
    "Datatype",
    "BYTE",
    "CHAR",
    "SHORT",
    "INT",
    "INT64",
    "FLOAT",
    "DOUBLE",
    "contiguous",
    "vector",
    "hvector",
    "indexed",
    "hindexed",
    "indexed_block",
    "struct",
    "subarray",
    "resized",
    # fs / io
    "SimFileSystem",
    "FSClient",
    "AdioFile",
    "RetryPolicy",
    # core
    "CollectiveFile",
    "FileView",
    # observability
    "Session",
    "MetricsRegistry",
    "MetricsView",
    "metrics_registry",
    "PhaseAccumulator",
    "PhaseHook",
    # faults / resilience
    "FaultConfig",
    "FaultPlan",
    "FaultInjector",
    "load_scenario",
    # liveness
    "LivenessConfig",
    "LivenessState",
    "install_liveness",
    "find_liveness",
    # integrity
    "IntegrityConfig",
    "FsckReport",
    "fsck",
    "scrub_store",
    # errors
    "ReproError",
    "SimulationError",
    "SimDeadlock",
    "MissedWakeup",
    "SimHang",
    "MPIError",
    "DatatypeError",
    "FileSystemError",
    "CollectiveIOError",
    "HintConflict",
    "HintError",
    "TransientIOError",
    "TransientNetworkError",
    "IntegrityError",
    "RetryExhausted",
    "AggregatorLost",
    "DeadlineExceeded",
    "LockDeadlock",
]
