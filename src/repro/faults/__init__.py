"""Fault injection and resilience (the chaos-engineering subsystem).

The seed faithfully reproduced the paper on a perfect machine; this
package supplies the imperfect one.  A :class:`FaultPlan` is a seeded,
deterministic schedule of faults — transient I/O errors, slow disks,
straggler ranks, delayed/dropped messages, lock-manager storms, and
aggregator crashes at phase boundaries — injected through hooks in the
engine (:mod:`repro.sim.engine`), the network (:mod:`repro.mpi.network`),
the file system (:mod:`repro.fs.filesystem`), and the lock manager
(:mod:`repro.fs.locks`).  The resilience side lives with the code it
protects: a retry/backoff policy in the independent-I/O layer
(:mod:`repro.io.retry`) and aggregator failover in the flexible
planner (:mod:`repro.core.two_phase_new`).

Everything stays deterministic under the virtual clock: every injection
decision is a pure hash of (seed, kind, actor, counter), so a chaos run
is exactly replayable — same seed, same faults, same virtual
completion times, byte-identical file contents.

Usage::

    from repro import Session

    s = Session("/data", nprocs=4, faults="transient-io:42")  # or a FaultPlan
    s.run(body)                               # plan installed into the run
    print(s.registry.format("faults."))       # counted in the run's registry
"""

from repro.faults.injector import FAULT_COUNTERS, FaultInjector, find_injector, fired
from repro.faults.plan import (
    EVENT_KINDS,
    FAULTS_KEY,
    OST_KINDS,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
)
from repro.faults.scenarios import SCENARIOS, load_scenario, scenario, scenario_names

__all__ = [
    "FAULTS_KEY",
    "EVENT_KINDS",
    "OST_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultPlanError",
    "FaultInjector",
    "FAULT_COUNTERS",
    "fired",
    "find_injector",
    "SCENARIOS",
    "scenario",
    "scenario_names",
    "load_scenario",
]
