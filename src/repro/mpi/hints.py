"""MPI_Info-style hints controlling the collective I/O machinery.

The paper's flexibility story is largely *hints*: which two-phase
implementation, how many aggregators, how big the collective buffer,
which realm strategy, which independent-I/O method per flush, whether
realms align or persist.  :class:`Hints` validates keys and values
eagerly so typos fail loudly at file-open time rather than silently
changing the experiment.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Optional

from repro.config import DEFAULT_FAULT_CONFIG
from repro.errors import HintError

__all__ = ["Hints"]


def _positive_int(value: Any) -> int:
    n = int(value)
    if n <= 0:
        raise ValueError("must be positive")
    return n


def _non_negative_int(value: Any) -> int:
    n = int(value)
    if n < 0:
        raise ValueError("must be non-negative")
    return n


def _boolean(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("true", "yes", "enable", "1", "on"):
        return True
    if text in ("false", "no", "disable", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _non_negative_float(value: Any) -> float:
    x = float(value)
    if x < 0:
        raise ValueError("must be non-negative")
    return x


def _choice(*options: str):
    def parse(value: Any) -> str:
        text = str(value).strip().lower()
        if text not in options:
            raise ValueError(f"must be one of {options}")
        return text

    return parse


#: key -> (parser, default) for every recognized hint.
_SPEC: Dict[str, tuple] = {
    # Which two-phase implementation to run.
    "coll_impl": (_choice("new", "old"), "new"),
    # Two-phase geometry.
    "cb_buffer_size": (_positive_int, 4 * 1024 * 1024),
    "cb_nodes": (_non_negative_int, 0),  # 0 = every process aggregates
    "cb_layout": (_choice("spread", "packed"), "spread"),
    # File realm strategy.  What ``coll_impl=old`` and other features
    # make of these (and of every hint below) is one table:
    # repro.core.compat / docs/compatibility.md.
    "realm_strategy": (_choice("even", "aligned", "balanced"), "even"),
    "realm_alignment": (_non_negative_int, 0),  # bytes; 0 = unaligned
    "persistent_file_realms": (_boolean, False),
    # Persistent collective plans (docs/plan_cache.md): cache the full
    # per-round schedule across identical calls and replay it with zero
    # datatype processing.  Off = bit-identical to the uncached path.
    "plan_cache": (_boolean, False),
    # Round-level pipelining (docs/async_io.md): number of collective
    # buffers per aggregator, so the flush of round k overlaps the
    # exchange of round k+1 as engine coroutines.  0 (default) =
    # serialized rounds, bit-identical to the unpipelined path; 1 =
    # pipelined with a single in-flight flush; >=2 = deeper overlap
    # with back-pressure when the pool is exhausted.
    "pipeline_depth": (_non_negative_int, 0),
    # Independent-I/O method used to flush the collective buffer.
    "io_method": (_choice("datasieve", "naive", "listio", "conditional"), "datasieve"),
    "ds_buffer_size": (_positive_int, 512 * 1024),
    # Conditional data sieving: use naive I/O above this filetype extent.
    "ds_threshold_extent": (_positive_int, 16 * 1024),
    # Data exchange backend (Section 5.4; two_layer adds the intra-node
    # request aggregation of Kang et al., PAPERS.md).
    "exchange": (_choice("alltoallw", "nonblocking", "two_layer"), "alltoallw"),
    # ``procs_per_node`` overrides the cost model's node grouping for
    # the two_layer exchange's leader election and for aggregator
    # placement (0 = inherit CostModel.procs_per_node); it does not
    # re-price the network, which stays a cost-model property.
    "procs_per_node": (_non_negative_int, 0),
    # Client-side request processing.
    "use_heap": (_boolean, True),
    # Client cache behaviour (coherent | incoherent | writethrough | off).
    "cache_mode": (_choice("coherent", "incoherent", "writethrough", "off"), "coherent"),
    # Client cache capacity in pages (dirty overflow flushes early).
    "cache_pages": (_positive_int, 16384),
    # Resilience (see config.FaultConfig and docs/faults.md): retries
    # per independent-I/O operation after a transient fault, the first
    # backoff in virtual seconds, and whether a dead aggregator's realm
    # is failed over to survivors (off = raise AggregatorLost).
    "io_retries": (_non_negative_int, DEFAULT_FAULT_CONFIG.io_retries),
    "io_retry_backoff": (_non_negative_float, DEFAULT_FAULT_CONFIG.retry_backoff),
    # Cross-operation retry budget per client (0 = unlimited): retries
    # past it raise RetryBudgetExhausted — storm control under OST
    # outages (docs/storage_faults.md).
    "io_retry_budget": (_non_negative_int, DEFAULT_FAULT_CONFIG.retry_budget),
    "failover": (_boolean, DEFAULT_FAULT_CONFIG.failover),
    # End-to-end integrity (docs/integrity.md).  Off by default: the
    # fault-free fast path pays nothing for the machinery.
    "integrity_pages": (_boolean, False),     # CRC32 sidecar per store page
    "integrity_network": (_boolean, False),   # frame checksums + re-request
    "journal_writes": (_boolean, False),      # crash-consistent collective writes
    # Liveness (docs/faults.md).  ``coll_deadline`` arms a per-collective
    # virtual-time budget (0 = none): blocking receives past it raise
    # DeadlineExceeded instead of hanging.  ``liveness`` additionally
    # arms suspect-driven failover (stalled aggregators merged away
    # mid-call, stalled clients served by survivors) and lock leases.
    "coll_deadline": (_non_negative_float, 0.0),
    "liveness": (_boolean, False),
    # Fail-stop crash tolerance (docs/crash_recovery.md): the minimum
    # number of *live* participants a collective may continue with
    # after the epoch agreement converges on a dead set.  Survivors
    # below quorum raise a typed CollectiveAborted instead of
    # completing an unrepresentative call.  1 (default) = any survivor
    # may finish alone.
    "crash_quorum": (_positive_int, 1),
    # Storage-side replication (docs/storage_faults.md): place each
    # stripe's pages on this many distinct OSTs.  Writes commit on a
    # write-quorum (r//2 + 1 live replicas); reads fail over to any
    # surviving fresh replica.  1 (default) = no replication, the
    # seed's exact data path.
    "replication_factor": (_positive_int, 1),
    # Multi-tenant QoS weight (docs/multi_tenant.md): under the shared
    # file system's ``wfq`` OST scheduler, a tenant with priority 2
    # absorbs half the cross-tenant interference of a priority-1 one.
    # Ignored by the ``fifo`` and (unweighted) ``fair`` policies.
    "tenant_priority": (_positive_int, 1),
}


class Hints(Mapping[str, Any]):
    """Validated, immutable-after-construction hint set.

    Unknown keys and malformed values raise :class:`HintError`
    immediately.  Missing keys resolve to documented defaults.
    """

    def __init__(self, values: Optional[Mapping[str, Any]] = None, **kwargs: Any) -> None:
        merged: Dict[str, Any] = {}
        if values is not None:
            merged.update(values)
        merged.update(kwargs)
        self._values: Dict[str, Any] = {}
        for key, raw in merged.items():
            if key not in _SPEC:
                raise HintError(
                    f"unknown hint {key!r}; known hints: {sorted(_SPEC)}"
                )
            parser, _ = _SPEC[key]
            try:
                self._values[key] = parser(raw)
            except (TypeError, ValueError) as exc:
                raise HintError(f"bad value for hint {key!r}: {exc}") from exc

    # -- Mapping interface --------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        if key in self._values:
            return self._values[key]
        if key in _SPEC:
            return _SPEC[key][1]
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return iter(_SPEC)

    def __len__(self) -> int:
        return len(_SPEC)

    def replace(self, **kwargs: Any) -> "Hints":
        """A new Hints with the given keys overridden."""
        merged = dict(self._values)
        merged.update(kwargs)
        return Hints(merged)

    def explicit(self) -> Dict[str, Any]:
        """Only the hints that were explicitly set."""
        return dict(self._values)

    @staticmethod
    def known_keys() -> list[str]:
        return sorted(_SPEC)

    @staticmethod
    def default(key: str) -> Any:
        return _SPEC[key][1]

    def __repr__(self) -> str:
        return f"Hints({self._values!r})"
