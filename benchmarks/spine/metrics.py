"""The benchmark's metric names, units and bounds — and the registry reads.

``BENCHMARK.json`` at the repo root lists the same names; ``test_spine``
keeps the two in step.  ``*_s`` metrics are host seconds unless the name
says ``sim`` (virtual seconds of the modelled cluster).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit, better, regression bound as a share of the parent's median)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("sim_makespan_s", "s", "lower", 0.15),
    ("peak_rss_mib", "MiB", "lower", 0.20),
]

#: Bit-deterministic for given inputs: ``compare.py`` holds two runs of
#: the same seed and size to bound 0 on these, whatever the bound above
#: (which has to cover the spread between seeds).
EXACT = frozenset({"sim_makespan_s"})

_LOWER, _HIGHER = "lower", "higher"

#: (name, unit, better).  Counts are exact per iteration; ``self_s`` is
#: span self time per iteration from the traced pass.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("datatypes.self_s", "s", _LOWER),
    ("datatypes.calls", "count", _LOWER),
    ("datatypes.pairs", "count", _LOWER),
    ("datatypes.tiles_skipped", "count", _HIGHER),
    ("datatypes.skip_ratio", "ratio", _HIGHER),
    ("datatypes.pack_bytes", "B", _LOWER),
    ("datatypes.ns_per_pair", "ns", _LOWER),
    ("core.self_s", "s", _LOWER),
    ("core.calls", "count", _LOWER),
    ("core.rounds", "count", _LOWER),
    ("core.exchange_bytes", "B", _LOWER),
    ("core.meta_bytes", "B", _LOWER),
    ("core.sim_plan_s", "s", _LOWER),
    ("core.sim_route_s", "s", _LOWER),
    ("core.sim_exchange_s", "s", _LOWER),
    ("core.sim_io_s", "s", _LOWER),
    ("mpi.self_s", "s", _LOWER),
    ("mpi.calls", "count", _LOWER),
    ("mpi.msgs", "count", _LOWER),
    ("mpi.bytes", "B", _LOWER),
    ("mpi.collectives", "count", _LOWER),
    ("mpi.us_per_msg", "us", _LOWER),
    ("sim.sched_s", "s", _LOWER),
    ("sim.switches", "count", _LOWER),
    ("sim.us_per_switch", "us", _LOWER),
    ("sim.calls", "count", _LOWER),
    ("io.self_s", "s", _LOWER),
    ("io.calls", "count", _LOWER),
    ("io.flushes_datasieve", "count", _LOWER),
    ("io.flushes_naive", "count", _LOWER),
    ("io.rmw_pages", "count", _LOWER),
    ("io.useful_frac", "ratio", _HIGHER),
    ("fs.self_s", "s", _LOWER),
    ("fs.calls", "count", _LOWER),
    ("fs.cache_hits", "count", _HIGHER),
    ("fs.cache_misses", "count", _LOWER),
    ("fs.cache_hit_ratio", "ratio", _HIGHER),
    ("fs.flushed_pages", "count", _LOWER),
    ("fs.lock_rpcs", "count", _LOWER),
    ("fs.lock_revocations", "count", _LOWER),
    ("fs.revoke_flush_pages", "count", _LOWER),
    ("fs.server_reads", "count", _LOWER),
    ("fs.server_writes", "count", _LOWER),
    ("fs.bytes_read", "B", _LOWER),
    ("fs.bytes_written", "B", _LOWER),
    ("fs.ost_queue_wait_sim_s", "s", _LOWER),
    ("fs.sim_lock_s", "s", _LOWER),
    ("fs.sim_flush_s", "s", _LOWER),
    ("fs.ns_per_page", "ns", _LOWER),
    ("host.cpu_s", "s", _LOWER),
    ("host.calib_ms", "ms", _LOWER),
    ("trace.overhead_frac", "ratio", _LOWER),
    ("trace.unattributed_frac", "ratio", _LOWER),
    ("trace.closure_frac", "ratio", _LOWER),
]

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

#: registry name -> metric name, summed over every key (rank, path, client).
_TOTALS = {
    "coll.meta.bytes": "core.meta_bytes",
    "exchange.bytes": "core.exchange_bytes",
    "coll.flush.datasieve": "io.flushes_datasieve",
    "coll.flush.naive": "io.flushes_naive",
    "fs.rmw.pages": "io.rmw_pages",
    "cache.hits": "fs.cache_hits",
    "cache.misses": "fs.cache_misses",
    "cache.flushed_pages": "fs.flushed_pages",
    "lock.rpcs": "fs.lock_rpcs",
    "lock.revocations": "fs.lock_revocations",
    "lock.revoke.flush_pages": "fs.revoke_flush_pages",
    "fs.server.reads": "fs.server_reads",
    "fs.server.writes": "fs.server_writes",
    "fs.bytes.read": "fs.bytes_read",
    "fs.bytes.written": "fs.bytes_written",
}

#: Virtual-time phase spans (rank-seconds summed over ranks) -> metric name.
PHASES = {
    "tp:plan": "core.sim_plan_s",
    "tp:route": "core.sim_route_s",
    "tp:exchange": "core.sim_exchange_s",
    "tp:io": "core.sim_io_s",
    "fs:lock": "fs.sim_lock_s",
    "cache:flush": "fs.sim_flush_s",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def registry_counts(session, payload_bytes: int) -> Dict[str, float]:
    """The per-layer counts the program's own registry keeps.  Available
    in both passes, and exact: the determinism guard compares them across
    iterations, passes and hash seeds."""
    reg = session.registry
    out: Dict[str, float] = {metric: reg.total(name) for name, metric in _TOTALS.items()}
    out["datatypes.pairs"] = reg.total("coll.client.pairs") + reg.total("coll.agg.pairs")
    out["datatypes.tiles_skipped"] = (
        reg.total("coll.client.tiles_skipped") + reg.total("coll.agg.tiles_skipped")
    )
    out["datatypes.skip_ratio"] = _ratio(
        out["datatypes.tiles_skipped"], out["datatypes.tiles_skipped"] + out["datatypes.pairs"]
    )
    out["core.rounds"] = reg.value("coll.rounds", 0)  # every rank counts the same rounds
    wait = "fs.ost.queue_wait_seconds"
    out["fs.ost_queue_wait_sim_s"] = sum(reg.get(wait, key).total for key in reg.keys_of(wait))
    out["fs.cache_hit_ratio"] = _ratio(
        out["fs.cache_hits"], out["fs.cache_hits"] + out["fs.cache_misses"]
    )
    out["io.useful_frac"] = _ratio(payload_bytes, out["fs.bytes_read"] + out["fs.bytes_written"])
    return out


def derive(m: Dict[str, float]) -> None:
    """Add the per-unit costs that divide a traced time by an exact count."""
    m["datatypes.ns_per_pair"] = _ratio(m["datatypes.self_s"], m["datatypes.pairs"]) * 1e9
    m["mpi.us_per_msg"] = _ratio(m["mpi.self_s"], m["mpi.msgs"]) * 1e6
    m["sim.us_per_switch"] = _ratio(m["sim.sched_s"], m["sim.switches"]) * 1e6
    m["fs.ns_per_page"] = _ratio(m["fs.self_s"], m["fs.cache_hits"] + m["fs.cache_misses"]) * 1e9
