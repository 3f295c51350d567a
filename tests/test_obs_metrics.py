"""The metrics registry: instruments, interning, snapshot/diff, merge."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

import cli_golden
import registry_golden
import test_engine_schedule
from run import diff  # benchmarks/run.py, on the path test_engine_schedule sets
from repro import BYTE, MetricsRegistry, Session, contiguous, resized
from repro.faults import FAULT_COUNTERS
from repro.obs.metrics import Counter, Gauge, Histogram, METRICS_KEY, metrics_registry


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        c.value += 2
        assert c.value == 7
        c.reset()
        assert c.value == 0

    def test_gauge_holds_last_value(self):
        g = Gauge("x")
        g.set(5)
        g.set(3)
        assert g.value == 3

    def test_histogram_buckets_powers_of_two(self):
        assert Histogram.bucket_of(0) == "zero"
        assert Histogram.bucket_of(1) == 0
        assert Histogram.bucket_of(2) == 1
        assert Histogram.bucket_of(3) == 2
        assert Histogram.bucket_of(4) == 2
        assert Histogram.bucket_of(5) == 3
        assert Histogram.bucket_of(0.25) == -2

    def test_histogram_summary_exact_moments(self):
        h = Histogram("t")
        for v in (0, 1, 2, 7):
            h.record(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["total"] == 10
        assert s["min"] == 0 and s["max"] == 7
        assert s["mean"] == pytest.approx(2.5)


class TestRegistry:
    def test_interning_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert reg.counter("a.b", 1) is not reg.counter("a.b", 2)

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a.b")
        with pytest.raises(TypeError):
            reg.gauge("a.b")

    def test_value_defaults_to_zero(self):
        assert MetricsRegistry().value("never.registered") == 0

    def test_total_sums_counters_across_keys(self):
        reg = MetricsRegistry()
        reg.counter("c", 0).inc(3)
        reg.counter("c", 1).inc(4)
        assert reg.total("c") == 7

    def test_total_takes_max_of_gauges(self):
        reg = MetricsRegistry()
        reg.gauge("g", 0).set(3)
        reg.gauge("g", 1).set(9)
        assert reg.total("g") == 9

    def test_view_binds_key(self):
        reg = MetricsRegistry()
        v = reg.view(7)
        v.counter("hits").inc(2)
        assert reg.value("hits", 7) == 2
        assert v.value("hits") == 2
        assert v.snapshot() == {"hits": 2}

    def test_snapshot_labels_tuple_keys(self):
        reg = MetricsRegistry()
        reg.counter("cache.hits", (3, "/data")).inc()
        assert reg.snapshot() == {"cache.hits[3:/data]": 1}

    def test_diff_reports_only_changes(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(5)
        reg.counter("b").inc(1)
        before = reg.snapshot()
        reg.counter("a").inc(2)
        reg.histogram("h").record(4)
        assert reg.diff(before) == {"a": 2, "h": {"count": 1, "total": 4}}


class TestMergeAlgebra:
    """Merge must be associative (and commutative) so rank registries
    can be folded in any grouping."""

    def _mk(self, seed: int) -> MetricsRegistry:
        rng = np.random.RandomState(seed)
        reg = MetricsRegistry()
        for key in (None, 0, 1):
            reg.counter("c", key).inc(int(rng.randint(0, 100)))
            reg.gauge("g", key).set(int(rng.randint(0, 100)))
            h = reg.histogram("h", key)
            for _ in range(int(rng.randint(1, 5))):
                h.record(float(rng.randint(0, 64)))
        return reg

    def _flat(self, reg: MetricsRegistry) -> dict:
        return reg.snapshot()

    def test_merge_is_associative(self):
        a, b, c = self._mk(1), self._mk(2), self._mk(3)
        left = MetricsRegistry.merged(MetricsRegistry.merged(a, b), c)
        right = MetricsRegistry.merged(a, MetricsRegistry.merged(b, c))
        assert self._flat(left) == self._flat(right)

    def test_merge_is_commutative(self):
        a, b = self._mk(4), self._mk(5)
        assert self._flat(MetricsRegistry.merged(a, b)) == self._flat(
            MetricsRegistry.merged(b, a)
        )

    def test_merged_never_mutates_inputs(self):
        a, b = self._mk(6), self._mk(7)
        before_a, before_b = self._flat(a), self._flat(b)
        MetricsRegistry.merged(a, b)
        assert self._flat(a) == before_a
        assert self._flat(b) == before_b


class TestConservation:
    """Invariants that tie independent instrument families together."""

    def _session(self, ppn: int = 0) -> Session:
        import dataclasses

        from repro import DEFAULT_COST_MODEL

        hints = {"coll_impl": "new", "cb_nodes": 2, "cb_buffer_size": 512}
        nprocs = 4
        cost = DEFAULT_COST_MODEL
        if ppn:
            # The node topology is armed by the *cost model*; the hints
            # additionally route the exchange through the two-layer path.
            cost = dataclasses.replace(DEFAULT_COST_MODEL, procs_per_node=ppn)
            hints.update(procs_per_node=ppn, exchange="two_layer")
            nprocs = 2 * ppn
        session = Session("/inv", nprocs=nprocs, hints=hints, cost=cost)

        def body(ctx, comm, f):
            region = 64
            tile = resized(contiguous(region, BYTE), 0, region * comm.size)
            f.set_view(disp=comm.rank * region, filetype=tile)
            f.write_all(
                (np.arange(region * 8, dtype=np.int64) * (comm.rank + 1) % 251)
                .astype(np.uint8)
            )
            return True

        assert all(session.run(body))
        return session

    @pytest.mark.parametrize("ppn", [2, 4])
    def test_network_tiers_partition_the_totals(self, ppn):
        reg = self._session(ppn).registry
        assert reg.total("net.bytes") > 0
        assert reg.total("net.intra.bytes") + reg.total("net.inter.bytes") == (
            reg.total("net.bytes")
        )
        assert reg.total("net.intra.msgs") + reg.total("net.inter.msgs") == (
            reg.total("net.msgs")
        )

    def test_rank_merge_reproduces_session_totals(self):
        """Splitting the session registry into per-rank registries and
        merging them back must reproduce every per-rank series."""
        session = self._session()
        reg = session.registry
        parts = []
        for rank in range(session.nprocs):
            part = MetricsRegistry()
            for inst in reg:
                if inst.key == rank and isinstance(inst, Counter):
                    part.counter(inst.name, rank).inc(inst.value)
            parts.append(part)
        folded = MetricsRegistry.merged(*parts)
        for name in ("coll.rounds", "exchange.bytes", "coll.client.pairs"):
            assert folded.total(name) == reg.total(name)


class TestSharedInterning:
    def test_metrics_registry_interns_in_shared(self):
        shared: dict = {}
        reg = metrics_registry(shared)
        assert metrics_registry(shared) is reg
        assert shared[METRICS_KEY] is reg

    def test_session_preinstalls_its_registry(self):
        session = Session("/x", nprocs=2)

        def body(ctx, comm, f):
            return metrics_registry(ctx.shared)

        regs = session.run(body)
        assert all(r is session.registry for r in regs)


class TestGoldenCounts:
    """Every count of the chaos sweeps, as recorded on the commit before
    the legacy stat façades were retired (``tests/registry_golden.py``)."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(registry_golden.GOLDEN.read_text())

    @pytest.mark.parametrize("scenario", registry_golden.SCENARIOS)
    def test_sweep_counts_match_parent_capture(self, golden, scenario):
        got = json.loads(json.dumps(registry_golden.run_sweep(scenario)))
        want = golden[scenario]
        assert not diff(registry_golden.flat(scenario, want), registry_golden.flat(scenario, got))


def test_recapture_tools_print_old_to_new():
    """The one pin differ (``benchmarks/run.py``'s ``diff``, which
    ``tests/pins.py`` prints every pin set through): what moved, as
    ``name: old -> new``; a CLI transcript that changed in more than its
    numerals is called out."""
    old = [{"coll.rounds[0]": 4, "coll.call.seconds[0]": {"count": 1, "max": (0.5).hex()}}]
    new = [{"coll.rounds[0]": 4, "coll.call.seconds[0]": {"count": 1, "max": (0.25).hex()}}]
    assert diff(registry_golden.flat("stall", old), registry_golden.flat("stall", new)) == [
        "stall[0].coll.call.seconds[0].max: 0.5 -> 0.25"
    ]
    name, pin = next(iter(test_engine_schedule.PINS.items()))
    moved = {name: ((0.5).hex(), pin[1], "feedfacefeedface")}
    assert diff(test_engine_schedule.flat({name: pin}), test_engine_schedule.flat(moved)) == [
        f"{name}.makespan: {float.fromhex(pin[0])!r} -> 0.5",
        f"{name}.counts: {pin[2]!r} -> 'feedfacefeedface'",
    ]
    row = {"argv": ["chaos"], "exit": 0, "stdout": "rate 0.1  12.5 ms  verified\nok\n"}
    lines, worded = cli_golden.describe_change(row, 0, "rate 0.1   9.75 ms  verified\nok\n")
    assert not worded and lines == [
        "CHANGED python -m repro chaos: exit 0, 1 of 2 lines differ, numerals only"
    ]
    lines, worded = cli_golden.describe_change(row, 1, "rate 0.1  12.5 ms  FAILED\nok\n")
    assert worded and "exit 0 -> 1" in lines[0] and "NON-NUMERAL" in lines[0]
    assert lines[1:] == ["  - rate 0.1  12.5 ms  verified", "  + rate 0.1  12.5 ms  FAILED"]


def _catalogue_patterns():
    """One regex per backticked name in the first column of the
    catalogue tables of docs/observability.md (``<…>`` is a wildcard)."""
    text = (Path(__file__).resolve().parents[1] / "docs" / "observability.md").read_text()
    section = text.split("### Instrument catalogue", 1)[1].split("\n## ", 1)[0]
    patterns = []
    for line in section.splitlines():
        if line.startswith("| `"):
            for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
                parts = re.split(r"<[^>]*>", name)
                patterns.append(re.compile(".+".join(map(re.escape, parts))))
    return patterns


def test_every_metric_name_is_catalogued():
    """Every series name the pinned runs produce — the schedule cells'
    registries, zero-valued series included, and the chaos sweeps'
    golden snapshots — matches a row of the documented catalogue, and
    every declared fault counter has its own row."""
    patterns = _catalogue_patterns()
    assert len(patterns) > 100
    seen = set()
    for cell in test_engine_schedule.CELLS.values():
        seen.update(cell()[2].names())
    for points in json.loads(registry_golden.GOLDEN.read_text()).values():
        for point in points:
            seen.update(label.partition("[")[0] for label in point)
    seen = {re.sub(r"^tenant\.[^.]+\.", "", name) for name in seen}
    assert len(seen) > 80
    unlisted = sorted(n for n in seen if not any(p.fullmatch(n) for p in patterns))
    assert not unlisted
    listed = {p.pattern for p in patterns}
    assert not [n for n in FAULT_COUNTERS if re.escape(n) not in listed]
