"""Two-layer intra-node aggregation: units, error paths, composition.

Complements the differential harness (which proves the modes
byte-identical on drawn workloads) with the targeted contracts:

* coalescing preserves the packed byte stream while shrinking runs;
* the node topology, leader election, and leader-aware aggregator
  placement are deterministic pure functions;
* the two-tier network prices intra-node messages cheaper and counts
  wire traffic by tier;
* the exchange entry point rejects unknown modes with a typed error
  and keeps empty-send/empty-recv legs matched; a round that must skip
  ranks gets the flat alltoallw — byte-identically — from the round
  loop's composition rule, never from the two-layer backend itself;
* the two-layer path composes with the fault/liveness/integrity layers
  without giving up byte-perfect results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CostModel
from repro.core import CollectiveFile
from repro.core.aggregation import select_aggregators
from repro.core.compat import resolve
from repro.core.exchange import EXCHANGE_MODES, exchange_data
from repro.datatypes import BYTE, contiguous, resized
from repro.datatypes.packing import gather_segments, scatter_segments
from repro.datatypes.segments import SegmentBatch
from repro.errors import CollectiveIOError
from repro.faults import FaultPlan
from repro.fs import SimFileSystem
from repro.mpi import Communicator, Hints
from repro.mpi.network import Network
from repro.obs.metrics import metrics_registry
from repro.mpi.topology import NodeTopology, resolve_topology
from repro.sim import Simulator

COST = CostModel(page_size=64, stripe_size=256, num_osts=2)


def _batch(file_offsets, lengths, data_offsets):
    return SegmentBatch(
        np.asarray(file_offsets, dtype=np.int64),
        np.asarray(lengths, dtype=np.int64),
        np.asarray(data_offsets, dtype=np.int64),
    )


class TestCoalesce:
    def test_merges_runs_adjacent_in_both_spaces(self):
        b = _batch([0, 4, 8], [4, 4, 4], [0, 4, 8])
        cb = b.coalesce()
        assert cb.num_segments == 1
        assert cb.total_bytes == 12
        assert cb.file_offsets.tolist() == [0]
        assert cb.lengths.tolist() == [12]

    def test_keeps_runs_adjacent_in_only_one_space(self):
        # Adjacent in data, gapped in file: must NOT merge (and vice
        # versa) — merging would rewrite where bytes land.
        data_gap = _batch([0, 4], [4, 4], [0, 8])
        file_gap = _batch([0, 16], [4, 4], [0, 4])
        assert data_gap.coalesce().num_segments == 2
        assert file_gap.coalesce().num_segments == 2

    def test_packed_stream_identical(self):
        # The exchange-side contract: a coalesced batch is a drop-in
        # replacement on either side of gather/scatter.
        rng = np.random.default_rng(3)
        n = 40
        lengths = rng.integers(1, 9, size=n)
        data_offsets = np.concatenate([[0], np.cumsum(lengths[:-1])])
        gaps = rng.integers(0, 2, size=n)  # some file-adjacent, some not
        file_offsets = np.concatenate([[0], np.cumsum(lengths[:-1] + gaps[:-1])])
        b = _batch(file_offsets, lengths, data_offsets)
        cb = b.coalesce()
        assert cb.num_segments < b.num_segments
        assert cb.total_bytes == b.total_bytes
        buf = rng.integers(0, 255, size=int((file_offsets + lengths).max()), dtype=np.uint8)
        packed = gather_segments(buf, b)
        assert np.array_equal(packed, gather_segments(buf, cb))
        out_a = np.zeros(buf.size, dtype=np.uint8)
        out_b = out_a.copy()
        scatter_segments(out_a, b, packed)
        scatter_segments(out_b, cb, packed)
        assert np.array_equal(out_a, out_b)


class TestTopologyAndPlacement:
    def test_node_grouping_and_leaders(self):
        topo = NodeTopology(4)
        assert [topo.node_of(r) for r in (0, 3, 4, 15)] == [0, 0, 1, 3]
        assert topo.same_node(5, 7) and not topo.same_node(3, 4)
        groups = topo.groups(tuple(range(8)))
        assert groups == {0: [0, 1, 2, 3], 1: [4, 5, 6, 7]}
        # Lowest communicator rank on the node leads.
        assert all(g[0] == min(g) for g in groups.values())

    def test_resolve_topology_hint_overrides_cost(self):
        cost = CostModel(procs_per_node=4)
        assert resolve_topology(Hints(), cost).procs_per_node == 4
        assert resolve_topology(Hints(procs_per_node=2), cost).procs_per_node == 2
        assert resolve_topology(Hints(), CostModel()) is None
        assert resolve_topology(Hints(procs_per_node=1), cost) is None

    def test_spread_lands_on_leaders(self):
        topo = NodeTopology(4)
        assert select_aggregators(16, 4, topology=topo) == [0, 4, 8, 12]
        assert select_aggregators(16, 2, topology=topo) == [0, 8]
        # Beyond one per node: extras fill nodes round-robin.
        assert select_aggregators(16, 6, topology=topo) == [0, 1, 4, 5, 8, 12]

    def test_packed_layout_unchanged_by_topology(self):
        topo = NodeTopology(4)
        assert select_aggregators(16, 4, layout="packed", topology=topo) == [0, 1, 2, 3]


class TestTwoTierNetwork:
    def test_intra_tier_is_cheaper(self):
        net = Network(CostModel(procs_per_node=4))
        assert net.send_overhead(intra=True) < net.send_overhead()
        assert net.recv_overhead(intra=True) < net.recv_overhead()
        assert net.transit_time(1 << 20, intra=True) < net.transit_time(1 << 20)

    def test_traffic_counted_by_tier(self):
        cost = CostModel(procs_per_node=2)

        def main(ctx):
            comm = Communicator(ctx, cost)
            if comm.rank == 0:
                comm.send(np.zeros(100, dtype=np.uint8), 1, 7)  # intra: node 0
                comm.send(np.zeros(100, dtype=np.uint8), 2, 7)  # inter: node 1
            elif comm.rank in (1, 2):
                comm.recv(0, 7)
            return ctx.now

        sim = Simulator(4)
        times = sim.run(main)
        net = metrics_registry(sim.shared).snapshot("net.")
        assert net["net.intra.msgs"] == 1
        assert net["net.inter.msgs"] == 1
        env = cost.net_envelope_bytes
        assert net["net.intra.bytes"] == 100 + env
        assert net["net.inter.bytes"] == 100 + env
        # Same payload, cheaper tier: the intra-node peer finishes first.
        assert times[1] < times[2]


def _run_exchange(mode, nprocs=4, skip=frozenset(), ppn=2, empty_rank=None):
    """One manual exchange round: every live rank sends 4 bytes to every
    live peer; returns each rank's recv buffer."""
    cost = CostModel(procs_per_node=ppn)
    dead = set(skip) | ({empty_rank} if empty_rank is not None else set())

    def main(ctx):
        comm = Communicator(ctx, cost)
        r = comm.rank
        sendbuf = (np.arange(4 * nprocs, dtype=np.int64) + 64 * r).astype(np.uint8)
        recvbuf = np.zeros(4 * nprocs, dtype=np.uint8)
        # Rank r sends its slice p to peer p, which lands it in slot r's
        # spot — every live pair exchanges exactly one 4-byte segment.
        send_batches = [
            _batch([p * 4], [4], [0]) if r not in dead and p not in dead else None
            for p in range(nprocs)
        ]
        recv_batches = [
            _batch([p * 4], [4], [0]) if r not in dead and p not in dead else None
            for p in range(nprocs)
        ]
        exchange_data(
            comm, cost, mode, sendbuf, send_batches, recvbuf, recv_batches,
            skip=frozenset(skip),
        )
        return recvbuf

    return Simulator(nprocs).run(main)


class TestExchangeContract:
    def test_unknown_mode_is_typed_error(self):
        def main(ctx):
            comm = Communicator(ctx, COST)
            with pytest.raises(CollectiveIOError, match="unknown exchange mode"):
                exchange_data(comm, COST, "bogus", None, [None, None], None, [None, None])
            return True

        assert all(Simulator(2).run(main))
        assert "bogus" not in EXCHANGE_MODES

    @pytest.mark.parametrize("mode", EXCHANGE_MODES)
    def test_all_modes_move_the_same_bytes(self, mode):
        got = _run_exchange(mode)
        for r, recvbuf in enumerate(got):
            for p in range(4):
                # Slot p holds peer p's slice r.
                expect = (np.arange(r * 4, r * 4 + 4, dtype=np.int64) + 64 * p).astype(np.uint8)
                assert np.array_equal(recvbuf[p * 4 : p * 4 + 4], expect), (mode, r, p)

    @pytest.mark.parametrize("mode", EXCHANGE_MODES)
    def test_empty_legs_complete(self, mode):
        # One rank carries nothing at all: no deadlock, no stray bytes.
        got = _run_exchange(mode, empty_rank=3)
        assert np.count_nonzero(got[3]) == 0
        for r in range(3):
            assert np.count_nonzero(got[r][:12]) > 0
            assert np.count_nonzero(got[r][12:]) == 0

    def test_two_layer_skip_falls_back_flat_and_matches(self):
        # The fallback is rule suspects.two_layer: the round loop hands a
        # round that must skip ranks to the backend the table names
        # (TestFaultComposition drives it end to end) ...
        eff = resolve(Hints(exchange="two_layer", procs_per_node=2))
        assert (eff.exchange, eff.exchange_skip) == ("two_layer", "alltoallw")

        # ... and the two-layer backend, which cannot route around a
        # missing leader, refuses the skip set instead of switching.
        cost = CostModel(procs_per_node=2)

        def main(ctx):
            comm = Communicator(ctx, cost)
            buf = np.zeros(16, dtype=np.uint8)
            none = [None] * 4
            with pytest.raises(CollectiveIOError, match="cannot skip"):
                exchange_data(
                    comm, cost, "two_layer", buf, none, buf, none, skip=frozenset({3})
                )
            return True

        sim = Simulator(4)
        assert all(sim.run(main))
        assert metrics_registry(sim.shared).value("exchange.two_layer.rounds") == 0


# ---- composition with the fault / liveness / integrity layers ----------

NPROCS = 4
REGION = 16
COUNT = 12
WORK_HINTS = Hints(
    cb_buffer_size=96, cb_nodes=2, exchange="two_layer", procs_per_node=2
)


def _run_workload(plan=None, hints=WORK_HINTS, cost=COST):
    fs = SimFileSystem(cost)

    def main(ctx):
        comm = Communicator(ctx, cost)
        f = CollectiveFile(ctx, comm, fs, "/data", hints=hints, cost=cost)
        try:
            tile = resized(contiguous(REGION, BYTE), 0, REGION * NPROCS)
            f.set_view(disp=comm.rank * REGION, filetype=tile)
            f.write_all(np.full(REGION * COUNT, comm.rank + 1, dtype=np.uint8))
        finally:
            f.close()
        return ctx.now

    sim = Simulator(NPROCS)
    injector = plan.install(sim) if plan is not None else None
    sim.run(main)
    return fs.raw_bytes("/data", 0, REGION * NPROCS * COUNT), injector, sim


class TestFaultComposition:
    @pytest.fixture(scope="class")
    def baseline(self):
        contents, _, sim = _run_workload()
        assert metrics_registry(sim.shared).value("exchange.two_layer.rounds") > 0
        return contents

    def test_stalled_aggregator_fails_over_to_flat_rounds(self, baseline):
        # A suspect mid-call makes the two-layer rounds fall back to the
        # flat alltoallw at the phase boundary — bytes still perfect.
        plan = FaultPlan(7).rank_stall(0, delay=5e-2, round_index=1)
        hints = WORK_HINTS.replace(coll_deadline=0.5, liveness=True)
        contents, injector, sim = _run_workload(plan, hints=hints)
        assert np.array_equal(contents, baseline)
        assert injector.registry.value("faults.suspects_declared") == 1
        registry = metrics_registry(sim.shared)
        fallbacks = registry.value("exchange.flat_fallbacks")
        assert fallbacks > 0
        assert registry.total("compat.stand_down.suspects.two_layer") == fallbacks
        # pre-suspect rounds were layered
        assert registry.value("exchange.two_layer.rounds") > 0

    def test_network_bitflips_detected_and_retried(self, baseline):
        # The leader↔leader frames are raw data frames on the wire, so
        # the corruption model can hit them and the integrity_network
        # checksums heal them — the scenario's contract (a higher rate
        # than the stock `bit-flip-net` scenario keeps this workload's
        # handful of frames statistically interesting).
        plan = FaultPlan(3).net_bitflip(rate=0.4)
        hints = WORK_HINTS.replace(integrity_network=True)
        contents, injector, _ = _run_workload(plan, hints=hints)
        assert np.array_equal(contents, baseline)
        faults = injector.registry
        assert faults.value("faults.net.bits_flipped") > 0
        assert faults.value("faults.net.corruptions_detected") == faults.value(
            "faults.net.bits_flipped"
        )
        assert faults.value("faults.net.redeliveries") > 0


class TestInterNodeReduction:
    def test_two_layer_moves_fewer_inter_node_bytes(self):
        """The PR's acceptance shape at unit-test scale: same workload,
        same bytes, strictly less inter-node wire traffic."""
        # The cost model arms the topology here, so the *network* layer
        # counts per-tier traffic (the hint alone only steers the
        # exchange protocol).  At this 4-rank geometry the payload
        # volumes are nearly equal, so the byte win is the envelope
        # saving of sending fewer inter-node messages — a fat envelope
        # makes that unambiguous (the bench sweep asserts the win at
        # the paper's scale with the default envelope).
        cost = CostModel(
            page_size=64, stripe_size=256, num_osts=2,
            procs_per_node=2, net_envelope_bytes=512,
        )
        results = {}
        for mode in ("alltoallw", "two_layer"):
            hints = Hints(cb_buffer_size=96, cb_nodes=2, exchange=mode)
            contents, _, sim = _run_workload(hints=hints, cost=cost)
            results[mode] = (contents, metrics_registry(sim.shared).snapshot())
        flat_bytes, layered_bytes = results["alltoallw"][0], results["two_layer"][0]
        assert np.array_equal(flat_bytes, layered_bytes)
        flat, layered = results["alltoallw"][1], results["two_layer"][1]
        assert layered["net.inter.msgs"] < flat["net.inter.msgs"]
        assert layered["net.inter.bytes"] < flat["net.inter.bytes"]
        assert layered["exchange.coalesce.runs_out"] <= layered["exchange.coalesce.runs_in"]
