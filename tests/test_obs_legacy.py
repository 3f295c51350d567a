"""Deprecated accessors still return correct values (with warnings).

This module is deliberately excluded from the CI deprecation gate
(``-W error::DeprecationWarning``): its whole point is to exercise the
legacy attribute surface and pin its behaviour until removal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BYTE, Session, contiguous, resized


def _run_session():
    session = Session(
        "/legacy", nprocs=2, hints={"cb_nodes": 2, "cb_buffer_size": 512}
    )

    def body(ctx, comm, f):
        region = 64
        tile = resized(contiguous(region, BYTE), 0, region * comm.size)
        f.set_view(disp=comm.rank * region, filetype=tile)
        data = np.full(region * 4, comm.rank + 1, dtype=np.uint8)
        f.write_all(data)
        with pytest.deprecated_call():
            stats = f.stats
        return {
            "rounds": stats.rounds,
            "writes": stats.collective_writes,
            "bytes": stats.bytes_exchanged,
            "metrics_rounds": f.metrics.value("coll.rounds"),
            "metrics_bytes": f.metrics.value("exchange.bytes"),
        }

    return session, session.run(body)


class TestCollectiveFileStats:
    def test_deprecated_stats_matches_registry(self):
        session, results = _run_session()
        for r in results:
            assert r["writes"] == 1
            assert r["rounds"] == r["metrics_rounds"] > 0
            assert r["bytes"] == r["metrics_bytes"]
        # And the same numbers via the session registry.
        assert session.registry.total("coll.writes") == 2

    def test_legacy_snapshot_keeps_old_field_names(self):
        session = Session("/legacy", nprocs=2)

        def body(ctx, comm, f):
            f.set_view(disp=comm.rank * 16, filetype=resized(contiguous(16, BYTE), 0, 32))
            f.write_all(np.zeros(64, dtype=np.uint8))
            with pytest.deprecated_call():
                snap = f.stats.snapshot()
            return snap

        for snap in session.run(body):
            # The pre-registry snapshot keys survive for old consumers.
            for legacy_key in ("rounds", "collective_writes", "bytes_exchanged"):
                assert legacy_key in snap


class TestDirectConstruction:
    def test_direct_construction_warns_and_still_works(self):
        """Hand-built CollectiveFile handles warn (docs/api.md migration)
        but keep working until removal."""
        from repro import Communicator, SimFileSystem, Simulator
        from repro.core.file_handle import CollectiveFile

        fs = SimFileSystem()

        def main(ctx):
            comm = Communicator(ctx)
            with pytest.warns(
                DeprecationWarning,
                match="Direct CollectiveFile construction is deprecated",
            ):
                f = CollectiveFile(ctx, comm, fs, "/legacy-direct")
            f.write_all(np.full(32, comm.rank + 1, dtype=np.uint8))
            f.close()
            return True

        assert all(Simulator(2).run(main))

    def test_session_open_path_does_not_warn(self):
        """The documented Session surface never triggers the migration
        warning."""
        import warnings

        session = Session("/legacy-clean", nprocs=2)

        def body(ctx, comm, f):
            f.write_all(np.zeros(16, dtype=np.uint8))

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session.run(body)
