"""Command-line entry point: ``python -m repro [command] [--faults SPEC]``.

* ``selfcheck`` (default) — run a fast end-to-end verification: a
  collective write/read cycle on a 4-rank simulated cluster under both
  implementations and every flush method, checked against oracles.
* ``demo`` — the quickstart scenario with a printed activity timeline.
* ``info`` — version, default cost model, known hints, fault scenarios.
* ``chaos`` — sweep a fault scenario's intensity and report the
  completion-time degradation (always data-verified).
* ``fsck`` — demonstrate the scrub/repair pass: write a checksummed
  file, corrupt it, scrub, repair from a reference image, verify.
* ``mt`` — multi-tenant contention smoke: ``--tenants N`` collective
  jobs plus background traffic share one file system under both the
  ``fifo`` and ``--sched NAME`` OST policies; read-backs and
  per-tenant attribution conservation are verified, per-tenant
  makespans and the cross-tenant spread printed.

``--faults NAME[:SEED]`` (e.g. ``--faults transient-io:42``) installs
the named deterministic fault scenario into every simulated cluster the
command builds, and prints a fault/retry summary table (the ``faults.*``
counters) afterwards.  The selfcheck still requires byte-perfect results
— that is the resilience machinery's contract under test — runs several
rounds per call so the plan has something to hit, and fails when the
plan injected nothing: a fault smoke that drew no fault verified nothing.

``--integrity`` arms the end-to-end integrity hints (page checksums,
frame checksums, journaled collective writes) in the command's
workloads; with corruption scenarios (``--faults bit-flip:SEED``) the
chaos sweep then requires every injected flip to be *detected* — a
wrong byte nobody flagged fails the run.

``--liveness`` (alias ``--deadline``) arms the liveness hints (a
per-collective deadline plus suspect-driven failover) in the command's
workloads; with stall scenarios (``--faults stall:SEED``,
``--faults gray:SEED``) every run must terminate within the deadline
budget — verified data or a typed error, never a hang.

``--ppn N`` arms the node topology at N ranks per node in the
command's workloads (``procs_per_node=N`` + ``exchange=two_layer``):
the new implementation's exchanges run through the two-layer
intra-node aggregation path, still held to byte-perfect results.
What composes with which implementation is ``repro.core.compat``'s
call (docs/compatibility.md): a rejected selfcheck cell prints ``n/a``.

``--plan-cache`` (selfcheck) arms the persistent-plan cache
(``plan_cache=True``, docs/plan_cache.md) and repeats each combination's
collective call three times: the first call must build (a miss), every
identical later call must replay (hits), and the read-backs must stay
byte-perfect — the cache-correctness smoke CI runs on every push.

``--async`` (selfcheck, chaos) issues every collective through the
nonblocking surface (``iwrite_all``/``iread_all`` +
``Request.wait()``, docs/async_io.md) instead of the blocking calls;
``--pipeline D`` arms ``pipeline_depth=D`` (double-buffered rounds).
Both are held to the same byte-perfect contract and compose with
``--integrity``/``--ppn``.

``--replicate R`` (selfcheck, chaos) arms ``replication_factor=R``:
every stripe's pages land on R distinct OSTs, writes commit on a
majority quorum, reads fail over to surviving replicas.  Pair with
``--faults ost-crash`` to watch degraded-mode service stay
byte-perfect (docs/storage_faults.md).

``mt --json`` emits the fifo-vs-policy comparison as one
machine-readable JSON document instead of the human tables.
"""

from __future__ import annotations

import sys
from typing import Optional

import numpy as np


def selfcheck(
    fault_spec: Optional[str] = None,
    integrity: bool = False,
    liveness: bool = False,
    ppn: int = 0,
    replicate: int = 1,
    plan_cache: bool = False,
    async_io: bool = False,
    pipeline: int = 0,
) -> int:
    from repro import (
        BYTE,
        CollectiveFile,
        Communicator,
        Hints,
        MetricsRegistry,
        SimFileSystem,
        Simulator,
        contiguous,
        resized,
    )
    from repro.bench.chaos import _chain
    from repro.core import compat
    from repro.errors import HintConflict, IntegrityError, RankFailed
    from repro.faults import load_scenario

    plan = load_scenario(fault_spec) if fault_spec else None
    kinds = plan.kinds if plan is not None else ()
    if "rank_crash" in kinds:
        # A crashed rank returns no result and the file is whole only
        # after a rejoin, which this loop does not do.
        print(
            "selfcheck: rank-crash plans need the crash-aware mode "
            "(--crash RANK[:EPOCH], or chaos --faults rank-crash:N)"
        )
        return 2
    totals = MetricsRegistry()  # every combination's counters, summed
    nprocs, region, count = 4, 64, 16
    failures = 0
    for impl in ("new", "old"):
        for method in ("datasieve", "naive", "listio", "conditional"):
            fs = SimFileSystem()
            hints = Hints(coll_impl=impl, io_method=method, cb_nodes=2)
            if integrity:
                hints = hints.replace(
                    integrity_pages=True,
                    integrity_network=True,
                    journal_writes=True,
                )
            if liveness:
                hints = hints.replace(coll_deadline=0.5, liveness=True)
            if ppn > 1:
                hints = hints.replace(procs_per_node=ppn, exchange="two_layer")
            if replicate > 1:
                # Replication is a file-system property, so it rides
                # both implementations identically.  Backoff is
                # deterministic (no jitter): the default four retries
                # sleep 1+2+4+8 ms, which already outlasts the canned
                # 8 ms ost-crash window; eight leave quorum-blocked
                # writes headroom under a longer outage.
                hints = hints.replace(
                    replication_factor=replicate, io_retries=8
                )
            if plan_cache:
                hints = hints.replace(plan_cache=True)
            if pipeline > 0:
                # Double-buffered rounds (docs/async_io.md) ride both
                # implementations; byte-identity is exactly what this
                # check verifies.
                hints = hints.replace(pipeline_depth=pipeline)
            try:
                compat.resolve(hints, kinds)
            except HintConflict as conflict:
                print(f"  {impl:>3} + {method:<12} n/a ({conflict.rule})")
                continue
            if plan is not None:
                # 4 KiB through the default 4 MiB buffer is one round:
                # an event keyed on boundary >= 1 would never fire, and
                # a rate-keyed one gets three draws.
                hints = hints.replace(cb_buffer_size=512)
            reps = 3 if plan_cache else 1

            def main(ctx):
                comm = Communicator(ctx)
                f = CollectiveFile(ctx, comm, fs, "/check", hints=hints)
                tile = resized(contiguous(region, BYTE), 0, region * nprocs)
                f.set_view(disp=comm.rank * region, filetype=tile)
                data = (np.arange(region * count, dtype=np.int64) * (comm.rank + 1) % 251).astype(np.uint8)
                ok = True
                for _ in range(reps):
                    f.seek(0)
                    out = np.zeros_like(data)
                    if async_io:
                        # Nonblocking surface: same collectives, issued
                        # split-phase and completed at wait().
                        f.iwrite_all(data).wait()
                        f.seek(0)
                        f.iread_all(out).wait()
                    else:
                        f.write_all(data)
                        f.seek(0)
                        f.read_all(out)
                    ok = ok and bool(np.array_equal(out, data))
                pc = f.plancache
                hits, misses = (pc.hits, pc.misses) if pc is not None else (0, 0)
                f.close()
                return ok, hits, misses

            sim = Simulator(nprocs)
            injector = plan.install(sim) if plan is not None else None
            try:
                results = sim.run(main)
            except RankFailed as exc:
                caught = [e for e in _chain(exc) if isinstance(e, IntegrityError)]
                if not caught:
                    raise
                # The sidecar caught an injected flip: loud and typed,
                # which is integrity's contract — but not a verified run.
                print(f"  {impl:>3} + {method:<12} DETECTED ({caught[0]})")
                failures += 1
                continue
            finally:
                if injector is not None:
                    totals.merge(injector.registry)
            ok = all(r[0] for r in results)
            extra = ""
            if plan_cache:
                hits = sum(r[1] for r in results)
                misses = sum(r[2] for r in results)
                extra = f"  plan {hits}h/{misses}m"
                if plan is None:
                    # Identical repeats must replay: one build per rank,
                    # every later call a hit.  (Fault plans may stand the
                    # cache down — bypass — so only the clean run gates.)
                    ok = ok and misses == nprocs and hits == (2 * reps - 1) * nprocs
            status = "ok" if ok else "FAILED"
            print(f"  {impl:>3} + {method:<12} {status}{extra}")
            failures += 0 if ok else 1
    if plan is not None:
        faults = totals.snapshot("faults.")
        _print_fault_summary(fault_spec, plan, faults)
        if not any(faults.values()):
            # A fault smoke that injected nothing verified nothing.
            print(f"selfcheck: fault plan {fault_spec!r} injected nothing (try another seed)")
            return 1
    if failures:
        print(f"selfcheck: {failures} combinations FAILED")
        return 1
    print("selfcheck: all combinations verified")
    return 0


def crash_check(spec: str) -> int:
    """``selfcheck --crash RANK[:EPOCH]``: fail-stop crash + rejoin.

    Kills RANK at phase boundary EPOCH (default 1) of the first
    collective write, at each crash site, under both implementations
    and every exchange backend.  Survivors must finish their bytes,
    the rejoined rank resumes from the epoch commit records, and the
    recovered file must match the oracle byte-for-byte.  Prints the
    re-written vs. skipped byte split per combination
    (docs/crash_recovery.md)."""
    from repro.bench import ChaosHarness
    from repro.faults import FaultPlan
    from repro.mpi import Hints

    nprocs = 4
    rank_text, _, epoch_text = spec.partition(":")
    try:
        rank = int(rank_text)
        epoch = int(epoch_text) if epoch_text else 1
    except ValueError:
        print(f"--crash requires RANK[:EPOCH] integers, got {spec!r}")
        return 2
    if not 0 <= rank < nprocs:
        print(f"--crash rank must be in [0, {nprocs}), got {rank}")
        return 2
    if epoch < 0:
        print(f"--crash epoch must be >= 0, got {epoch}")
        return 2
    modes = [
        ("new+two_layer", "new", "two_layer"),
        ("new+alltoallw", "new", "alltoallw"),
        ("new+nonblocking", "new", "nonblocking"),
        ("old", "old", None),
    ]
    print(f"crash selfcheck: kill rank {rank} at epoch {epoch}, then rejoin")
    failures = 0
    for label, impl, exchange in modes:
        for site in ("boundary", "exchange", "flush"):
            hints = Hints(coll_impl=impl, cb_nodes=2, cb_buffer_size=512)
            if exchange is not None:
                hints = hints.replace(exchange=exchange)
            plan = FaultPlan(seed=0).rank_crash(
                rank, call_index=0, round_index=epoch, site=site
            )
            harness = ChaosHarness(plan, nprocs=nprocs, hints=hints)
            _, verified, _, counters = harness.run_once(plan)
            ok = verified and counters["faults.crash.rejoins"] == 1
            status = "ok" if ok else "FAILED"
            print(
                f"  {label:<16} site={site:<9} {status:<6} "
                f"rewritten={counters['faults.crash.resume_rewritten_bytes']:>5} "
                f"skipped={counters['faults.crash.resume_skipped_bytes']:>5}"
            )
            failures += 0 if ok else 1
    if failures:
        print(f"crash selfcheck: {failures} combinations FAILED")
        return 1
    print("crash selfcheck: all combinations recovered byte-identical")
    return 0


def _print_fault_summary(spec, plan, faults) -> None:
    """The plan, then every fault counter of the ``faults`` snapshot —
    zero rows too, in declaration order, seconds to six places."""
    from repro.faults import FAULT_COUNTERS

    print(f"\nfault scenario {spec!r} (seed {plan.seed}):")
    for kind, detail in plan.describe():
        print(f"  {kind:<14} {detail}")
    print("\nfault/retry summary:")
    for name in FAULT_COUNTERS:
        value = faults.get(name, 0)
        text = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {name:<36} {text}")


def chaos(
    fault_spec: Optional[str] = None,
    integrity: bool = False,
    liveness: bool = False,
    ppn: int = 0,
    replicate: int = 1,
    async_io: bool = False,
) -> int:
    from repro.bench import ChaosHarness
    from repro.mpi import Hints

    hints = None
    if ppn > 1:
        hints = Hints(
            cb_nodes=2, cb_buffer_size=512, procs_per_node=ppn, exchange="two_layer"
        )
    harness = ChaosHarness(
        fault_spec or "chaos",
        integrity=integrity,
        liveness=liveness,
        hints=hints,
        replication=replicate,
        async_io=async_io,
    )
    report = harness.sweep()
    print(report.format())
    if not report.all_verified:
        print("chaos: SILENT DATA CORRUPTION under faults")
        return 1
    print("chaos: no silent corruption at any intensity")
    return 0


def fsck(
    fault_spec: Optional[str] = None,
    integrity: bool = False,
    liveness: bool = False,
    ppn: int = 0,
) -> int:
    """Scrub/repair demonstration on a deliberately corrupted store."""
    from repro import (
        BYTE,
        CollectiveFile,
        Communicator,
        Hints,
        SimFileSystem,
        Simulator,
        contiguous,
        resized,
    )
    from repro.integrity import fsck as run_fsck

    nprocs, region, count = 4, 64, 64
    path = "/fsck"
    fs = SimFileSystem()
    hints = Hints(cb_nodes=2, integrity_pages=True)

    def main(ctx):
        comm = Communicator(ctx)
        f = CollectiveFile(ctx, comm, fs, path, hints=hints)
        tile = resized(contiguous(region, BYTE), 0, region * nprocs)
        f.set_view(disp=comm.rank * region, filetype=tile)
        data = (
            np.arange(region * count, dtype=np.int64) * (comm.rank + 1) % 251
        ).astype(np.uint8)
        f.write_all(data)
        f.close()

    Simulator(nprocs).run(main)
    total = nprocs * region * count
    reference = fs.raw_bytes(path, 0, total)
    store = fs.page_store(path)
    last_page = (store.size - 1) // store.page_size
    store.flip_bit(0, 12345)
    if last_page != 0:
        store.flip_bit(last_page, 7)
    print(f"wrote {total} bytes ({store.allocated_pages} pages), then corrupted "
          f"page(s) {sorted({0, last_page})}")
    print("\nscrub (report only):")
    scrub = run_fsck(fs)
    for rep in scrub:
        print(rep.format())
    if all(rep.clean for rep in scrub):
        print("fsck: corruption NOT detected")
        return 1
    print("\nrepair from reference image:")
    for rep in run_fsck(fs, repair="reference", references={path: reference}):
        print(rep.format())
    clean = all(rep.clean for rep in run_fsck(fs))
    restored = bool(np.array_equal(fs.raw_bytes(path, 0, total), reference))
    if not (clean and restored):
        print("fsck: repair FAILED")
        return 1
    print("fsck: corruption detected and repaired, contents verified")
    return 0


def trace(
    fault_spec: Optional[str] = None,
    integrity: bool = False,
    liveness: bool = False,
    ppn: int = 0,
    out: str = "out.json",
) -> int:
    """Run one traced collective write/read and export a Chrome trace.

    The workload is the selfcheck's interleaved tile pattern on the new
    implementation (two-layer when ``--ppn`` arms a topology), recorded
    as nested spans and written to ``out`` as ``trace_event`` JSON that
    Perfetto / ``chrome://tracing`` loads directly.  The export is
    validated against the checked-in schema, and the per-state span
    totals are cross-checked against the tracer's MPE-style
    aggregation before the file is declared good."""
    from repro import BYTE, Hints, Session, contiguous, resized
    from repro.faults import fired
    from repro.obs.schema import validate_chrome_trace

    nprocs = 2 * ppn if ppn > 1 else 8
    region, count = 64, 16
    hints = Hints(coll_impl="new", cb_nodes=2, cb_buffer_size=512)
    if ppn > 1:
        hints = hints.replace(procs_per_node=ppn, exchange="two_layer")
    if integrity:
        hints = hints.replace(
            integrity_pages=True, integrity_network=True, journal_writes=True
        )
    if liveness:
        hints = hints.replace(coll_deadline=0.5, liveness=True)

    session = Session(
        "/trace", nprocs=nprocs, hints=hints, faults=fault_spec, trace=True
    )

    def body(ctx, comm, f):
        tile = resized(contiguous(region, BYTE), 0, region * comm.size)
        f.set_view(disp=comm.rank * region, filetype=tile)
        data = (
            np.arange(region * count, dtype=np.int64) * (comm.rank + 1) % 251
        ).astype(np.uint8)
        f.write_all(data)
        f.seek(0)
        back = np.zeros_like(data)
        f.read_all(back)
        return bool(np.array_equal(back, data))

    verified = session.run(body)
    doc = session.write_trace(out, validate=True)
    validate_chrome_trace(doc)

    # Cross-check: the Chrome export's per-name dur totals must equal
    # the tracer's MPE-style per-state aggregation (µs vs seconds).
    chrome_totals: dict[str, float] = {}
    spans = 0
    for ev in doc["traceEvents"]:
        if ev["ph"] != "X":
            continue
        spans += 1
        chrome_totals[ev["name"]] = chrome_totals.get(ev["name"], 0.0) + ev["dur"]
    by_state = session.time_by_state()
    drift = 0.0
    for state, seconds in by_state.items():
        drift = max(drift, abs(chrome_totals.get(state, 0.0) - seconds * 1e6))
    if drift > 1e-3:  # µs
        print(f"trace: export disagrees with aggregation by {drift:.3f} µs")
        return 1

    print(f"wrote {out}: {spans} spans, {len(by_state)} states, schema-valid")
    print(f"makespan {session.makespan * 1e3:.3f} ms; time by state:")
    for state in sorted(by_state, key=by_state.get, reverse=True):
        print(f"  {state:<20} {by_state[state] * 1e3:9.3f} ms")
    if session.plan is not None:
        print(f"faults: {fired(session.registry.snapshot('faults.'))}")
    if not all(verified):
        bad = [r for r, okr in enumerate(verified) if not okr]
        print(f"read-back mismatch on rank(s) {bad} (uncaught injected faults)")
    print("trace: span totals match MPE-style aggregation")
    return 0


def mt(
    fault_spec: Optional[str] = None,
    integrity: bool = False,
    liveness: bool = False,
    ppn: int = 0,
    tenants: int = 3,
    sched: str = "fair",
    as_json: bool = False,
) -> int:
    """Multi-tenant smoke: N collective tenants + background traffic on
    one shared file system, run under FIFO and the selected scheduler.

    Every tenant's read-back must be byte-perfect and the per-tenant
    registry mirrors must sum exactly to the shared-fs globals
    (conservation).  ``--faults`` installs the scenario into tenant
    ``t0`` only — per-tenant fault isolation is part of the smoke.
    ``--json`` replaces the human tables with one machine-readable
    JSON document comparing FIFO against the selected policy."""
    import json

    from repro import BYTE, Cluster, contiguous, resized

    region, count = 64, 8

    def mkbody():
        def body(ctx, comm, f):
            tile = resized(contiguous(region, BYTE), 0, region * comm.size)
            f.set_view(disp=comm.rank * region, filetype=tile)
            data = (
                np.arange(region * count, dtype=np.int64) * (comm.rank + 2) % 251
            ).astype(np.uint8)
            f.write_all(data)
            f.seek(0)
            back = np.zeros_like(data)
            f.read_all(back)
            return bool(np.array_equal(back, data))

        return body

    failures = 0
    doc = {
        "tenants": tenants,
        "background": ["scan", "random"],
        "faults": fault_spec,
        "policies": {},
    }
    for policy in dict.fromkeys(("fifo", sched)):
        cl = Cluster(scheduler=policy)
        for i in range(tenants):
            hints = {"coll_impl": "new", "cb_nodes": 2, "tenant_priority": 1 + i % 2}
            if integrity:
                hints.update(integrity_pages=True, integrity_network=True)
            if liveness:
                hints.update(coll_deadline=0.5, liveness=True)
            if ppn > 1:
                hints.update(procs_per_node=ppn, exchange="two_layer")
            cl.add_tenant(
                f"t{i}",
                mkbody(),
                nprocs=4,
                hints=hints,
                arrival=0.0005 * i,
                faults=fault_spec if i == 0 else None,
            )
        cl.add_background("scan", nprocs=1, total_bytes=1 << 16)
        cl.add_background("random", nprocs=1, ops=32)
        out = cl.run()
        entry = {"makespans": {}, "verified": {}, "conservation": {}}
        if not as_json:
            print(f"scheduler {policy!r}:")
        for name, res in out.items():
            verified = all(r is True for r in res.results if isinstance(r, bool))
            entry["makespans"][name] = res.makespan
            entry["verified"][name] = verified
            if not as_json:
                print(
                    f"  {name:<12} makespan {res.makespan * 1e3:9.3f} ms"
                    + ("" if verified else "  READ-BACK MISMATCH")
                )
            if not verified:
                failures += 1
        entry["spread"] = cl.spread
        if not as_json:
            print(f"  spread {cl.spread * 1e3:.3f} ms")
        for metric in ("fs.bytes.written", "fs.bytes.read"):
            mirrored, total = cl.conservation(metric)
            conserved = mirrored == total
            entry["conservation"][metric] = {
                "mirrored": mirrored,
                "total": total,
                "ok": conserved,
            }
            if not as_json:
                status = "ok" if conserved else "VIOLATED"
                print(f"  conservation {metric}: {mirrored} vs {total} {status}")
            if not conserved:
                failures += 1
        doc["policies"][policy] = entry
    ok = failures == 0
    if as_json:
        fifo = doc["policies"].get("fifo")
        other = doc["policies"].get(sched)
        if fifo is not None and other is not None and sched != "fifo":
            doc["comparison"] = {
                "policy": sched,
                "spread_fifo": fifo["spread"],
                "spread_policy": other["spread"],
                "spread_ratio": (
                    other["spread"] / fifo["spread"] if fifo["spread"] > 0 else None
                ),
            }
        doc["ok"] = ok
        print(json.dumps(doc, indent=1, sort_keys=True))
        return 0 if ok else 1
    if not ok:
        print(f"mt: {failures} check(s) FAILED")
        return 1
    print(f"mt: {tenants} tenants + 2 background, data verified, "
          "attribution conserved")
    return 0


def demo(
    fault_spec: Optional[str] = None,
    integrity: bool = False,
    liveness: bool = False,
    ppn: int = 0,
) -> int:
    import runpy
    from pathlib import Path

    script = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
    if script.exists():
        runpy.run_path(str(script), run_name="__main__")
        return 0
    print("examples/quickstart.py not found (installed without examples)")
    return 1


def info(
    fault_spec: Optional[str] = None,
    integrity: bool = False,
    liveness: bool = False,
    ppn: int = 0,
) -> int:
    import dataclasses

    from repro import DEFAULT_COST_MODEL, __version__
    from repro.faults import scenario_names
    from repro.mpi import Hints

    print(f"repro {__version__} — flexible MPI collective I/O reproduction")
    print("\ndefault cost model:")
    for field in dataclasses.fields(DEFAULT_COST_MODEL):
        print(f"  {field.name:<24} {getattr(DEFAULT_COST_MODEL, field.name)}")
    print("\nknown hints (default values):")
    for key in Hints.known_keys():
        print(f"  {key:<24} {Hints.default(key)!r}")
    print("\nfault scenarios (--faults NAME[:SEED]):")
    for name in scenario_names():
        print(f"  {name}")
    return 0


def main(argv: list[str]) -> int:
    args = list(argv)
    fault_spec: Optional[str] = None
    if "--faults" in args:
        i = args.index("--faults")
        if i + 1 >= len(args):
            print("--faults requires a scenario spec (NAME[:SEED]); see `info`")
            return 2
        fault_spec = args[i + 1]
        del args[i : i + 2]
    integrity = "--integrity" in args
    if integrity:
        args.remove("--integrity")
    liveness = False
    for flag in ("--liveness", "--deadline"):
        if flag in args:
            liveness = True
            args.remove(flag)
    ppn = 0
    if "--ppn" in args:
        i = args.index("--ppn")
        if i + 1 >= len(args):
            print("--ppn requires a ranks-per-node count")
            return 2
        try:
            ppn = int(args[i + 1])
        except ValueError:
            print(f"--ppn requires an integer, got {args[i + 1]!r}")
            return 2
        if ppn < 1:
            print(f"--ppn must be >= 1, got {ppn}")
            return 2
        del args[i : i + 2]
    tenants = 3
    if "--tenants" in args:
        i = args.index("--tenants")
        if i + 1 >= len(args):
            print("--tenants requires a tenant count")
            return 2
        try:
            tenants = int(args[i + 1])
        except ValueError:
            print(f"--tenants requires an integer, got {args[i + 1]!r}")
            return 2
        if tenants < 1:
            print(f"--tenants must be >= 1, got {tenants}")
            return 2
        del args[i : i + 2]
    sched = "fair"
    if "--sched" in args:
        i = args.index("--sched")
        if i + 1 >= len(args):
            print("--sched requires a policy name (fifo|fair|wfq)")
            return 2
        sched = args[i + 1]
        del args[i : i + 2]
    replicate = 1
    if "--replicate" in args:
        i = args.index("--replicate")
        if i + 1 >= len(args):
            print("--replicate requires a replica count")
            return 2
        try:
            replicate = int(args[i + 1])
        except ValueError:
            print(f"--replicate requires an integer, got {args[i + 1]!r}")
            return 2
        if replicate < 1:
            print(f"--replicate must be >= 1, got {replicate}")
            return 2
        del args[i : i + 2]
    crash_spec: Optional[str] = None
    if "--crash" in args:
        i = args.index("--crash")
        if i + 1 >= len(args):
            print("--crash requires RANK[:EPOCH] (e.g. --crash 2:1)")
            return 2
        crash_spec = args[i + 1]
        del args[i : i + 2]
    plan_cache = "--plan-cache" in args
    if plan_cache:
        args.remove("--plan-cache")
    async_io = "--async" in args
    if async_io:
        args.remove("--async")
    pipeline = 0
    if "--pipeline" in args:
        i = args.index("--pipeline")
        if i + 1 >= len(args):
            print("--pipeline requires a depth (rounds in flight)")
            return 2
        try:
            pipeline = int(args[i + 1])
        except ValueError:
            print(f"--pipeline requires an integer, got {args[i + 1]!r}")
            return 2
        if pipeline < 0:
            print(f"--pipeline must be >= 0, got {pipeline}")
            return 2
        del args[i : i + 2]
    as_json = "--json" in args
    if as_json:
        args.remove("--json")
    cmd = args[0] if args else "selfcheck"
    commands = {
        "selfcheck": selfcheck,
        "demo": demo,
        "info": info,
        "chaos": chaos,
        "fsck": fsck,
        "trace": trace,
        "mt": mt,
    }
    if cmd not in commands:
        print(
            f"usage: python -m repro [{'|'.join(commands)}] "
            "[--faults NAME[:SEED]] [--integrity] [--liveness] [--ppn N] "
            "[--replicate R] [--plan-cache] [--async] [--pipeline D]\n"
            "       python -m repro selfcheck --crash RANK[:EPOCH]\n"
            "       python -m repro trace [OUT.json] [--ppn N] "
            "[--faults NAME[:SEED]]\n"
            "       python -m repro mt [--tenants N] [--sched fifo|fair|wfq] "
            "[--json] [--faults NAME[:SEED]]"
        )
        return 2
    if cmd == "trace":
        out = args[1] if len(args) > 1 else "out.json"
        return trace(fault_spec, integrity, liveness, ppn, out)
    if cmd == "mt":
        return mt(fault_spec, integrity, liveness, ppn, tenants, sched, as_json)
    if cmd == "selfcheck" and crash_spec is not None:
        return crash_check(crash_spec)
    if cmd == "selfcheck":
        return selfcheck(
            fault_spec, integrity, liveness, ppn, replicate, plan_cache,
            async_io, pipeline,
        )
    if cmd == "chaos":
        return chaos(fault_spec, integrity, liveness, ppn, replicate, async_io)
    return commands[cmd](fault_spec, integrity, liveness, ppn)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
