"""Command-line entry point: ``python -m repro [command] [flags]``.

``python -m repro --help`` lists the commands, ``python -m repro
COMMAND --help`` the flags each one takes; a bare flag list means
``selfcheck``.  Every job is assembled by :class:`~repro.obs.session.Session`
(``mt``: :class:`~repro.tenancy.Cluster`), every workload is
:func:`repro.hpio.verify.smoke_pattern`, and every arming flag is a row
of :data:`repro.bench.chaos.ARMS`.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Optional

from repro.fs.schedule import SCHEDULER_NAMES


def _roundtrip(pattern, reps: int = 1, async_io: bool = False):
    """The smoke body: set the view, then ``reps`` x (collective write,
    read back, compare against the oracle)."""
    from repro.hpio.verify import apply_view, expected_file_bytes, read_back_ok, write_pattern

    image = expected_file_bytes(pattern)  # once, not per rank per repeat

    def body(ctx, comm, f):
        apply_view(f, pattern, comm.rank)
        ok = True
        for _ in range(reps):
            write_pattern(f, pattern, comm.rank, async_io=async_io)
            ok = read_back_ok(f, pattern, comm.rank, async_io=async_io, image=image) and ok
        return ok

    return body


def _untimed(session, body) -> list:
    """``body(ctx, comm, f)`` on every rank through the session's
    opener, without :meth:`Session.run`'s makespan bracket."""

    def main(ctx):
        with session.opened(ctx) as (comm, f):
            return body(ctx, comm, f)

    return session.launch(main)


def selfcheck(
    faults: Optional[str] = None,
    integrity: bool = False,
    liveness: bool = False,
    ppn: int = 0,
    replicate: int = 1,
    plan_cache: bool = False,
    async_io: bool = False,
    pipeline: int = 0,
) -> int:
    """A collective write/read cycle on a 4-rank simulated cluster under
    both implementations and every flush method, checked against the
    oracle.  Under ``--faults`` the results must still be byte-perfect
    (the resilience machinery's contract), the ``faults.*`` counters are
    printed, and a plan that injected nothing fails the run: a fault
    smoke that drew no fault verified nothing."""
    from repro import Hints, MetricsRegistry, Session
    from repro.bench.chaos import arm
    from repro.errors import HintConflict, IntegrityError, RankFailed, error_chain
    from repro.faults import load_scenario
    from repro.hpio.verify import smoke_pattern

    plan = load_scenario(faults) if faults else None
    if plan is not None and "rank_crash" in plan.kinds:
        # A crashed rank returns no result and the file is whole only
        # after a rejoin, which this loop does not do.
        print(
            "selfcheck: rank-crash plans need the crash-aware mode "
            "(--crash RANK[:EPOCH], or chaos --faults rank-crash:N)"
        )
        return 2
    armed = arm(
        "selfcheck", integrity=integrity, liveness=liveness, ppn=ppn, replicate=replicate,
        plan_cache=plan_cache, pipeline=pipeline, faults=plan is not None,
    )
    nprocs = 4
    # --plan-cache repeats the call three times: the first must build
    # (a miss per rank), every identical later call must replay.
    reps = 3 if plan_cache else 1
    roundtrip = _roundtrip(smoke_pattern(nprocs), reps, async_io)

    def body(ctx, comm, f):
        ok = roundtrip(ctx, comm, f)
        pc = f.plancache
        return (ok, pc.hits, pc.misses) if pc is not None else (ok, 0, 0)

    totals = MetricsRegistry()  # under a plan: every combination's counters, summed
    failures = 0
    for impl in ("new", "old"):
        for method in ("datasieve", "naive", "listio", "conditional"):
            label = f"  {impl:>3} + {method:<12}"
            hints = Hints(coll_impl=impl, io_method=method, cb_nodes=2).replace(**armed)
            try:
                session = Session("/check", nprocs=nprocs, hints=hints, faults=plan)
            except HintConflict as conflict:
                print(f"{label} n/a ({conflict.rule})")
                continue
            try:
                results = _untimed(session, body)
            except RankFailed as exc:
                caught = [e for e in error_chain(exc) if isinstance(e, IntegrityError)]
                if not caught:
                    raise
                # The sidecar caught an injected flip: loud and typed,
                # which is integrity's contract — but not a verified run.
                print(f"{label} DETECTED ({caught[0]})")
                failures += 1
                continue
            finally:
                if plan is not None:
                    totals.merge(session.registry)
            ok = all(r[0] for r in results)
            extra = ""
            if plan_cache:
                hits = sum(r[1] for r in results)
                misses = sum(r[2] for r in results)
                extra = f"  plan {hits}h/{misses}m"
                if plan is None:
                    # (Fault plans may stand the cache down, so only
                    # the clean run gates on the replay counts.)
                    ok = ok and misses == nprocs and hits == (2 * reps - 1) * nprocs
            print(f"{label} {'ok' if ok else 'FAILED'}{extra}")
            failures += 0 if ok else 1
    if plan is not None:
        counters = totals.snapshot("faults.")
        _print_fault_summary(faults, plan, counters)
        if not any(counters.values()):
            print(f"selfcheck: fault plan {faults!r} injected nothing (try another seed)")
            return 1
    if failures:
        print(f"selfcheck: {failures} combinations FAILED")
        return 1
    print("selfcheck: all combinations verified")
    return 0


def crash_check(rank: int, epoch: int) -> int:
    """``selfcheck --crash RANK[:EPOCH]``: fail-stop crash + rejoin.

    Kills RANK at phase boundary EPOCH of the first collective write, at
    each crash site, under both implementations and every exchange
    backend.  Survivors must finish their bytes, the rejoined rank
    resumes from the epoch commit records, and the recovered file must
    match the oracle byte-for-byte (docs/crash_recovery.md)."""
    from repro.bench.chaos import SMOKE_HINTS, ChaosHarness
    from repro.faults import FaultPlan

    modes = [
        ("new+two_layer", {"coll_impl": "new", "exchange": "two_layer"}),
        ("new+alltoallw", {"coll_impl": "new", "exchange": "alltoallw"}),
        ("new+nonblocking", {"coll_impl": "new", "exchange": "nonblocking"}),
        ("old", {"coll_impl": "old"}),
    ]
    print(f"crash selfcheck: kill rank {rank} at epoch {epoch}, then rejoin")
    failures = 0
    for label, mode in modes:
        for site in ("boundary", "exchange", "flush"):
            plan = FaultPlan(seed=0).rank_crash(
                rank, call_index=0, round_index=epoch, site=site
            )
            run = ChaosHarness(plan, hints=SMOKE_HINTS.replace(**mode)).run_once(plan)
            count = run.registry.total
            ok = run.verified and count("faults.crash.rejoins") == 1
            print(
                f"  {label:<16} site={site:<9} {'ok' if ok else 'FAILED':<6} "
                f"rewritten={count('faults.crash.resume_rewritten_bytes'):>5} "
                f"skipped={count('faults.crash.resume_skipped_bytes'):>5}"
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
    faults: Optional[str] = None,
    integrity: bool = False,
    liveness: bool = False,
    ppn: int = 0,
    replicate: int = 1,
    async_io: bool = False,
) -> int:
    """Sweep a fault scenario's intensity over the smoke write and report
    the completion-time degradation.  Every point must end with verified
    bytes, detected corruption, or a bounded typed error — never a hang,
    never a wrong byte nobody flagged."""
    from repro.bench.chaos import SMOKE_HINTS, ChaosHarness, arm

    harness = ChaosHarness(
        faults or "chaos",
        hints=SMOKE_HINTS.replace(**arm("chaos", ppn=ppn)),
        integrity=integrity,
        liveness=liveness,
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


def fsck() -> int:
    """Scrub/repair demonstration: write a checksummed file, corrupt it,
    scrub, repair from a reference image, verify."""
    import numpy as np

    from repro import Hints, Session
    from repro.hpio.verify import apply_view, smoke_pattern, write_pattern
    from repro.integrity import fsck as run_fsck

    path = "/fsck"
    pattern = smoke_pattern(4, 64)
    session = Session(
        path, nprocs=pattern.nprocs, hints=Hints(cb_nodes=2, integrity_pages=True)
    )

    def body(ctx, comm, f):
        apply_view(f, pattern, comm.rank)
        write_pattern(f, pattern, comm.rank)

    _untimed(session, body)
    fs, total = session.fs, pattern.total_bytes
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
    out: str = "out.json",
    faults: Optional[str] = None,
    integrity: bool = False,
    liveness: bool = False,
    ppn: int = 0,
) -> int:
    """Run one traced smoke write/read on the new implementation (8
    ranks; 2N ranks through the two-layer exchange under ``--ppn N``)
    and write the spans to OUT as Chrome ``trace_event`` JSON that
    Perfetto / ``chrome://tracing`` loads directly.  Exits 0 only if the
    export is schema-valid and its per-state span totals match the
    tracer's MPE-style aggregation."""
    from repro import Hints, Session
    from repro.bench.chaos import SMOKE_HINTS, arm
    from repro.faults import fired
    from repro.hpio.verify import smoke_pattern
    from repro.obs.schema import validate_chrome_trace

    nprocs = 2 * ppn if ppn > 1 else 8
    hints = SMOKE_HINTS.replace(
        coll_impl="new", **arm("trace", integrity=integrity, liveness=liveness, ppn=ppn)
    )
    session = Session("/trace", nprocs=nprocs, hints=hints, faults=faults, trace=True)
    verified = session.run(_roundtrip(smoke_pattern(nprocs)))
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
    faults: Optional[str] = None,
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
    (conservation); per-tenant makespans and the cross-tenant spread are
    printed.  ``--faults`` installs the scenario into tenant ``t0`` only
    — per-tenant fault isolation is part of the smoke."""
    import json

    from repro import Cluster
    from repro.bench.chaos import arm
    from repro.hpio.verify import smoke_pattern

    nprocs = 4
    body = _roundtrip(smoke_pattern(nprocs, 8))
    armed = arm("mt", integrity=integrity, liveness=liveness, ppn=ppn)
    failures = 0
    doc = {
        "tenants": tenants,
        "background": ["scan", "random"],
        "faults": faults,
        "policies": {},
    }
    for policy in dict.fromkeys(("fifo", sched)):
        cl = Cluster(scheduler=policy)
        for i in range(tenants):
            cl.add_tenant(
                f"t{i}",
                body,
                nprocs=nprocs,
                hints={"coll_impl": "new", "cb_nodes": 2, "tenant_priority": 1 + i % 2, **armed},
                arrival=0.0005 * i,
                faults=faults if i == 0 else None,
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


def demo() -> int:
    """The quickstart scenario with a printed activity timeline."""
    import runpy
    from pathlib import Path

    script = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
    if script.exists():
        runpy.run_path(str(script), run_name="__main__")
        return 0
    print("examples/quickstart.py not found (installed without examples)")
    return 1


def info() -> int:
    """Version, default cost model, known hints, fault scenario names."""
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


# -- the flag surface ---------------------------------------------------------


def _scenario(spec: str) -> str:
    from repro.faults import load_scenario
    from repro.faults.plan import FaultPlanError

    try:
        load_scenario(spec)
    except FaultPlanError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return spec


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _crash_spec(spec: str) -> tuple:
    rank, _, epoch = spec.partition(":")
    rank, epoch = int(rank), int(epoch) if epoch else 1
    if not 0 <= rank < 4:
        raise argparse.ArgumentTypeError(f"rank must be in [0, 4), got {rank}")
    if epoch < 0:
        raise argparse.ArgumentTypeError(f"epoch must be >= 0, got {epoch}")
    return rank, epoch


_crash_spec.__name__ = "RANK[:EPOCH]"


_ON = {"action": "store_true"}
#: dest -> (option strings, ``add_argument`` keywords).
FLAGS = {
    "faults": (["--faults"], dict(
        metavar="NAME[:SEED]", type=_scenario,
        help="install the named deterministic fault scenario (`info` lists them) "
        "into every simulated cluster the command builds — `mt`: into tenant t0 "
        "only — e.g. --faults transient-io:42")),
    "integrity": (["--integrity"], dict(
        help="arm the end-to-end integrity hints (page checksums, frame checksums; "
        "selfcheck/trace: journaled collective writes too); with a corruption "
        "scenario (--faults bit-flip:SEED) every injected flip must then be "
        "*detected* (docs/integrity.md)", **_ON)),
    "liveness": (["--liveness", "--deadline"], dict(
        help="arm the liveness hints (a per-collective deadline plus suspect-driven "
        "failover); with a stall scenario (--faults stall:SEED, gray:SEED) every "
        "run must end within the deadline budget: verified data or a typed error, "
        "never a hang (docs/faults.md)", **_ON)),
    "ppn": (["--ppn"], dict(
        metavar="N", type=_at_least(1), default=0,
        help="arm the node topology at N ranks per node (procs_per_node=N + "
        "exchange=two_layer); what composes with which implementation is "
        "repro.core.compat's call — a rejected selfcheck cell prints n/a "
        "(docs/compatibility.md)")),
    "replicate": (["--replicate"], dict(
        metavar="R", type=_at_least(1), default=1,
        help="arm replication_factor=R: every stripe's pages land on R distinct "
        "OSTs, writes commit on a majority quorum, reads fail over to surviving "
        "replicas; pair with --faults ost-crash (docs/storage_faults.md)")),
    "plan_cache": (["--plan-cache"], dict(
        help="arm the persistent-plan cache and repeat each combination's call "
        "three times: one build per rank, every later call a replay, read-backs "
        "byte-perfect (docs/plan_cache.md)", **_ON)),
    "async_io": (["--async"], dict(
        dest="async_io",
        help="issue every collective through the nonblocking surface "
        "(iwrite_all/iread_all + Request.wait(), docs/async_io.md)", **_ON)),
    "pipeline": (["--pipeline"], dict(
        metavar="D", type=_at_least(0), default=0,
        help="arm pipeline_depth=D (double-buffered rounds; 0 = serialized)")),
    "crash": (["--crash"], dict(
        metavar="RANK[:EPOCH]", type=_crash_spec,
        help="instead of the matrix: kill RANK at phase boundary EPOCH (default 1) "
        "of the first collective write, rejoin it, and require the recovered file "
        "byte-identical at every crash site x implementation x exchange backend; "
        "takes no other flag")),
    "tenants": (["--tenants"], dict(
        metavar="N", type=_at_least(1), default=3, help="collective tenants (default 3)")),
    "sched": (["--sched"], dict(
        choices=SCHEDULER_NAMES, default="fair",
        help="OST policy compared against fifo (default fair)")),
    "as_json": (["--json"], dict(
        dest="as_json",
        help="one machine-readable JSON document instead of the tables", **_ON)),
    "out": (["out"], dict(
        metavar="OUT.json", nargs="?", default="out.json",
        help="where the Chrome trace goes (default out.json)")),
}


COMMANDS = {
    "selfcheck": (selfcheck, ["faults", "integrity", "liveness", "ppn", "replicate",
                              "plan_cache", "async_io", "pipeline", "crash"]),
    "demo": (demo, []),
    "info": (info, []),
    "chaos": (chaos, ["faults", "integrity", "liveness", "ppn", "replicate", "async_io"]),
    "fsck": (fsck, []),
    "trace": (trace, ["out", "faults", "integrity", "liveness", "ppn"]),
    "mt": (mt, ["faults", "integrity", "liveness", "ppn", "tenants", "sched", "as_json"]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro", allow_abbrev=False,
        description="Flexible MPI collective I/O reproduction: smoke commands "
        "(a bare flag list means `selfcheck`).",
    )
    subs = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (fn, takes) in COMMANDS.items():
        doc = " ".join(fn.__doc__.replace("``", "`").split())
        sub = subs.add_parser(
            name, allow_abbrev=False, help=doc.partition(". ")[0], description=doc
        )
        for dest in takes:
            options, kwargs = FLAGS[dest]
            sub.add_argument(*options, **kwargs)
    return parser


def parse(argv: list[str]) -> dict:
    """``argv`` -> the chosen command's keywords (plus ``command``);
    usage errors leave through argparse's ``SystemExit(2)``."""
    argv = list(argv)
    if not argv or (argv[0].startswith("-") and argv[0] not in ("-h", "--help")):
        argv.insert(0, "selfcheck")
    parser = build_parser()
    ns = vars(parser.parse_args(argv))
    crash = ns.get("crash")
    if crash is not None and ns != {**vars(parser.parse_args(["selfcheck"])), "crash": crash}:
        parser.error("selfcheck --crash RANK[:EPOCH] takes no other flag")
    return ns


def main(argv: list[str]) -> int:
    try:
        # Usage errors go where every other message of the CLI goes.
        with contextlib.redirect_stderr(sys.stdout):
            ns = parse(argv)
    except SystemExit as stop:
        return stop.code
    crash = ns.pop("crash", None)
    if crash is not None:
        return crash_check(*crash)
    return COMMANDS[ns.pop("command")][0](**ns)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
