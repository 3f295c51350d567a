"""The composition table (``repro.core.compat``): every row, end to end.

* one table-driven case per row of ``compat.RULES`` — a minimal
  ``(hints, FaultPlan)`` that triggers it and one that does not — held
  to the verdict, the ``Effective`` fields, the
  ``compat.stand_down.<id>`` count and the ``get_info()`` overlay; a
  row without a case (or with two) fails;
* ``resolve`` is pure: equal records for equal inputs, in this process
  and under ``PYTHONHASHSEED`` 0 and 1;
* docs/compatibility.md's table is the rendered rows
  (``PYTHONPATH=src python tests/test_compat.py`` prints it);
* the regressions the table exists for: the moving-AAR corruption under
  ``old`` + PFR + an incoherent cache, a ``rank_stall`` that fires
  under both implementations, conflicts raised by the ``Session`` /
  ``Cluster`` front doors themselves.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, NamedTuple, Optional

import numpy as np
import pytest

from repro import Cluster, Session
from repro.core import compat
from repro.core.compat import REJECT, RULES, STAND_DOWN, resolve
from repro.datatypes import BYTE, contiguous, resized
from repro.errors import HintConflict
from repro.faults import FaultPlan
from repro.mpi import Hints

NPROCS, REGION, COUNT = 4, 64, 8
#: Small enough for four rounds, so boundary-keyed events have boundaries.
GEOMETRY = {"cb_nodes": 2, "cb_buffer_size": 256}


def _stall() -> FaultPlan:
    return FaultPlan(0).rank_stall(0, delay=1e-2, call_index=0, round_index=1)


class Case(NamedTuple):
    rule: str
    #: Hints (and plan factory) that trigger the row ...
    hints: Dict[str, Any]
    plan: Optional[Callable[[], FaultPlan]] = None
    #: ... the nearest ones that do not ...
    off_hints: Optional[Dict[str, Any]] = None
    off_plan: Optional[Callable[[], FaultPlan]] = None
    #: ... and the Effective fields the stand-down must leave behind.
    fields: Dict[str, Any] = {}


CASES = (
    Case(
        "aligned.needs_alignment",
        {"realm_strategy": "aligned"},
        off_hints={"realm_strategy": "aligned", "realm_alignment": 64},
    ),
    Case(
        "old.agg_crash",
        {"coll_impl": "old"},
        lambda: FaultPlan(0).agg_crash(0, round_index=1),
        off_hints={"coll_impl": "new"},
        off_plan=lambda: FaultPlan(0).agg_crash(0, round_index=1),
    ),
    Case(
        "old.realms",
        {"coll_impl": "old", "persistent_file_realms": True, "cache_mode": "incoherent"},
        # What the harnesses hand `old` anyway is not a request turned down.
        off_hints={"coll_impl": "old", "realm_strategy": "even", "cache_mode": "incoherent"},
        fields={"pfr": False, "realm_coherence": True},
    ),
    Case(
        "old.io_method",
        {"coll_impl": "old", "io_method": "naive"},
        off_hints={"coll_impl": "old", "io_method": "datasieve"},
    ),
    Case(
        "old.exchange",
        {"coll_impl": "old", "exchange": "alltoallw"},
        off_hints={"coll_impl": "old", "exchange": "nonblocking"},
        fields={"exchange": "nonblocking", "exchange_skip": "nonblocking"},
    ),
    Case(
        "old.use_heap",
        {"coll_impl": "old", "use_heap": True},
        off_hints={"coll_impl": "old", "use_heap": False},
    ),
    Case(
        "old.procs_per_node",
        {"coll_impl": "old", "procs_per_node": 2},
        off_hints={"coll_impl": "old", "procs_per_node": 0},
    ),
    Case(
        "old.suspects",
        {"coll_impl": "old", "liveness": True},
        _stall,
        off_hints={"coll_impl": "old", "coll_deadline": 0.5},
        off_plan=_stall,
        fields={"suspects": False, "boundary_kinds": frozenset({"rank_stall"})},
    ),
    Case(
        "pfr.strategy",
        {"persistent_file_realms": True, "realm_strategy": "balanced", "cache_mode": "incoherent"},
        off_hints={"persistent_file_realms": True, "realm_strategy": "even", "cache_mode": "incoherent"},
        fields={"pfr": True, "realm_coherence": False},
    ),
    Case(
        "recarve.pipeline",
        {"pipeline_depth": 2},
        _stall,
        off_hints={"pipeline_depth": 2},
        off_plan=lambda: FaultPlan(0).transient_io(rate=0.01),
        fields={"pipeline_depth": 0},
    ),
    Case(
        "recarve.plan_cache",
        {"plan_cache": True},
        _stall,
        off_hints={"plan_cache": True},
        fields={"plan_cache": False},
    ),
    Case(
        "suspects.two_layer",
        {"exchange": "two_layer", "procs_per_node": 2, "liveness": True},
        _stall,
        off_hints={"exchange": "alltoallw", "procs_per_node": 2, "liveness": True},
        off_plan=_stall,
        fields={"exchange": "two_layer", "exchange_skip": "alltoallw", "suspects": True},
    ),
)
RULE = {rule.id: rule for rule in RULES}


def test_every_row_has_exactly_one_case():
    assert Counter(c.rule for c in CASES) == Counter(r.id for r in RULES)
    assert len(RULE) == len(RULES), "duplicate rule id"
    assert {r.verdict for r in RULES} <= {STAND_DOWN, REJECT}
    assert {r.scope for r in RULES} <= {"open", "round"}


def _run(hints: Hints, plan: Optional[FaultPlan]):
    """One interleaved-tile write + read-back on ``NPROCS`` ranks;
    returns (session, every rank's ``get_info()``)."""
    s = Session("/compat", nprocs=NPROCS, hints=hints, faults=plan)

    def body(ctx, comm, f):
        tile = resized(contiguous(REGION, BYTE), 0, REGION * comm.size)
        f.set_view(disp=comm.rank * REGION, filetype=tile)
        data = np.full(REGION * COUNT, comm.rank + 1, dtype=np.uint8)
        f.write_all(data)
        f.seek(0)
        back = np.zeros_like(data)
        f.read_all(back)
        assert np.array_equal(back, data)
        return f.get_info()

    return s, s.run(body)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.rule)
def test_row(case: Case):
    rule = RULE[case.rule]
    hints = Hints(**GEOMETRY, **case.hints)
    off = Hints(**GEOMETRY, **(case.off_hints or {}))
    plan = case.plan() if case.plan else None
    off_plan = case.off_plan() if case.off_plan else None
    kinds = plan.kinds if plan else ()
    off_kinds = off_plan.kinds if off_plan else ()
    counter = f"compat.stand_down.{rule.id}"

    # -- the near miss: resolves, and the row leaves no trace -------------
    assert rule.id not in resolve(off, off_kinds).decisions
    s, infos = _run(off, off_plan)
    assert s.metrics.total(counter) == 0
    if rule.scope == "open":
        assert all(info == {k: off[k] for k in off} for info in infos if info), rule.id

    # -- the trigger ------------------------------------------------------
    if rule.verdict == REJECT:
        for front_door in (
            lambda: resolve(hints, kinds),
            lambda: Session("/compat", nprocs=NPROCS, hints=hints, faults=plan),
            lambda: Cluster().add_tenant("t", lambda *a: None, hints=hints, faults=plan),
        ):
            with pytest.raises(HintConflict) as refused:
                front_door()
            assert refused.value.rule == rule.id
            assert rule.id in str(refused.value)
        return

    eff = resolve(hints, kinds)
    for name, value in case.fields.items():
        assert getattr(eff, name) == value, (rule.id, name)
    s, infos = _run(hints, plan)
    if rule.scope == "round":
        # Settled per round: not an open-time decision, counted once per
        # rank per round that had to skip someone — the same rounds
        # `exchange.flat_fallbacks` counts.
        assert rule.id not in eff.decisions
        assert s.metrics.total(counter) == s.metrics.value("exchange.flat_fallbacks") > 0
        return
    assert rule.id in eff.decisions
    assert s.metrics.total(counter) == NPROCS  # once per open, per rank
    expected = {k: hints[k] for k in hints}
    expected.update(rule.overrides)
    for info in infos:
        assert info == expected, rule.id


def test_old_reports_what_it_does_only_when_asked_otherwise():
    """Hazard: the default ``exchange`` is alltoallw, which the original
    code does not run either — but a default is not a request, so it is
    neither counted nor overlaid; the *record* still says nonblocking."""
    eff = resolve(Hints(coll_impl="old"))
    assert eff.decisions == ()
    assert eff.exchange == eff.exchange_skip == "nonblocking"
    assert eff.method == "old"


# -- purity -------------------------------------------------------------------
def _canonical() -> str:
    """Every trigger case's record (or conflict), as sorted JSON."""
    out = {}
    for case in CASES:
        kinds = case.plan().kinds if case.plan else ()
        try:
            record = dataclasses.asdict(resolve(Hints(**case.hints), kinds))
            record["boundary_kinds"] = sorted(record["boundary_kinds"])
        except HintConflict as conflict:
            record = str(conflict)
        out[case.rule] = record
    return json.dumps(out, sort_keys=True)


def test_resolve_is_pure_across_hash_seeds():
    here = _canonical()
    assert here == _canonical()
    hints = Hints(coll_impl="old", exchange="two_layer", liveness=True)
    assert resolve(hints, {"rank_stall"}) == resolve(hints, ("rank_stall", "rank_stall"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        got = subprocess.run(
            [sys.executable, __file__, "--canonical"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        assert got.stdout.strip() == here, seed


# -- docs/compatibility.md is the rendered table --------------------------------
def render_table() -> str:
    lines = [
        "| id | verdict | scope | in use instead | when: why |",
        "|---|---|---|---|---|",
    ]
    for r in RULES:
        instead = ", ".join(f"`{k}={str(v).lower()}`" for k, v in r.overrides.items()) or "—"
        verdict = "**reject**" if r.verdict == REJECT else "stand-down"
        lines.append(f"| `{r.id}` | {verdict} | {r.scope} | {instead} | {r.why} |")
    return "\n".join(lines)


def test_docs_table_is_in_sync():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "compatibility.md").read_text()
    assert render_table() in doc, (
        "docs/compatibility.md is stale: paste the output of "
        "`PYTHONPATH=src python tests/test_compat.py`"
    )


def test_hint_table_lists_every_hint_with_evidence_that_exists():
    """docs/api.md: one row per known hint, and every test, bench file or
    ``BENCH.json#<experiment>[::<check>]`` its evidence column names is
    really there (ROADMAP's hint audit)."""
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "benchmarks"))
    from experiments import EXPERIMENTS

    stored = json.loads((root / "BENCH.json").read_text())
    section = (root / "docs" / "api.md").read_text().split("\n## Hints\n")[1].split("\n## ")[0]
    rows = [line.split("|") for line in section.splitlines() if line.startswith("| `")]
    assert sorted(r[1].strip(" `") for r in rows) == Hints.known_keys()
    for row in rows:
        evidence = re.findall(r"`((?:tests|benchmarks)/[^`]+|BENCH\.json#\w+(?:::\w+)?)`", row[4])
        assert evidence or "spine" in row[4], row[1]
        for ref in evidence:
            path, *names = ref.split("::")
            if path.startswith("BENCH.json#"):
                experiment = EXPERIMENTS[path.partition("#")[2]]
                assert stored[experiment.name], ref
                assert set(names) <= {check.__name__ for check in experiment.checks}, ref
                continue
            source = (root / path).read_text()
            for name in names:
                assert re.search(rf"^\s*(def|class) {name}\b", source, re.M), ref


# -- the regressions -------------------------------------------------------------
def _moving_aar(impl: str, pfr: bool) -> tuple:
    """Two 64 KiB ``write_all``s whose aggregate access region moves by
    half, second call with new data, through incoherent client caches;
    returns (file image, oracle, rank 0's ``get_info()``)."""
    chunk = 16 * 1024
    s = Session(
        "/aar",
        nprocs=4,
        hints={
            "coll_impl": impl,
            "cb_nodes": 2,
            "cache_mode": "incoherent",
            "persistent_file_realms": pfr,
        },
    )

    def payload(rank: int, step: int) -> np.ndarray:
        return ((np.arange(chunk, dtype=np.int64) * (rank + 3) + 7 * step) % 251).astype(np.uint8)

    def body(ctx, comm, f):
        for step, base in enumerate((0, 2 * chunk)):
            f.set_view(disp=base + comm.rank * chunk)
            f.write_all(payload(comm.rank, step))
        return f.get_info()

    infos = s.run(body)
    oracle = np.zeros(6 * chunk, dtype=np.uint8)
    for step, base in enumerate((0, 2 * chunk)):
        for rank in range(4):
            lo = base + rank * chunk
            oracle[lo : lo + chunk] = payload(rank, step)
    return s.fs.raw_bytes("/aar", 0, oracle.size), oracle, infos[0]


@pytest.mark.parametrize("impl,pfr", [("old", True), ("old", False), ("new", True), ("new", False)])
def test_moving_aar_through_incoherent_caches_is_byte_correct(impl, pfr):
    """``old`` re-partitions the AAR on every call whatever the PFR hint
    says, so the handle must keep invalidating/syncing: it used to read
    the raw hint, skip both, and leave 32 768 stale bytes in the file."""
    got, oracle, info = _moving_aar(impl, pfr)
    assert int(np.count_nonzero(got != oracle)) == 0
    assert info["persistent_file_realms"] is (pfr and impl == "new")


def test_rank_stall_fires_under_both_implementations():
    """The fault model does not read the hints: the same plan stalls the
    same rank for the same time under ``old`` (where it used to vanish)."""
    seen = {}
    for impl in ("new", "old"):
        s, _ = _run(Hints(coll_impl=impl, **GEOMETRY), _stall())
        seen[impl] = (s.metrics.total("faults.stalls"), s.metrics.total("faults.stall_seconds"))
    assert seen["old"] == seen["new"] == (1, 1e-2)


@pytest.mark.parametrize("impl", ["new", "old"])
def test_conflict_comes_from_the_constructor_not_a_rank(impl):
    with pytest.raises(HintConflict) as refused:
        Session(hints={"coll_impl": impl, "realm_strategy": "aligned"})
    assert refused.value.rule == "aligned.needs_alignment"


if __name__ == "__main__":
    print(_canonical() if "--canonical" in sys.argv else render_table())
