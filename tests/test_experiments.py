"""The experiment table, ``BENCH.json`` and the docs, held to each other
without running a cell — plus one drift run through ``run.py --check``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from test_obs_metrics import _catalogue_patterns

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import run  # noqa: E402  (benchmarks/run.py)
from experiments import EXPERIMENTS  # noqa: E402

BENCH = json.loads(run.BENCH_JSON.read_text())
ROW_KEYS = ["cell", "sim_makespan_s", "total_bytes", "verified", "counts", "extra"]


def test_table_and_file_list_the_same_experiments():
    assert list(BENCH) == list(EXPERIMENTS)
    assert len(EXPERIMENTS) == 18


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_stored_rows_are_the_product_of_the_axes(name):
    """One row per axis combination (times the declared fan-out), in run
    order, every row in the one shape."""
    want = [cell for _, cells in EXPERIMENTS[name].cells() for cell in cells]
    assert [row["cell"] for row in BENCH[name]] == want
    for row in BENCH[name]:
        assert list(row) == ROW_KEYS
        assert row["sim_makespan_s"] is None or row["sim_makespan_s"] > 0.0
        assert isinstance(row["total_bytes"], int)


def test_every_count_is_a_catalogued_registry_name():
    """``counts`` keys are registry labels — ``name`` or ``name[key]`` —
    of names docs/observability.md lists."""
    patterns = _catalogue_patterns()
    names = {
        label.partition("[")[0]
        for rows in BENCH.values()
        for row in rows
        for label in row["counts"]
    }
    assert len(names) > 15
    assert not sorted(n for n in names if not any(p.fullmatch(n) for p in patterns))


def test_every_check_is_a_named_callable():
    for exp in EXPERIMENTS.values():
        assert exp.checks, exp.name
        names = [check.__name__ for check in exp.checks]
        assert all(callable(check) for check in exp.checks)
        assert len(set(names)) == len(names) and "<lambda>" not in names, exp.name


def test_check_reports_an_edited_value_and_exits_1(tmp_path, capsys):
    """The drift gate end to end on the cheapest experiment: one stored
    value altered by hand -> exit 1 and the ``old -> new`` line; the
    committed file -> exit 0."""
    assert run.main(["--check", "ablation_cb_size"]) == 0
    doc = json.loads(run.BENCH_JSON.read_text())
    doc["ablation_cb_size"][1]["counts"]["coll.rounds[0]"] = 7
    edited = tmp_path / "BENCH.json"
    edited.write_text(run.dump(doc))
    capsys.readouterr()
    assert run.main(["--check", "ablation_cb_size"], edited) == 1
    out = capsys.readouterr().out
    assert "ablation_cb_size[cb_kb=64].counts.coll.rounds[0]: 7 -> 6\n" in out
    assert out.count(" -> ") == 1
    assert json.loads(edited.read_text()) == doc  # --check never writes


def test_worker_pool_returns_the_stored_rows_in_table_order():
    """The pooled path of ``run.py --check``: two experiments in two
    spawned workers come back as ``BENCH.json`` stores them, in the
    order asked."""
    names = ["hpio_matrix", "ablation_balanced_realms"]
    got = [(name, rows) for name, rows, _ in run.run_all(names, workers=2)]
    assert got == [(name, BENCH[name]) for name in names]
