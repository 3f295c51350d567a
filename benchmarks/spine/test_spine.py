"""Contract checks for the benchmark itself.

    python -m pytest benchmarks/spine -q

Not part of tier-1 (``testpaths = ["tests"]``): these run the smoke-size
benchmark end to end, which takes tens of seconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import metrics  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("spine") / "results.json"
    proc = _run(str(HERE / "run.py"), "--smoke", "--seed", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return {"results": json.loads(out.read_text()), "stdout": proc.stdout, "path": out}


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/spine"]
    assert SPEC["command"][-1].startswith("benchmarks/spine/")
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == metrics.PER_LAYER
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (s.name, s.why) for s in workloads.SPECS.values()
    ]


def test_every_name_is_printed_and_every_workload_verifies(smoke):
    results = smoke["results"]
    assert results["ok"] and not results["mismatches"]
    assert list(results["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, w in results["workloads"].items():
        assert set(w["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}, name
        assert set(w["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}, name
        assert w["derived"]["failed"] == 0 and w["derived"]["attempted"] >= 2
        for metric in list(w["end_to_end"]) + list(w["per_layer"]):
            assert re.search(rf"^\s*{re.escape(metric)}\s", smoke["stdout"], re.M), metric
        assert all(e["value"] > 0 for e in w["end_to_end"].values())
        assert abs(w["per_layer"]["trace.closure_frac"]["value"]) <= 0.05


@pytest.mark.parametrize("trace", [0, 1])
def test_one_workload_form_ends_with_the_contract_line(trace):
    proc = _run(str(HERE / "run.py"), "--workload", "fig4_read", "--seed", "5",
                "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in want}


def test_same_seed_same_inputs_other_seed_other_inputs():
    a, b, c = (workloads.build("ranks_many", seed, smoke=True) for seed in (7, 7, 8))
    assert a.image.shape == b.image.shape and (a.image == b.image).all()
    assert a.image.shape != c.image.shape or (a.image != c.image).any()


def test_probes_rebind_by_name_imports_and_leave_nothing_behind():
    import repro.core.two_phase_new as tp
    import repro.mpi.collectives as coll
    from repro.datatypes import packing
    from repro.mpi.comm import Communicator

    original, send = packing.scatter_segments, Communicator.send
    assert probes.installed() == []
    with probes.Probes():
        for module in (packing, coll, tp):
            assert module.scatter_segments is not original
            assert module.scatter_segments.__wrapped__ is original
        assert Communicator.send is not send
        assert probes.installed()
    assert packing.scatter_segments is coll.scatter_segments is tp.scatter_segments is original
    assert Communicator.send is send
    assert probes.installed() == []


def test_a_failing_iteration_is_counted_not_fatal():
    import run

    w = workloads.build("fig4_write", 0, smoke=True)
    good = run.iterate(metrics, w)
    assert good["ok"] and good["error"] is None
    w.check = lambda session: False
    assert not run.iterate(metrics, w)["ok"]

    def boom(ctx, comm, f):
        raise ValueError("injected")

    w.body = boom
    bad = run.iterate(metrics, w)
    assert not bad["ok"] and "injected" in bad["error"]


def test_a_worker_that_dies_fails_the_full_run(smoke, tmp_path, monkeypatch):
    import run

    # The smoke fixture left every block's file of the same seed in out/.
    assert (run.OUT / "fig4_write.block0.json").is_file()
    dies = tmp_path / "dies.py"
    dies.write_text("import sys\nsys.exit(3)\n")
    monkeypatch.setattr(run, "WORKER", dies)
    with pytest.raises(SystemExit) as stopped:
        run.main(["--smoke", "--seed", "3", "--out", str(tmp_path / "results.json")])
    assert stopped.value.code not in (0, None)
    assert not (tmp_path / "results.json").exists()


def test_compare_a_against_itself(smoke, capsys):
    assert compare.main([str(smoke["path"]), str(smoke["path"])]) == 0
    table = capsys.readouterr().out
    assert "REGRESSED" not in table
    rows = [l for l in table.splitlines() if l.split()[:1] and l.split()[0] in workloads.SPECS]
    assert len(rows) == len(SPEC["workloads"]) * (len(SPEC["end_to_end"]) + 1)  # + the wall_raw_s row


def test_compare_flags_a_regression_and_an_unresolved_row(smoke, tmp_path):
    worse = json.loads(smoke["path"].read_text())
    e = worse["workloads"]["fig4_write"]["end_to_end"]
    e["sim_makespan_s"]["samples"] = [1.001 * x for x in e["sim_makespan_s"]["samples"]]  # same seed: bound 0
    e["wall_s"]["samples"] = [x * f for x, f in zip(e["wall_s"]["samples"], (0.5, 2.0))]
    path = tmp_path / "worse.json"
    path.write_text(json.dumps(worse))
    assert compare.main([str(smoke["path"]), str(path)]) == 1
    lines, _ = compare.compare(smoke["results"], worse)
    row = lambda m: next(l for l in lines if l.startswith("fig4_write") and f" {m} " in l)  # noqa: E731
    assert row("sim_makespan_s").rstrip().endswith("REGRESSED")
    assert "unresolved" in row("wall_s")
    worse["seed"] += 1  # another seed, other inputs: only the seed-to-seed bound applies
    lines, regressed = compare.compare(smoke["results"], worse)
    assert not regressed and row("sim_makespan_s").rstrip().endswith("unchanged")


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "spine", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(*SPEC["command"][1:], "--workload", "fig4_write", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
