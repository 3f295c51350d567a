"""Tests for the CLI entry point."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import repro.__main__ as cli
from repro import Cluster, Session


class TestCLI:
    def test_selfcheck_passes(self, capsys):
        assert cli.selfcheck() == 0
        out = capsys.readouterr().out
        assert "all combinations verified" in out
        assert out.count(" ok") == 8

    def test_info_lists_model_and_hints(self, capsys):
        assert cli.info() == 0
        out = capsys.readouterr().out
        assert "cpu_per_flat_pair" in out
        assert "cb_buffer_size" in out
        assert "repro 1.0.0" in out

    def test_unknown_command(self, capsys):
        assert cli.main(["fly"]) == 2
        assert "usage" in capsys.readouterr().out

    def test_default_command_is_selfcheck(self, capsys):
        assert cli.main([]) == 0

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert cli.main(["chaos", "--help"]) == 0
        assert "--faults NAME[:SEED]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            # A flag nobody takes: once ran the default matrix and "verified" it.
            ["selfcheck", "--bogus"],
            ["--bogus"],
            ["selfcheck", "--integ"],  # no prefix matching either
            # A flag the command does not take: once dropped, success reported.
            ["chaos", "--plan-cache"],
            ["chaos", "--crash", "1"],
            ["fsck", "--faults", "stall:1"],
            ["info", "--ppn", "2"],
            ["selfcheck", "--crash", "1", "--integrity"],
            # Names checked at parse time: once a traceback out of the run.
            ["mt", "--sched", "bogus"],
            ["selfcheck", "--faults", "nosuch:1"],
            ["chaos", "--faults", "stall:x"],
            # Values.
            ["selfcheck", "--ppn", "0"],
            ["selfcheck", "--pipeline", "-1"],
            ["selfcheck", "--crash", "9"],
            ["mt", "--tenants", "0"],
        ],
    )
    def test_usage_errors_exit_2_before_any_run(self, argv, capsys, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError(f"{argv} assembled a job")

        monkeypatch.setattr(Session, "__init__", ran)
        monkeypatch.setattr(Cluster, "__init__", ran)
        assert cli.main(argv) == 2
        assert "usage: python -m repro" in capsys.readouterr().out


# -- the simplification cannot silently regress --------------------------------

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def test_one_way_in():
    """Jobs are assembled by ``Session`` and ``Cluster`` only: nothing else
    under ``src/repro`` constructs a ``Simulator`` or a ``SimFileSystem``
    (their defining modules aside), and the CLI and the chaos harness
    spell no tile pattern of their own."""
    assemblers = {"obs/session.py", "tenancy/cluster.py"}
    defining = {"sim/engine.py", "fs/filesystem.py"}
    found = set()
    for path in SRC.rglob("*.py"):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("Simulator", "SimFileSystem") and rel not in defining:
                    found.add(rel)
    assert found == assemblers
    for rel in ("__main__.py", "bench/chaos.py"):
        assert "resized(contiguous(" not in (SRC / rel).read_text(), rel


#: What the docs' placeholders stand for when a quoted line is parsed.
_PLACEHOLDERS = {
    "NAME[:SEED]": "stall:42", "spec": "stall:42", "RANK[:EPOCH]": "2:1",
    "N": "2", "D": "2", "R": "2", "NAME": "wfq", "{fifo,fair,wfq}": "wfq", "OUT.json": "out.json",
}


def _quoted_invocations():
    docs = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / ".claude/skills/verify/SKILL.md"]
    for doc in docs + sorted((ROOT / "docs").glob("*.md")):
        for tail in re.findall(r"python -m repro\b([^`#\n]*)", doc.read_text()):
            words = []
            for word in tail.replace("[-", " -").split():  # ``[--ppn N]``: taken
                while word.endswith("]") and word.count("[") < word.count("]"):
                    word = word[:-1]
                if word.startswith("[") and word.endswith("]"):  # ``[OUT.json]``
                    word = word[1:-1]
                words.append(_PLACEHOLDERS.get(word, word))
            # ``selfcheck|demo|info``: one invocation per alternative.
            for cmd in words[0].split("|") if words else [None]:
                yield doc.name, [cmd, *words[1:]] if words else []


def test_every_documented_invocation_parses():
    """Every ``python -m repro ...`` line the docs quote is accepted by
    the parser (parse only — nothing runs)."""
    quoted = list(_quoted_invocations())
    assert len(quoted) >= 38
    for doc, argv in quoted:
        try:
            cli.parse(argv)
        except SystemExit as stop:  # ``--help`` leaves with 0
            assert stop.code == 0, f"{doc}: python -m repro {' '.join(argv)} does not parse"


def test_api_md_usage_lines_are_what_help_prints(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "400")  # one usage line per command
    documented = (ROOT / "docs" / "api.md").read_text()
    for command in cli.COMMANDS:
        assert cli.main([command, "--help"]) == 0
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage.startswith(f"usage: python -m repro {command} ")
        assert usage + "\n" in documented, usage
