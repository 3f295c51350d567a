"""``tests/pins.py`` and its parts on synthetic pin sets — nothing simulated.

The full run (byte oracles, then the five captures) is minutes long and
not tier-1; these hold the pieces every report and rewrite goes through:
the one differ, the rose/fell summary, the in-file row rewriter and the
CLI transcript review.
"""

from __future__ import annotations

import pytest

import pins
import registry_golden
import test_engine_schedule as schedule
from run import diff, flat  # benchmarks/run.py, on the path pins sets


def _row(n: int, makespan: float, **counts) -> dict:
    return {"cell": {"n": n}, "sim_makespan_s": makespan, "total_bytes": 64,
            "verified": True, "counts": counts, "extra": {}}


def test_the_differ_names_a_key_that_appears_or_vanishes():
    old = {"a.makespan": (0.5).hex(), "a.counts": "feed"}
    new = {"a.makespan": (0.5).hex(), "a.schedule": "beef"}
    assert diff(old, new) == ["a.counts: 'feed' -> None", "a.schedule: None -> 'beef'"]
    assert diff(new, new) == []


def test_the_differ_names_a_row_count_that_changes():
    old = flat("fig", [_row(1, 0.5, **{"coll.rounds[0]": 4})])
    new = flat("fig", [_row(1, 0.5, **{"coll.rounds[0]": 4}), _row(2, 0.25)])
    assert diff(old, new) == [
        "fig.rows: 1 -> 2",
        "fig[n=2].sim_makespan_s: None -> 0.25",
        "fig[n=2].total_bytes: None -> 64",
        "fig[n=2].verified: None -> True",
    ]
    point = {"coll.rounds[0]": 4}
    assert diff(registry_golden.flat("stall", [point, point]), registry_golden.flat("stall", [point])) == [
        "stall.points: 2 -> 1",
        "stall[1].coll.rounds[0]: 4 -> None",
    ]


def test_summary_says_which_cells_rose_and_fell_and_what_moved_with_them():
    bench = (
        flat("fig", [_row(1, 0.5, **{"lock.revocations": 2}), _row(2, 0.5), _row(3, 0.5)]),
        flat("fig", [_row(1, 0.75, **{"lock.revocations": 3}), _row(2, 0.25), _row(3, 0.5)]),
    )
    cell = schedule.PINS["lock-pins"]
    schedule_pins = (
        schedule.flat({"lock-pins": cell}),
        schedule.flat({"lock-pins": ((1.0).hex(), cell[1], "feedfacefeedface")}),
    )
    before = float.fromhex(cell[0])
    assert pins.summarize({"BENCH.json": bench, "PINS": schedule_pins, "cli": ({}, {})}) == [
        "makespan cells: 2 rose, 1 fell",
        "rose:",
        "  BENCH.json fig[n=1]: 0.5 -> 0.75 (+50 %); with counts.lock.revocations",
        f"  PINS lock-pins: {before!r} -> 1.0 ({(1.0 - before) / before * 100:+.3g} %); with counts",
        "fell:",
        "  BENCH.json fig[n=2]: 0.5 -> 0.25 (-50 %)",
        "moved values: BENCH.json 3, PINS 2, cli 0",
    ]
    assert pins.summarize({"PINS": (schedule_pins[0],) * 2}) == [
        "makespan cells: 0 rose, 0 fell",
        "moved values: PINS 0",
    ]


_BLOCKS = '''\
CELLS = {
    "a": lambda: 1,
}

PINS: Dict[str, Tuple[str, str, str]] = {
    "a": ("0x1.0000000000000p-1", "d1", "c1"),
    # a comment between rows
    "b": ("0x1.0000000000000p-2", "d2", "c2"),
}

_MAKESPANS = {
    (64, True): 0.5,
    (1024, False): 0.25,
}
'''


def test_rewriter_replaces_rows_of_the_named_block_only(tmp_path):
    path = tmp_path / "pinned.py"
    path.write_text(_BLOCKS)
    schedule.rewrite_rows(path, "PINS", schedule.pin_rows({"a": ("0x1.8p-1", "d9", "c9")}))
    schedule.rewrite_rows(path, "_MAKESPANS", {repr((1024, False)): repr(0.125)})
    assert path.read_text() == _BLOCKS.replace(
        '"a": ("0x1.0000000000000p-1", "d1", "c1")', '"a": ("0x1.8p-1", "d9", "c9")'
    ).replace("(1024, False): 0.25,", "(1024, False): 0.125,")


@pytest.mark.parametrize(
    "block, rows, rows_found",
    [
        ("PINS", {'"c"': '("0x1p+0", "d", "c")'}, 0),  # no such row
        ("_MAKESPANS", {"(256, True)": "0.5"}, 0),
        ("PINS", {'"a"': '("0x1p+0", "d", "c")', '"b"': "x"}, 2),  # the first row matched twice
    ],
)
def test_rewriter_raises_on_a_row_matched_zero_times_or_twice(tmp_path, block, rows, rows_found):
    text = _BLOCKS if rows_found == 0 else _BLOCKS.replace('    "b": ', '    "a": ')
    path = tmp_path / "pinned.py"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"has {rows_found} rows for"):
        schedule.rewrite_rows(path, block, rows)
    assert path.read_text() == text  # nothing written


def test_rewriter_raises_on_a_missing_block(tmp_path):
    path = tmp_path / "pinned.py"
    path.write_text(_BLOCKS)
    with pytest.raises(ValueError, match="no _SPANS"):
        schedule.rewrite_rows(path, "_SPANS", {"(64, True)": "0.5"})


def test_cli_review_flags_an_exit_code_or_a_word_that_moved():
    was = [{"argv": ["chaos"], "exit": 0, "stdout": "rate 0.1  12.5 ms  verified\n"}] * 3
    now = [
        {"argv": ["chaos"], "exit": 0, "stdout": "rate 0.1  13.5 ms  verified\n"},  # numerals only
        {"argv": ["chaos"], "exit": 1, "stdout": "rate 0.1  12.5 ms  verified\n"},
        {"argv": ["chaos"], "exit": 0, "stdout": "rate 0.1  12.5 ms  FAILED\n"},
    ]
    lines, findings = pins._cli_review(was, now)
    assert [line.split(": ", 1)[1] for line in findings] == [
        "exit 0 -> 1, 0 of 1 lines differ, numerals only",
        "exit 0, 1 of 1 lines differ, NON-NUMERAL tokens moved",
    ]
    assert lines[0].endswith("numerals only") and len(lines) == 5


@pytest.mark.parametrize("argv", [[], ["--json"], ["--check", "--write"], ["--write", "fig4"]])
def test_only_check_or_write(argv, capsys):
    assert pins.main(argv) == 2
    assert "--check" in capsys.readouterr().out
