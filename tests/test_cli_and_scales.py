"""Tests for the CLI entry point."""

from __future__ import annotations

import repro.__main__ as cli


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
