"""Byte-identity of the CLI surface: ``drbw --help``, every ``drbw <cmd>
--help`` and ``drbw list`` print exactly the checked-in text.

The goldens under ``tests/golden/cli/`` are argparse output at an
80-column terminal (``COLUMNS=80``).  Regenerate one with e.g.
``COLUMNS=80 PYTHONPATH=src python -m repro.cli serve --help >
tests/golden/cli/serve.help.txt`` — and only when a change to the
surface is intended.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.cli import COMMANDS, main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli"


def _stdout_of(argv: list[str], capsys, monkeypatch) -> str:
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(argv)
    except SystemExit as exc:  # --help exits through argparse
        code = exc.code
    assert code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", [None, *sorted(COMMANDS)])
def test_help_is_unchanged(command, capsys, monkeypatch):
    argv = ["--help"] if command is None else [command, "--help"]
    name = "drbw" if command is None else command
    want = (GOLDEN / f"{name}.help.txt").read_text(encoding="utf-8")
    assert _stdout_of(argv, capsys, monkeypatch) == want


def test_list_is_unchanged(capsys, monkeypatch):
    want = (GOLDEN / "list.txt").read_text(encoding="utf-8")
    assert _stdout_of(["list"], capsys, monkeypatch) == want
