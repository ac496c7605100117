"""The README's command-line examples run as written."""

import shlex
from pathlib import Path

import pytest

from adaprox.cli import cli_main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The `adaprox` lines of the sh block after "Command line:", as argv lists."""
    text = README.read_text()
    block = text[text.index("```sh", text.index("Command line:")):]
    block = block[len("```sh"):block.index("```", len("```sh"))]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("adaprox ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    """solve, check and gen in order; bench needs a config file the repo lacks."""
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["solve", "check", "bench", "gen"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if argv[0] != "bench":
            assert cli_main(argv) == 0, argv
