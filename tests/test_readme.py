"""The README's command-line examples run as written."""

import shlex
from pathlib import Path

from adaprox.cli import cli_main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def readme_commands():
    """The `adaprox` lines of the sh block after "Command line:", as argv lists."""
    text = README.read_text()
    block = text[text.index("```sh", text.index("Command line:")):]
    block = block[len("```sh"):block.index("```", len("```sh"))]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("adaprox ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    """solve, check, bench and gen in order, in a scratch directory; a path
    under scripts/ names the repo's file, and bench writes under the scratch
    directory."""
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["solve", "check", "bench", "gen"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        argv = [str(ROOT / a) if a.startswith("scripts/") else a for a in argv]
        assert cli_main(argv) == 0, argv
    assert (tmp_path / "nmf_grid_out" / "summary.json").exists()
