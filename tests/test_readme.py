"""The README's command-line examples run as written."""

import shlex
from pathlib import Path

import numpy as np

from adaprox import SolverConfig, run
from adaprox.cli import cli_main
from adaprox.harness import TRACE_SCHEMA, write_trace
from adaprox.problems import quadratic_problem

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


def test_readme_trace_table_recipe_runs(tmp_path, monkeypatch):
    """The Traces section's Python block, run as written, loads every column
    of a trace file in its dtype and bit for bit, without adaprox."""
    text = README.read_text()
    block = text[text.index("```python", text.index("To load a column as a table")):]
    block = block[len("```python"):block.index("```", len("```python"))]
    monkeypatch.chdir(tmp_path)
    result = run(quadratic_problem([0.5, 1.0, 2.0]), np.ones(3), SolverConfig(max_iters=5))
    write_trace(result.trace, "json", "t.json")
    scope = {}
    exec(block, scope)
    records = result.trace.all_records()
    for c, f, dtype in TRACE_SCHEMA:
        expected = np.array([getattr(r, f) for r in records], dtype)
        assert scope["table"][c].dtype == expected.dtype, c
        assert scope["table"][c].tobytes() == expected.tobytes(), c
