"""Golden CLI outputs: stdout, stderr and exit status of every subcommand on
the shipped theories and on ``golden/runtime.ceff``, which holds the runtime
shapes they lack (lambdas, ``split``, arrow types, a residual weakening after
a handler and a blocked program).  ``golden/chain24.ceff`` and
``golden/branching10.ceff`` are the texts of the benchmark's generated
``chain_case(1, 0, 24)`` and ``branching_case(1, 0, 10)``, kept as files so
that these goldens do not move when the generator does.

Each ``golden/<file>.<command>.txt`` pins one command on one file, run
in-process through ``cli.main``.  A refactor keeps them byte-identical; an
intended output change regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and the diff shows what changed.
"""
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from cateff.cli import main
from conftest import theory_path

GOLDEN = Path(__file__).parent / "golden"

FILES = {
    "pair_handler": theory_path("pair_handler"),
    "session": theory_path("session"),
    "mutstore": theory_path("mutstore"),
    "widened": theory_path("widened"),
    "runtime": str(GOLDEN / "runtime.ceff"),
    "chain24": str(GOLDEN / "chain24.ceff"),
    "branching10": str(GOLDEN / "branching10.ceff"),
}

COMMANDS = {
    "check": ["check"],
    "run-trace": ["run", "--trace"],
    "denote": ["denote"],
    "denote-json": ["denote", "--json"],
    "conform-40-json": ["conform", "--count", "40", "--json-report"],
}


def record(file: str, command: str) -> str:
    """The golden text of one command on one file, with the file's path
    replaced by its name."""
    path = FILES[file]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(COMMANDS[command] + [path])
    name = Path(path).name
    return (f"$ cateff {' '.join(COMMANDS[command])} {name}\n"
            f"exit {status}\n"
            f"--- stdout\n{out.getvalue().replace(path, name)}"
            f"--- stderr\n{err.getvalue().replace(path, name)}")


def golden_path(file: str, command: str) -> Path:
    return GOLDEN / f"{file}.{command}.txt"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("file", FILES)
def test_cli_output_matches_golden(file, command):
    expected = golden_path(file, command).read_text(encoding="utf-8")
    assert record(file, command) == expected


if __name__ == "__main__":
    for file in FILES:
        for command in COMMANDS:
            golden_path(file, command).write_text(record(file, command),
                                                  encoding="utf-8")
