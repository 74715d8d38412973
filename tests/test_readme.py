"""The README's examples run and print what their comments say.

Each statement of the ```python block runs in order; an expression whose
line ends in a comment must have that comment as its ``repr``.  Each
``condalg ...`` line of a ```sh block that ends in a comment runs
in-process through ``cli.main`` and must print that comment.
"""

from __future__ import annotations

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from condalg.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def comments(source: str) -> dict[int, str]:
    """The text of each line's comment, by line number."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT}


def test_python_block_values():
    (source,) = blocks("python")
    notes = comments(source)
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(source).body:
        note = notes.get(statement.end_lineno)
        if isinstance(statement, ast.Expr) and note is not None:
            value = eval(compile(ast.Expression(statement.value), "README", "eval"), namespace)
            assert repr(value) == note, ast.unparse(statement)
            checked += 1
        else:
            exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
    assert checked >= 4


COMMAND_LINES = [
    line
    for block in blocks("sh")
    for line in block.splitlines()
    if line.startswith("condalg ") and "#" in line
]


def test_sh_blocks_have_commented_commands():
    assert len(COMMAND_LINES) >= 5


@pytest.mark.parametrize("line", COMMAND_LINES, ids=lambda line: line.split()[1])
def test_sh_command_output(line, capsys):
    command, _, note = line.rpartition("#")
    argv = shlex.split(line, comments=True)
    # The last ``#`` starts the comment: no argument contains one.
    assert shlex.split(command) == argv
    code = main(argv[1:])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert out.strip() == note.strip()
