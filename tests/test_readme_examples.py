"""The table examples in README.md, run through cli.main.

Each fenced block that starts with ``$ dirichletops ...`` and shows a CSV
document must match the command's stdout byte for byte.  JSON examples are
abridged in the README and are not compared.
"""

import re
import shlex
from pathlib import Path

import pytest

from dirichletops.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _csv_examples():
    examples = []
    for block in re.findall(r"```\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S):
        command, _, output = block.partition("\n")
        if command.startswith("$ dirichletops ") and not output.startswith("{"):
            examples.append((shlex.split(command)[2:], output))
    return examples


EXAMPLES = _csv_examples()


def test_every_table_command_has_an_example():
    assert {argv[0] for argv, _ in EXAMPLES} == {
        "matrix-norm",
        "approx-numbers",
        "verify-lemmas",
        "figure",
    }


@pytest.mark.parametrize(
    "argv, expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES]
)
def test_readme_example_is_reproduced(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
