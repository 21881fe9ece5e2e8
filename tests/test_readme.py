"""Every ``weylbundles`` command line in the README's shell blocks runs and exits 0."""
import json
import re
import shlex
from pathlib import Path

import pytest

from weylbundles.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list[tuple[str, str | None]]:
    """(command line, the result after ``# ->`` or None) for each example;
    ``verify-all`` is left to the acceptance tests."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    examples = []
    for line in (line for block in blocks for line in block.splitlines()):
        command, _, comment = line.partition("#")
        if line.startswith("weylbundles ") and "verify-all" not in command:
            comment = comment.strip()
            examples.append((command.strip(), comment[2:].strip() if comment.startswith("->")
                             else None))
    return examples


EXAMPLES = readme_examples()


def test_readme_lists_the_examples():
    assert len(EXAMPLES) == 10
    assert [expected for _, expected in EXAMPLES if expected] == ["(z - z^2)", "x*(1/4*z)"]


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_runs(capsys, command, expected):
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0
    if expected is not None:
        assert json.loads(out.splitlines()[-1])["result"] == expected
