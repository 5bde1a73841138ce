"""The examples in the docstrings and in README.md print what they show."""

import doctest
import re
from pathlib import Path

import pytest

import permcodec._pure
import permcodec.codec
import permcodec.perms
from conftest import run_cli

README = Path(__file__).resolve().parent.parent / "README.md"

#: README examples that end in a non-zero exit code; every other one exits 0
EXIT_CODES = {("encode", "1324", "--k", "4"): 3}


@pytest.mark.parametrize(
    "source",
    [permcodec.perms, permcodec.codec, permcodec._pure, README],
    ids=["perms", "codec", "_pure", "README.md"],
)
def test_doctests(source):
    if source is README:
        result = doctest.testfile(str(README), module_relative=False)
    else:
        result = doctest.testmod(source)
    assert result.failed == 0 and result.attempted > 0


def readme_commands():
    """(argv, shown text) of each ``$ permcodec`` example under README's Command line."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"^```\n(.*?)^```", section, flags=re.S | re.M):
        for example in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, shown = example.partition("\n")
            prog, *argv = command.split()
            assert prog == "permcodec"
            examples.append(pytest.param(argv, shown.rstrip("\n") + "\n", id=" ".join(argv)))
    return examples


@pytest.mark.parametrize("argv, shown", readme_commands())
def test_readme_command_line_examples(tmp_path, argv, shown):
    out = run_cli(argv, tmp_path)
    assert out.returncode == EXIT_CODES.get(tuple(argv), 0)
    assert out.stdout + out.stderr == shown
