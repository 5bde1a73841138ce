"""The examples in the docstrings and in README.md print what they show."""

import doctest
import re
from pathlib import Path

import pytest

import permcodec._pure
import permcodec.codec
import permcodec.perms
from conftest import run_cli
from permcodec.cli import build_parser

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


def command_line_section():
    return README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def readme_commands():
    """(argv, shown text) of each ``$ permcodec`` example under README's Command line."""
    examples = []
    for block in re.findall(r"^```\n(.*?)^```", command_line_section(), flags=re.S | re.M):
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


def test_readme_flag_table_matches_the_parser():
    # a cell is "no", "yes..." or the --format choices in backticks
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in command_line_section().splitlines() if line.startswith("|")]
    (_, *columns), _rule, *body = rows
    flags = [column.strip("`") for column in columns]
    documented = {
        command: {flag: None if cell == "no" else tuple(re.findall(r"`(\w+)`", cell))
                  for flag, cell in zip(flags, cells)}
        for commands, *cells in body for command in re.findall(r"`(\w+)`", commands)
    }
    subcommands = build_parser()._subparsers._group_actions[0].choices
    taken = {
        command: {option: tuple(action.choices or ())
                  for action in sub._actions if not action.required
                  for option in action.option_strings if option.startswith("--")}
        for command, sub in subcommands.items()
    }
    assert documented == {
        command: {flag: options.get(flag) for flag in flags} for command, options in taken.items()
    }
    # every optional flag that two subcommands share has a column
    shared = [flag for options in taken.values() for flag in options if flag != "--help"]
    assert {flag for flag in shared if shared.count(flag) > 1} == set(flags)
