"""Doc drift: every ``python -m repro.tools`` command line in the docs
parses with the real command tree, and no doc names the retired
``python -m repro.harness`` entry point."""

import re
import shlex
from pathlib import Path

import pytest

from repro.tools import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = ["README.md", "EXPERIMENTS.md", "DESIGN.md", "docs/internals.md",
        ".claude/skills/verify/SKILL.md"]
COMMAND = "python -m repro.tools"
SHELL_OPERATORS = ("|", ">", "2>", "&&", ";")


def _joined_lines(text: str) -> list[str]:
    """The lines of ``text`` with backslash continuations joined."""
    lines, pending = [], ""
    for line in text.splitlines():
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
        else:
            lines.append(pending + line)
            pending = ""
    return lines


def doc_commands(text: str) -> list[tuple[str, list[str]]]:
    """Each ``python -m repro.tools`` command line of ``text`` and its
    arguments: inline code ends at its closing backtick, ``<...>``
    placeholders are filled, and comments and shell redirections are
    dropped."""
    found = []
    for line in _joined_lines(text):
        start = line.find(COMMAND)
        if start < 0:
            continue
        rest = line[start + len(COMMAND):]
        if line[start - 1:start] == "`":
            rest = rest.split("`")[0]
        rest = re.sub(r"<[^<>]*>", "PLACEHOLDER", rest)
        argv = shlex.split(rest, comments=True)
        for index, token in enumerate(argv):
            if token.startswith(SHELL_OPERATORS):
                argv = argv[:index]
                break
        if argv:  # a bare mention names the CLI, not a command line
            found.append((line.strip(), argv))
    return found


@pytest.mark.parametrize("name", DOCS)
def test_doc_command_lines_parse(name):
    text = (ROOT / name).read_text()
    assert "python -m repro.harness" not in text
    parser = build_parser()
    for line, argv in doc_commands(text):
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{name}: does not parse: {line}")


def test_every_doc_names_a_command():
    """Guards the extraction itself: the docs hold dozens of commands."""
    found = sum(len(doc_commands((ROOT / name).read_text()))
                for name in DOCS)
    assert found >= 30
