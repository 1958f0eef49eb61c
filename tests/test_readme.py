"""The README's library tour is a doctest: every value it shows is checked.
Its command-line blocks run too, line by line, and each must exit 0."""

import doctest
import shlex
from pathlib import Path

from locdim.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour():
    result = doctest.testfile(str(README), module_relative=False,
                              optionflags=doctest.NORMALIZE_WHITESPACE)
    assert result.attempted > 0
    assert result.failed == 0


def readme_commands() -> list[str]:
    """Every ``locdim ...`` line of the README's fenced blocks, in order."""
    lines, fenced = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("locdim "):
            lines.append(line)
    return lines


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    # one working directory for all, so a file one line writes (--out g.json)
    # is there for the next
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert any("--out g.json" in line for line in commands)
    for line in commands:
        code = main(shlex.split(line)[1:])
        err = capsys.readouterr().err
        assert code == 0, (line, err)
