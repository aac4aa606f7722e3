"""The README's `Command line` examples, replayed through `cli.main`.

Every `$ taut-calc ...` line in the code blocks of that section runs
with its arguments split as a shell would; what it prints must match
the lines below it, up to the next blank line, one for one.  The
testbed character file shown there is written next to the run, so
`nsec3 --chars testbed.cfg` reads exactly what the README shows.
"""

from __future__ import annotations

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from tautcalc.cli import main

README = Path(__file__).parents[1] / "README.md"
PROMPT = "$ taut-calc "


def _code_blocks() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    start = text.index("## Command line")
    section = text[start:text.index("\n## ", start)]
    return [block.strip("\n").splitlines() for block in section.split("```")[1::2]]


def examples() -> list[tuple[str, list[str]]]:
    out = []
    for lines in _code_blocks():
        for i, line in enumerate(lines):
            if not line.startswith(PROMPT):
                continue
            printed = []
            for nxt in lines[i + 1:]:
                if not nxt or nxt.startswith("$ "):
                    break
                printed.append(nxt)
            out.append((line[len(PROMPT):], printed))
    return out


def _testbed() -> str:
    for lines in _code_blocks():
        if lines[0] == "# elliptic testbed":
            return "\n".join(lines) + "\n"
    raise AssertionError("README shows no testbed character file")


def test_every_example_is_found():
    commands = [command for command, _ in examples()]
    assert len(commands) == 8
    assert "nsec3 --chars testbed.cfg" in commands
    assert 'integrate -m 3 "-Delta<3>^4"' in commands


@pytest.mark.parametrize("command, printed", examples(),
                         ids=[command for command, _ in examples()])
def test_readme_example_prints_what_it_shows(command, printed, tmp_path,
                                             monkeypatch):
    (tmp_path / "testbed.cfg").write_text(_testbed(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command))
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue().splitlines() == printed
