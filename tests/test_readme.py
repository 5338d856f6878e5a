"""The README's examples run, and every value they show is what they print."""

from __future__ import annotations

import os
import re

from ratsurf import cli
from ratsurf.acceptance import STAR_JSON

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
SHOWN = re.compile(r"^(\S.*?) {2,}# (.*)$")  # expr  # comment: the comment starts with repr(expr)


with open(README, encoding="utf-8") as fh:
    TEXT = fh.read()


def library_block() -> list:
    """The lines of the python block under README's "## Library" heading."""
    section = TEXT.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0].splitlines()


def test_the_library_example_prints_what_it_shows(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "star.json").write_text(STAR_JSON, encoding="utf-8")
    namespace, checked = {}, []
    for line in library_block():
        shown = SHOWN.match(line)
        if shown:
            expr, comment = shown.groups()
            got = repr(eval(expr, namespace))
            assert comment.startswith(got), (expr, got, comment)
            checked.append(expr)
        elif line.strip() and not line.startswith("#"):
            exec(line, namespace)
    assert checked[0] == "report.tdims" and "report.gmd.obstructed" in checked
    assert checked[-1] == 'harrison_dim(3, "regular", 2)' and len(checked) == 7


def test_the_command_line_examples_print_what_they_show(tmp_path, monkeypatch, capsys):
    """Each `$ cat NAME` block is written as that file, and each `$ ratsurf ...` runs through cli.main."""
    monkeypatch.chdir(tmp_path)
    shown = [cut.rstrip("\n").split("\n", 1) for block in TEXT.split("```")[1::2] for cut in block.split("\n$ ")[1:]]
    assert [command for command, _ in shown] == [
        "cat star.json", "ratsurf analyze star.json", "ratsurf series --d 3", "ratsurf oracle --m 2 --k 4"]
    for command, text in shown:
        program, *argv = command.split()
        if program == "cat":
            (tmp_path / argv[0]).write_text(text + "\n", encoding="utf-8")
        else:
            assert (program, cli.main(argv), capsys.readouterr().out) == ("ratsurf", 0, text + "\n"), command
