"""The README's Python example runs, and every value it shows is what it prints."""

from __future__ import annotations

import os
import re

from ratsurf.acceptance import STAR_JSON

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
SHOWN = re.compile(r"^(\S.*?) {2,}# (.*)$")  # expr  # comment: the comment starts with repr(expr)


def library_block() -> list:
    """The lines of the python block under README's "## Library" heading."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1]
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
