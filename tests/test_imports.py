"""Cold start: what `import ratsurf.cli` loads, and the record types it exposes."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
import types

import pytest

import ratsurf
from ratsurf.blowup import MultiplicityTree
from ratsurf.formulas import AnalysisReport, BoundedValue, ObstructionReport
from ratsurf.qlinalg import Echelon, SparseMatrix
from ratsurf.resgraph import fundamental_cycle, parse_graph

SRC = os.path.dirname(os.path.dirname(ratsurf.__file__))
CONE4 = '{"vertices": [{"id": "E0", "b": 4}], "edges": []}'


def loaded_after(code: str, modules: tuple) -> list:
    """Which of modules a fresh interpreter holds after `import ratsurf.cli as cli` and code."""
    # -S skips site, which may preload typing on its own
    probe = "\n".join([
        "import sys",
        "sys.path.insert(0, %r)" % SRC,
        "import ratsurf.cli as cli",
        code,
        "print('loaded:', *[m for m in %r if m in sys.modules])" % (modules,),
    ])
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    last = out.stdout.splitlines()[-1].split()
    assert last[0] == "loaded:", out.stdout[-500:]
    return last[1:]


# fractions imports numbers and decimal; the package itself imports neither
ENGINE = ("ratsurf.harrison", "ratsurf.qlinalg", "fractions", "decimal", "numbers")


def test_importing_the_cli_loads_no_dataclasses_typing_or_acceptance():
    assert loaded_after("", ("dataclasses", "inspect", "typing", "ratsurf.acceptance")) == []


def test_analyze_and_series_load_neither_the_engine_nor_fractions(tmp_path):
    path = tmp_path / "cone4.json"
    path.write_text(CONE4)
    code = "assert cli.main(['analyze', %r, '--json']) == 0; assert cli.main(['series', '--d', '5']) == 0"
    assert loaded_after(code % str(path), ENGINE) == []


def test_an_integral_oracle_call_loads_the_engine_but_not_fractions():
    code = "assert cli.main(['oracle', '--m', '2', '--k', '4']) == 0"
    assert loaded_after(code, ENGINE) == ["ratsurf.harrison", "ratsurf.qlinalg"]


def test_well_formed_calls_load_no_argparse_and_an_abbreviation_loads_it(tmp_path):
    path = tmp_path / "cone4.json"
    path.write_text(CONE4)
    code = "; ".join([
        "assert cli.main(['analyze', %r, '--max-i', '4', '--json']) == 0" % str(path),
        "assert cli.main(['series', '--d', '5', '--order', '3']) == 0",
        "assert cli.main(['oracle', '--m', '2', '--k', '4', '--coeffs', 'regular', '--json']) == 0",
    ])
    assert loaded_after(code, ("argparse", "gettext")) == []
    code += "; assert cli.main(['series', '--ord', '3', '--d', '5']) == 0"
    assert loaded_after(code, ("argparse",)) == ["argparse"]


@pytest.mark.parametrize("setup, engine_loaded", [
    # as a tracer does: read the engine's function off the CLI, then replace it
    ("real = cli.harrison_dim", True),
    # with the engine still unloaded: the wrapper finds the function itself
    ("real = None", False),
])
def test_a_wrapper_set_on_the_cli_before_the_first_oracle_call_is_the_one_that_runs(setup, engine_loaded):
    code = "\n".join([
        setup,
        "calls = []",
        "def wrapper(*args, **kwargs):",
        "    calls.append(args[2])",
        "    from ratsurf.harrison import harrison_dim",
        "    return (real or harrison_dim)(*args, **kwargs)",
        "cli.harrison_dim = wrapper",
        "assert ('ratsurf.harrison' in sys.modules) is %r" % engine_loaded,
        "assert cli.main(['oracle', '--m', '2', '--k', '4']) == 0",
        "assert cli.main(['oracle', '--m', '2', '--k', '3']) == 0",
        "assert calls == [4, 3] and cli.harrison_dim is wrapper, calls",
    ])
    assert loaded_after(code, ("ratsurf.harrison",)) == ["ratsurf.harrison"]


def test_every_exported_name_is_an_attribute_of_the_package():
    missing = [name for name in ratsurf.__all__ if not hasattr(ratsurf, name)]
    assert missing == []


def functions_of(obj) -> list:
    """obj if it is a function; for a class, every function, classmethod,
    staticmethod and property getter that a ratsurf class in its MRO defines."""
    if isinstance(obj, types.FunctionType):
        return [obj]
    out = []
    for klass in getattr(obj, "__mro__", ()):
        if klass.__module__.startswith("ratsurf"):
            for attr in vars(klass).values():
                attr = getattr(attr, "__func__", getattr(attr, "fget", attr))
                if isinstance(attr, types.FunctionType):
                    out.append(attr)
    return out


def public_objects() -> list:
    """The exported names, then every other public function and class that a
    ratsurf module defines (Echelon, check_budget, cli.main, ...)."""
    objects = [getattr(ratsurf, name) for name in ratsurf.__all__]
    for name in ("qlinalg", "series", "harrison", "resgraph", "blowup", "formulas", "acceptance", "cli"):
        module = importlib.import_module("ratsurf." + name)
        objects += [obj for attr, obj in vars(module).items()
                    if not attr.startswith("_") and isinstance(obj, (type, types.FunctionType))
                    and obj.__module__ == module.__name__ and obj not in objects]
    return objects


def test_every_annotation_of_the_public_surface_resolves():
    import typing  # in the test process only; the import probe above runs in its own

    objects = public_objects()
    assert Echelon in objects and SparseMatrix in objects
    functions = [fn for obj in objects for fn in functions_of(obj)]
    names = {fn.__module__ + "." + fn.__qualname__ for fn in functions}
    anchors = {"ratsurf.qlinalg.Echelon.add", "ratsurf.qlinalg.SparseMatrix.rank",
               "ratsurf.harrison.harrison_dim", "ratsurf.resgraph.parse_graph", "ratsurf.cli.main"}
    assert anchors <= names, anchors - names
    unresolved = []
    for fn in functions:
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            unresolved.append("%s: %s" % (fn.__qualname__, exc))
    assert unresolved == []


def test_bounded_value_and_obstruction_report_are_plain_named_tuples():
    assert repr(BoundedValue(15, True)) == "BoundedValue(value=15, exact=True)"
    assert BoundedValue(value=15, exact=False).exact is False
    sum_d, sum_b, obstructed = ObstructionReport(4, 6, False)
    assert (sum_d, sum_b, obstructed) == (4, 6, False)
    assert ObstructionReport._fields == ("sum_d_minus_1", "sum_b_minus_1", "obstructed")


def test_multiplicity_tree_fields_and_repr():
    # the node's graph is its cycle's, so the tree keeps no second copy of it
    assert MultiplicityTree._fields == ("cycle", "mult", "reduced", "children", "dropped_rdp_count")
    z = fundamental_cycle(parse_graph(CONE4))
    leaf = MultiplicityTree(cycle=z, mult=3, reduced=True, children=[], dropped_rdp_count=0)
    root = MultiplicityTree(cycle=z, mult=3, reduced=True, children=[leaf], dropped_rdp_count=0)
    assert repr(root) == "MultiplicityTree(mult=3, children=1, dropped=0)"


def test_analysis_report_defaults_the_optional_fields_to_none():
    g = parse_graph(CONE4)
    z = fundamental_cycle(g)
    report = AnalysisReport(status="not-rational", cycle=z, p_a=1)
    optional = ("mult", "reduced", "tree", "tdims", "t2", "codim_ac", "gmd")
    assert AnalysisReport._fields == ("status", "cycle", "p_a") + optional
    assert all(getattr(report, name) is None for name in optional)
    assert report.cycle is z and report.p_a == 1


def imported_roots(path: str) -> set:
    """The top-level module of every import statement in the file at path."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    roots = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    roots |= {"." * node.level + (node.module or "").split(".")[0] for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)}
    return roots


def test_tests_and_demos_import_only_the_stdlib_pytest_and_ratsurf():
    # CI installs pytest alone: any other third-party import would pass where
    # it happens to be installed and fail there
    repo = os.path.dirname(SRC)
    tests = sorted(name[:-3] for name in os.listdir(os.path.join(repo, "tests")) if name.endswith(".py"))
    demos = sorted(name[:-3] for name in os.listdir(os.path.join(repo, "demos")) if name.endswith(".py"))
    assert "test_cli" in tests and demos
    allowed = set(sys.stdlib_module_names) | {"ratsurf"}
    stray = {}
    for folder, names, extra in (("tests", tests, {"pytest", *tests}), ("demos", demos, set())):
        for name in names:
            roots = imported_roots(os.path.join(repo, folder, name + ".py")) - allowed - extra
            if roots:
                stray["%s/%s.py" % (folder, name)] = sorted(roots)
    assert stray == {}
