"""src/ holds what runs: every named function of the package is called by a
shipped path, or it is on ALLOWED with its reason.

A fresh interpreter runs, under sys.setprofile, the rows of test_cli_table
that pin stdout's SHA-256, one per distinct hash and none with a time limit
of its own, and the demos. The named functions are the package's module
functions and class methods and properties, lru_cache unwrapped; nested
functions and comprehensions are not counted. The interpreter is fresh because the
package's caches (lru_cache, the names ratsurf and ratsurf.cli bind on
first access) would otherwise hide the calls that other tests already made.
"""

from __future__ import annotations

import contextlib
import glob
import importlib
import io
import json
import os
import pkgutil
import runpy
import subprocess
import sys
import types

TESTS = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(TESTS)
SRC = os.path.join(REPO, "src")

TRACER = "perfbench tracer, ROADMAP item 12"
REPR = "library API: a readable repr for interactive use"

# each named function that no census run calls, and why it stays in src/
ALLOWED = {
    "resgraph.is_negative_definite": TRACER,
    "qlinalg.QMatrix.__init__": TRACER,
    "qlinalg.QMatrix.rank": TRACER,
    "qlinalg.QMatrix.det": TRACER,
    "qlinalg.QMatrix.leading_principal_minor": TRACER,
    "harrison.CochainSpace.__init__": TRACER,
    "harrison.CochainSpace.coords_of": TRACER,
    "harrison.CochainSpace._locate": TRACER,
    "harrison.coboundary_matrix": TRACER,
    "harrison._blocks": TRACER,
    "cli.console_main": "the installed console script; it runs out of process",
    "resgraph.Cycle.__init__": "library API: a cycle built from caller input, checked",
    "resgraph.ResolutionGraph.edges": "library API: the sorted edge pairs, which tests read",
    "resgraph.ResolutionGraph.__repr__": REPR,
    "resgraph.Cycle.__repr__": REPR,
    "blowup.MultiplicityTree.__repr__": REPR,
    "ratsurf.__dir__": "library API: dir(ratsurf) lists the names that load on first access",
}

def named_functions() -> dict:
    """{code object: "module.qualname"} of every named function whose code is in src/ratsurf."""
    import ratsurf

    package = os.path.dirname(ratsurf.__file__)
    modules = [ratsurf] + [importlib.import_module("ratsurf." + info.name)
                           for info in pkgutil.iter_modules(ratsurf.__path__)]
    out = {}

    def add(fn):
        fn = getattr(fn, "__wrapped__", fn)  # lru_cache
        if isinstance(fn, types.FunctionType) and os.path.dirname(fn.__code__.co_filename) == package:
            out.setdefault(fn.__code__, fn.__module__.replace("ratsurf.", "") + "." + fn.__qualname__)

    for module in modules:
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for attr in vars(obj).values():
                    if isinstance(attr, property):
                        for fn in (attr.fget, attr.fset, attr.fdel):
                            add(fn)
                    else:
                        add(getattr(attr, "__func__", attr))  # staticmethod, classmethod
            else:
                add(obj)
    return out


def census(argvs: list) -> dict:
    """Run argvs through cli.main and the demos under sys.setprofile: the
    named functions, and those never called."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        import ratsurf.cli  # "from ratsurf.cli import" would ask cli.__getattr__ for __path__

        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in argvs:
                ratsurf.cli.main(argv)
            for demo in sorted(glob.glob(os.path.join(REPO, "demos", "*.py"))):
                try:
                    runpy.run_path(demo, run_name="__main__")
                except SystemExit as exc:
                    assert not exc.code, (demo, exc.code)
    finally:
        sys.setprofile(None)
    names = named_functions()
    return {"names": sorted(names.values()),
            "uncalled": sorted(name for code, name in names.items() if code not in called)}


def test_every_function_in_src_runs_or_is_allowed(tmp_path, monkeypatch):
    from test_cli_table import ROWS, Row, write_graphs

    # one run per distinct pinned stdout, left out: other argv that print the same bytes (a CRLF copy of a file, a
    # taller tower past the tree budget), and rows with a time limit of their own, each a refusal or a deep answer
    # that the profiler would slow threefold. Fewer runs can only leave more functions uncalled.
    default = Row._field_defaults["limit"]
    pinned = list({row.sha: row for row in ROWS if row.sha and row.limit == default}.values())
    monkeypatch.chdir(tmp_path)
    write_graphs(pinned)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]))
    code = "import json, sys, test_census; print(json.dumps(test_census.census(json.load(sys.stdin))))"
    proc = subprocess.run([sys.executable, "-c", code], input=json.dumps([row.args.split() for row in pinned]),
                          capture_output=True, text=True, env=env, cwd=str(tmp_path), timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout)
    names, uncalled = set(result["names"]), set(result["uncalled"])
    assert "harrison.harrison_dim" in names and "harrison._shape_kernel" in names
    for found, fault in ((uncalled - set(ALLOWED), "never called: move it into tests/, delete it or allow it"),
                         (set(ALLOWED) - names, "allowed, but no longer in src/"),
                         (set(ALLOWED) & names - uncalled, "allowed, but called")):
        assert not found, "%s: %s" % (fault, ", ".join(sorted(found)))
