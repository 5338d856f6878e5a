"""Command-line front end: analyze, series, oracle, selftest.

Each subcommand returns its status and one record, a dict of its answers
with every number already turned into decimal once. Under --json, main
writes the record into a versioned envelope ("schema": "1"); otherwise the
subcommand's printer formats it into human lines. Both show every dimension,
multiplicity and sum; only the JSON has each multiplicity-tree node's cycle,
analyze's reduced_everywhere flag and each selftest criterion's seconds.
Mathematical quantities are decimal strings, since they can exceed 64 bits;
structural counts (vertices, children) stay plain numbers.

The JSON equals json.dumps(envelope, indent=2, sort_keys=True) but is
written by _write_json: with indent set, json.dumps runs its pure-Python
encoder, whose cost grows with nesting depth times output size.

Exit codes are a function of the status alone:
    ok 0, failed 1, invalid-input 2, not-rational 3, not-applicable 4,
    budget-exceeded 5.
The console script exits 141 instead, with nothing on stderr, when its
stdout is closed before the output is written (as under `| head`).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

from . import formulas, series
from .resgraph import MAX_GRAPH_BYTES, GraphError, parse_graph
from .series import BudgetError

EXIT_CODES = {
    "ok": 0,
    "failed": 1,
    "invalid-input": 2,
    "not-rational": 3,
    "not-applicable": 4,
    "budget-exceeded": 5,
}
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended
_MAX_I_ERROR = "--max-i must be at least 3"


# the brute-force engine's names, bound into this module by _load_engine
_ENGINE = ("REGULAR", "TRIVIAL", "check_budget", "harrison_dim", "hochschild_dim", "make_fat_point")


def _load_engine() -> None:
    """Import harrison (and qlinalg under it) on first use, not with the CLI.

    Each engine name becomes a global of this module. setdefault keeps a
    name that was set from outside first, such as a timing wrapper, so
    cmd_oracle calls whatever the module attribute holds.
    """
    from . import harrison

    names = globals()
    for name in _ENGINE:
        names.setdefault(name, getattr(harrison, name))


def __getattr__(name):
    # PEP 562: reading an engine name off the module loads the engine
    if name not in _ENGINE:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    _load_engine()
    return globals()[name]


def _num(x) -> str:
    # decimal-string rendering for quantities that may exceed 64 bits
    return str(int(x))


def _write_json(value, out: list, newline: str = "\n") -> None:
    """Append json.dumps(value, indent=2, sort_keys=True) to out, byte for
    byte, in chunks; newline is a line break and the indent of value's last line.

    Takes dicts with str keys, lists, tuples, str, int, float, bool and None,
    and raises TypeError on any other type."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, dict):
        inner, sep = newline + "  ", "{" + newline + "  "
        for key, item in sorted(value.items()):
            out.append(sep + _quote(key) + ": ")  # _quote raises TypeError on a non-str key
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner, sep = newline + "  ", "[" + newline + "  "
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]" if value else "[]")
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(json.dumps(value))  # float repr, or NaN and the infinities by name
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def _cycle_dict(cycle) -> dict:
    return {vid: _num(a) for vid, a in cycle.coefficients.items()}


def _tree_dict(node, cycle=None) -> dict:
    """A node and its subtree; cycle is the node's cycle already rendered, if any."""
    return {
        "mult": _num(node.mult),
        "cycle": _cycle_dict(node.cycle) if cycle is None else cycle,
        "reduced": node.reduced,
        "dropped_rdps": node.dropped_rdp_count,
        "children": [_tree_dict(child) for child in node.children],
    }


def _tree_lines(node: dict, indent: str, out: list) -> None:
    flags = "reduced" if node["reduced"] else "non-reduced"
    extra = ", %d RDP(s) dropped" % node["dropped_rdps"] if node["dropped_rdps"] else ""
    out.append("%s- mult %s (%s%s)" % (indent, node["mult"], flags, extra))
    for child in node["children"]:
        _tree_lines(child, indent + "  ", out)


def cmd_analyze(args) -> tuple:
    try:
        with open(args.path, "rb") as fh:
            # a read of n bytes allocates n first, so only a large file gets
            # the read that runs to one byte past the cap
            raw = fh.read(1 << 16)
            if len(raw) == 1 << 16:
                raw += fh.read(MAX_GRAPH_BYTES + 1 - len(raw))
        if len(raw) > MAX_GRAPH_BYTES:
            return "budget-exceeded", {"error": "graph file is larger than %d bytes" % MAX_GRAPH_BYTES}
        text = raw.decode("utf-8")
        if "\r" in text:  # universal newlines, as open(path, encoding="utf-8") reads
            text = text.replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as e:
        return "invalid-input", {"error": str(e)}  # the human printer names the path
    try:
        graph = parse_graph(text)
    except GraphError as e:
        return "invalid-input", {"error": str(e), "error_code": e.code}
    except BudgetError as e:
        return "budget-exceeded", {"error": str(e)}
    if args.max_i < 3:
        return "invalid-input", {"error": _MAX_I_ERROR}
    try:
        report = formulas.analyze(graph, imax=args.max_i)
    except BudgetError as e:
        return "budget-exceeded", {"error": str(e)}

    data = {
        "vertices": graph.n,
        "edges": sum(sum(graph.neighbors(i).values()) for i in range(graph.n)) // 2,
        "rational": report.status != "not-rational",
        "fundamental_cycle": _cycle_dict(report.cycle),
    }
    if report.status == "not-rational":
        data["p_a"] = _num(report.p_a)
        return "not-rational", data
    data["multiplicity"] = _num(report.mult)
    data["reduced"] = report.reduced
    if report.status == "not-applicable":
        return "not-applicable", data
    data["reduced_everywhere"] = report.reduced  # the root's cycle decides (formulas)
    # the tree's root carries the fundamental cycle, rendered once for both
    data["tree"] = _tree_dict(report.tree, data["fundamental_cycle"])
    data["tdims"] = {str(i): _num(v) for i, v in report.tdims.items()}
    data["t2"] = {"value": _num(report.t2.value), "exact": report.t2.exact}
    data["codim_ac"] = {"value": _num(report.codim_ac.value), "exact": report.codim_ac.exact}
    gmd = report.gmd
    data["gmd"] = {
        "sum_d_minus_1": _num(gmd.sum_d_minus_1),
        "sum_b_minus_1": _num(gmd.sum_b_minus_1),
        "obstructed": gmd.obstructed,
    }
    return "ok", data


def _analyze_lines(args, status: str, data: dict) -> list:
    if "error" in data:
        error = data["error"]
        if status == "invalid-input" and "error_code" not in data and error != _MAX_I_ERROR:
            error = "cannot read %s: %s" % (args.path, error)  # not a GraphError, not --max-i
        return [error]
    lines = ["vertices: %d, edges: %d" % (data["vertices"], data["edges"]),
             "fundamental cycle: " + " ".join(vid + ":" + a for vid, a in data["fundamental_cycle"].items())]
    if status == "not-rational":
        return lines + ["rational: no (p_a(Z) = %s)" % data["p_a"]]
    lines += ["rational: yes", "multiplicity: " + data["multiplicity"],
              "fundamental cycle reduced: " + ("yes" if data["reduced"] else "no")]
    if status == "not-applicable":
        return lines + ["rational double point: the dimension formulas need multiplicity >= 3"]
    lines.append("multiplicity tree:")
    _tree_lines(data["tree"], "  ", lines)
    lines += ["T^%s = %s" % item for item in data["tdims"].items()]  # in increasing i
    for key, name in (("t2", "T^2"), ("codim_ac", "cod_AC")):
        suffix = "exact" if data[key]["exact"] else "lower bound (correction term unknown)"
        lines.append("%s = %s (%s)" % (name, data[key]["value"], suffix))
    gmd = data["gmd"]
    return lines + ["sum(d(P)-1) = " + gmd["sum_d_minus_1"], "sum(b_i-1) = " + gmd["sum_b_minus_1"],
                    "gmd obstructed: " + ("yes" if gmd["obstructed"] else "no")]


def cmd_series(args) -> tuple:
    if args.d < 3:
        return "invalid-input", {"error": "--d must be at least 3"}
    if args.order < 1:
        return "invalid-input", {"error": "--order must be at least 1"}
    try:
        series.check_digits(args.d, args.order)
    except BudgetError as e:
        return "budget-exceeded", {"error": str(e)}
    q = series.shuffle_dim_series(args.d, args.order)
    p = series.cone_series(args.d, q)
    # the shuffle dims of the (d-1)-dim fat point are Q's coefficients
    q_row = [_num(x) for x in q[1:]]
    return "ok", {
        "d": _num(args.d),
        "order": args.order,
        "shuffle_dims": q_row,
        "q_coefficients": q_row,
        "p_coefficients": [_num(x) for x in p[1:]],
    }


def _series_lines(args, status: str, data: dict) -> list:
    if "error" in data:
        return [data["error"]]
    order, q_row = data["order"], " ".join(data["q_coefficients"])  # shuffle_dims is the same row
    return ["d = " + data["d"],
            "shuffle dims of the (d-1)-dim fat point, k = 1..%d: %s" % (order, q_row),
            "Q coefficients t^1..t^%d: %s" % (order, q_row),
            "P coefficients t^1..t^%d (cotangent dims of the cone): %s" % (order, " ".join(data["p_coefficients"]))]


def cmd_oracle(args) -> tuple:
    if args.m < 1 or args.k < 1:
        return "invalid-input", {"error": "need --m >= 1 and --k >= 1"}
    if args.budget is not None and args.budget < 1:
        return "invalid-input", {"error": "--budget must be at least 1"}
    _load_engine()
    module = TRIVIAL if args.coeffs == "trivial" else REGULAR
    try:
        check_budget(args.m, args.k, args.budget, args.hochschild)
        algebra = make_fat_point(args.m)
        if args.hochschild:
            dim = hochschild_dim(algebra, module, args.k, budget=args.budget)
            kind = "hochschild"
        else:
            dim = harrison_dim(algebra, module, args.k, budget=args.budget)
            kind = "harrison"
    except BudgetError as e:
        return "budget-exceeded", {"error": str(e)}
    data = {
        "m": _num(args.m),
        "k": _num(args.k),
        "coefficients": args.coeffs,
        "cohomology": kind,
        "brute_force": _num(dim),
    }
    if args.coeffs == "trivial" and not args.hochschild:
        formula = series.shuffle_dim(args.m, args.k)
        data["formula"] = _num(formula)
        data["verdict"] = "MATCH" if dim == formula else "MISMATCH"
    return "failed" if data.get("verdict") == "MISMATCH" else "ok", data


def _oracle_lines(args, status: str, data: dict) -> list:
    if "error" in data:
        return [data["error"]]
    lines = ["fat point m=%s, degree k=%s, %s coefficients" % (data["m"], data["k"], data["coefficients"]),
             "brute-force %s dimension: %s" % (data["cohomology"], data["brute_force"])]
    if "verdict" in data:
        lines += ["closed-formula value: " + data["formula"], "verdict: " + data["verdict"]]
    return lines


def cmd_selftest(args) -> tuple:
    from . import acceptance  # loaded here only, so other commands never pay for it

    results = acceptance.run_all()
    data = {
        "criteria": [
            {"name": r.name, "passed": r.passed, "detail": r.detail, "seconds": round(r.elapsed, 3)}
            for r in results
        ],
        "passed": sum(1 for r in results if r.passed),
        "failed": sum(1 for r in results if not r.passed),
    }
    return "ok" if data["failed"] == 0 else "failed", data


def _selftest_lines(args, status: str, data: dict) -> list:
    lines = ["%s %s (%s)" % ("PASS" if c["passed"] else "FAIL", c["name"], c["detail"]) for c in data["criteria"]]
    return lines + ["%d passed, %d failed" % (data["passed"], data["failed"])]


@lru_cache(maxsize=None)
def _parser() -> tuple:
    """The full parser and a dict command -> that subcommand's own parser.

    Built on the first main() call, not at import, and reused by later calls.
    """
    parser = argparse.ArgumentParser(
        prog="ratsurf",
        description="Cotangent cohomology dimensions of rational surface singularities, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full dimension report for a resolution graph file")
    p.add_argument("path", help="JSON graph file")
    p.add_argument("--max-i", type=int, default=6, help="largest T^i to report (default 6)")
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=cmd_analyze, lines=_analyze_lines)

    p = sub.add_parser("series", help="shuffle-dimension and cotangent series for the degree-d cone")
    p.add_argument("--d", type=int, required=True, help="cone degree, at least 3")
    p.add_argument("--order", type=int, default=6, help="truncation order (default 6)")
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=cmd_series, lines=_series_lines)

    p = sub.add_parser("oracle", help="brute-force cohomology of a fat point")
    p.add_argument("--m", type=int, required=True, help="embedding dimension of the fat point")
    p.add_argument("--k", type=int, required=True, help="cochain degree")
    p.add_argument("--coeffs", choices=("trivial", "regular"), default="trivial")
    p.add_argument("--hochschild", action="store_true", help="full complex instead of the shuffle-invariant one")
    p.add_argument("--budget", type=int, default=None, help="cap on the word-space size n^k (default 1500)")
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=cmd_oracle, lines=_oracle_lines)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=cmd_selftest, lines=_selftest_lines)

    return parser, sub.choices


def _parse_args(argv=None) -> argparse.Namespace:
    """Parse argv as the full parser's parse_args would, in fewer steps.

    A well-formed call goes straight to its subcommand's parser. Anything
    else (no command, an unknown one, or arguments the subcommand does not
    take) goes through the full parser, so errors and usage read as before.
    """
    parser, commands = _parser()
    if argv is None:
        argv = sys.argv[1:]
    sub = commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    status, data = args.func(args)
    if args.json:
        out = []
        _write_json({"schema": "1", "command": args.command, "status": status, **data}, out)
        print("".join(out))
    else:
        lines = args.lines(args, status, data)
        if status != "ok":
            lines.append("status: %s" % status)
        print("\n".join(lines))
    return EXIT_CODES[status]


def console_main() -> int:
    """The `ratsurf` console script: main on sys.argv, ending quietly when
    stdout closes early (as under `| head`) with exit code EXIT_CLOSED_STDOUT.

    Only this entry point handles it, since pointing stdout at devnull acts
    on the whole process; main itself, which callers run in-process, does not.
    """
    try:
        code = main()
        sys.stdout.flush()  # a write that fails at exit would go unreported
    except BrokenPipeError:
        # the recipe of the Python signal docs: whatever is still buffered is
        # flushed at shutdown, and devnull takes it without a second error
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code


if __name__ == "__main__":
    sys.exit(console_main())
