"""Command-line front end: analyze, series, oracle, selftest.

Each subcommand returns its status and one record, a dict of its answers
with every number already turned into decimal once, or raises GraphError or
BudgetError, which main maps to invalid-input (the record holds the error and
its code) or budget-exceeded (the error). Under --json, main writes the
record into a versioned envelope ("schema": "1"); otherwise the subcommand's
printer formats it into human lines. Both show every dimension,
multiplicity and sum; only the JSON has each multiplicity-tree node's cycle,
analyze's reduced_everywhere flag and each selftest criterion's seconds.
Mathematical quantities are decimal strings, since they can exceed 64 bits;
structural counts (vertices, children) stay plain numbers.

The JSON equals json.dumps(envelope, indent=2, sort_keys=True) but is
written by _write_json: with indent set, json.dumps runs its pure-Python
encoder, whose cost grows with nesting depth times output size. A series
row is never joined into one string: its decimal strings go into the chunk
list themselves, between shared separators, with no per-number quote or
copy. main writes the chunks to stdout 4096 at a time (about 2048 numbers),
and the human lines one at a time, so no answer is ever one string either.

Every subcommand's options are declared once, in _COMMANDS. An argv made of
exact spellings and valid values is read straight off that table. Anything
else (help, abbreviations, --opt=value, values that look like options, and
every error) goes to an argparse parser built from the same table, and
argparse is imported only then; both paths give the same namespace, and
argparse alone writes help and error text.

Exit codes are a function of the status alone:
    ok 0, failed 1, invalid-input 2, not-rational 3, not-applicable 4,
    budget-exceeded 5.
The console script exits 141 instead, with nothing on stderr, when its
stdout is closed before the output is written (as under `| head`).
"""

from __future__ import annotations

import json
import os
import sys
from functools import lru_cache
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

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
_BATCH = 4096  # JSON chunks per write to stdout


def __getattr__(name):
    # PEP 562: the brute-force engine (harrison, and qlinalg under it) loads on first use, and the
    # name it loads is bound here; cmd_oracle reads the names off the module, so one set from
    # outside first, such as a timing wrapper, wins
    if name not in ("harrison_dim", "hochschild_dim"):
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import harrison

    value = globals()[name] = getattr(harrison, name)
    return value


def _num(x) -> str:
    # decimal-string rendering for quantities that may exceed 64 bits
    return str(int(x))


def _decimal(items) -> bool:
    """True if the list or tuple items holds str alone, made of ASCII digits
    and at least one of them, as str(int) writes non-negative ints: JSON
    escapes none of them."""
    if not items or type(items[0]) is not str:
        return False
    try:
        text = "".join(items)
    except TypeError:  # a later item that is not a str
        return False
    # bytes.isdigit is ASCII only; str.isdigit also takes superscripts and
    # other scripts' digits, and looks each character up in the Unicode tables
    return text.isascii() and text.encode("ascii").isdigit()


def _write_json(value, out: list, newline: str = "\n") -> None:
    """Append json.dumps(value, indent=2, sort_keys=True) to out, byte for
    byte, in chunks; newline is a line break and the indent of value's last line.

    A row of decimal strings (_decimal) goes into out by reference, its
    items alternating with one shared separator string, with no call, quote
    or copy per item. Everything else is written item by item.

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
        if _decimal(value):
            pieces = ['",' + inner + '"'] * (2 * len(value) - 1)
            pieces[::2] = value
            out.append(sep + '"')
            out += pieces
            out.append('"' + newline + "]")
            return
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


def _tree_dict(node, cycles: bool, cycle=None) -> dict:
    """A node and its subtree, with each node's cycle only if cycles (the
    human printer shows none); cycle is the node's cycle already rendered, if any."""
    data = {
        "mult": _num(node.mult),
        "reduced": node.reduced,
        "dropped_rdps": node.dropped_rdp_count,
        "children": [_tree_dict(child, cycles) for child in node.children],
    }
    if cycles:
        data["cycle"] = _cycle_dict(node.cycle) if cycle is None else cycle
    return data


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
            raise BudgetError("graph file is larger than %d bytes" % MAX_GRAPH_BYTES)
        text = raw.decode("utf-8")
        if "\r" in text:  # universal newlines, as open(path, encoding="utf-8") reads
            text = text.replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, ValueError) as e:  # ValueError: undecodable text, or a path no OS call takes
        return "invalid-input", {"error": str(e)}  # the human printer names the path
    graph = parse_graph(text)
    if args.max_i < 3:
        return "invalid-input", {"error": _MAX_I_ERROR}
    report = formulas.analyze(graph, imax=args.max_i)

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
    data["tree"] = _tree_dict(report.tree, args.json, data["fundamental_cycle"])
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


def _shown(text: str) -> str:
    """text with each character that is not printable (a newline, a control
    character, a lone surrogate) written as its backslash escape, so text from
    a file or argv cannot break a report's lines or its encoding."""
    if text.isprintable():
        return text
    return "".join(c if c.isprintable() else c.encode("unicode_escape").decode("ascii") for c in text)


def _analyze_lines(args, status: str, data: dict) -> list:
    if "error" in data:
        error = data["error"]
        if status == "invalid-input" and "error_code" not in data and error != _MAX_I_ERROR:
            # not a GraphError, not --max-i; a path that is not UTF-8 prints its bytes escaped
            try:
                path = os.fsencode(args.path).decode("utf-8", "backslashreplace")
            except UnicodeEncodeError:  # a lone surrogate that no file name holds
                path = args.path
            error = "cannot read %s: %s" % (_shown(path), error)
        return [error]
    cycle = " ".join(vid + ":" + a for vid, a in data["fundamental_cycle"].items())
    lines = ["vertices: %d, edges: %d" % (data["vertices"], data["edges"]), "fundamental cycle: " + _shown(cycle)]
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
    series.check_digits(args.d, args.order)
    # every coefficient is an int, so str renders it; the shuffle dims of the
    # (d-1)-dim fat point are Q's coefficients
    q_row = list(map(str, islice(series.shuffle_dim_series(args.d, args.order), 1, None)))
    return "ok", {
        "d": _num(args.d),
        "order": args.order,
        "shuffle_dims": q_row,
        "q_coefficients": q_row,
        "p_coefficients": list(map(str, islice(series.poincare_series(args.d, args.order), 1, None))),
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
    engine = sys.modules[__name__]
    if args.hochschild:
        dim = engine.hochschild_dim(args.m, args.coeffs, args.k, budget=args.budget)
        kind = "hochschild"
    else:
        dim = engine.harrison_dim(args.m, args.coeffs, args.k, budget=args.budget)
        kind = "harrison"
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


# Each subcommand: its help, its function, its printer and its options, in
# the order --help lists them. An option maps its spelling to (kind, default,
# required, help); kind is int, a tuple of choices, bool for a flag, or str
# for a positional, whose spelling has no dashes.
_JSON = (bool, False, False, "structured output")
_COMMANDS = {
    "analyze": ("full dimension report for a resolution graph file", cmd_analyze, _analyze_lines, {
        "path": (str, None, True, "JSON graph file"),
        "--max-i": (int, 6, False, "largest T^i to report (default 6)"),
        "--json": _JSON,
    }),
    "series": ("shuffle-dimension and cotangent series for the degree-d cone", cmd_series, _series_lines, {
        "--d": (int, None, True, "cone degree, at least 3"),
        "--order": (int, 6, False, "truncation order (default 6)"),
        "--json": _JSON,
    }),
    "oracle": ("brute-force cohomology of a fat point", cmd_oracle, _oracle_lines, {
        "--m": (int, None, True, "embedding dimension of the fat point"),
        "--k": (int, None, True, "cochain degree"),
        "--coeffs": (("trivial", "regular"), "trivial", False, None),
        "--hochschild": (bool, False, False, "full complex instead of the shuffle-invariant one"),
        "--budget": (int, None, False, "cap on the word-space size n^k (default 1500)"),
        "--json": _JSON,
    }),
    "selftest": ("run the acceptance suite", cmd_selftest, _selftest_lines, {"--json": _JSON}),
}


@lru_cache(maxsize=None)
def _parser():
    """The argparse parser of _COMMANDS, built and imported on first use only."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ratsurf",
        description="Cotangent cohomology dimensions of rational surface singularities, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, func, lines, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for spelling, (kind, default, required, text) in options.items():
            if kind is bool:
                p.add_argument(spelling, action="store_true", help=text)
            elif spelling[0] != "-":
                p.add_argument(spelling, help=text)
            else:
                conversion = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
                p.add_argument(spelling, default=default, required=required, help=text, **conversion)
        p.set_defaults(func=func, lines=lines)
    return parser


def _read_argv(argv: list):
    """The namespace _parser() returns for argv, read off _COMMANDS alone.

    None where argparse might read argv otherwise or reject it: an unknown or
    abbreviated token, --opt=value, a value that starts with "-" or is not of
    its kind, a second positional, or a required option left out. As in
    argparse, a repeated option keeps its last value."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    _, func, lines, options = entry
    positionals = [spelling for spelling in options if spelling[0] != "-"]
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":  # argparse reads an empty token as a positional too
            if not positionals:
                return None
            values[positionals.pop(0)] = token
            continue
        kind = options.get(token, (None,))[0]
        if kind is None:
            return None
        if kind is bool:
            values[token] = True
            continue
        value = next(tokens, "-")
        if value[:1] == "-":  # argparse may read it as an option, or not, by version
            return None
        if isinstance(kind, tuple):
            if value not in kind:
                return None
        else:
            try:
                value = kind(value)
            except ValueError:
                return None
        values[token] = value
    args = SimpleNamespace(command=argv[0])
    for spelling, (_, default, required, _) in options.items():
        if required and spelling not in values:
            return None
        setattr(args, spelling.lstrip("-").replace("-", "_"), values.get(spelling, default))
    args.func, args.lines = func, lines
    return args


def _parse_args(argv=None):
    """Parse argv as argparse would: well-formed argv through _read_argv,
    anything else (help, abbreviations, --opt=value, errors) through _parser."""
    if argv is None:
        argv = sys.argv[1:]
    return _read_argv(argv) or _parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        status, data = args.func(args)
    except GraphError as e:
        status, data = "invalid-input", {"error": str(e), "error_code": e.code}
    except BudgetError as e:
        status, data = "budget-exceeded", {"error": str(e)}
    if args.json:
        out = []
        _write_json({"schema": "1", "command": args.command, "status": status, **data}, out)
        _print(out, "", _BATCH)
    else:
        lines = args.lines(args, status, data)
        if status != "ok":
            lines.append("status: %s" % status)
        _print(lines, "\n", 1)  # a line may hold a whole series row
    return EXIT_CODES[status]


def _print(chunks: list, sep: str, batch: int) -> None:
    """Write sep.join(chunks) and a newline to stdout, as print would, in
    writes of `batch` chunks each, so that the whole answer is never one string."""
    write = sys.stdout.write
    for start in range(0, len(chunks), batch):
        if start:
            write(sep)
        write(sep.join(chunks[start:start + batch]))
    write("\n")


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
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code


if __name__ == "__main__":
    sys.exit(console_main())
