"""Command-line front end: analyze, series, oracle, selftest.

Each subcommand returns its status with two renderings built side by side:
the dict that the JSON printer puts in its envelope, and the lines that the
human printer writes. Both carry every dimension, multiplicity and sum; only
the JSON has each multiplicity-tree node's cycle, analyze's
reduced_everywhere flag and each selftest criterion's seconds. JSON output
is versioned ("schema": "1") and renders every mathematical quantity
(dimensions, coefficients, multiplicities, sums) as a decimal string, since
those can exceed 64 bits for large inputs; structural counts (vertices,
children) stay plain numbers.

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


def _tree_lines(node, depth: int, out: list) -> None:
    flags = "reduced" if node.reduced else "non-reduced"
    extra = ", %d RDP(s) dropped" % node.dropped_rdp_count if node.dropped_rdp_count else ""
    out.append("%s- mult %d (%s%s)" % ("  " * depth, node.mult, flags, extra))
    for child in node.children:
        _tree_lines(child, depth + 1, out)


def _cycle_text(cycle) -> str:
    return " ".join("%s:%d" % (vid, cycle.coefficients[vid]) for vid in cycle.graph.ids)


def cmd_analyze(args) -> tuple:
    try:
        with open(args.path, "rb") as fh:
            # a read of n bytes allocates n first, so only a large file gets
            # the read that runs to one byte past the cap
            raw = fh.read(1 << 16)
            if len(raw) == 1 << 16:
                raw += fh.read(MAX_GRAPH_BYTES + 1 - len(raw))
        if len(raw) > MAX_GRAPH_BYTES:
            error = "graph file is larger than %d bytes" % MAX_GRAPH_BYTES
            return "budget-exceeded", {"error": error}, [error]
        text = raw.decode("utf-8")
        if "\r" in text:  # universal newlines, as open(path, encoding="utf-8") reads
            text = text.replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as e:
        return "invalid-input", {"error": str(e)}, ["cannot read %s: %s" % (args.path, e)]
    try:
        graph = parse_graph(text)
    except GraphError as e:
        return "invalid-input", {"error": str(e), "error_code": e.code}, [str(e)]
    except BudgetError as e:
        return "budget-exceeded", {"error": str(e)}, [str(e)]
    if args.max_i < 3:
        return "invalid-input", {"error": "--max-i must be at least 3"}, ["--max-i must be at least 3"]
    try:
        report = formulas.analyze(graph, imax=args.max_i)
    except BudgetError as e:
        return "budget-exceeded", {"error": str(e)}, [str(e)]

    data = {
        "vertices": graph.n,
        "edges": len(graph.edges),
        "rational": report.status != "not-rational",
        "fundamental_cycle": _cycle_dict(report.cycle),
    }
    lines = [
        "vertices: %d, edges: %d" % (graph.n, data["edges"]),
        "fundamental cycle: %s" % _cycle_text(report.cycle),
    ]
    if report.status == "not-rational":
        data["p_a"] = _num(report.p_a)
        lines.append("rational: no (p_a(Z) = %d)" % report.p_a)
        return "not-rational", data, lines
    data["multiplicity"] = _num(report.mult)
    data["reduced"] = report.reduced
    lines.append("rational: yes")
    lines.append("multiplicity: %d" % report.mult)
    lines.append("fundamental cycle reduced: %s" % ("yes" if report.reduced else "no"))
    if report.status == "not-applicable":
        lines.append("rational double point: the dimension formulas need multiplicity >= 3")
        return "not-applicable", data, lines
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
    lines.append("multiplicity tree:")
    _tree_lines(report.tree, 1, lines)
    for i in sorted(report.tdims):
        lines.append("T^%d = %d" % (i, report.tdims[i]))
    suffix = "exact" if report.t2.exact else "lower bound (correction term unknown)"
    lines.append("T^2 = %d (%s)" % (report.t2.value, suffix))
    suffix = "exact" if report.codim_ac.exact else "lower bound (correction term unknown)"
    lines.append("cod_AC = %d (%s)" % (report.codim_ac.value, suffix))
    lines.append("sum(d(P)-1) = %d" % gmd.sum_d_minus_1)
    lines.append("sum(b_i-1) = %d" % gmd.sum_b_minus_1)
    lines.append("gmd obstructed: %s" % ("yes" if gmd.obstructed else "no"))
    return "ok", data, lines


def cmd_series(args) -> tuple:
    if args.d < 3:
        return "invalid-input", {"error": "--d must be at least 3"}, ["--d must be at least 3"]
    if args.order < 1:
        return "invalid-input", {"error": "--order must be at least 1"}, ["--order must be at least 1"]
    try:
        series.check_digits(args.d, args.order)
    except BudgetError as e:
        return "budget-exceeded", {"error": str(e)}, [str(e)]
    q = series.shuffle_dim_series(args.d, args.order)
    p = series.cone_series(args.d, q)
    # the shuffle dims of the (d-1)-dim fat point are Q's coefficients; each
    # value is turned into decimal once and shared by both output modes
    q_row, p_row = [_num(x) for x in q[1:]], [_num(x) for x in p[1:]]
    data = {
        "d": _num(args.d),
        "order": args.order,
        "shuffle_dims": q_row,
        "q_coefficients": q_row,
        "p_coefficients": p_row,
    }
    lines = [
        "d = %d" % args.d,
        "shuffle dims of the (d-1)-dim fat point, k = 1..%d: %s" % (args.order, " ".join(q_row)),
        "Q coefficients t^1..t^%d: %s" % (args.order, " ".join(q_row)),
        "P coefficients t^1..t^%d (cotangent dims of the cone): %s" % (args.order, " ".join(p_row)),
    ]
    return "ok", data, lines


def cmd_oracle(args) -> tuple:
    if args.m < 1 or args.k < 1:
        return "invalid-input", {"error": "need --m >= 1 and --k >= 1"}, ["need --m >= 1 and --k >= 1"]
    if args.budget is not None and args.budget < 1:
        return "invalid-input", {"error": "--budget must be at least 1"}, ["--budget must be at least 1"]
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
        return "budget-exceeded", {"error": str(e)}, [str(e)]
    data = {
        "m": _num(args.m),
        "k": _num(args.k),
        "coefficients": args.coeffs,
        "cohomology": kind,
        "brute_force": _num(dim),
    }
    lines = [
        "fat point m=%d, degree k=%d, %s coefficients" % (args.m, args.k, args.coeffs),
        "brute-force %s dimension: %d" % (kind, dim),
    ]
    if args.coeffs == "trivial" and not args.hochschild:
        formula = series.shuffle_dim(args.m, args.k)
        verdict = "MATCH" if dim == formula else "MISMATCH"
        data["formula"] = _num(formula)
        data["verdict"] = verdict
        lines.append("closed-formula value: %d" % formula)
        lines.append("verdict: %s" % verdict)
        if verdict == "MISMATCH":
            return "failed", data, lines
    return "ok", data, lines


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
    lines = []
    for r in results:
        lines.append("%s %s (%s)" % ("PASS" if r.passed else "FAIL", r.name, r.detail))
    lines.append("%d passed, %d failed" % (data["passed"], data["failed"]))
    status = "ok" if data["failed"] == 0 else "failed"
    return status, data, lines


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
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("series", help="shuffle-dimension and cotangent series for the degree-d cone")
    p.add_argument("--d", type=int, required=True, help="cone degree, at least 3")
    p.add_argument("--order", type=int, default=6, help="truncation order (default 6)")
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("oracle", help="brute-force cohomology of a fat point")
    p.add_argument("--m", type=int, required=True, help="embedding dimension of the fat point")
    p.add_argument("--k", type=int, required=True, help="cochain degree")
    p.add_argument("--coeffs", choices=("trivial", "regular"), default="trivial")
    p.add_argument("--hochschild", action="store_true", help="full complex instead of the shuffle-invariant one")
    p.add_argument("--budget", type=int, default=None, help="cap on the word-space size n^k (default 1500)")
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=cmd_selftest)

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
    status, data, lines = args.func(args)
    if getattr(args, "json", False):
        envelope = {"schema": "1", "command": args.command, "status": status}
        envelope.update(data)
        print(json.dumps(envelope, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
        if status != "ok":
            print("status: %s" % status)
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
