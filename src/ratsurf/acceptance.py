"""The package's own exit bar: every shipped correctness claim as a check.

Each criterion pits a package computation against an independent expectation:
hand-expanded closed-form polynomials, hand-run fundamental-cycle
computations, or the brute-force cohomology engine. run_all() executes them
in order and reports one result per criterion; the selftest CLI subcommand
and tests/test_acceptance.py both consume this registry, so the installed
package can re-verify itself without the test tree.

The closed-form tables below are module-level data on purpose: tests corrupt
an entry to prove a broken constant produces a named failure here.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from fractions import Fraction

from . import formulas, series
from .harrison import (
    REGULAR,
    TRIVIAL,
    harrison_dim,
    hochschild_dim,
    make_fat_point,
    zero_map_check,
)
from .resgraph import GraphError, parse_graph

# hand-expanded closed forms for the cone dimensions f_i(d), i = 1..6
F_CLOSED = {
    1: lambda d: 2 * d - 4,
    2: lambda d: (d - 1) * (d - 3),
    3: lambda d: Fraction((d - 1) * (d - 2) * (d - 3), 2),
    4: lambda d: Fraction((d - 1) * (d - 2) * (2 * d * d - 8 * d + 9), 6),
    5: lambda d: Fraction((d - 1) * (d - 2) ** 2 * (3 * d * d - 8 * d + 9), 12),
    6: lambda d: Fraction(
        (d - 1) * (d - 2) * (12 * d**4 - 66 * d**3 + 153 * d**2 - 179 * d + 90), 60
    ),
}

# hand-expanded closed forms for the shuffle dimensions, k = 1..6
C_CLOSED = {
    1: lambda m: m,
    2: lambda m: Fraction(m * m + m, 2),
    3: lambda m: Fraction(m**3 - m, 3),
    4: lambda m: Fraction(m**4 - m * m, 4),
    5: lambda m: Fraction(m**5 - m, 5),
    6: lambda m: Fraction(m**6 + m**3 - m * m - m, 6),
}


class _Failure(Exception):
    pass


def _expect(condition: bool, detail: str) -> None:
    if not condition:
        raise _Failure(detail)


def _as_int(x) -> int:
    f = Fraction(x)
    if f.denominator != 1:
        raise _Failure("closed form did not clear its denominator: %s" % f)
    return int(f)


# ----- graph fixtures (built through the JSON interchange format) ----------

def _graph_json(vertices, edges) -> str:
    return json.dumps(
        {
            "vertices": [{"id": vid, "b": b} for vid, b in vertices],
            "edges": [list(e) for e in edges],
        }
    )


def cone_graph_json(d: int) -> str:
    return _graph_json([("E0", d)], [])


def star_graph_json() -> str:
    # center b=3 with three b=3 leaves
    return _graph_json(
        [("C", 3), ("L1", 3), ("L2", 3), ("L3", 3)],
        [("C", "L1"), ("C", "L2"), ("C", "L3")],
    )


def chain_graph_json() -> str:
    return _graph_json(
        [("E1", 3), ("E2", 2), ("E3", 3)], [("E1", "E2"), ("E2", "E3")]
    )


def d4_graph_json() -> str:
    return _graph_json(
        [("C", 2), ("L1", 2), ("L2", 2), ("L3", 2)],
        [("C", "L1"), ("C", "L2"), ("C", "L3")],
    )


def four_leaf_b2_star_json() -> str:
    return _graph_json(
        [("C", 2), ("L1", 2), ("L2", 2), ("L3", 2), ("L4", 2)],
        [("C", "L1"), ("C", "L2"), ("C", "L3"), ("C", "L4")],
    )


def four_leaf_b3_star_json() -> str:
    return _graph_json(
        [("C", 2), ("L1", 3), ("L2", 3), ("L3", 3), ("L4", 3)],
        [("C", "L1"), ("C", "L2"), ("C", "L3"), ("C", "L4")],
    )


def obstruction_family_json(k: int) -> str:
    """Central b=2 vertex, three b=k arms, k-2 extra b=2 leaves per arm.

    This is the encoding pinned by its invariants: its fundamental cycle has
    multiplicity 3k-4 and its blow-up children are three lone b=k vertices.
    """
    if k < 3:
        raise ValueError("the family starts at k = 3")
    vertices = [("C", 2)] + [("K%d" % t, k) for t in (1, 2, 3)]
    edges = [("C", "K%d" % t) for t in (1, 2, 3)]
    for t in (1, 2, 3):
        for j in range(1, k - 1):
            vertices.append(("K%dL%d" % (t, j), 2))
            edges.append(("K%d" % t, "K%dL%d" % (t, j)))
    return _graph_json(vertices, edges)


def analysis_fixtures():
    """Every fixture that analyzes to status ok, as (name, json text)."""
    out = [("cone-d%d" % d, cone_graph_json(d)) for d in range(3, 9)]
    out.append(("star-3-333", star_graph_json()))
    out.append(("chain-323", chain_graph_json()))
    out.append(("family-k3", obstruction_family_json(3)))
    out.append(("family-k4", obstruction_family_json(4)))
    return out


# ----- criteria -------------------------------------------------------------

def _crit_f_table() -> str:
    checks = 0
    for d in range(3, 13):
        p = series.poincare_series(d, 6)
        for i in range(1, 7):
            want = _as_int(F_CLOSED[i](d))
            got = p[i]
            _expect(
                got == want,
                "t^%d coefficient for d=%d: series %s, closed form %d" % (i, d, got, want),
            )
            checks += 1
    return "%d coefficients match the closed forms" % checks


def _crit_shuffle_closed_forms() -> str:
    checks = 0
    for m in range(1, 21):
        for k in range(1, 7):
            want = _as_int(C_CLOSED[k](m))
            got = series.shuffle_dim(m, k)
            _expect(got == want, "shuffle_dim(%d,%d) = %d, closed form %d" % (m, k, got, want))
            checks += 1
    return "%d values match the closed forms" % checks


def _crit_harrison_oracle() -> str:
    pairs = [(m, k) for m in range(1, 5) for k in range(1, 5)]
    pairs += [(2, 5), (2, 6), (2, 7), (2, 8), (3, 5)]
    for m, k in pairs:
        got = harrison_dim(make_fat_point(m), TRIVIAL, k)
        want = series.shuffle_dim(m, k)
        _expect(got == want, "harrison_dim(Z_%d, trivial, %d) = %d, formula %d" % (m, k, got, want))
    return "%d brute-force dimensions match the formula" % len(pairs)


def _crit_fatpoint_tdims() -> str:
    cases = [(2, i) for i in (1, 2, 3)] + [(3, i) for i in (1, 2)]
    for m, i in cases:
        got = harrison_dim(make_fat_point(m), REGULAR, i + 1)
        want = series.fatpoint_tdim(m, i)
        _expect(got == want, "T^%d(Z_%d): brute %d, formula %d" % (i, m, got, want))
    return "%d fat-point cotangent dimensions match" % len(cases)


def _crit_zero_map() -> str:
    cases = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]
    for m, k in cases:
        verdict = zero_map_check(m, k)
        _expect(
            verdict is True,
            "zero_map_check(%d, %d) returned %r; expected True" % (m, k, verdict),
        )
    return "zero map confirmed on %d configurations" % len(cases)


def _crit_direct_summand() -> str:
    checks = 0
    for m in range(1, 4):
        for k in range(1, 5):
            hh = hochschild_dim(make_fat_point(m), TRIVIAL, k)
            ha = harrison_dim(make_fat_point(m), TRIVIAL, k)
            _expect(
                hh >= ha,
                "hochschild_dim(Z_%d, trivial, %d) = %d < harrison_dim = %d" % (m, k, hh, ha),
            )
            checks += 1
    return "inequality holds on %d configurations" % checks


def _crit_cone_graphs() -> str:
    for d in range(3, 9):
        report = formulas.analyze(parse_graph(cone_graph_json(d)))
        _expect(report.status == "ok", "cone d=%d: status %s" % (d, report.status))
        _expect(report.mult == d, "cone d=%d: mult %s" % (d, report.mult))
        _expect(
            report.tree.multiplicities() == [d],
            "cone d=%d: tree %s" % (d, report.tree.multiplicities()),
        )
        for i in range(3, 7):
            want = _as_int(F_CLOSED[i](d))
            _expect(
                report.tdims[i] == want,
                "cone d=%d: T^%d = %d, closed form %d" % (d, i, report.tdims[i], want),
            )
        _expect(
            report.t2 == ((d - 1) * (d - 3), True),
            "cone d=%d: T^2 report %s" % (d, report.t2),
        )
        _expect(
            report.codim_ac == (d - 3, True),
            "cone d=%d: cod_AC report %s" % (d, report.codim_ac),
        )
    return "cones d=3..8 fully verified"


def _crit_recursion_fixtures() -> str:
    star = formulas.analyze(parse_graph(star_graph_json()))
    _expect(star.tree.multiplicities() == [6, 3], "star tree %s" % star.tree.multiplicities())
    _expect(star.tdims[3] == 30, "star T^3 = %d" % star.tdims[3])
    _expect(star.t2 == (15, True), "star T^2 report %s" % (star.t2,))
    _expect(star.codim_ac == (3, True), "star cod_AC report %s" % (star.codim_ac,))
    chain = formulas.analyze(parse_graph(chain_graph_json()))
    _expect(chain.mult == 4, "chain mult %d" % chain.mult)
    _expect(
        chain.tree.multiplicities() == [4] and chain.tree.dropped_rdp_count == 1,
        "chain tree %s with %d dropped" % (chain.tree.multiplicities(), chain.tree.dropped_rdp_count),
    )
    for i in range(3, 7):
        want = _as_int(F_CLOSED[i](4))
        _expect(chain.tdims[i] == want, "chain T^%d = %d, closed form %d" % (i, chain.tdims[i], want))
    _expect(chain.t2 == (3, True), "chain T^2 report %s" % (chain.t2,))
    return "star and chain fixtures verified"


def _crit_obstruction_family() -> str:
    for k in (3, 4):
        report = formulas.analyze(parse_graph(obstruction_family_json(k)))
        _expect(report.status == "ok", "family k=%d: status %s" % (k, report.status))
        _expect(report.mult == 3 * k - 4, "family k=%d: mult %d" % (k, report.mult))
        child_mults = sorted(child.mult for child in report.tree.children)
        _expect(
            child_mults == [k, k, k],
            "family k=%d: first-level children %s" % (k, child_mults),
        )
        sum_d, sum_b, obstructed = report.gmd
        _expect(
            sum_d == 6 * k - 8 and sum_b == 6 * k - 8,
            "family k=%d: sums (%d, %d), expected both %d" % (k, sum_d, sum_b, 6 * k - 8),
        )
        _expect(obstructed is True, "family k=%d: not flagged obstructed" % k)
    return "family k=3,4 verified (mult 3k-4, children {k,k,k}, sums 6k-8, obstructed)"


def _crit_rejection_paths() -> str:
    try:
        parse_graph(four_leaf_b2_star_json())
        raise _Failure("four-leaf b=2 star was accepted")
    except GraphError as e:
        _expect(
            e.code == "not-negative-definite",
            "four-leaf b=2 star rejected with code %s" % e.code,
        )
    report = formulas.analyze(parse_graph(four_leaf_b3_star_json()))
    _expect(report.status == "not-rational", "four-leaf b=3 star: status %s" % report.status)
    report = formulas.analyze(parse_graph(d4_graph_json()))
    _expect(
        report.status == "not-applicable" and report.mult == 2,
        "D_4: status %s, mult %s" % (report.status, report.mult),
    )
    return "all three rejection paths behave"


def _crit_recursion_flat_sum() -> str:
    def recursive_sum(node, i):
        return series.cone_tdim(i, node.mult) + sum(
            recursive_sum(child, i) for child in node.children
        )

    checks = 0
    for name, text in analysis_fixtures():
        report = formulas.analyze(parse_graph(text))
        for i, flat in report.tdims.items():
            rec = recursive_sum(report.tree, i)
            _expect(flat == rec, "%s: flat T^%d = %d but recursion gives %d" % (name, i, flat, rec))
            checks += 1
    return "flat and recursive sums agree on %d fixture/degree pairs" % checks


CriterionResult = namedtuple("CriterionResult", "name passed detail elapsed")


# (name, time budget in seconds or None, check)
CRITERIA = [
    ("f-table", 1.0, _crit_f_table),
    ("shuffle-closed-forms", 1.0, _crit_shuffle_closed_forms),
    ("harrison-oracle", 60.0, _crit_harrison_oracle),
    ("fatpoint-tdims", 120.0, _crit_fatpoint_tdims),
    ("zero-map-lemma", None, _crit_zero_map),
    ("direct-summand", None, _crit_direct_summand),
    ("cone-graphs", 1.0, _crit_cone_graphs),
    ("recursion-fixtures", 1.0, _crit_recursion_fixtures),
    ("obstruction-family", 1.0, _crit_obstruction_family),
    ("rejection-paths", 1.0, _crit_rejection_paths),
    ("recursion-flat-sum", None, _crit_recursion_flat_sum),
]


def run_one(name: str) -> CriterionResult:
    for cname, budget, func in CRITERIA:
        if cname == name:
            break
    else:
        raise ValueError("unknown criterion %r" % name)
    start = time.monotonic()
    try:
        detail = func()
        passed = True
    except _Failure as e:
        detail = str(e)
        passed = False
    except Exception as e:  # a crashed check is a failed check, with its reason
        detail = "%s: %s" % (type(e).__name__, e)
        passed = False
    elapsed = time.monotonic() - start
    if passed and budget is not None and elapsed > budget:
        passed = False
        detail = "correct but too slow: %.2f s against a %.0f s budget" % (elapsed, budget)
    return CriterionResult(name=cname, passed=passed, detail=detail, elapsed=elapsed)


def run_all() -> list:
    return [run_one(name) for name, _, _ in CRITERIA]
