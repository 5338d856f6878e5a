"""Dimension formulas and reports assembled from multiplicity trees."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from ratsurf.blowup import multiplicity_tree
from ratsurf.formulas import (
    analyze,
    codim_ac_report,
    gmd_check,
    t2_report,
    tdim,
)
from ratsurf.resgraph import GraphError, parse_graph
from ratsurf.series import cone_tdim


def graph_json(vertices, edges):
    return json.dumps(
        {
            "vertices": [{"id": vid, "b": b} for vid, b in vertices],
            "edges": [list(e) for e in edges],
        }
    )


STAR = graph_json(
    [("C", 3), ("L1", 3), ("L2", 3), ("L3", 3)],
    [("C", "L1"), ("C", "L2"), ("C", "L3")],
)
CHAIN = graph_json([("E1", 3), ("E2", 2), ("E3", 3)], [("E1", "E2"), ("E2", "E3")])
D4 = graph_json(
    [("C", 2), ("L1", 2), ("L2", 2), ("L3", 2)],
    [("C", "L1"), ("C", "L2"), ("C", "L3")],
)
NOT_RATIONAL = graph_json(
    [("C", 2), ("L1", 3), ("L2", 3), ("L3", 3), ("L4", 3)],
    [("C", "L1"), ("C", "L2"), ("C", "L3"), ("C", "L4")],
)


def family_json(k):
    vertices = [("C", 2)] + [("K%d" % t, k) for t in (1, 2, 3)]
    edges = [("C", "K%d" % t) for t in (1, 2, 3)]
    for t in (1, 2, 3):
        for j in range(1, k - 1):
            vertices.append(("K%dL%d" % (t, j), 2))
            edges.append(("K%d" % t, "K%dL%d" % (t, j)))
    return graph_json(vertices, edges)


def tree_of(text):
    return multiplicity_tree(parse_graph(text))


def test_tdim_needs_i_at_least_three():
    t = tree_of(STAR)
    with pytest.raises(ValueError):
        tdim(t, 2)


def test_tdim_single_node_equals_cone_values():
    for d in range(3, 9):
        t = tree_of(graph_json([("E0", d)], []))
        for i in range(3, 7):
            assert tdim(t, i) == cone_tdim(i, d)


def test_tdim_fixture_values():
    star = tree_of(STAR)
    assert tdim(star, 3) == 30
    assert tdim(star, 4) == 111
    chain = tree_of(CHAIN)
    assert [tdim(chain, i) for i in (3, 4, 5, 6)] == [3, 9, 25, 67]
    assert tdim(tree_of(graph_json([("E0", 5)], [])), 3) == 12


def test_tdim_recursion_equals_flat_sum():
    for text in (STAR, CHAIN, family_json(3), family_json(4), family_json(5)):
        t = tree_of(text)
        for i in range(3, 7):
            assert tdim(t, i) == sum(cone_tdim(i, m) for m in t.multiplicities())


def test_t2_report_values():
    assert t2_report(tree_of(STAR)) == (15, True)
    assert t2_report(tree_of(CHAIN)) == (3, True)
    assert t2_report(tree_of(graph_json([("E0", 6)], []))) == (15, True)
    # non-reduced root: the sum is only a lower bound
    assert t2_report(tree_of(family_json(3))) == (8, False)


def test_codim_report_values():
    assert codim_ac_report(tree_of(STAR)) == (3, True)
    assert codim_ac_report(tree_of(CHAIN)) == (1, True)
    assert codim_ac_report(tree_of(family_json(3))) == (2, False)


def test_reports_are_nonnegative():
    for text in (STAR, CHAIN, family_json(3), family_json(4)):
        t = tree_of(text)
        assert t2_report(t).value >= 0
        assert codim_ac_report(t).value >= 0


def test_gmd_check_values():
    g = parse_graph(STAR)
    assert gmd_check(g, multiplicity_tree(g)) == (7, 8, False)
    g = parse_graph(CHAIN)
    assert gmd_check(g, multiplicity_tree(g)) == (3, 5, False)
    g = parse_graph(graph_json([("E0", 4)], []))
    assert gmd_check(g, multiplicity_tree(g)) == (3, 3, True)


def test_gmd_check_on_the_obstructed_family():
    # both sums come to 6k - 8, so the obstruction inequality is tight
    for k in (3, 4, 5):
        g = parse_graph(family_json(k))
        rep = gmd_check(g, multiplicity_tree(g))
        assert rep == (6 * k - 8, 6 * k - 8, True)


def test_analyze_ok_report():
    rep = analyze(parse_graph(STAR))
    assert rep.status == "ok"
    assert rep.rational and rep.mult == 6
    assert rep.reduced and rep.reduced_everywhere
    assert rep.tdims == {3: 30, 4: 111, 5: 462, 6: 1944}
    assert rep.t2 == (15, True)
    assert rep.codim_ac == (3, True)
    assert (rep.gmd.sum_d_minus_1, rep.gmd.sum_b_minus_1, rep.gmd.obstructed) == (7, 8, False)


def test_analyze_respects_imax():
    rep = analyze(parse_graph(CHAIN), imax=4)
    assert sorted(rep.tdims) == [3, 4]
    with pytest.raises(ValueError):
        analyze(parse_graph(CHAIN), imax=2)


def test_analyze_not_rational():
    rep = analyze(parse_graph(NOT_RATIONAL))
    assert rep.status == "not-rational"
    assert rep.rational is False
    assert rep.cycle is not None
    assert rep.p_a == 1
    assert rep.mult is None and rep.tree is None and rep.tdims is None


def test_analyze_not_applicable():
    rep = analyze(parse_graph(D4))
    assert rep.status == "not-applicable"
    assert rep.rational is True
    assert rep.mult == 2
    assert rep.tree is None and rep.tdims is None


def relabeled(text, rng):
    data = json.loads(text)
    ids = [v["id"] for v in data["vertices"]]
    fresh = ["W%d" % t for t in range(len(ids))]
    rng.shuffle(fresh)
    rename = dict(zip(ids, fresh))
    vertices = [{"id": rename[v["id"]], "b": v["b"]} for v in data["vertices"]]
    rng.shuffle(vertices)
    edges = [[rename[a], rename[b]][:: rng.choice((1, -1))] for a, b in data["edges"]]
    rng.shuffle(edges)
    return json.dumps({"vertices": vertices, "edges": edges})


def test_analyze_is_invariant_under_relabeling():
    rng = random.Random(23)
    for text in (STAR, CHAIN, family_json(3), family_json(4)):
        base = analyze(parse_graph(text))
        for _ in range(4):
            other = analyze(parse_graph(relabeled(text, rng)))
            assert other.status == base.status
            assert other.mult == base.mult
            assert other.tdims == base.tdims
            assert other.t2 == base.t2
            assert other.codim_ac == base.codim_ac
            assert other.gmd == base.gmd


def random_tree_json(rng, n, kind):
    """A seeded random tree. kind "rational": every b_i >= valence; "tower":
    b_i = valence on inner vertices, so the blow-ups recurse; "mixed": b_i in
    {2, 3}, which also gives indefinite and non-rational graphs."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    valence = Counter(v for e in edges for v in e)
    if kind == "rational":
        bs = [rng.randint(max(2, valence[i]), valence[i] + 2) for i in range(n)]
    elif kind == "tower":
        bs = [valence[i] if valence[i] > 1 else rng.randint(2, 4) for i in range(n)]
    else:
        bs = [rng.randint(2, 3) for _ in range(n)]
    return graph_json([("V%d" % i, b) for i, b in enumerate(bs)],
                      [("V%d" % i, "V%d" % j) for i, j in edges])


def outcome(text):
    """Everything analyze says about a graph that does not name its vertices."""
    try:
        g = parse_graph(text)
    except GraphError as e:
        return e.code
    r = analyze(g)
    mults = None if r.tree is None else sorted(r.tree.multiplicities())
    return (r.status, r.p_a, sorted(r.cycle.coefficients.values()), r.mult, r.reduced,
            r.reduced_everywhere, mults, r.tdims, r.t2, r.codim_ac, r.gmd)


def test_analyze_is_invariant_under_relabeling_on_generated_trees():
    rng = random.Random(29)
    seen = Counter()
    for kind in ("rational", "tower", "mixed"):
        for _ in range(60):
            text = random_tree_json(rng, rng.randint(1, 14), kind)
            base = outcome(text)
            seen[kind, base if isinstance(base, str) else base[0]] += 1
            for _ in range(3):
                assert outcome(relabeled(text, rng)) == base
    assert seen["rational", "not-rational"] == seen["tower", "not-rational"] == 0
    for key in (("rational", "ok"), ("tower", "ok"), ("mixed", "not-rational"),
                ("mixed", "not-negative-definite")):
        assert seen[key] >= 3, seen


def test_tdim_is_the_recursive_sum_on_generated_tower_trees():
    # at every node, dim T^i is the node's own cone value plus its children's
    # subtree sums; tower trees blow up over several levels
    rng = random.Random(37)
    nodes = deep = 0
    for _ in range(200):
        try:
            g = parse_graph(random_tree_json(rng, rng.randint(2, 14), "tower"))
        except GraphError:
            continue
        if analyze(g).status != "ok":
            continue
        todo = [multiplicity_tree(g)]
        while todo:
            node = todo.pop()
            for i in range(3, 7):
                children = sum(tdim(child, i) for child in node.children)
                assert tdim(node, i) == cone_tdim(i, node.mult) + children
            todo.extend(node.children)
            nodes += 1
            deep += any(child.children for child in node.children)
    assert nodes >= 300 and deep >= 20, (nodes, deep)
