"""Dimension formulas and reports assembled from multiplicity trees."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from ratsurf.blowup import multiplicity_tree
from ratsurf.formulas import analyze
from ratsurf.resgraph import GraphError, ResolutionGraph, parse_graph
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


def report_of(text):
    return analyze(parse_graph(text))


def recursive_sum(node, i):
    """dim T^i of node's subtree, summed by recursion over the children."""
    return cone_tdim(i, node.mult) + sum(recursive_sum(child, i) for child in node.children)


def test_tdim_single_node_equals_cone_values():
    for d in range(3, 9):
        rep = report_of(graph_json([("E0", d)], []))
        assert rep.tdims == {i: cone_tdim(i, d) for i in range(3, 7)}


def test_tdim_fixture_values():
    star = report_of(STAR).tdims
    assert (star[3], star[4]) == (30, 111)
    assert list(report_of(CHAIN).tdims.values()) == [3, 9, 25, 67]
    assert report_of(graph_json([("E0", 5)], [])).tdims[3] == 12


def test_tdim_recursion_equals_flat_sum():
    for text in (STAR, CHAIN, family_json(3), family_json(4), family_json(5)):
        rep = report_of(text)
        assert rep.tdims == {i: recursive_sum(rep.tree, i) for i in range(3, 7)}


def test_t2_report_values():
    assert report_of(STAR).t2 == (15, True)
    assert report_of(CHAIN).t2 == (3, True)
    assert report_of(graph_json([("E0", 6)], [])).t2 == (15, True)
    # non-reduced root: the sum is only a lower bound
    assert report_of(family_json(3)).t2 == (8, False)


def test_codim_report_values():
    assert report_of(STAR).codim_ac == (3, True)
    assert report_of(CHAIN).codim_ac == (1, True)
    assert report_of(family_json(3)).codim_ac == (2, False)


def test_reports_are_nonnegative():
    for text in (STAR, CHAIN, family_json(3), family_json(4)):
        rep = report_of(text)
        assert rep.t2.value >= 0
        assert rep.codim_ac.value >= 0


def test_gmd_check_values():
    assert report_of(STAR).gmd == (7, 8, False)
    assert report_of(CHAIN).gmd == (3, 5, False)
    assert report_of(graph_json([("E0", 4)], [])).gmd == (3, 3, True)


def test_gmd_check_on_the_obstructed_family():
    # both sums come to 6k - 8, so the obstruction inequality is tight
    for k in (3, 4, 5):
        assert report_of(family_json(k)).gmd == (6 * k - 8, 6 * k - 8, True)


def test_analyze_ok_report():
    rep = analyze(parse_graph(STAR))
    assert rep.status == "ok"
    assert rep.mult == 6 and rep.reduced
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
    assert rep.cycle is not None
    assert rep.p_a == 1
    assert rep.mult is None and rep.tree is None and rep.tdims is None


def test_analyze_not_applicable():
    rep = analyze(parse_graph(D4))
    assert rep.status == "not-applicable"
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
            mults, r.tdims, r.t2, r.codim_ac, r.gmd)


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
    # at every node, dim T^i, T^2, cod_AC and sum (d-1) are the node's own
    # term plus its children's subtree sums, and the subtree's values are
    # exact when the node is reduced and every child subtree's are; analyze
    # of the node's graph reports its subtree. Tower trees blow up over
    # several levels
    rng = random.Random(37)
    nodes = deep = obstructed = 0
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
            d = node.mult
            rep = analyze(node.cycle.graph)
            kids = [analyze(child.cycle.graph) for child in node.children]
            for i in range(3, 7):
                assert rep.tdims[i] == cone_tdim(i, d) + sum(kid.tdims[i] for kid in kids)
            everywhere = node.reduced and all(kid.t2.exact for kid in kids)
            assert rep.t2 == ((d - 1) * (d - 3) + sum(kid.t2.value for kid in kids), everywhere)
            assert rep.codim_ac == (d - 3 + sum(kid.codim_ac.value for kid in kids), everywhere)
            sum_d = d - 1 + sum(kid.gmd.sum_d_minus_1 for kid in kids)
            sum_b = sum(b - 1 for b in node.cycle.graph.b)
            assert rep.gmd == (sum_d, sum_b, sum_d >= sum_b)
            todo.extend(node.children)
            nodes += 1
            deep += any(child.children for child in node.children)
            obstructed += rep.gmd.obstructed
    # both obstruction verdicts occur; every tower tree is reduced everywhere,
    # so the inexact flag is checked on the family fixtures above
    assert nodes >= 300 and deep >= 20 and 10 <= obstructed <= nodes - 10, (nodes, deep, obstructed)


def random_multigraph(rng):
    """A random connected graph, n <= 16, often with a double edge or a
    cycle; each b is its vertex's valence give or take, so that reduced and
    non-reduced fundamental cycles both occur."""
    n = rng.randint(1, 16)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    if n > 1 and rng.random() < 0.4:
        for _ in range(rng.randint(1, 2)):
            edges.append(tuple(rng.sample(range(n), 2)) if rng.random() < 0.6 else rng.choice(edges))
    valence = Counter(v for e in edges for v in e)
    bs = [max(2, valence[i] + rng.choice((-1, 0, 0, 1, 2))) for i in range(n)]
    return bs, edges


def test_exactness_is_the_reducedness_of_every_tree_node_on_multigraphs():
    # analyze reads the flag off the root cycle; the walk here reads every node
    rng = random.Random(53)
    seen = Counter()
    for _ in range(1500):
        bs, edges = random_multigraph(rng)
        is_tree = len(edges) == len(bs) - 1  # connected, so no cycle and no double edge
        try:
            r = analyze(ResolutionGraph([("V%d" % i, b) for i, b in enumerate(bs)],
                                        [("V%d" % i, "V%d" % j) for i, j in edges]))
        except GraphError as e:
            seen[is_tree, e.code] += 1
            continue
        if r.status == "ok":
            walk = all(node.reduced for node in r.tree.iter_nodes())
            assert r.reduced == r.t2.exact == r.codim_ac.exact == walk
            seen[is_tree, "ok", walk, len(r.tree.children) > 0] += 1
        else:
            assert r.tree is r.t2 is r.codim_ac is None
            seen[is_tree, r.status] += 1
    # a cycle or a double edge makes p_a(Z) >= 1, so only trees reach the tree
    assert seen[False, "not-rational"] >= 300 and not any(k[:2] == (False, "ok") for k in seen)
    for walk in (True, False):
        for deep in (True, False):
            assert seen[True, "ok", walk, deep] >= 40, seen
