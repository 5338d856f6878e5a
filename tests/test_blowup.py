"""Blow-up recursion: components of the zero locus of Z, multiplicity trees."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from ratsurf import blowup, formulas, resgraph
from ratsurf.acceptance import (
    CHAIN_JSON,
    D4_JSON,
    FOUR_LEAF_B3_JSON,
    STAR_JSON,
    graph_json,
    obstruction_family_json,
)
from ratsurf.blowup import (
    MultiplicityTree,
    NotApplicableError,
    blowup_components,
    multiplicity_tree,
)
from ratsurf.resgraph import (
    GraphError,
    NotRationalError,
    ResolutionGraph,
    arithmetic_genus,
    fundamental_cycle,
    parse_graph,
)
from ratsurf.series import BudgetError
from test_cli_table import y_tower_json
from test_resgraph import is_rational, multiplicity, reference_is_negative_definite, sparse_form


def reduced_everywhere(tree):
    return all(node.reduced for node in tree.iter_nodes())


CONE = graph_json([("E0", 5)], [])


def family_json(k, arms):
    # obstruction_family_json(k) with its three b=k arms listed in the order arms
    vertices = [("C", 2)] + [(a, k) for a in arms]
    edges = [("C", a) for a in arms]
    for a in arms:
        for j in range(1, k - 1):
            vertices.append(("%sL%d" % (a, j), 2))
            edges.append((a, "%sL%d" % (a, j)))
    return graph_json(vertices, edges)


def test_cone_has_no_components():
    g = parse_graph(CONE)
    assert blowup_components(fundamental_cycle(g)) == []


def test_star_component_is_the_center():
    g = parse_graph(STAR_JSON)
    comps = blowup_components(fundamental_cycle(g))
    assert len(comps) == 1
    assert comps[0].ids == ("C",)
    assert comps[0].b == (3,)


def test_chain_component_is_the_middle_double_point():
    g = parse_graph(CHAIN_JSON)
    comps = blowup_components(fundamental_cycle(g))
    assert len(comps) == 1
    assert comps[0].ids == ("E2",)
    assert multiplicity(comps[0]) == 2


def test_components_inherit_weights_and_edges():
    g = parse_graph(
        graph_json(
            [("E1", 3), ("E2", 2), ("E3", 2), ("E4", 3)],
            [("E1", "E2"), ("E2", "E3"), ("E3", "E4")],
        )
    )
    comps = blowup_components(fundamental_cycle(g))
    assert len(comps) == 1
    c = comps[0]
    assert c.ids == ("E2", "E3")
    assert c.b == (2, 2)
    assert c.neighbors(0) == {1: 1}


def test_components_come_back_sorted_by_smallest_id():
    g = parse_graph(family_json(3, ["K3", "K2", "K1"]))
    comps = blowup_components(fundamental_cycle(g))
    assert [c.ids for c in comps] == [("K1",), ("K2",), ("K3",)]


def test_cone_tree_is_a_single_node():
    for d in range(3, 9):
        t = multiplicity_tree(parse_graph(graph_json([("E0", d)], [])))
        assert t.children == []
        assert t.dropped_rdp_count == 0
        assert t.reduced and reduced_everywhere(t)


def test_star_tree():
    t = multiplicity_tree(parse_graph(STAR_JSON))
    assert reduced_everywhere(t)
    assert t.dropped_rdp_count == 0


def test_chain_tree_prunes_the_double_point():
    t = multiplicity_tree(parse_graph(CHAIN_JSON))
    assert t.children == []
    # pruned double points do not spoil exactness of the cycle record
    assert t.reduced and reduced_everywhere(t)


def test_family_trees():
    for k in (3, 4, 5):
        t = multiplicity_tree(parse_graph(obstruction_family_json(k)))
        assert not t.reduced
        assert all(c.reduced for c in t.children)
        assert not reduced_everywhere(t)
        assert t.multiplicities() == [3 * k - 4, k, k, k]


def test_preorder_traversal_lists_parent_before_children():
    t = multiplicity_tree(parse_graph(obstruction_family_json(3)))
    nodes = list(t.iter_nodes())
    assert nodes[0] is t
    assert nodes[1:] == t.children


def test_vertex_count_strictly_decreases_down_the_tree():
    for text in (CONE, STAR_JSON, CHAIN_JSON, obstruction_family_json(3), obstruction_family_json(4)):
        t = multiplicity_tree(parse_graph(text))
        for node in t.iter_nodes():
            for child in node.children:
                assert child.cycle.graph.n < node.cycle.graph.n


def test_every_node_is_rational_negative_definite_and_big_enough():
    for text in (STAR_JSON, CHAIN_JSON, obstruction_family_json(3), obstruction_family_json(5)):
        t = multiplicity_tree(parse_graph(text))
        for node in t.iter_nodes():
            g = node.cycle.graph
            assert is_rational(g)
            assert reference_is_negative_definite(sparse_form(g.n, g.b, g.edges))
            assert node.mult >= 3
            assert node.mult == multiplicity(g)


def test_tree_rejects_non_rational_input():
    g = parse_graph(FOUR_LEAF_B3_JSON)
    with pytest.raises(NotRationalError) as refused:
        multiplicity_tree(g)
    assert refused.value.cycle is fundamental_cycle(g)
    assert refused.value.p_a == arithmetic_genus(fundamental_cycle(g)) > 0


def test_tree_rejects_double_points():
    a1 = graph_json([("E0", 2)], [])
    for text in (D4_JSON, a1):
        g = parse_graph(text)
        with pytest.raises(NotApplicableError) as refused:
            multiplicity_tree(g)
        assert refused.value.cycle is fundamental_cycle(g)
        assert refused.value.mult == -fundamental_cycle(g).self_intersection() == 2


def test_tree_from_a_given_root_cycle_equals_the_tree_it_builds():
    # the graph keeps the cycle its loop found, and the tree's root reads it
    for text in (STAR_JSON, CHAIN_JSON, obstruction_family_json(4)):
        g = parse_graph(text)
        assert fundamental_cycle(g) is fundamental_cycle(g)
        assert multiplicity_tree(g).cycle is fundamental_cycle(g)
    with pytest.raises(NotApplicableError):
        multiplicity_tree(parse_graph(D4_JSON))


def test_tree_repr_mentions_the_shape():
    t = multiplicity_tree(parse_graph(CHAIN_JSON))
    assert repr(t) == "MultiplicityTree(mult=4, children=0, dropped=1)"
    assert isinstance(t, MultiplicityTree)


def validated_copy(comp, edges):
    """comp built through the checking constructor from its id pairs edges."""
    return ResolutionGraph(list(zip(comp.ids, comp.b)), edges)


def random_tower_json(rng, n):
    # inner vertices weigh their valence, so the zero locus of Z is large
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    valence = Counter(v for e in pairs for v in e)
    edges = [("V%d" % i, "V%d" % j) for i, j in pairs]
    edges += rng.sample(edges, rng.randint(0, 1))  # sometimes one double edge
    vertices = [("V%d" % i, valence[i] if valence[i] > 1 else rng.randint(2, 4)) for i in range(n)]
    rng.shuffle(vertices)
    return graph_json(vertices, edges)


def test_restricted_components_equal_validated_graphs():
    rng = random.Random(31)
    texts = [STAR_JSON, CHAIN_JSON, D4_JSON, obstruction_family_json(3), family_json(4, ["K3", "K1", "K2"])]
    texts += [random_tower_json(rng, rng.randint(2, 14)) for _ in range(80)]
    checked = 0
    for text in texts:
        try:
            todo = [(parse_graph(text), [tuple(e) for e in json.loads(text)["edges"]])]
        except GraphError:
            continue  # a double edge can break definiteness
        while todo:
            g, edges = todo.pop()
            for comp in blowup_components(fundamental_cycle(g)):
                # the component's edges are the input edges with both ends in it
                inside = set(comp.ids)
                kept = [(u, v) for u, v in edges if u in inside and v in inside]
                ref = validated_copy(comp, kept)
                assert (comp.ids, comp.b, comp.edges) == (ref.ids, ref.b, ref.edges)
                assert [comp.neighbors(i) for i in range(comp.n)] == [
                    ref.neighbors(i) for i in range(ref.n)
                ]
                todo.append((comp, kept))
                checked += 1
    assert checked >= 100


def count_work(monkeypatch, text):
    """fundamental_cycle calls per graph object and the components made, in analyze."""
    cycles = Counter()
    components = []
    inits = [0]
    real_cycle, real_components = blowup.fundamental_cycle, blowup.blowup_components
    real_init = ResolutionGraph.__init__

    def cycle(g):
        cycles[id(g)] += 1
        return real_cycle(g)

    def init(self, *args):
        inits[0] += 1
        real_init(self, *args)

    def comps(z):
        before = inits[0]
        out = real_components(z)
        assert inits[0] == before, "a component was re-validated"
        components.extend(out)
        return out

    for module in (resgraph, blowup, formulas):
        if hasattr(module, "fundamental_cycle"):  # every namespace that could call it
            monkeypatch.setattr(module, "fundamental_cycle", cycle)
    monkeypatch.setattr(blowup, "blowup_components", comps)
    monkeypatch.setattr(ResolutionGraph, "__init__", init)
    g = parse_graph(text)
    report = formulas.analyze(g)
    return report, cycles, g, components


@pytest.mark.parametrize(
    "text, status, dropped",
    [(STAR_JSON, "ok", 0), (CHAIN_JSON, "ok", 1), (obstruction_family_json(4), "ok", 0),
     (FOUR_LEAF_B3_JSON, "not-rational", None), (D4_JSON, "not-applicable", None)],
    ids=["star-6-3", "chain-323", "family-k4", "four-leaf-b3", "d4"],
)
def test_analyze_computes_each_fundamental_cycle_once(monkeypatch, text, status, dropped):
    report, cycles, g, components = count_work(monkeypatch, text)
    assert report.status == status
    if status == "ok":
        assert components and sum(n.dropped_rdp_count for n in report.tree.iter_nodes()) == dropped
    else:
        assert not components
    assert cycles[id(g)] == 1
    assert all(cycles[id(c)] == 1 for c in components)
    assert sum(cycles.values()) == cycles[id(g)] + len(components)
    assert report.cycle is fundamental_cycle(g)  # the module's own binding, uncounted


def tree_weight(tree):
    """Vertices times depth summed over the nodes, the root at depth 1."""
    todo, weight = [(tree, 1)], 0
    while todo:
        node, depth = todo.pop()
        weight += node.cycle.graph.n * depth
        todo.extend((child, depth + 1) for child in node.children)
    return weight


def tree_shape(node):
    return (node.cycle.graph.ids, node.mult, node.reduced, node.dropped_rdp_count,
            [tree_shape(child) for child in node.children])


def test_tree_budget_boundary(monkeypatch):
    # the budget admits a tree of weight TREE_BUDGET and refuses one unit less;
    # y_tower_json(3) weighs 4^2 * 5 / 2 = 40, the others branch
    texts = [y_tower_json(3), STAR_JSON, obstruction_family_json(4)]
    rng = random.Random(59)
    texts += [random_tower_json(rng, rng.randint(6, 14)) for _ in range(40)]
    weights = []
    for text in texts:
        try:
            g = parse_graph(text)
            want = multiplicity_tree(g)
        except (GraphError, NotRationalError, NotApplicableError):
            continue
        weight = tree_weight(want)
        monkeypatch.setattr(resgraph, "TREE_BUDGET", weight)
        assert tree_shape(multiplicity_tree(g)) == tree_shape(want)
        monkeypatch.setattr(resgraph, "TREE_BUDGET", weight - 1)
        with pytest.raises(BudgetError, match="more than %d units" % (weight - 1)):
            multiplicity_tree(g)
        monkeypatch.undo()
        weights.append((weight, len(want.multiplicities())))
    assert weights[0] == (40, 4)
    assert len(weights) >= 15 and sum(nodes > 2 for _, nodes in weights) >= 5
    assert resgraph.TREE_BUDGET == 1_000_000
