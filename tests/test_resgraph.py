"""Dual graph parsing, intersection lattice, fundamental cycles, rationality."""

from __future__ import annotations

import ast
import random
import time
from fractions import Fraction
from heapq import heapify, heappop, heappush

import pytest

from ratsurf import resgraph
from ratsurf.acceptance import CHAIN_JSON, D4_JSON, STAR_JSON, graph_json
from ratsurf.resgraph import (
    Cycle,
    GRAPH_ERROR_CODES,
    GraphError,
    NotRationalError,
    ResolutionGraph,
    arithmetic_genus,
    fundamental_cycle,
    is_negative_definite,
    is_reduced,
    parse_graph,
)
from ratsurf.blowup import blowup_components, multiplicity_tree
from ratsurf.series import BudgetError
from ratsurf.qlinalg import QMatrix


def is_rational(g):
    """Rationality test: p_a of the fundamental cycle is zero."""
    return arithmetic_genus(fundamental_cycle(g)) == 0


def multiplicity(g):
    """Multiplicity of a rational singularity: -Z.Z for the fundamental cycle."""
    z = fundamental_cycle(g)
    if arithmetic_genus(z) != 0:
        raise NotRationalError("multiplicity formula needs a rational singularity", z, arithmetic_genus(z))
    return -z.self_intersection()


CONE4 = graph_json([("E0", 4)], [])
A3 = graph_json([("E1", 2), ("E2", 2), ("E3", 2)], [("E1", "E2"), ("E2", "E3")])


def expect_code(text, code):
    assert code in GRAPH_ERROR_CODES
    with pytest.raises(GraphError) as err:
        parse_graph(text)
    assert err.value.code == code


def test_single_vertex_graph_is_valid():
    g = parse_graph(CONE4)
    assert g.n == 1
    assert g.ids == ("E0",)
    assert g.b == (4,)


def test_parse_rejects_invalid_json():
    expect_code("{nope", "syntax")
    expect_code("[1, 2]", "syntax")


def test_parse_rejects_deep_nesting():
    expect_code("[" * 100000, "syntax")
    expect_code('{"vertices": ' + "[" * 100000, "syntax")


def test_parse_rejects_an_integer_literal_past_the_digit_limit():
    # json.loads raises a plain ValueError for an int literal over Python's
    # 4300-digit conversion limit, not a JSONDecodeError
    expect_code('{"vertices": [{"id": "A", "b": %s}], "edges": []}' % ("7" * 5000), "syntax")
    expect_code('{"vertices": [], "edges": [%s]}' % ("1" * 5000), "syntax")


def test_parse_rejects_missing_or_extra_fields():
    expect_code('{"vertices": []}', "syntax")
    expect_code('{"vertices": [], "edges": [], "name": "x"}', "unknown-field")
    expect_code('{"vertices": [{"id": "A", "b": 2, "genus": 0}], "edges": []}', "unknown-field")
    expect_code('{"vertices": [{"id": "A"}], "edges": []}', "syntax")
    expect_code('{"vertices": [], "edges": []}', "syntax")


def test_parse_rejects_bad_weights():
    # b must be an integer >= 2; b = 1 is non-minimal rather than malformed
    expect_code(graph_json([("A", 0)], []), "syntax")
    expect_code(graph_json([("A", -2)], []), "syntax")
    expect_code('{"vertices": [{"id": "A", "b": 2.0}], "edges": []}', "syntax")
    expect_code('{"vertices": [{"id": "A", "b": true}], "edges": []}', "syntax")
    expect_code('{"vertices": [{"id": "A", "b": "3"}], "edges": []}', "syntax")
    expect_code(graph_json([("A", 1)], []), "non-minimal")


def test_parse_rejects_bad_ids_and_edges():
    expect_code('{"vertices": [{"id": 7, "b": 3}], "edges": []}', "syntax")
    expect_code(graph_json([("A", 3), ("A", 4)], []), "duplicate-id")
    expect_code(graph_json([("A", 3)], [("A", "B")]), "bad-edge")
    expect_code(
        '{"vertices": [{"id": "A", "b": 3}, {"id": "B", "b": 3}],'
        ' "edges": [["A", "B", "A"]]}',
        "syntax",
    )
    expect_code(graph_json([("A", 3)], [("A", "A")]), "self-loop")
    expect_code(graph_json([("A", 3), ("B", 3)], []), "disconnected")


def test_parse_rejects_indefinite_lattices():
    # four b=2 leaves around a b=2 center: determinant 0
    bad = graph_json(
        [("C", 2), ("L1", 2), ("L2", 2), ("L3", 2), ("L4", 2)],
        [("C", "L1"), ("C", "L2"), ("C", "L3"), ("C", "L4")],
    )
    expect_code(bad, "not-negative-definite")


def test_multi_edges_parse_but_fail_downstream():
    # a double edge keeps the lattice negative definite for b = 3 but the
    # fundamental cycle has arithmetic genus 1, so rationality fails
    double = graph_json([("A", 3), ("B", 3)], [("A", "B"), ("A", "B")])
    g = parse_graph(double)
    z = fundamental_cycle(g)
    assert arithmetic_genus(z) == 1
    assert not is_rational(g)
    # with b = 2 the double edge already breaks negative definiteness
    expect_code(
        graph_json([("A", 2), ("B", 2)], [("A", "B"), ("A", "B")]),
        "not-negative-definite",
    )


def test_is_negative_definite_basics():
    assert is_negative_definite([[-2]])
    assert not is_negative_definite([[0]])
    assert not is_negative_definite([[2]])
    assert is_negative_definite([[-2, 1], [1, -2]])
    assert not is_negative_definite([[-2, 2], [2, -2]])
    # not symmetric, ragged, not square, and a sparse row
    for bad in ([[-2, 1], [0, -2]], [[-2, 0], [-2]], [[-2, 0, 0], [0, -2, 0]], [{0: -2}]):
        with pytest.raises(ValueError):
            is_negative_definite(bad)


def test_is_negative_definite_takes_only_int_entries():
    for bad in ([[Fraction(-2)]], [[-2.0]], [[True]], [[-2, 0.5], [0.5, -2]]):
        with pytest.raises(ValueError, match="of ints"):
            is_negative_definite(bad)


def reference_is_negative_definite(rows):
    """Reference: are all pivots of a least-degree symmetric pivot pass in
    Fractions negative? rows are dense sequences or sparse {j: entry} dicts."""
    n = len(rows)
    adj = [{j: x for j, x in (r.items() if isinstance(r, dict) else enumerate(r)) if x}
           for r in rows]
    diag = [r.pop(i, 0) for i, r in enumerate(adj)]
    heap = [(len(r), i) for i, r in enumerate(adj)]
    heapify(heap)
    while heap:
        degree, p = heappop(heap)
        if adj[p] is None or degree != len(adj[p]):
            continue
        if diag[p] >= 0:
            return False
        row, adj[p] = adj[p], None
        for i in row:
            del adj[i][p]
        for i, x in row.items():
            f = Fraction(x) / diag[p]
            diag[i] -= f * x
            for j, y in row.items():
                if j != i:
                    v = adj[i].get(j, 0) - f * y
                    if v:
                        adj[i][j] = v
                    else:
                        adj[i].pop(j, None)
            heappush(heap, (len(adj[i]), i))
    return True


def random_symmetric(rng, n):
    density = rng.random()
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(-6, 2)
        for j in range(i):
            if rng.random() < density:
                rows[i][j] = rows[j][i] = rng.randint(-3, 3)
    return rows


def graph_form(n, bs, edges):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = -bs[i]
    for i, j in edges:
        rows[i][j] += 1
        rows[j][i] += 1
    return rows


def assert_agrees_with_sylvester(rows, rng):
    want = reference_is_negative_definite(rows)
    assert is_negative_definite(rows) == want, rows
    # definiteness does not depend on the vertex order the minors read
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    assert is_negative_definite([[rows[i][j] for j in perm] for i in perm]) == want
    return want


def test_pivot_pass_agrees_with_sylvester_on_random_symmetric_matrices():
    rng = random.Random(101)
    verdicts = {True: 0, False: 0}
    singular = 0
    for _ in range(2400):
        rows = random_symmetric(rng, rng.randint(1, 8))
        verdicts[assert_agrees_with_sylvester(rows, rng)] += 1
        m = QMatrix(rows)
        singular += any(m.leading_principal_minor(k) == 0 for k in range(1, m.rows + 1))
    # both verdicts and zero pivots occur, so the comparison is not vacuous
    assert min(verdicts.values()) >= 100 and singular >= 100, (verdicts, singular)


def test_pivot_pass_agrees_with_sylvester_on_trees_cycles_and_double_edges():
    rng = random.Random(102)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(1, 10)
        bs = [rng.randint(1, 4) for _ in range(n)]
        tree = [(rng.randrange(i), i) for i in range(1, n)]
        verdicts[assert_agrees_with_sylvester(graph_form(n, bs, tree), rng)] += 1
        if n >= 3:
            cycle = [(i, (i + 1) % n) for i in range(n)]
            verdicts[assert_agrees_with_sylvester(graph_form(n, bs, cycle), rng)] += 1
        if n >= 2:
            doubled = tree + rng.sample(tree, rng.randint(1, n - 1))
            verdicts[assert_agrees_with_sylvester(graph_form(n, bs, doubled), rng)] += 1
    assert min(verdicts.values()) >= 100, verdicts


def test_star_with_center_first_at_the_definiteness_boundary():
    # 399 leaves of weight 2 add 399/2 to the center's pivot, so b = 200 is
    # the least definite center
    n = 400
    leaves = [("L%d" % i, 2) for i in range(1, n)]
    edges = [("C", leaf) for leaf, _ in leaves]
    for b in (n + 1, 200):
        assert parse_graph(graph_json([("C", b)] + leaves, edges)).n == n
    expect_code(graph_json([("C", 199)] + leaves, edges), "not-negative-definite")


def test_cycle_validation():
    g = parse_graph(CHAIN_JSON)
    with pytest.raises(ValueError):
        Cycle(g, {"E1": 1, "E2": 1})
    with pytest.raises(ValueError):
        Cycle(g, {"E1": 1, "E2": 1, "E3": 1, "E9": 1})
    with pytest.raises(ValueError):
        Cycle(g, {"E1": 1, "E2": True, "E3": 1})


def test_cycle_pairings_by_hand():
    g = parse_graph(CHAIN_JSON)
    z = Cycle(g, {"E1": 2, "E2": 1, "E3": 1})
    # Z.E1 = -3*2 + 1, Z.E2 = -2 + 2 + 1, Z.E3 = -3 + 1
    assert z.pairings == [-5, 1, -2]
    assert z.self_intersection() == 2 * -5 + 1 * 1 + 1 * -2
    assert z.canonical_pairing() == 2 * 1 + 1 * 0 + 1 * 1


def test_is_reduced():
    g = parse_graph(CHAIN_JSON)
    assert is_reduced(Cycle(g, {"E1": 1, "E2": 1, "E3": 1}))
    assert not is_reduced(Cycle(g, {"E1": 2, "E2": 1, "E3": 1}))


def test_fundamental_cycle_fixtures():
    assert fundamental_cycle(parse_graph(CONE4)).coefficients == {"E0": 1}
    assert fundamental_cycle(parse_graph(CHAIN_JSON)).coefficients == {
        "E1": 1,
        "E2": 1,
        "E3": 1,
    }
    assert fundamental_cycle(parse_graph(STAR_JSON)).coefficients == {
        "C": 1,
        "L1": 1,
        "L2": 1,
        "L3": 1,
    }
    assert fundamental_cycle(parse_graph(D4_JSON)).coefficients == {
        "C": 2,
        "L1": 1,
        "L2": 1,
        "L3": 1,
    }


def test_fundamental_cycle_is_antinef_and_positive():
    for text in (CONE4, CHAIN_JSON, STAR_JSON, D4_JSON, A3):
        g = parse_graph(text)
        z = fundamental_cycle(g)
        assert all(a >= 1 for a in z.coefficients.values())
        assert all(p <= 0 for p in z.pairings)


def laufer_with_random_increments(g, rng):
    # same fixed point, arbitrary choice of which positive vertex to bump
    coeffs = {vid: 1 for vid in g.ids}
    while True:
        z = Cycle(g, coeffs)
        positive = [vid for vid, p in zip(g.ids, z.pairings) if p > 0]
        if not positive:
            return coeffs
        coeffs[rng.choice(positive)] += 1


def test_fundamental_cycle_is_independent_of_increment_order():
    rng = random.Random(17)
    for text in (CONE4, CHAIN_JSON, STAR_JSON, D4_JSON, A3):
        g = parse_graph(text)
        want = fundamental_cycle(g).coefficients
        for _ in range(5):
            assert laufer_with_random_increments(g, rng) == want


def laufer_first_in_input_order(g):
    """Reference: after every bump, rescan from vertex 0 for a positive pairing."""
    n = g.n
    a = [1] * n
    pair = [sum(g.neighbors(i).values()) - b for i, b in enumerate(g.b)]
    while True:
        i = next((t for t in range(n) if pair[t] > 0), None)
        if i is None:
            return {g.ids[t]: a[t] for t in range(n)}
        a[i] += 1
        pair[i] -= g.b[i]
        for j, mult in g.neighbors(i).items():
            pair[j] += mult


def chain_json(bs):
    vertices = [("E%d" % i, b) for i, b in enumerate(bs)]
    return graph_json(vertices, [("E%d" % i, "E%d" % (i + 1)) for i in range(len(bs) - 1)])


def d_parts(n):
    """D_n, n >= 4: a chain E0..E(n-2) of (-2)-curves, E(n-1) hung on E(n-3)."""
    vertices = [("E%d" % i, 2) for i in range(n)]
    edges = [("E%d" % i, "E%d" % (i + 1)) for i in range(n - 2)] + [("E%d" % (n - 3), "E%d" % (n - 1))]
    return vertices, edges


def d_graph(n):
    return parse_graph(graph_json(*d_parts(n)))


def test_worklist_agrees_with_the_input_order_scan():
    rng = random.Random(23)
    graphs = [parse_graph(text) for text in (CONE4, CHAIN_JSON, STAR_JSON, D4_JSON, A3)]
    # random trees as above, with (-1)-curves allowed so that Z gets large;
    # the indefinite ones are dropped at parse time
    for _ in range(1000):
        n = rng.randint(1, 10)
        vertices = [("V%d" % i, rng.randint(1, 4)) for i in range(n)]
        edges = [("V%d" % rng.randrange(i), "V%d" % i) for i in range(1, n)]
        try:
            graphs.append(parse_graph(graph_json(vertices, edges)))
        except GraphError:
            pass
    assert len(graphs) > 200
    for n in list(range(4, 40)) + [64, 100, 150, 200, 256, 300]:
        graphs.append(d_graph(n))
    for n in range(1, 301, 13):
        graphs.append(parse_graph(chain_json([2] * n)))
        graphs.append(parse_graph(chain_json([rng.randint(2, 5) for _ in range(n)])))
    bumped = 0
    for g in graphs:
        want = laufer_first_in_input_order(g)
        assert fundamental_cycle(g).coefficients == want
        bumped += any(a > 1 for a in want.values())
    assert bumped > 60  # many comparisons run the loop, not just its start


def test_d_3000_fundamental_cycle_is_linear_time():
    # the loop runs when the graph is built
    vertices, edges = d_parts(3000)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        g = ResolutionGraph(vertices, edges)
        best = min(best, time.perf_counter() - t0)
    assert sum(fundamental_cycle(g).coefficients.values()) == 2 * 3000 - 3
    assert best < 0.05


def test_the_loop_ends_with_a_negative_pairing_on_definite_graphs():
    # D_4 needs one bump of its center; the others are decided at all ones
    for text in (CONE4, CHAIN_JSON, STAR_JSON, D4_JSON, A3):
        z = fundamental_cycle(parse_graph(text))
        assert min(z.pairings) < 0 and z.self_intersection() < 0
    assert fundamental_cycle(parse_graph(D4_JSON)).coefficients["C"] == 2


def test_the_loop_rejects_a_singular_form_where_every_pairing_is_zero():
    # the four-leaf b = 2 star: one bump of the center reaches Z = (2, 1, 1, 1, 1),
    # which the form kills
    rows = sparse_form(5, [2] * 5, [(0, i) for i in range(1, 5)])
    z = [2, 1, 1, 1, 1]
    assert all(sum(x * z[j] for j, x in row.items()) == 0 for row in rows)
    expect_code(graph_json([("C", 2)] + [("L%d" % i, 2) for i in range(4)],
                           [("C", "L%d" % i) for i in range(4)]), "not-negative-definite")


def test_the_loop_rejects_a_form_once_z_z_is_not_negative(monkeypatch):
    # a b = 2 center with five b = 2 leaves: from all ones (Z.Z = -2) the first
    # bump, of the center by 2, costs 5 units and gives Z = (3, 1, 1, 1, 1),
    # Z.Z = 3 * -1 + 5 * 1 = 2 while every leaf still pairs to 1, so the loop
    # is cut short there
    star = graph_json([("C", 2)] + [("L%d" % i, 2) for i in range(5)], [("C", "L%d" % i) for i in range(5)])
    monkeypatch.setattr(resgraph, "LOOP_BUDGET", 5)
    expect_code(star, "not-negative-definite")
    monkeypatch.setattr(resgraph, "LOOP_BUDGET", 4)
    with pytest.raises(BudgetError):
        parse_graph(star)


def test_loop_budget_boundary(monkeypatch):
    # on D_n the worklist holds one vertex at a time: the fork (degree 3), then
    # the chain back to E1 (degree 2 each), so the loop does 3 + 2(n - 4) units
    for n in (4, 5, 40):
        vertices, edges = d_parts(n)
        monkeypatch.setattr(resgraph, "LOOP_BUDGET", 2 * n - 5)
        assert fundamental_cycle(ResolutionGraph(vertices, edges)).coefficients["E%d" % (n - 3)] == 2
        monkeypatch.setattr(resgraph, "LOOP_BUDGET", 2 * n - 6)
        with pytest.raises(BudgetError, match="more than %d units of loop work" % (2 * n - 6)):
            ResolutionGraph(vertices, edges)


def random_connected_form(rng):
    """A random connected graph, n <= 40, b = 2..6, with extra and doubled edges."""
    n = rng.randint(1, 40)
    bs = [rng.randint(2, 6) for _ in range(n)]
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    for _ in range(rng.randint(0, n // 2) if n > 1 else 0):
        edges.append(tuple(rng.sample(range(n), 2)) if rng.random() < 0.7 else rng.choice(edges))
    return bs, edges


def assert_minimal(z):
    """Wherever Z_i > 1, Z - E_i is not antinef: some j has (Z - E_i).E_j > 0."""
    g = z.graph
    a = list(z.coefficients.values())
    for i, b in enumerate(g.b):
        if a[i] > 1:
            assert z.pairings[i] + b > 0 or any(
                z.pairings[j] - mult > 0 for j, mult in g.neighbors(i).items()), (z, i)


def test_the_loop_agrees_with_the_pivot_pass_on_random_graphs():
    rng = random.Random(41)
    definite = []
    for _ in range(3000):
        bs, edges = random_connected_form(rng)
        want = reference_is_negative_definite(sparse_form(len(bs), bs, edges))
        try:
            g = ResolutionGraph([("V%d" % i, b) for i, b in enumerate(bs)],
                                [("V%d" % i, "V%d" % j) for i, j in edges])
        except GraphError as e:
            assert not want and e.code == "not-negative-definite", (bs, edges)
        else:
            assert want, (bs, edges)
            definite.append(g)
    # both verdicts occur often, and many definite graphs need bumps
    assert 1000 <= len(definite) <= 2000
    assert sum(max(fundamental_cycle(g).coefficients.values()) > 1 for g in definite) >= 500
    for g in definite:
        assert_pairings_match_the_form(fundamental_cycle(g))
        assert_minimal(fundamental_cycle(g))


def test_edges_view_equals_the_sorted_input_edges_on_multigraphs_and_components():
    # graph.edges is read off the adjacency; the reference is the input list,
    # each id pair turned into an index pair (i, j), i < j, then sorted
    rng = random.Random(47)
    graphs = components = 0
    for _ in range(1500):
        bs, edges = random_connected_form(rng)
        given = [("V%d" % i, "V%d" % j) if rng.random() < 0.5 else ("V%d" % j, "V%d" % i)
                 for i, j in edges]
        try:
            todo = [(ResolutionGraph([("V%d" % i, b) for i, b in enumerate(bs)], given), given)]
        except GraphError:
            continue
        graphs += 1
        while todo:
            g, given = todo.pop()
            index = {vid: k for k, vid in enumerate(g.ids)}
            assert g.edges == tuple(sorted(tuple(sorted((index[u], index[v]))) for u, v in given))
            for comp in blowup_components(fundamental_cycle(g)):
                inside = set(comp.ids)
                todo.append((comp, [(u, v) for u, v in given if u in inside and v in inside]))
                components += 1
    assert graphs >= 500 and components >= 500


def test_graphs_and_their_components_are_built_without_the_pivot_pass(monkeypatch):
    monkeypatch.setattr(resgraph, "is_negative_definite", None)
    for text in (CONE4, CHAIN_JSON, D4_JSON, A3):
        parse_graph(text)
    assert multiplicity_tree(parse_graph(STAR_JSON)).multiplicities() == [6, 3]


def test_every_multiplicity_tree_node_has_a_minimal_cycle():
    rng = random.Random(43)
    nodes = 0
    for g in [parse_graph(text) for text in (CONE4, CHAIN_JSON, STAR_JSON)] + random_trees(rng, 400):
        z = fundamental_cycle(g)
        if arithmetic_genus(z) == 0 and -z.self_intersection() >= 3:
            for node in multiplicity_tree(g).iter_nodes():
                assert_minimal(node.cycle)
                nodes += 1
    assert nodes > 50


def test_arithmetic_genus_values():
    for text in (CONE4, CHAIN_JSON, STAR_JSON, D4_JSON, A3):
        g = parse_graph(text)
        assert arithmetic_genus(fundamental_cycle(g)) == 0
    bumpy = graph_json(
        [("C", 2), ("L1", 3), ("L2", 3), ("L3", 3), ("L4", 3)],
        [("C", "L1"), ("C", "L2"), ("C", "L3"), ("C", "L4")],
    )
    g = parse_graph(bumpy)
    assert arithmetic_genus(fundamental_cycle(g)) == 1
    assert not is_rational(g)


def test_multiplicity_values():
    assert multiplicity(parse_graph(CONE4)) == 4
    assert multiplicity(parse_graph(CHAIN_JSON)) == 4
    assert multiplicity(parse_graph(STAR_JSON)) == 6
    assert multiplicity(parse_graph(D4_JSON)) == 2
    assert multiplicity(parse_graph(A3)) == 2


def test_multiplicity_two_exactly_on_double_points():
    # -Z.Z >= 2 always; equality picks out the A_n / D_4 shapes here
    rdp = {D4_JSON, A3}
    for text in (CONE4, CHAIN_JSON, STAR_JSON, D4_JSON, A3):
        g = parse_graph(text)
        assert multiplicity(g) >= 2
        assert (multiplicity(g) == 2) == (text in rdp)


def test_multiplicity_requires_rationality():
    bumpy = graph_json(
        [("C", 2), ("L1", 3), ("L2", 3), ("L3", 3), ("L4", 3)],
        [("C", "L1"), ("C", "L2"), ("C", "L3"), ("C", "L4")],
    )
    with pytest.raises(NotRationalError):
        multiplicity(parse_graph(bumpy))
    with pytest.raises(NotRationalError):
        multiplicity_tree(parse_graph(bumpy))


def test_graph_accessors():
    g = parse_graph(CHAIN_JSON)
    assert g.ids.index("E2") == 1
    assert g.b[g.ids.index("E3")] == 3
    assert g.neighbors(1) == {0: 1, 2: 1}


def test_resolution_graph_accepts_direct_construction():
    g = ResolutionGraph([("A", 3), ("B", 2)], [("A", "B")])
    assert g.n == 2
    assert multiplicity(g) == 3


@pytest.mark.parametrize("vertices, edges", [
    ([("A", 3), ("B", 2)], [("A", ["B"])]),      # an unhashable id
    ([("A", 3), ("B", 2)], [("A", "B", "C")]),   # three ids
    ([("A", 3), ("B", 2)], [("A",)]),            # one id
    ([("A", 3, 1)], []),                         # a vertex that is not (id, b)
    ([("A", 3), ("B", 3)], ["AB"]),              # a two-letter str
])
def test_direct_construction_rejects_malformed_items_with_a_graph_error(vertices, edges):
    with pytest.raises(GraphError) as info:
        ResolutionGraph(vertices, edges)
    assert info.value.code == "syntax"


def test_complete_graphs_build_exactly_at_the_definiteness_boundary():
    # K_n with every weight b is -(b+1) I + J: definite exactly when b >= n,
    # singular at b = n - 1
    for n in range(1, 41):
        ids = ["V%d" % i for i in range(n)]
        edges = [(ids[i], ids[j]) for i in range(n) for j in range(i)]
        for b in range(max(n - 2, 2), n + 2):
            if b >= n:
                assert ResolutionGraph([(v, b) for v in ids], edges).n == n
            else:
                with pytest.raises(GraphError) as err:
                    ResolutionGraph([(v, b) for v in ids], edges)
                assert err.value.code == "not-negative-definite", (n, b)


def sparse_form(n, bs, edges):
    rows = [{i: -b} for i, b in enumerate(bs)]
    for i, j in edges:
        rows[i][j] = rows[i].get(j, 0) + 1
        rows[j][i] = rows[j].get(i, 0) + 1
    return rows


def random_trees(rng, count):
    """count parsed random trees, b = 1..4, drawn until that many are definite."""
    graphs = []
    while len(graphs) < count:
        n = rng.randint(1, 12)
        vertices = [("V%d" % i, rng.randint(1, 4)) for i in range(n)]
        edges = [("V%d" % rng.randrange(i), "V%d" % i) for i in range(1, n)]
        try:
            graphs.append(parse_graph(graph_json(vertices, edges)))
        except GraphError:
            pass
    return graphs


def assert_pairings_match_the_form(z):
    g = z.graph
    form = sparse_form(g.n, g.b, g.edges)
    a = [z.coefficients[vid] for vid in g.ids]
    want = [sum(x * a[j] for j, x in row.items()) for row in form]
    assert list(z.pairings) == want
    assert list(z.coefficients) == list(g.ids)
    assert z.self_intersection() == sum(x * y for x, y in zip(a, want))
    assert z.canonical_pairing() == sum(x * (b - 2) for x, b in zip(a, g.b))


def test_cycle_pairings_by_index_equal_the_intersection_form():
    rng = random.Random(31)
    graphs = [parse_graph(text) for text in (CONE4, CHAIN_JSON, STAR_JSON, D4_JSON, A3)] + random_trees(rng, 1000)
    nodes = 0
    for g in graphs:
        z = fundamental_cycle(g)
        assert_pairings_match_the_form(z)
        # a cycle built by hand, its coefficients in another order, pairs the same
        shuffled = dict(rng.sample(sorted(z.coefficients.items()), g.n))
        assert Cycle(g, shuffled).pairings == z.pairings
        if arithmetic_genus(z) == 0 and -z.self_intersection() >= 3:
            for node in multiplicity_tree(g).iter_nodes():
                assert_pairings_match_the_form(node.cycle)
                nodes += 1
    assert nodes > 100


def test_z_z_and_z_k_equal_their_sums_on_generated_graphs_and_every_blow_up_component():
    # Laufer's loop tracks Z.Z and Z.K through its bumps, and Cycle.__init__
    # sums them once; both must equal the sums over the intersection form,
    # for the fundamental cycle and for a cycle built by hand, on every
    # generated graph and on every blow-up component beneath it
    rng = random.Random(53)
    graphs = []
    for _ in range(800):
        bs, edges = random_connected_form(rng)
        try:
            graphs.append(ResolutionGraph([("V%d" % i, b) for i, b in enumerate(bs)],
                                          [("V%d" % i, "V%d" % j) for i, j in edges]))
        except GraphError:
            pass
    graphs += random_trees(rng, 400)
    components = bumped = 0
    todo = list(graphs)
    while todo:
        g = todo.pop()
        z = fundamental_cycle(g)
        bumped += max(z.coefficients.values()) > 1
        assert_pairings_match_the_form(z)
        assert_pairings_match_the_form(Cycle(g, {vid: rng.randint(-3, 5) for vid in g.ids}))
        comps = blowup_components(z)
        todo += comps
        components += len(comps)
    assert len(graphs) >= 800 and components >= 1000 and bumped >= 300, (len(graphs), components, bumped)


def test_resgraph_does_not_import_fractions():
    with open(resgraph.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "json" in imported and "fractions" not in imported
