"""Resolution dual graphs and their exact intersection theory.

A graph is a finite set of vertices (the exceptional curves, all rational),
each with a self-intersection -b, b >= 2, plus edges for intersections
(multiple edges allowed, no self-loops), kept once in adjacency rows
{j: multiplicity}; the edges property is a view of them. Construction checks
connectedness and negative definiteness, so a ResolutionGraph in hand is
always valid.

The JSON interchange format is deliberately rigid:

    {"vertices": [{"id": "E1", "b": 3}, ...], "edges": [["E1", "E2"], ...]}

ids are nonempty unique strings, b positive integers; unknown fields are
rejected. parse_graph raises GraphError with a machine-readable code for
every distinct failure mode.

One loop per graph decides definiteness and finds the fundamental cycle,
the smallest Z > 0 with Z.E_i <= 0 everywhere: Laufer's loop bumps the
vertices that pair positively, from all ones on, and tracks Z.Z and Z.K.
On a connected graph -A is an irreducible symmetric Z-matrix, so the form
is negative definite exactly when the loop ends with Z.Z < 0 (Berman &
Plemmons 1979, ch. 6); Z.Z >= 0 at any step means it is not. The graph
keeps the Cycle with the Z.E_i, Z.Z and Z.K the loop ends with, and the
blow-up components read the pairings by vertex index. The singularity is
rational when arithmetic_genus of Z is 0, and its multiplicity is then -Z.Z.

is_negative_definite is the library's test for any dense symmetric int
matrix: Sylvester's criterion on qlinalg's leading principal minors. No graph
path calls it.
"""

from __future__ import annotations

import json

from .series import BudgetError

GRAPH_ERROR_CODES = (
    "syntax",
    "unknown-field",
    "duplicate-id",
    "non-minimal",
    "bad-edge",
    "self-loop",
    "disconnected",
    "not-negative-definite",
)


# The work budget of a graph file: a file over MAX_GRAPH_BYTES is not read,
# Laufer's loop stops after LOOP_BUDGET units of work, one per neighbour of each
# bumped vertex, and a multiplicity tree stops once its nodes' vertices times
# depth (the root's is 1) sum past TREE_BUDGET, which caps the depth near 180.
MAX_GRAPH_BYTES = 2_000_000
LOOP_BUDGET = 1_000_000
TREE_BUDGET = 1_000_000


class GraphError(ValueError):
    """Invalid graph data; .code is one of GRAPH_ERROR_CODES."""

    def __init__(self, code: str, message: str) -> None:
        assert code in GRAPH_ERROR_CODES
        self.code = code
        super().__init__("%s: %s" % (code, message))


class NotRationalError(ValueError):
    """The singularity is not rational, so multiplicity-tree methods do not apply;
    .cycle is its fundamental cycle and .p_a > 0 that cycle's arithmetic genus."""

    def __init__(self, message: str, cycle: Cycle, p_a: int) -> None:
        super().__init__(message)
        self.cycle = cycle
        self.p_a = p_a


class ResolutionGraph:
    """Validated resolution dual graph. Construction implies validity."""

    __slots__ = ("ids", "b", "_adj", "_cycle")

    def __init__(self, vertices, edges) -> None:
        ids = []
        bs = []
        index = {}
        for vertex in vertices:
            try:
                vid, b = vertex
            except (TypeError, ValueError):
                raise GraphError("syntax", "vertex %r is not an (id, b) pair" % (vertex,)) from None
            if not isinstance(vid, str) or not vid:
                raise GraphError("syntax", "vertex ids must be nonempty strings")
            if not vid.isascii() and any("\ud800" <= c <= "\udfff" for c in vid):  # a lone surrogate
                raise GraphError("syntax", "vertex id %r is not valid Unicode text" % vid)
            if vid in index:
                raise GraphError("duplicate-id", "vertex id %r appears twice" % vid)
            if not isinstance(b, int) or isinstance(b, bool) or b < 1:
                raise GraphError("syntax", "vertex %r needs a positive integer b" % vid)
            if b < 2:
                raise GraphError("non-minimal", "vertex %r has b = 1; need b >= 2" % vid)
            index[vid] = len(ids)
            ids.append(vid)
            bs.append(b)
        if not ids:
            raise GraphError("syntax", "a graph needs at least one vertex")
        n = len(ids)
        adj = [dict() for _ in range(n)]
        for e in edges:
            try:
                u, v = () if isinstance(e, str) else e  # a str is no pair, even of two letters
                i, j = index.get(u), index.get(v)
            except (TypeError, ValueError):  # not two items, or an unhashable id
                raise GraphError("syntax", "edge %r is not a pair of vertex ids" % (e,)) from None
            if i is None or j is None:
                raise GraphError("bad-edge", "edge %r references an unknown vertex id" % (list(e),))
            if i == j:
                raise GraphError("self-loop", "vertex %r cannot meet itself" % u)
            adj[i][j] = adj[i].get(j, 0) + 1
            adj[j][i] = adj[j].get(i, 0) + 1
        self.ids = tuple(ids)
        self.b = tuple(bs)
        self._adj = tuple(adj)
        self._check_connected()
        self._cycle = _laufer(self)

    def _restrict(self, keep: list) -> "ResolutionGraph":
        """Induced subgraph on sorted connected indices keep, equal to what
        __init__ builds; definite like self, so its loop can only run out of budget."""
        sub = object.__new__(ResolutionGraph)
        pos = {i: k for k, i in enumerate(keep)}
        sub.ids = tuple(self.ids[i] for i in keep)
        sub.b = tuple(self.b[i] for i in keep)
        sub._adj = tuple({pos[j]: mult for j, mult in self._adj[i].items() if j in pos}
                         for i in keep)
        sub._cycle = _laufer(sub)
        return sub

    def _check_connected(self) -> None:
        seen = {0}
        order = [0]
        for i in order:
            for j in self._adj[i]:
                if j not in seen:
                    seen.add(j)
                    order.append(j)
        if len(seen) != len(self.ids):
            raise GraphError("disconnected", "the graph must be connected")

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def edges(self) -> tuple:
        """Sorted index pairs (i, j), i < j, each repeated by its multiplicity."""
        return tuple((i, j) for i, row in enumerate(self._adj)
                     for j in sorted(row) if j > i for _ in range(row[j]))

    def neighbors(self, i: int):
        """Adjacency of vertex index i as {j: edge multiplicity}."""
        return self._adj[i]

    def __repr__(self) -> str:
        return "ResolutionGraph(%d vertices, %d edges)" % (self.n, len(self.edges))


def parse_graph(text: str) -> ResolutionGraph:
    """Parse the JSON interchange format. Raises GraphError on any defect,
    and BudgetError when Laufer's loop runs past LOOP_BUDGET."""
    try:
        data = json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an int literal past Python's digit limit
        raise GraphError("syntax", "not valid JSON: %s" % e) from None
    except RecursionError:
        raise GraphError("syntax", "JSON nested too deeply to parse") from None
    if not isinstance(data, dict):
        raise GraphError("syntax", "top level must be an object")
    extra = set(data) - {"vertices", "edges"}
    if extra:
        raise GraphError("unknown-field", "unknown top-level field(s): %s" % sorted(extra))
    if "vertices" not in data or "edges" not in data:
        raise GraphError("syntax", "both 'vertices' and 'edges' are required")
    if not isinstance(data["vertices"], list) or not isinstance(data["edges"], list):
        raise GraphError("syntax", "'vertices' and 'edges' must be arrays")
    vertices = []
    for item in data["vertices"]:
        if not isinstance(item, dict):
            raise GraphError("syntax", "each vertex must be an object")
        extra = set(item) - {"id", "b"}
        if extra:
            raise GraphError("unknown-field", "unknown vertex field(s): %s" % sorted(extra))
        if "id" not in item or "b" not in item:
            raise GraphError("syntax", "each vertex needs 'id' and 'b'")
        vertices.append((item["id"], item["b"]))
    edges = []
    for item in data["edges"]:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not (isinstance(item[0], str) and isinstance(item[1], str))
        ):
            raise GraphError("syntax", "each edge must be a pair of vertex ids")
        edges.append((item[0], item[1]))
    return ResolutionGraph(vertices, edges)


def is_negative_definite(rows) -> bool:
    """Sylvester's criterion: is (-1)^k times every leading principal k x k
    minor positive? rows are the dense rows of a square symmetric matrix of
    Python ints; anything else raises ValueError. Each minor is a Fraction
    elimination, so an n x n matrix costs O(n^4) with no budget.
    """
    n = len(rows)
    if any(isinstance(r, dict) or len(r) != n for r in rows) or any(
        type(x) is not int or rows[j][i] != x for i, r in enumerate(rows) for j, x in enumerate(r)
    ):
        raise ValueError("negative definiteness needs a symmetric square matrix of ints")
    from .qlinalg import QMatrix  # graph paths never load qlinalg or fractions

    m = QMatrix(rows)
    return all((-1) ** k * m.leading_principal_minor(k) > 0 for k in range(1, n + 1))


class Cycle:
    """Integer combination of the exceptional curves of one graph.

    coefficients maps each vertex id to its coefficient, in the graph's
    vertex order, and pairings[i] is Z.E_i for the vertex of index i. Both
    are fixed when the cycle is built, and so are Z.Z and Z.K; every pairing
    read afterwards comes from them.
    """

    __slots__ = ("graph", "coefficients", "pairings", "_zz", "_zk")

    def __init__(self, graph: ResolutionGraph, coefficients: dict) -> None:
        if set(coefficients) != set(graph.ids):
            raise ValueError("cycle must assign a coefficient to every vertex")
        for vid, a in coefficients.items():
            if not isinstance(a, int) or isinstance(a, bool):
                raise ValueError("coefficient of %r must be an integer" % vid)
        a = [coefficients[vid] for vid in graph.ids]
        self.graph, self.coefficients = graph, dict(zip(graph.ids, a))
        self.pairings = [sum(mult * a[j] for j, mult in graph.neighbors(i).items()) - b * a[i]
                         for i, b in enumerate(graph.b)]
        self._zz = sum(x * p for x, p in zip(a, self.pairings))
        self._zk = sum(x * (b - 2) for x, b in zip(a, graph.b))

    def self_intersection(self) -> int:
        return self._zz

    def canonical_pairing(self) -> int:
        """Z.K via adjunction on rational curves: sum a_i (b_i - 2)."""
        return self._zk

    def __repr__(self) -> str:
        body = " ".join("%s:%d" % (vid, self.coefficients[vid]) for vid in self.graph.ids)
        return "Cycle(%s)" % body


def is_reduced(z: Cycle) -> bool:
    return all(a == 1 for a in z.coefficients.values())


def fundamental_cycle(g: ResolutionGraph) -> Cycle:
    """Smallest Z > 0 with Z.E_i <= 0 for all i, found once when g was built."""
    return g._cycle


def _laufer(g: ResolutionGraph) -> Cycle:
    """Fundamental cycle of connected g by greedy increments, or GraphError
    if the form is not negative definite. Start from all ones; while some
    vertex pairs positively, bump it until it no longer does. Such vertices
    wait on a worklist, which a vertex joins when a neighbour's bump lifts
    its pairing above 0, so each step costs the degree of the bumped vertex;
    past LOOP_BUDGET of that work the loop raises BudgetError. On a definite
    form Z.Z < 0 throughout and the loop ends at the same Z in any order; an
    end with Z.Z < 0 has some Z.E_i < 0, which certifies definiteness.
    """
    bs, adj = g.b, g._adj
    a = [1] * g.n
    pair = [sum(adj[i].values()) - b for i, b in enumerate(bs)]
    zz, zk = sum(pair), sum(bs) - 2 * g.n
    todo = [i for i, p in enumerate(pair) if p > 0]
    budget = LOOP_BUDGET
    while zz < 0:
        if not todo:
            z = object.__new__(Cycle)
            z.graph, z.coefficients, z.pairings, z._zz, z._zk = g, dict(zip(g.ids, a)), pair, zz, zk
            return z
        i = todo.pop()
        b, p, row = bs[i], pair[i], adj[i]
        budget -= len(row)
        if budget < 0:
            raise BudgetError("fundamental cycle: more than %d units of loop work" % LOOP_BUDGET)
        steps = -(-p // b)  # the fewest bumps that bring Z.E_i to <= 0
        a[i] += steps
        pair[i] = q = p - steps * b
        zz += steps * (p + q)  # (Z + sE_i)^2 = Z^2 + s(2 Z.E_i - s b_i)
        zk += steps * (b - 2)
        for j, mult in row.items():
            x = pair[j]
            pair[j] = y = x + steps * mult
            if x <= 0 < y:
                todo.append(j)
    raise GraphError("not-negative-definite", "the intersection matrix is not negative definite")


def arithmetic_genus(z: Cycle) -> int:
    """p_a(Z) = 1 + (Z.Z + Z.K)/2; the division is always exact."""
    num = z.self_intersection() + z.canonical_pairing()
    if num % 2:
        raise ArithmeticError("adjunction parity violated; graph data is corrupt")
    return 1 + num // 2
