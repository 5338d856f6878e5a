"""Resolution dual graphs and their exact intersection theory.

A graph is a finite set of vertices (the exceptional curves, all rational),
each with a self-intersection -b, b >= 2, plus edges for intersections
(multiple edges allowed, no self-loops). Construction checks connectedness
and negative definiteness, so a ResolutionGraph in hand is always valid.

The JSON interchange format is deliberately rigid:

    {"vertices": [{"id": "E1", "b": 3}, ...], "edges": [["E1", "E2"], ...]}

ids are nonempty unique strings, b positive integers; unknown fields are
rejected. parse_graph raises GraphError with a machine-readable code for
every distinct failure mode.

The intersection form is sparse rows {j: E_i.E_j}. is_negative_definite
eliminates it in one symmetric pass, always a vertex of least degree, and
stops at the first pivot >= 0. On a tree that vertex is a leaf, so there is
no fill and the pass is O(n); other graphs take the same pass with fill.

Cycles are integer combinations of the vertices. fundamental_cycle computes
the smallest cycle Z > 0 with Z.E_i <= 0 everywhere by the standard greedy
increment loop (start at all ones, repeatedly bump a vertex with positive
pairing, taken from a worklist); the singularity is rational when
arithmetic_genus of Z is 0, and its multiplicity is then -Z.Z.
"""

from __future__ import annotations

import json
from fractions import Fraction
from heapq import heapify, heappop, heappush

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


class GraphError(ValueError):
    """Invalid graph data; .code is one of GRAPH_ERROR_CODES."""

    def __init__(self, code: str, message: str) -> None:
        assert code in GRAPH_ERROR_CODES
        self.code = code
        super().__init__("%s: %s" % (code, message))


class NotRationalError(ValueError):
    """The singularity is not rational, so multiplicity-tree methods do not apply."""


class ResolutionGraph:
    """Validated resolution dual graph. Construction implies validity."""

    __slots__ = ("ids", "b", "edges", "_index", "_adj")

    def __init__(self, vertices, edges) -> None:
        ids = []
        bs = []
        index = {}
        for vid, b in vertices:
            if not isinstance(vid, str) or not vid:
                raise GraphError("syntax", "vertex ids must be nonempty strings")
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
        norm_edges = []
        for e in edges:
            u, v = e
            if u not in index or v not in index:
                raise GraphError("bad-edge", "edge %r references an unknown vertex id" % (list(e),))
            iu, iv = index[u], index[v]
            if iu == iv:
                raise GraphError("self-loop", "vertex %r cannot meet itself" % u)
            lo, hi = min(iu, iv), max(iu, iv)
            norm_edges.append((lo, hi))
            adj[lo][hi] = adj[lo].get(hi, 0) + 1
            adj[hi][lo] = adj[hi].get(lo, 0) + 1
        self.ids = tuple(ids)
        self.b = tuple(bs)
        self.edges = tuple(sorted(norm_edges))
        self._index = index
        self._adj = tuple(adj)
        self._check_connected()
        if not is_negative_definite(intersection_matrix(self)):
            raise GraphError(
                "not-negative-definite", "the intersection matrix is not negative definite"
            )

    def _restrict(self, keep: list) -> "ResolutionGraph":
        """Induced subgraph on sorted connected indices keep, equal to what
        __init__ builds but unchecked: it inherits definiteness from self."""
        sub = object.__new__(ResolutionGraph)
        pos = {i: k for k, i in enumerate(keep)}
        sub.ids = tuple(self.ids[i] for i in keep)
        sub.b = tuple(self.b[i] for i in keep)
        sub.edges = tuple((k, pos[j]) for k, i in enumerate(keep)
                          for j, mult in sorted(self._adj[i].items()) if j > i and j in pos
                          for _ in range(mult))
        sub._index = {vid: k for k, vid in enumerate(sub.ids)}
        sub._adj = tuple({pos[j]: mult for j, mult in self._adj[i].items() if j in pos}
                         for i in keep)
        return sub

    def _check_connected(self) -> None:
        seen = {0}
        order = [0]
        for i in order:
            for j in self._adj[i].keys() - seen:
                seen.add(j)
                order.append(j)
        if len(seen) != len(self.ids):
            raise GraphError("disconnected", "the graph must be connected")

    @property
    def n(self) -> int:
        return len(self.ids)

    def index_of(self, vid: str) -> int:
        return self._index[vid]

    def b_of(self, vid: str) -> int:
        return self.b[self._index[vid]]

    def neighbors(self, i: int):
        """Adjacency of vertex index i as {j: edge multiplicity}."""
        return self._adj[i]

    def __repr__(self) -> str:
        return "ResolutionGraph(%d vertices, %d edges)" % (self.n, len(self.edges))


def parse_graph(text: str) -> ResolutionGraph:
    """Parse the JSON interchange format. Raises GraphError on any defect."""
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
            or not all(isinstance(x, str) for x in item)
        ):
            raise GraphError("syntax", "each edge must be a pair of vertex ids")
        edges.append((item[0], item[1]))
    return ResolutionGraph(vertices, edges)


def intersection_matrix(g: ResolutionGraph) -> list:
    """E_i.E_j in the vertex order as sparse rows: -b_i, then the edge counts."""
    return [{i: -b, **g.neighbors(i)} for i, b in enumerate(g.b)]


def is_negative_definite(rows) -> bool:
    """Are all pivots of P A P^T = L D L^T negative? rows are sparse dicts or
    dense sequences; each step eliminates a vertex of least current degree
    (ties by index), and the pivot signs do not depend on that order."""
    n = len(rows)
    adj = [{j: x for j, x in (r.items() if isinstance(r, dict) else enumerate(r)) if x}
           for r in rows]
    if any(not isinstance(r, dict) and len(r) != n for r in rows) or any(
        not 0 <= j < n or adj[j].get(i, 0) != x for i, r in enumerate(adj) for j, x in r.items()
    ):
        raise ValueError("negative definiteness needs a symmetric square matrix")
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


class Cycle:
    """Integer combination of the exceptional curves of one graph."""

    __slots__ = ("graph", "coefficients")

    def __init__(self, graph: ResolutionGraph, coefficients: dict) -> None:
        if set(coefficients) != set(graph.ids):
            raise ValueError("cycle must assign a coefficient to every vertex")
        for vid, a in coefficients.items():
            if not isinstance(a, int) or isinstance(a, bool):
                raise ValueError("coefficient of %r must be an integer" % vid)
        self.graph = graph
        self.coefficients = dict(coefficients)

    def coefficient(self, vid: str) -> int:
        return self.coefficients[vid]

    def dot_vertex(self, vid: str) -> int:
        """Pairing Z.E_vid under the intersection form."""
        g = self.graph
        i = g.index_of(vid)
        total = -g.b[i] * self.coefficients[vid]
        for j, mult in g.neighbors(i).items():
            total += mult * self.coefficients[g.ids[j]]
        return total

    def self_intersection(self) -> int:
        return sum(self.coefficients[vid] * self.dot_vertex(vid) for vid in self.graph.ids)

    def canonical_pairing(self) -> int:
        """Z.K via adjunction on rational curves: sum a_i (b_i - 2)."""
        g = self.graph
        return sum(self.coefficients[vid] * (g.b_of(vid) - 2) for vid in g.ids)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cycle)
            and self.graph is other.graph
            and self.coefficients == other.coefficients
        )

    def __repr__(self) -> str:
        body = " ".join("%s:%d" % (vid, self.coefficients[vid]) for vid in self.graph.ids)
        return "Cycle(%s)" % body


def is_reduced(z: Cycle) -> bool:
    return all(a == 1 for a in z.coefficients.values())


def fundamental_cycle(g: ResolutionGraph) -> Cycle:
    """Smallest Z > 0 with Z.E_i <= 0 for all i, by greedy increments.

    Start from all ones; while some vertex pairs positively, bump it until
    it no longer does. The vertices that pair positively wait on a worklist,
    which a vertex joins when a neighbour's bump lifts its pairing above 0,
    so each step costs the degree of the bumped vertex. Negative
    definiteness guarantees termination, and the result does not depend on
    the increment order.
    """
    a = [1] * g.n
    pair = [sum(g.neighbors(i).values()) - b for i, b in enumerate(g.b)]
    todo = [i for i, p in enumerate(pair) if p > 0]
    while todo:
        i = todo.pop()
        steps = -(-pair[i] // g.b[i])  # the fewest bumps that bring Z.E_i to <= 0
        a[i] += steps
        pair[i] -= steps * g.b[i]
        for j, mult in g.neighbors(i).items():
            if pair[j] <= 0 < pair[j] + steps * mult:
                todo.append(j)
            pair[j] += steps * mult
    return Cycle(g, {vid: a[i] for i, vid in enumerate(g.ids)})


def arithmetic_genus(g: ResolutionGraph, z: Cycle) -> int:
    """p_a(Z) = 1 + (Z.Z + Z.K)/2; the division is always exact."""
    if z.graph is not g:
        raise ValueError("cycle belongs to a different graph")
    num = z.self_intersection() + z.canonical_pairing()
    if num % 2:
        raise ArithmeticError("adjunction parity violated; graph data is corrupt")
    return 1 + num // 2
