"""Resolution dual graphs and their exact intersection theory.

A graph is a finite set of vertices (the exceptional curves, all rational),
each with a self-intersection -b, b >= 2, plus edges for intersections
(multiple edges allowed, no self-loops). The intersection matrix must be
negative definite; that is checked at construction, so a ResolutionGraph in
hand is always valid.

The JSON interchange format is deliberately rigid:

    {"vertices": [{"id": "E1", "b": 3}, ...], "edges": [["E1", "E2"], ...]}

ids are nonempty unique strings, b positive integers; unknown fields are
rejected. parse_graph raises GraphError with a machine-readable code for
every distinct failure mode.

Cycles are integer combinations of the vertices. fundamental_cycle computes
the smallest cycle Z > 0 with Z.E_i <= 0 everywhere by the standard greedy
increment loop (start at all ones, repeatedly bump the first vertex with
positive pairing); arithmetic_genus and multiplicity then decide whether the
singularity is rational and how bad it is.
"""

from __future__ import annotations

import json

from .qlinalg import QMatrix

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

    def _check_connected(self) -> None:
        n = len(self.ids)
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in self._adj[i]:
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
        if len(seen) != n:
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

    def edge_ids(self):
        return tuple((self.ids[i], self.ids[j]) for i, j in self.edges)

    def __repr__(self) -> str:
        return "ResolutionGraph(%d vertices, %d edges)" % (self.n, len(self.edges))


def parse_graph(text: str) -> ResolutionGraph:
    """Parse the JSON interchange format. Raises GraphError on any defect."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
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


def intersection_matrix(g: ResolutionGraph) -> QMatrix:
    """E_i.E_j in the vertex order: -b_i on the diagonal, edge counts off it."""
    n = g.n
    flat = [0] * (n * n)
    for i in range(n):
        flat[i * n + i] = -g.b[i]
        for j, mult in g.neighbors(i).items():
            flat[i * n + j] = mult
    return QMatrix(n, n, flat)


def is_negative_definite(m: QMatrix) -> bool:
    """Sylvester test: (-1)^k * (k-th leading principal minor) > 0 for all k."""
    if m.rows != m.cols or not m.is_symmetric():
        raise ValueError("negative definiteness needs a symmetric square matrix")
    for k in range(1, m.rows + 1):
        minor = m.leading_principal_minor(k)
        if (-1) ** k * minor <= 0:
            return False
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

    Start from all ones; while some vertex pairs positively, bump the first
    such vertex in input order. Negative definiteness guarantees termination,
    and the result does not depend on the increment order.
    """
    n = g.n
    a = [1] * n
    pair = [0] * n
    for i in range(n):
        pair[i] = -g.b[i]
        for j, mult in g.neighbors(i).items():
            pair[i] += mult
    while True:
        i = next((t for t in range(n) if pair[t] > 0), None)
        if i is None:
            break
        a[i] += 1
        pair[i] -= g.b[i]
        for j, mult in g.neighbors(i).items():
            pair[j] += mult
    return Cycle(g, {g.ids[i]: a[i] for i in range(n)})


def arithmetic_genus(g: ResolutionGraph, z: Cycle) -> int:
    """p_a(Z) = 1 + (Z.Z + Z.K)/2; the division is always exact."""
    if z.graph is not g:
        raise ValueError("cycle belongs to a different graph")
    num = z.self_intersection() + z.canonical_pairing()
    if num % 2:
        raise ArithmeticError("adjunction parity violated; graph data is corrupt")
    return 1 + num // 2


def is_rational(g: ResolutionGraph) -> bool:
    """Rationality test: p_a of the fundamental cycle is zero."""
    return arithmetic_genus(g, fundamental_cycle(g)) == 0


def multiplicity(g: ResolutionGraph) -> int:
    """Multiplicity of the rational singularity: -Z.Z for the fundamental cycle."""
    z = fundamental_cycle(g)
    if arithmetic_genus(g, z) != 0:
        raise NotRationalError("multiplicity formula needs a rational singularity")
    return -z.self_intersection()
