"""Multiplicity trees: the singular points infinitely near a rational one.

Blowing up the singular point leaves new singular points exactly where the
fundamental cycle pairs to zero; their resolution graphs are the connected
components of the vertices with Z.E_i = 0, with edges and weights inherited.
Recursing gives a tree of singularities. Components whose own multiplicity
is 1 or 2 are rational double points; they contribute nothing to the
dimension formulas downstream, so they are pruned from the tree, but their
count is kept for reporting.
"""

from __future__ import annotations

from collections import namedtuple

from . import resgraph
from .resgraph import (
    Cycle,
    NotRationalError,
    ResolutionGraph,
    arithmetic_genus,
    fundamental_cycle,
    is_reduced,
)
from .series import BudgetError


class NotApplicableError(ValueError):
    """The root singularity is a rational double point (multiplicity < 3);
    .cycle is its fundamental cycle and .mult that multiplicity."""

    def __init__(self, message: str, cycle: Cycle, mult: int) -> None:
        super().__init__(message)
        self.cycle = cycle
        self.mult = mult


class MultiplicityTree(
    namedtuple("MultiplicityTree", "cycle mult reduced children dropped_rdp_count")
):
    """One singular point of the blow-up tower and everything beneath it;
    its graph is cycle.graph."""

    __slots__ = ()

    def iter_nodes(self):
        """Preorder traversal of the tree."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def multiplicities(self) -> list:
        return [node.mult for node in self.iter_nodes()]

    def __repr__(self) -> str:
        return "MultiplicityTree(mult=%d, children=%d, dropped=%d)" % (
            self.mult,
            len(self.children),
            self.dropped_rdp_count,
        )


def blowup_components(z: Cycle) -> list:
    """Connected components of {E_i : Z.E_i = 0} as graphs of their own.

    Components come back ordered by their smallest contained vertex id;
    vertex ids and weights are inherited from z.graph, as are internal edges
    with multiplicity.
    """
    g = z.graph
    left = {i for i, p in enumerate(z.pairings) if p == 0}
    components = []
    while left:
        comp = [left.pop()]
        for i in comp:
            for j in g.neighbors(i):
                if j in left:
                    left.remove(j)
                    comp.append(j)
        components.append(g._restrict(sorted(comp)))
    components.sort(key=lambda c: min(c.ids))
    return components


def _build(z: Cycle, mult: int, depth: int, weight: list) -> MultiplicityTree:
    """z's node at depth (the root's is 1) and its subtree; weight[0] is the tree budget spent."""
    weight[0] += z.graph.n * depth
    if weight[0] > resgraph.TREE_BUDGET:
        raise BudgetError("multiplicity tree: more than %d units of vertices times depth"
                          % resgraph.TREE_BUDGET)
    children = []
    dropped = 0
    for comp in blowup_components(z):
        cz = fundamental_cycle(comp)
        if arithmetic_genus(cz) != 0:
            # cannot happen for rational input; guard against corrupt state
            raise RuntimeError("internal: blow-up component is not rational")
        cmult = -cz.self_intersection()
        if cmult <= 2:
            dropped += 1
        else:
            children.append(_build(cz, cmult, depth + 1, weight))
    return MultiplicityTree(
        cycle=z,
        mult=mult,
        reduced=is_reduced(z),
        children=children,
        dropped_rdp_count=dropped,
    )


def multiplicity_tree(g: ResolutionGraph) -> MultiplicityTree:
    """Tree of infinitely near singular points with multiplicity >= 3.

    Raises NotRationalError for non-rational input, NotApplicableError
    when the root itself is a rational double point (each carries the root's
    cycle), and BudgetError for a tree past resgraph.TREE_BUDGET.
    """
    z = fundamental_cycle(g)
    p_a = arithmetic_genus(z)
    if p_a != 0:
        raise NotRationalError("the singularity is not rational", z, p_a)
    mult = -z.self_intersection()
    if mult <= 2:
        raise NotApplicableError(
            "the singularity is a rational double point; the tree starts at multiplicity 3", z, mult
        )
    return _build(z, mult, 1, [0])
