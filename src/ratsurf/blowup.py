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

from .resgraph import (
    Cycle,
    NotRationalError,
    ResolutionGraph,
    arithmetic_genus,
    fundamental_cycle,
    is_reduced,
)


class NotApplicableError(ValueError):
    """The root singularity is a rational double point (multiplicity < 3)."""


class MultiplicityTree(
    namedtuple("MultiplicityTree", "graph cycle mult reduced children dropped_rdp_count")
):
    """One singular point of the blow-up tower and everything beneath it."""

    __slots__ = ()

    def __new__(cls, graph, cycle, mult, reduced, children=None, dropped_rdp_count=0):
        # a fresh list per node when none is given, never one shared default
        children = [] if children is None else children
        return super().__new__(cls, graph, cycle, mult, reduced, children, dropped_rdp_count)

    def iter_nodes(self):
        """Preorder traversal of the tree."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def multiplicities(self) -> list:
        return [node.mult for node in self.iter_nodes()]

    def reduced_everywhere(self) -> bool:
        """Every node's fundamental cycle is reduced (pruned RDPs do not count)."""
        return all(node.reduced for node in self.iter_nodes())

    def __repr__(self) -> str:
        return "MultiplicityTree(mult=%d, children=%d, dropped=%d)" % (
            self.mult,
            len(self.children),
            self.dropped_rdp_count,
        )


def blowup_components(g: ResolutionGraph, z: Cycle) -> list:
    """Connected components of {E_i : Z.E_i = 0} as graphs of their own.

    Components come back ordered by their smallest contained vertex id;
    vertex ids and weights are inherited from g, as are internal edges with
    multiplicity.
    """
    if z.graph is not g:
        raise ValueError("cycle belongs to a different graph")
    left = {i for i in range(g.n) if z.dot_vertex(g.ids[i]) == 0}
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


def _build(g: ResolutionGraph, z: Cycle, mult: int) -> MultiplicityTree:
    children = []
    dropped = 0
    for comp in blowup_components(g, z):
        cz = fundamental_cycle(comp)
        if arithmetic_genus(comp, cz) != 0:
            # cannot happen for rational input; guard against corrupt state
            raise RuntimeError("internal: blow-up component is not rational")
        cmult = -cz.self_intersection()
        if cmult <= 2:
            dropped += 1
        else:
            children.append(_build(comp, cz, cmult))
    return MultiplicityTree(
        graph=g,
        cycle=z,
        mult=mult,
        reduced=is_reduced(z),
        children=children,
        dropped_rdp_count=dropped,
    )


def multiplicity_tree(g: ResolutionGraph) -> MultiplicityTree:
    """Tree of infinitely near singular points with multiplicity >= 3.

    Raises NotRationalError for non-rational input and NotApplicableError
    when the root itself is a rational double point.
    """
    z = fundamental_cycle(g)
    if arithmetic_genus(g, z) != 0:
        raise NotRationalError("the singularity is not rational")
    mult = -z.self_intersection()
    if mult <= 2:
        raise NotApplicableError(
            "the singularity is a rational double point; the tree starts at multiplicity 3"
        )
    return _build(g, z, mult)
