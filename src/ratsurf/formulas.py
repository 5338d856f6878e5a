"""Cotangent dimension formulas for rational surface singularities.

Every node P of the multiplicity tree contributes through its multiplicity
d(P) alone:

    dim T^i = sum over P of cone_tdim(i, d(P))          for i >= 3 (always exact)
    dim T^2 = sum over P of (d(P)-1)(d(P)-3) + c        c >= 0
    cod_AC  = sum over P of (d(P)-3) + c                same correction c

The correction c vanishes when every fundamental cycle in the tower is
reduced; the rational double points pruned from the tree do not count. Then
the T^2 and cod_AC values are exact, otherwise they are lower bounds and are
flagged as such. The root's cycle decides: if it is reduced, b_i >= valence_i
everywhere, so on a component C of {Z.E_i = 0} the all-ones cycle pairs to
valence_C(i) - b_i <= 0 and is C's fundamental cycle; by induction, all are.

The obstruction check compares sum (d(P)-1) against sum (b_i-1) over the
vertices of the resolution graph; the singularity with obstructed good
maximal deformation is detected by sum (d(P)-1) >= sum (b_i-1).
"""

from __future__ import annotations

from collections import namedtuple

from .blowup import MultiplicityTree, multiplicity_tree
from .resgraph import ResolutionGraph, arithmetic_genus, fundamental_cycle, is_reduced
from .series import check_digits, cone_tdim


# a dimension that is exact, or else a lower bound
BoundedValue = namedtuple("BoundedValue", "value exact")
ObstructionReport = namedtuple("ObstructionReport", "sum_d_minus_1 sum_b_minus_1 obstructed")


def tdim(tree: MultiplicityTree, i: int) -> int:
    """dim T^i for i >= 3, summed over the multiplicity tree."""
    if i < 3:
        raise ValueError("tdim handles i >= 3; analyze reports T^2 as t2")
    return sum(cone_tdim(i, node.mult) for node in tree.iter_nodes())


class AnalysisReport(
    namedtuple(
        "AnalysisReport",
        "status rational cycle p_a mult reduced reduced_everywhere tree tdims t2 codim_ac gmd",
        defaults=(None,) * 8,
    )
):
    """Everything analyze() can say about one resolution graph.

    status "ok" means all fields are filled; "not-rational" and
    "not-applicable" reports stop at the fields that still make sense
    (cycle, p_a and multiplicity are always computed, the rest is None).
    tree is the MultiplicityTree, tdims maps i to dim T^i, t2 and codim_ac
    are BoundedValues and gmd is the ObstructionReport.
    """

    __slots__ = ()


def analyze(g: ResolutionGraph, imax: int = 6) -> AnalysisReport:
    """Full dimension report for one graph.

    On a valid graph it raises only BudgetError, when the T^i values up to
    imax would exceed series.MAX_DIGITS digits (series.check_digits, with
    the largest multiplicity in the tree and one term per tree node).
    """
    if imax < 3:
        raise ValueError("need imax >= 3")
    z = fundamental_cycle(g)
    p_a = arithmetic_genus(g, z)
    if p_a != 0:
        return AnalysisReport(status="not-rational", rational=False, cycle=z, p_a=p_a)
    mult = -z.self_intersection()
    if mult <= 2:
        return AnalysisReport(
            status="not-applicable",
            rational=True,
            cycle=z,
            p_a=p_a,
            mult=mult,
            reduced=is_reduced(z),
        )
    tree = multiplicity_tree(g)
    mults = tree.multiplicities()
    check_digits(max(mults), imax, len(mults))
    sum_d, sum_b = sum(d - 1 for d in mults), sum(b - 1 for b in g.b)
    return AnalysisReport(
        status="ok",
        rational=True,
        cycle=z,
        p_a=p_a,
        mult=mult,
        reduced=tree.reduced,
        reduced_everywhere=tree.reduced,
        tree=tree,
        tdims={i: tdim(tree, i) for i in range(3, imax + 1)},
        t2=BoundedValue(sum((d - 1) * (d - 3) for d in mults), tree.reduced),
        codim_ac=BoundedValue(sum(d - 3 for d in mults), tree.reduced),
        gmd=ObstructionReport(sum_d, sum_b, sum_d >= sum_b),
    )
