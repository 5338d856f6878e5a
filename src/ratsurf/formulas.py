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

from .blowup import NotApplicableError, multiplicity_tree
from .resgraph import NotRationalError, ResolutionGraph, arithmetic_genus, fundamental_cycle, is_reduced
from .series import check_digits, cone_tdim


# a dimension that is exact, or else a lower bound
BoundedValue = namedtuple("BoundedValue", "value exact")
ObstructionReport = namedtuple("ObstructionReport", "sum_d_minus_1 sum_b_minus_1 obstructed")


class AnalysisReport(
    namedtuple(
        "AnalysisReport",
        "status cycle p_a mult reduced tree tdims t2 codim_ac gmd",
        defaults=(None,) * 7,
    )
):
    """Everything analyze() can say about one resolution graph.

    status "ok" means all fields are filled; "not-rational" stops after
    cycle and p_a, "not-applicable" after mult and reduced, and the rest is
    None. tree is the MultiplicityTree, tdims maps i to dim T^i, t2 and
    codim_ac are BoundedValues (exact when reduced) and gmd is the
    ObstructionReport.
    """

    __slots__ = ()


def analyze(g: ResolutionGraph, imax: int = 6) -> AnalysisReport:
    """Full dimension report for one graph; multiplicity_tree classifies
    the root, and a refused root is reported from its fundamental cycle.

    On a valid graph it raises only BudgetError, for a tree past
    resgraph.TREE_BUDGET or when the T^i values up to imax would exceed
    series.MAX_DIGITS digits (series.check_digits, with the largest
    multiplicity in the tree and one term per tree node).
    """
    if imax < 3:
        raise ValueError("need imax >= 3")
    try:
        tree = multiplicity_tree(g)
    except NotRationalError:
        z = fundamental_cycle(g)
        return AnalysisReport(status="not-rational", cycle=z, p_a=arithmetic_genus(z))
    except NotApplicableError:
        z = fundamental_cycle(g)
        return AnalysisReport(status="not-applicable", cycle=z, p_a=0,
                              mult=-z.self_intersection(), reduced=is_reduced(z))
    mults = tree.multiplicities()
    check_digits(max(mults), imax, len(mults))
    sum_d, sum_b = sum(d - 1 for d in mults), sum(b - 1 for b in g.b)
    return AnalysisReport(
        status="ok",
        cycle=tree.cycle,
        p_a=0,
        mult=tree.mult,
        reduced=tree.reduced,
        tree=tree,
        tdims={i: sum(cone_tdim(i, d) for d in mults) for i in range(3, imax + 1)},
        t2=BoundedValue(sum((d - 1) * (d - 3) for d in mults), tree.reduced),
        codim_ac=BoundedValue(sum(d - 3 for d in mults), tree.reduced),
        gmd=ObstructionReport(sum_d, sum_b, sum_d >= sum_b),
    )
