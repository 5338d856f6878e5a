"""Cotangent dimension formulas for rational surface singularities.

Every node P of the multiplicity tree contributes through its multiplicity
d(P) alone:

    dim T^i = sum over P of cone_tdim(i, d(P))          for i >= 3 (always exact)
    dim T^2 = sum over P of (d(P)-1)(d(P)-3) + c        c >= 0
    cod_AC  = sum over P of (d(P)-3) + c                same correction c

The correction c vanishes when every fundamental cycle in the tower is
reduced and no rational double points were pruned; then the T^2 and cod_AC
values are exact, otherwise they are lower bounds and are flagged as such.

The obstruction check compares sum (d(P)-1) against sum (b_i-1) over the
vertices of the resolution graph; the singularity with obstructed good
maximal deformation is detected by sum (d(P)-1) >= sum (b_i-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .blowup import MultiplicityTree, multiplicity_tree
from .resgraph import (
    Cycle,
    ResolutionGraph,
    arithmetic_genus,
    fundamental_cycle,
    is_reduced,
)
from .series import cone_tdim


class BoundedValue(NamedTuple):
    """A dimension that is exact, or else a lower bound."""

    value: int
    exact: bool


class ObstructionReport(NamedTuple):
    sum_d_minus_1: int
    sum_b_minus_1: int
    obstructed: bool


def tdim(tree: MultiplicityTree, i: int) -> int:
    """dim T^i for i >= 3, summed over the multiplicity tree."""
    if i < 3:
        raise ValueError("tdim handles i >= 3; use t2_report for i = 2")
    return sum(cone_tdim(i, node.mult) for node in tree.iter_nodes())


def t2_report(tree: MultiplicityTree) -> BoundedValue:
    """dim T^2 as sum of (d-1)(d-3); exact iff the correction term vanishes."""
    value = sum((node.mult - 1) * (node.mult - 3) for node in tree.iter_nodes())
    return BoundedValue(value=value, exact=tree.reduced_everywhere())


def codim_ac_report(tree: MultiplicityTree) -> BoundedValue:
    """Codimension of the Artin component, same exactness rule as t2_report."""
    value = sum(node.mult - 3 for node in tree.iter_nodes())
    return BoundedValue(value=value, exact=tree.reduced_everywhere())


def gmd_check(g: ResolutionGraph, tree: MultiplicityTree) -> ObstructionReport:
    """Obstruction test for the good maximal deformation."""
    sum_d = sum(node.mult - 1 for node in tree.iter_nodes())
    sum_b = sum(b - 1 for b in g.b)
    return ObstructionReport(
        sum_d_minus_1=sum_d, sum_b_minus_1=sum_b, obstructed=sum_d >= sum_b
    )


@dataclass
class AnalysisReport:
    """Everything analyze() can say about one resolution graph.

    status "ok" means all fields are filled; "not-rational" and
    "not-applicable" reports stop at the fields that still make sense
    (cycle, p_a and multiplicity are always computed, the rest is None).
    """

    status: str
    rational: bool
    cycle: Cycle
    p_a: int
    mult: int | None = None
    reduced: bool | None = None
    reduced_everywhere: bool | None = None
    tree: MultiplicityTree | None = None
    tdims: dict | None = None
    t2: BoundedValue | None = None
    codim_ac: BoundedValue | None = None
    gmd: ObstructionReport | None = None

    @property
    def sum_d_minus_1(self):
        return None if self.gmd is None else self.gmd.sum_d_minus_1

    @property
    def sum_b_minus_1(self):
        return None if self.gmd is None else self.gmd.sum_b_minus_1

    @property
    def gmd_obstructed(self):
        return None if self.gmd is None else self.gmd.obstructed


def analyze(g: ResolutionGraph, imax: int = 6) -> AnalysisReport:
    """Full dimension report for one graph; never raises on valid graphs."""
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
    return AnalysisReport(
        status="ok",
        rational=True,
        cycle=z,
        p_a=p_a,
        mult=mult,
        reduced=is_reduced(z),
        reduced_everywhere=tree.reduced_everywhere(),
        tree=tree,
        tdims={i: tdim(tree, i) for i in range(3, imax + 1)},
        t2=t2_report(tree),
        codim_ac=codim_ac_report(tree),
        gmd=gmd_check(g, tree),
    )
