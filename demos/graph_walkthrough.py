#!/usr/bin/env python3
"""Walk two resolution graphs through the full pipeline by hand.

Shows each stage separately: parse, fundamental cycle, rationality,
multiplicity tree, and the assembled report, for a star that blows up once
and a chain whose only infinitely near point is a rational double point.
The closing claims about the two reports are checked; a failed one exits 1.
"""

import json
import sys

from ratsurf import analyze, cone_tdim, fundamental_cycle, multiplicity_tree, parse_graph

STAR = {
    "vertices": [
        {"id": "C", "b": 3},
        {"id": "L1", "b": 3},
        {"id": "L2", "b": 3},
        {"id": "L3", "b": 3},
    ],
    "edges": [["C", "L1"], ["C", "L2"], ["C", "L3"]],
}

CHAIN = {
    "vertices": [{"id": "E1", "b": 3}, {"id": "E2", "b": 2}, {"id": "E3", "b": 3}],
    "edges": [["E1", "E2"], ["E2", "E3"]],
}


def walk(name, payload):
    print("=" * 60)
    print(name)
    print("=" * 60)
    g = parse_graph(json.dumps(payload))
    z = fundamental_cycle(g)
    print("fundamental cycle:", " ".join("%s:%d" % (v, z.coefficients[v]) for v in g.ids))
    print("Z.Z = %d, so the multiplicity is %d" % (z.self_intersection(), -z.self_intersection()))

    tree = multiplicity_tree(g)
    print("multiplicity sequence down the blow-ups:", tree.multiplicities())
    if tree.dropped_rdp_count:
        print("(%d rational double point(s) pruned)" % tree.dropped_rdp_count)

    report = analyze(g)
    for i in sorted(report.tdims):
        print("dim T^%d = %d" % (i, report.tdims[i]))
    print("T^2 %s %d" % ("=" if report.t2.exact else ">=", report.t2.value))
    print("cod_AC %s %d" % ("=" if report.codim_ac.exact else ">=", report.codim_ac.value))
    print()
    return report


star = walk("star: one blow-up, then a cubic cone", STAR)
chain = walk("chain 3-2-3: the infinitely near point is an A_1", CHAIN)

if (star.tree.multiplicities(), star.tdims[3], cone_tdim(3, 6), cone_tdim(3, 3)) != ([6, 3], 30, 30, 0):
    sys.exit("MISMATCH: the star's T^3 is not f_3(6) + f_3(3) = 30 + 0")
if chain.tree.multiplicities() != [4] or any(v != cone_tdim(i, 4) for i, v in chain.tdims.items()):
    sys.exit("MISMATCH: the chain's dimensions are not the cone values for d = 4")
print("the star's T^3 splits as 30 = f_3(6) + f_3(3) = 30 + 0,")
print("the chain's dimensions are pure cone values for d = 4")
