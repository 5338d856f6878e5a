#!/usr/bin/env python3
"""A family where the obstruction inequality is an equality.

Take a (-2)-curve meeting three (-k)-curves, each carrying k-2 more
(-2)-curves. The first blow-up produces three singular points of
multiplicity k, and both sides of the inequality

    sum over infinitely near points of (d(P) - 1)  >=  sum of (b_i - 1)

come out to 6k - 8. Equality is the interesting case: it certifies a
generically obstructed deformation space. The root cycle is non-reduced, so
the T^2 and cod_AC sums are honest lower bounds, not exact values. Each of
these claims is checked for every k printed; a failed check exits 1.
"""

import json
import sys

from ratsurf import analyze, parse_graph


def family(k):
    vertices = [{"id": "C", "b": 2}]
    edges = []
    for t in (1, 2, 3):
        arm = "K%d" % t
        vertices.append({"id": arm, "b": k})
        edges.append(["C", arm])
        for j in range(1, k - 1):
            leaf = "%sL%d" % (arm, j)
            vertices.append({"id": leaf, "b": 2})
            edges.append([arm, leaf])
    return parse_graph(json.dumps({"vertices": vertices, "edges": edges}))


wrong = []
print("  k  mult  children      sum(d-1)  sum(b-1)  obstructed  T^2>=  cod>=")
for k in range(3, 8):
    r = analyze(family(k))
    children = [c.mult for c in r.tree.children]
    print(
        "%3d %5d  %-12s %9d %9d  %-10s %6d %6d"
        % (
            k,
            r.mult,
            children,
            r.gmd.sum_d_minus_1,
            r.gmd.sum_b_minus_1,
            "yes" if r.gmd.obstructed else "no",
            r.t2.value,
            r.codim_ac.value,
        )
    )
    claimed = (3 * k - 4, [k, k, k], (6 * k - 8, 6 * k - 8, True), False, False)
    if (r.mult, children, r.gmd, r.t2.exact, r.codim_ac.exact) != claimed:
        wrong.append(k)

if wrong:
    sys.exit("MISMATCH: the claims fail for k in %s" % wrong)
print()
print("root multiplicity 3k-4, three infinitely near points of multiplicity k,")
print("and the two sums agree for every k")
