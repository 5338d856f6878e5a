#!/usr/bin/env python3
"""Cross-check: brute-force Harrison cohomology against the Moebius count.

The m-dimensional fat point (maximal ideal squared equal to zero) is small
enough to compute everything from scratch: build the shuffle-invariant
cochain spaces, take kernels modulo images, and compare with the closed
formula that counts the same thing via Moebius inversion. With coefficients
in the algebra itself the dimensions are the cotangent modules T^i. A row
where the two disagree is marked, and the script then exits 1.
"""

import sys

from ratsurf import harrison_dim, shuffle_dim
from ratsurf.series import fatpoint_tdim

disagree = []


def row(a, b, brute, formula):
    tag = "" if brute == formula else "   <- MISMATCH"
    if tag:
        disagree.append((a, b))
    print("%3d %2d %7d %8d%s" % (a, b, brute, formula, tag))


print("residue-field coefficients: brute force vs closed formula")
print()
print("  m  k   brute  formula")
for m in (2, 3, 4):
    for k in (1, 2, 3, 4):
        if m ** k > 1500:
            continue
        row(m, k, harrison_dim(m, "trivial", k), shuffle_dim(m, k))

print()
print("algebra coefficients: the cotangent dimensions dim T^i = Harr^(i+1)")
print()
print("  m  i   brute  formula")
for m, i in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
    row(m, i, harrison_dim(m, "regular", i + 1), fatpoint_tdim(m, i))

print()
if disagree:
    sys.exit("%d row(s) disagree: %s" % (len(disagree), disagree))
print("every row agrees; the two computations share no code path")
