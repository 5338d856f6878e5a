#!/usr/bin/env python3
"""Dimension tables for the cones over rational normal curves.

For the cone of degree d the higher cotangent dimensions are the positive
coefficients of one rational generating series. This prints the table for a
range of degrees, checks that the first column is 2d-4, the dimension of the
versal base, and checks one row against the series it is read from. A failed
check exits 1.
"""

import sys

from ratsurf import cone_tdim, poincare_series

IMAX = 6
DEGREES = range(3, 11)

print("dim T^i for the cone over the rational normal curve of degree d")
print()
header = "  d |" + "".join("%8s" % ("T^%d" % i) for i in range(1, IMAX + 1))
print(header)
print("  --+" + "-" * (8 * IMAX))
for d in DEGREES:
    row = "".join("%8d" % cone_tdim(i, d) for i in range(1, IMAX + 1))
    print("%3d |%s" % (d, row))

wrong = [d for d in DEGREES if cone_tdim(1, d) != 2 * d - 4]
if wrong:
    sys.exit("MISMATCH: T^1 is not 2d-4 for d in %s" % wrong)
print()
print("T^1 is always 2d-4 here, the dimension of the versal base.")
print()

# the same numbers straight from the series, for one degree
d = 5
s = poincare_series(d, IMAX)
print("series for d = %d:" % d, " ".join(str(x) for x in s[1:]))
if s[1:] != [cone_tdim(i, d) for i in range(1, IMAX + 1)]:
    sys.exit("MISMATCH: the series for d = %d differs from its table row" % d)
