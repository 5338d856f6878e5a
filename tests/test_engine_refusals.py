"""The brute-force engine's argument checks, pinned as one digest.

Every entry point that takes a fat point's m, a degree k and a budget is
called over one fixed grid of good and hostile arguments. Each outcome is
the value the call returns, or the type and message of the exception it
raises; their digest was recorded before the argument checks were folded
into one routine, so the folded check must refuse the same arguments, in
the same order, with the same messages.
"""

from __future__ import annotations

import hashlib
import itertools
from fractions import Fraction

from ratsurf.harrison import CochainSpace, coboundary_matrix, harrison_dim, hochschild_dim, zero_map_check

MS = [True, 2.0, "2", Fraction(2), -1, 0, 1, 2, 3]
COEFFS = ["trivial", "regular", "bogus", None]
KS = [True, 2.0, "2", -3, 0, 1, 2, 3, 4, 30, 10 ** 18]
BUDGETS = [None, True, 10.0, "10", -1, 0, 1, 10, 1500]

DIGEST = "2012c15bd1752afcae22f109af7806845e8ab5cef875204adbe2c21402e30f4a"


def _value(result) -> str:
    """A returned value as text that does not depend on object identity."""
    if isinstance(result, CochainSpace):
        return "space %d %d %d" % (result.dim, result.scalar_dim, result.value_dim)
    if hasattr(result, "columns"):  # coboundary_matrix's SparseMatrix
        return "matrix %d %d %r" % (result.rows, result.cols, [sorted(col.items()) for col in result.columns])
    return repr(result)


def outcome(call, *args) -> str:
    try:
        return _value(call(*args))
    except Exception as exc:  # the grid pins every refusal, whatever its type
        return "%s: %s" % (type(exc).__name__, exc)


def grid_outcomes() -> list:
    lines = []
    for m, k, budget in itertools.product(MS, KS, BUDGETS):
        for coeffs in COEFFS:
            for call in (harrison_dim, hochschild_dim, CochainSpace, coboundary_matrix):
                lines.append("%s %r %r %r %r -> %s" % (call.__name__, m, coeffs, k, budget,
                                                       outcome(call, m, coeffs, k, budget)))
        lines.append("zero_map_check %r %r %r -> %s" % (m, k, budget, outcome(zero_map_check, m, k, budget)))
    return lines


def test_the_refusal_grid_gives_the_recorded_outcomes():
    lines = grid_outcomes()
    assert len(lines) == 9 * 11 * 9 * (4 * 4 + 1) == 15147
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST
