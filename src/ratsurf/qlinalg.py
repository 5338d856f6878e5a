"""Exact linear algebra over the rationals, on one sparse integer elimination.

Every rank and kernel in the package comes from Echelon, which keeps the
reduced row echelon form of the rows added so far; SparseMatrix.rank first
peels the columns that own a row (the only nonzero entry of some row among
the columns left), each of which adds 1 to the rank, and eliminates only the
columns that remain. A row is a sparse dict col -> value (or a dense
sequence); it is cleared of denominators, reduced against the stored rows,
made primitive with a positive pivot, and stored after the other rows are
cleared at its pivot (only those with a pivot left of it can hold it). No
Fraction arithmetic happens inside, and a row that adds nothing costs one
pass over its pivot entries.

Columns are int keys (range(n), or a shape kernel's word codes), passed in
order to free_columns and kernel_basis. Kernel bases come out in free-column
normalized form: basis vector t has value 1 at its own free column and 0 at
the free columns of the others. The reduced echelon form is unique, so this
does not depend on the row order; callers read a kernel element's
coordinates off its free-column entries.
Each kernel entry is -v/a for a stored row's entry v and pivot a: an int
when a divides v, a Fraction only otherwise, so integral kernels stay in
ints for the callers' arithmetic too. The fractions module is imported only
where a Fraction is built or checked, so integral work never loads it, nor
the numbers module that it imports.

SparseMatrix holds the cochain differentials as sparse columns and only ranks
them. QMatrix is a dense determinant over Q: resgraph.is_negative_definite
reads its leading principal minors (Sylvester's criterion), though no graph
path calls that, and the benchmark's tracer wraps its rank, det and
leading_principal_minor by name.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterable  # site has loaded it at startup already
from math import gcd, lcm


def as_fraction(x):
    """Coerce int/Fraction to Fraction, rejecting anything inexact."""
    from fractions import Fraction

    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError("exact scalar expected (int or Fraction), got %r" % (x,))


def _make_primitive(row: dict) -> None:
    g = gcd(*row.values())
    if g != 1:
        for j in row:
            row[j] //= g


def _eliminate(target: dict, row: dict, c: int) -> None:
    """Clear column c of target with row, whose pivot is c; integers only."""
    f = target.pop(c)
    a = row[c]
    if a != 1:  # pivot 1, the common case, needs no gcd and no scaling
        g = gcd(a, f)
        a, f = a // g, f // g
        if a != 1:
            for j in target:
                target[j] *= a
    for j, v in row.items():
        if j != c:
            x = target.get(j, 0) - f * v
            if x:
                target[j] = x
            else:
                del target[j]


class Echelon:
    """Reduced row echelon form of the rows added so far (see module doc)."""

    __slots__ = ("_rows", "_pivots")

    def __init__(self, rows: Iterable = ()) -> None:
        self._rows = {}  # pivot column -> primitive integer row, positive at the pivot
        self._pivots = []  # the pivot columns, ascending
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def free_columns(self, cols: Iterable) -> list:
        return [c for c in cols if c not in self._rows]

    def reduce(self, row) -> dict:
        """A nonzero multiple of row minus its part in the span, in a new dict; {} iff row is in the span."""
        row = {j: x for j, x in (row.items() if isinstance(row, dict) else enumerate(row)) if x}
        if any(type(x) is not int for x in row.values()):  # clear denominators
            den = lcm(*(x.denominator for x in row.values()))
            row = {j: int(x * den) for j, x in row.items()}
        rows = self._rows
        # a stored row is zero at every other pivot, so one pass clears them all
        for c in [c for c in row if c in rows]:
            _eliminate(row, rows[c], c)
        if row:
            _make_primitive(row)
        return row

    def add(self, row) -> bool:
        """Add a row; True if it enlarged the span."""
        row = self.reduce(row)
        if not row:
            return False
        c = min(row)
        if row[c] < 0:
            for j in row:
                row[j] = -row[j]
        for p in self._pivots[:bisect_left(self._pivots, c)]:  # no row holds a column left of its pivot
            other = self._rows[p]
            if c in other:
                _eliminate(other, row, c)
                _make_primitive(other)
        self._rows[c] = row
        insort(self._pivots, c)
        return True

    def kernel_basis(self, cols: Iterable) -> list:
        """Right kernel as sparse dicts col -> value, one per free column of cols, in their order.

        Free columns read 1; a pivot column reads -v // a when the pivot a
        divides the row entry v, and Fraction(-v, a) only otherwise.
        """
        free = self.free_columns(cols)
        basis = {f: {f: 1} for f in free}
        for c, row in self._rows.items():
            a = row[c]
            for j, v in row.items():
                if j != c:
                    q, r = divmod(-v, a)
                    if r:
                        from fractions import Fraction

                        q = Fraction(-v, a)
                    basis[j][c] = q
        return [basis[f] for f in free]


class SparseMatrix:
    """rows x cols matrix over Q held as sparse columns: dicts row -> value."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, columns: list) -> None:
        if len(columns) != cols:
            raise ValueError("expected %d columns, got %d" % (cols, len(columns)))
        self.rows = rows
        self.cols = cols
        self.columns = columns

    def rank(self) -> int:
        """Rank over Q: peel the columns that own a row, then eliminate the rest.

        A row whose only nonzero entry among the live columns lies in column j
        puts j outside the span of the others, so j adds 1 to the rank and
        leaves; its rows lose one live entry, and a row left with one certifies
        that column in turn. A row's count and the sum of its live columns name
        that column without a row index. What no row certifies goes to Echelon.
        """
        columns = self.columns
        count, total = {}, {}
        for j, col in enumerate(columns):
            for i, x in col.items():
                if x:
                    count[i] = count.get(i, 0) + 1
                    total[i] = total.get(i, 0) + j
        todo = [i for i, c in count.items() if c == 1]
        peeled = set()
        while todo:
            i = todo.pop()
            if count[i] != 1:  # its column left through another row
                continue
            j = total[i]
            peeled.add(j)
            for r, x in columns[j].items():
                if x:
                    count[r] -= 1
                    total[r] -= j
                    if count[r] == 1:
                        todo.append(r)
        rest = [col for j, col in enumerate(columns) if col and j not in peeled]
        return len(peeled) + Echelon(rest).rank


class QMatrix:
    """Dense matrix over Q from equal-length rows, for determinants and minors (module doc)."""

    __slots__ = ("rows", "cols", "_a")

    def __init__(self, rows: list) -> None:
        self._a = [[as_fraction(x) for x in row] for row in rows]
        self.rows = len(self._a)
        self.cols = len(self._a[0]) if self._a else 0
        if any(len(row) != self.cols for row in self._a):
            raise ValueError("ragged rows")

    def rank(self) -> int:
        return Echelon(self._a).rank

    def det(self):
        """The determinant, a Fraction."""
        from fractions import Fraction

        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        work = [row[:] for row in self._a]
        sign = 1
        det = Fraction(1)
        for c in range(n):
            p = next((i for i in range(c, n) if work[i][c]), None)
            if p is None:
                return Fraction(0)
            if p != c:
                work[c], work[p] = work[p], work[c]
                sign = -sign
            prow = work[c]
            det *= prow[c]
            inv = 1 / prow[c]
            for i in range(c + 1, n):
                x = work[i][c]
                if x:
                    f = x * inv
                    wi = work[i]
                    for jj in range(c, n):
                        if prow[jj]:
                            wi[jj] -= f * prow[jj]
        return det * sign

    def leading_principal_minor(self, k: int):
        """The determinant of the leading k x k block, a Fraction."""
        if not (0 <= k <= min(self.rows, self.cols)):
            raise ValueError("minor size out of range")
        return QMatrix([row[:k] for row in self._a[:k]]).det()
