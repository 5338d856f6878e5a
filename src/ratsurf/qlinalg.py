"""Exact linear algebra over the rationals, on one sparse integer elimination.

Every rank and kernel in the package comes from Echelon, which keeps the
reduced row echelon form of the rows added so far. A row is a sparse dict
col -> value (or a dense sequence); it is cleared of denominators, reduced
against the stored rows, made primitive with a positive pivot, and stored
after the other rows are cleared at its pivot. No Fraction arithmetic happens
inside, and a row that adds nothing costs one pass over its pivot entries.

Kernel bases come out in free-column normalized form: basis vector t has
value 1 at its own free column and 0 at the free columns of the others. The
reduced echelon form is unique, so this does not depend on the row order;
callers read a kernel element's coordinates off its free-column entries.
Each kernel entry is -v/a for a stored row's entry v and pivot a: an int
when a divides v, a Fraction only otherwise, so integral kernels stay in
ints for the callers' arithmetic too.

SparseMatrix holds the cochain differentials as sparse columns. QMatrix is a
dense matrix whose determinants and leading minors only the tests use.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


def as_fraction(x) -> Fraction:
    """Coerce int/Fraction to Fraction, rejecting anything inexact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError("exact scalar expected (int or Fraction), got %r" % (x,))


def as_exact(x):
    """Like as_fraction, but an integral value comes back as a plain int."""
    x = as_fraction(x)
    return x.numerator if x.denominator == 1 else x


def _make_primitive(row: dict) -> None:
    g = gcd(*row.values())
    if g != 1:
        for j in row:
            row[j] //= g


def _eliminate(target: dict, row: dict, c: int) -> None:
    """Clear column c of target with row, whose pivot is c; integers only."""
    f = target.pop(c)
    g = gcd(row[c], f)
    a, f = row[c] // g, f // g
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

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable = ()) -> None:
        self._rows = {}  # pivot column -> primitive integer row, positive at the pivot
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list:
        return sorted(self._rows)

    def free_columns(self, ncols: int) -> list:
        return [c for c in range(ncols) if c not in self._rows]

    def reduce(self, row) -> dict:
        """A nonzero multiple of row minus its part in the span; {} iff row is in the span."""
        row = {j: x for j, x in (row.items() if isinstance(row, dict) else enumerate(row)) if x}
        den = lcm(*(x.denominator for x in row.values()))  # clear denominators
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
        for other in self._rows.values():
            if c in other:
                _eliminate(other, row, c)
                _make_primitive(other)
        self._rows[c] = row
        return True

    def kernel_basis(self, ncols: int) -> list:
        """Right kernel as sparse dicts col -> value, one per free column, in order.

        Free columns read 1; a pivot column reads -v // a when the pivot a
        divides the row entry v, and Fraction(-v, a) only otherwise.
        """
        free = self.free_columns(ncols)
        basis = {f: {f: 1} for f in free}
        for c, row in self._rows.items():
            a = row[c]
            for j, v in row.items():
                if j != c:
                    q, r = divmod(-v, a)
                    basis[j][c] = Fraction(-v, a) if r else q
        return [basis[f] for f in free]


class SparseMatrix:
    """rows x cols matrix over Q held as sparse columns: dicts row -> value."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, columns: Sequence[dict]) -> None:
        if len(columns) != cols:
            raise ValueError("expected %d columns, got %d" % (cols, len(columns)))
        self.rows = rows
        self.cols = cols
        self.columns = columns

    def column(self, j: int) -> dict:
        return self.columns[j]

    def rank(self) -> int:
        return Echelon(self.columns).rank

    def kernel_dim(self) -> int:
        return self.cols - self.rank()

    def kernel_basis(self) -> list:
        """Right kernel as sparse dicts, free-column normalized (see module doc)."""
        rows = {}
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                rows.setdefault(i, {})[j] = x
        return Echelon(rows.values()).kernel_basis(self.cols)


class QMatrix:
    """Immutable dense matrix over Q (row-major)."""

    __slots__ = ("rows", "cols", "_a")

    def __init__(self, rows: int, cols: int, entries: Iterable) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data = [as_fraction(x) for x in entries]
        if len(data) != rows * cols:
            raise ValueError("expected %d entries, got %d" % (rows * cols, len(data)))
        self.rows = rows
        self.cols = cols
        self._a = data

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "QMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("index out of range")
        return self._a[i * self.cols + j]

    def row(self, i: int) -> list:
        return self._a[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> list:
        return [self._a[i * self.cols + j] for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._a == other._a
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self._a)))

    def __repr__(self) -> str:
        return "QMatrix(%d x %d)" % (self.rows, self.cols)

    # ----- elimination ----------------------------------------------------

    def _echelon(self) -> Echelon:
        return Echelon(self.row(i) for i in range(self.rows))

    def rank(self) -> int:
        return self._echelon().rank

    def kernel_dim(self) -> int:
        return self.cols - self.rank()

    def kernel_basis(self) -> list:
        """Basis of the right kernel as dense lists, free-column normalized (see module doc)."""
        return [[v.get(j, 0) for j in range(self.cols)]
                for v in self._echelon().kernel_basis(self.cols)]

    def kernel_free_columns(self) -> list:
        """Free (non-pivot) column indices, matching kernel_basis order."""
        return self._echelon().free_columns(self.cols)

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        work = [self.row(i) for i in range(n)]
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

    def leading_principal_minor(self, k: int) -> Fraction:
        if not (0 <= k <= min(self.rows, self.cols)):
            raise ValueError("minor size out of range")
        sub = []
        for i in range(k):
            sub.extend(self.row(i)[:k])
        return QMatrix(k, k, sub).det()


def in_column_span(m, vec) -> bool:
    """Is vec (a sequence, or a dict row -> value) a combination of the columns of m?"""
    if not isinstance(vec, dict) and len(vec) != m.rows:
        raise ValueError("vector length must match row count")
    return not Echelon(m.column(j) for j in range(m.cols)).reduce(vec)
