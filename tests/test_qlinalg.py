"""Exact linear algebra over Q: ranks, kernels, determinants.

The sparse integer elimination (Echelon) is checked against the dense
Fraction elimination it replaced, kept here as the reference oracle.
Matrices are plain lists of rows; QMatrix is the dense determinant whose
leading minors resgraph.is_negative_definite reads.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ratsurf import qlinalg
from ratsurf.qlinalg import Echelon, QMatrix, SparseMatrix, as_fraction


# ----- reference oracle: dense Gaussian elimination over Fractions ----------

def reference_echelon(rows, ncols):
    """Reduced row echelon form by dense Fraction elimination: (rows, pivots)."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(work)) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        prow = work[r]
        inv = 1 / prow[c]
        for i in range(r + 1, len(work)):
            x = work[i][c]
            if x:
                f = x * inv
                wi = work[i]
                for jj in range(c, ncols):
                    if prow[jj]:
                        wi[jj] -= f * prow[jj]
        pivots.append(c)
        r += 1
    # back-substitute to reduced echelon form
    for t in range(len(pivots) - 1, -1, -1):
        c = pivots[t]
        prow = work[t]
        inv = 1 / prow[c]
        if inv != 1:
            for jj in range(c, ncols):
                if prow[jj]:
                    prow[jj] *= inv
        for i in range(t):
            x = work[i][c]
            if x:
                wi = work[i]
                for jj in range(c, ncols):
                    if prow[jj]:
                        wi[jj] -= x * prow[jj]
    return work, pivots


def reference_kernel(rows, ncols):
    """(pivots, free columns, free-column normalized kernel basis) of dense rows."""
    work, pivots = reference_echelon(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for t, c in enumerate(pivots):
            v[c] = -work[t][f]
        basis.append(v)
    return pivots, free, basis


# ----- dense helpers on lists of rows -------------------------------------

def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def zero(rows, cols):
    return [[0] * cols for _ in range(rows)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def matmul(a, b):
    if any(len(row) != len(b) for row in a):
        raise ValueError("shape mismatch in product")
    return [[sum(x * y for x, y in zip(row, col)) for col in transpose(b)] for row in a]


def is_zero(m):
    return not any(x for row in m for x in row)


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _sparse_to_dense(vec, n):
    return [vec.get(j, Fraction(0)) for j in range(n)]


def kernel(m, ncols):
    """Echelon's kernel basis of dense rows m, as dense lists."""
    return [_sparse_to_dense(v, ncols) for v in Echelon(m).kernel_basis(range(ncols))]


def random_rows(rng, rows, cols, density, rational=False):
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            x = rng.randint(-4, 4) if rng.random() < density else 0
            row.append(Fraction(x, rng.randint(1, 6)) if rational else x)
        out.append(row)
    return out


def test_as_fraction_accepts_exact_scalars():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)


def test_as_fraction_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_fraction(1.5)
    with pytest.raises(TypeError):
        as_fraction(True)


def test_rank_identity_and_zero():
    assert Echelon(identity(3)).rank == 3
    assert Echelon(zero(2, 5)).rank == 0
    assert len(kernel(zero(2, 5), 5)) == 5


def test_rank_known_matrices():
    assert Echelon([[1, 2], [2, 4]]).rank == 1
    assert Echelon([[1, 2], [3, 4]]).rank == 2
    assert Echelon([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).rank == 2


def test_rank_equals_rank_of_transpose():
    rng = random.Random(5)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert Echelon(m).rank == Echelon(transpose(m)).rank


def test_rank_plus_kernel_dim_is_column_count():
    rng = random.Random(6)
    for _ in range(60):
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rng.randint(1, 6), cols)
        assert Echelon(m).rank + len(kernel(m, cols)) == cols


def test_kernel_basis_vectors_are_in_the_kernel():
    rng = random.Random(7)
    for _ in range(40):
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rng.randint(1, 5), cols)
        basis = kernel(m, cols)
        assert len(basis) == cols - Echelon(m).rank
        for v in basis:
            assert is_zero(matmul(m, transpose([v])))


def test_kernel_basis_is_free_column_normalized():
    # vector t carries 1 at its own free column and 0 at the others;
    # coboundary coordinate extraction depends on this shape
    rng = random.Random(8)
    for _ in range(40):
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rng.randint(1, 5), cols)
        basis = kernel(m, cols)
        free = Echelon(m).free_columns(range(cols))
        assert len(free) == len(basis)
        for t, v in enumerate(basis):
            for s, c in enumerate(free):
                assert v[c] == (1 if s == t else 0)


def test_matmul_and_shape_errors():
    # the dense product the determinant and kernel tests rely on
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert matmul(a, b) == [[2, 1], [4, 3]]
    with pytest.raises(ValueError):
        matmul(a, [[1, 2, 3]])


def test_det_known_values():
    assert QMatrix([[2]]).det() == 2
    assert QMatrix([[1, 2], [3, 4]]).det() == -2
    assert QMatrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]]).det() == 30
    assert QMatrix([[1, 2], [2, 4]]).det() == 0


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        QMatrix([[1, 2, 3], [4, 5, 6]]).det()


def test_det_of_product_is_product_of_dets():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        assert QMatrix(matmul(a, b)).det() == QMatrix(a).det() * QMatrix(b).det()


def test_leading_principal_minors():
    m = QMatrix([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    assert m.leading_principal_minor(1) == -2
    assert m.leading_principal_minor(2) == 3
    assert m.leading_principal_minor(3) == -4
    assert m.leading_principal_minor(3) == m.det()


def test_is_zero_tells_the_zero_matrix_from_the_identity():
    assert is_zero(zero(3, 3))
    assert not is_zero(identity(2))


def test_the_rank_of_stacked_rows_lies_between_the_larger_rank_and_the_sum():
    # stacking the rows of A and B: max(rank A, rank B) <= rank <= rank A + rank B
    rng = random.Random(10)
    for _ in range(60):
        cols = rng.randint(1, 5)
        a = random_matrix(rng, rng.randint(1, 4), cols)
        b = random_matrix(rng, rng.randint(1, 4), cols)
        rank_a, rank_b, rank = Echelon(a).rank, Echelon(b).rank, Echelon(a + b).rank
        assert max(rank_a, rank_b) <= rank <= rank_a + rank_b
        assert rank == len(reference_echelon(a + b, cols)[1])


def test_a_repeated_row_adds_no_rank():
    assert Echelon([[1, 2], [1, 2]]).rank == 1
    span = Echelon()
    assert span.add([1, 2]) and not span.add({0: 1, 1: 2}) and span.rank == 1


def test_a_matrix_with_no_rows_declares_its_columns_all_free():
    # a matrix with no rows still declares its columns, all of them free
    with pytest.raises(ValueError):
        SparseMatrix(0, 4, [])
    empty = SparseMatrix(0, 4, [{}] * 4)
    assert (empty.rows, empty.cols, empty.rank()) == (0, 4, 0)
    assert Echelon().free_columns(range(4)) == [0, 1, 2, 3]


def test_ragged_rows_float_entries_and_short_column_lists_are_refused():
    with pytest.raises(ValueError):
        QMatrix([[0, 0], [0, 0, 0]])
    with pytest.raises(TypeError):
        QMatrix([[0, 0.5]])
    with pytest.raises(ValueError):
        SparseMatrix(1, 3, [{}, {}])


def test_qmatrix_shape_and_rank_and_the_echelon_free_columns():
    rows = [[1, 0, 1], [0, 1, 1]]
    m = QMatrix(rows)
    assert (m.rows, m.cols, m.rank()) == (2, 3, 2)
    assert Echelon(rows).free_columns(range(3)) == [2]


def in_column_span(m, vec) -> bool:
    """Is vec (a sequence, or a dict row -> value) a combination of the columns of m?"""
    nrows = m.rows if isinstance(m, SparseMatrix) else len(m)
    if not isinstance(vec, dict) and len(vec) != nrows:
        raise ValueError("vector length must match row count")
    columns = m.columns if isinstance(m, SparseMatrix) else transpose(m)
    return not Echelon(columns).reduce(vec)


def test_in_column_span():
    m = [[1, 0], [0, 1], [0, 0]]
    assert in_column_span(m, [3, -2, 0])
    assert not in_column_span(m, [0, 0, 1])
    assert in_column_span(zero(2, 3), [0, 0])


def test_in_column_span_on_random_combinations():
    rng = random.Random(12)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        coeffs = [rng.randint(-3, 3) for _ in m[0]]
        vec = [sum(c * x for c, x in zip(coeffs, row)) for row in m]
        assert in_column_span(m, vec)


# ----- the sparse integer core against the reference ------------------------

@pytest.mark.parametrize("rational", [False, True])
def test_echelon_matches_the_dense_reference(rational):
    rng = random.Random(13 + rational)
    for _ in range(150):
        nrows, ncols = rng.randint(0, 9), rng.randint(1, 9)
        rows = random_rows(rng, nrows, ncols, rng.choice([0.2, 0.5, 1.0]), rational)
        pivots, free, basis = reference_kernel(rows, ncols)
        span = Echelon(rows)
        assert span.rank == len(pivots)
        assert span.free_columns(range(ncols)) == free
        assert [c for c in range(ncols) if c not in span.free_columns(range(ncols))] == pivots
        assert [_sparse_to_dense(v, ncols) for v in span.kernel_basis(range(ncols))] == basis
        assert QMatrix(rows).rank() == len(pivots)


def test_echelon_does_not_depend_on_the_row_order_or_scaling():
    rng = random.Random(14)
    for _ in range(60):
        ncols = rng.randint(1, 8)
        rows = random_rows(rng, rng.randint(1, 8), ncols, 0.5)
        want = Echelon(rows).kernel_basis(range(ncols))
        mixed = []
        for row in rows:
            scale = Fraction(rng.choice([-2, 1, 5]), 3)
            mixed.append([x * scale for x in row])
        rng.shuffle(mixed)
        assert Echelon({j: x for j, x in enumerate(row)} for row in mixed).kernel_basis(range(ncols)) == want


def test_reduce_decides_span_membership():
    rng = random.Random(15)
    for _ in range(60):
        ncols = rng.randint(1, 7)
        rows = random_rows(rng, rng.randint(1, 5), ncols, 0.6)
        span = Echelon(rows)
        coeffs = [rng.randint(-3, 3) for _ in rows]
        inside = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)]
        assert span.reduce(inside) == {}
        outside = random_rows(rng, 1, ncols, 0.6)[0]
        assert (span.reduce(outside) == {}) == (Echelon(rows + [outside]).rank == span.rank)


def test_sparse_matrix_agrees_with_the_dense_matrix():
    rng = random.Random(16)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = random_rows(rng, nrows, ncols, 0.4, rational=rng.random() < 0.5)
        pivots = reference_kernel(rows, ncols)[0]
        columns = [{i: rows[i][j] for i in range(nrows) if rows[i][j]} for j in range(ncols)]
        sparse = SparseMatrix(nrows, ncols, columns)
        assert sparse.rank() == len(pivots)
        vec = {i: x for i, x in enumerate(random_rows(rng, 1, nrows, 0.5)[0]) if x}
        dense_vec = _sparse_to_dense(vec, nrows)
        inside = len(reference_echelon(transpose(rows) + [dense_vec], nrows)[1]) == len(pivots)
        assert in_column_span(sparse, vec) == inside


def test_kernel_entries_are_ints_exactly_when_the_pivot_divides():
    # -v/a is an int when the stored pivot a divides v, and a Fraction otherwise
    rng = random.Random(17)
    seen = set()
    for _ in range(200):
        nrows, ncols = rng.randint(0, 8), rng.randint(1, 8)
        rows = random_rows(rng, nrows, ncols, rng.choice([0.3, 0.6, 1.0]), rational=rng.random() < 0.3)
        _, free, want = reference_kernel(rows, ncols)
        got = Echelon(rows).kernel_basis(range(ncols))
        assert [_sparse_to_dense(v, ncols) for v in got] == want
        for f, vec, ref in zip(free, got, want):
            assert vec[f] == 1 and type(vec[f]) is int
            for j, x in vec.items():
                assert x and ref[j] == x
                assert (type(x) is int) == (ref[j].denominator == 1), (rows, j, x)
                seen.add(type(x))
    assert seen == {int, Fraction}


# ----- SparseMatrix.rank peels the columns that own a row --------------------

def peel_case(rng):
    """Sparse columns mixing every case the peel must get right: a staircase
    that opens one singleton row at a time, Fraction values, explicit int and
    Fraction zeros, empty, repeated and rescaled columns, and columns that are
    sums of others, whose rows cancel only under elimination."""
    nrows = rng.randint(1, 10)
    rows = list(range(nrows))
    rng.shuffle(rows)
    columns = []
    # column t is nonzero on rows[0..t]: rows[t] is a singleton only once
    # the columns after t have been peeled
    for t in range(rng.randint(0, nrows)):
        columns.append({rows[s]: rng.choice([1, -2, 3, Fraction(1, 2)]) for s in range(t + 1)})
    for _ in range(rng.randint(0, 4)):
        columns.append({i: rng.choice([1, -1, 2, Fraction(-3, 4)]) for i in rng.sample(rows, rng.randint(1, min(3, nrows)))})
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(["empty", "zeros", "repeat", "sum"])
        if kind == "empty" or not columns:
            columns.append({})
        elif kind == "zeros":
            columns.append({i: rng.choice([0, Fraction(0)]) for i in rng.sample(rows, rng.randint(1, nrows))})
        elif kind == "repeat":
            scale = rng.choice([1, -1, Fraction(2, 3)])
            columns.append({i: scale * x for i, x in rng.choice(columns).items()})
        else:
            a, b = rng.choice(columns), rng.choice(columns)
            columns.append({i: a.get(i, 0) + b.get(i, 0) for i in set(a) | set(b)})
    for col in columns:  # explicit zeros next to the nonzero entries
        for i in rng.sample(rows, rng.randint(0, min(2, nrows))):
            col.setdefault(i, rng.choice([0, Fraction(0)]))
    rng.shuffle(columns)
    return nrows, columns


def row_dicts(columns):
    rows = {}
    for j, col in enumerate(columns):
        for i, x in col.items():
            rows.setdefault(i, {})[j] = x
    return list(rows.values())


def record_eliminations(monkeypatch):
    """The number of rows each Echelon that qlinalg builds is handed, in order."""
    sizes = []

    def echelon(rows=()):
        rows = list(rows)
        sizes.append(len(rows))
        return Echelon(rows)

    monkeypatch.setattr(qlinalg, "Echelon", echelon)
    return sizes


def test_sparse_rank_equals_elimination_and_the_transpose(monkeypatch):
    sizes = record_eliminations(monkeypatch)
    rng = random.Random(18)
    for _ in range(400):
        nrows, columns = peel_case(rng)
        want = Echelon(columns).rank
        assert SparseMatrix(nrows, len(columns), columns).rank() == want, columns
        assert Echelon(row_dicts(columns)).rank == want
        dense_rows = transpose([_sparse_to_dense(col, nrows) for col in columns])
        assert len(reference_echelon(dense_rows, len(columns))[1]) == want
    # some ranks came from the peel alone, and others needed elimination
    assert len(sizes) == 400 and 0 in sizes and max(sizes) > 1


def test_the_peel_counts_only_nonzero_entries(monkeypatch):
    assert SparseMatrix(1, 1, [{0: 0}]).rank() == 0
    assert SparseMatrix(2, 2, [{0: Fraction(0), 1: 0}, {}]).rank() == 0
    sizes = record_eliminations(monkeypatch)
    # a zero at row 1 does not hide that row 1 is a singleton of the second column
    assert SparseMatrix(2, 2, [{0: 1, 1: 0}, {1: Fraction(5, 2)}]).rank() == 2
    # a staircase peels completely, one row at a time from its last
    n = 6
    staircase = [{i: i + t + 1 for i in range(t + 1)} for t in range(n)]
    assert SparseMatrix(n, n, staircase).rank() == n
    assert sizes == [0, 0]
    # equal columns own no row: both go to elimination
    assert SparseMatrix(2, 2, [{0: 1, 1: 2}, {0: 1, 1: 2}]).rank() == 1
    assert sizes[-1] == 2
