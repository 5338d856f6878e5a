"""Exact linear algebra over Q: ranks, kernels, determinants.

The sparse integer elimination (Echelon) is checked against the dense
Fraction elimination it replaced, kept here as the reference oracle.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

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


# ----- dense helpers the tests need and the package does not ---------------

def identity(n):
    return QMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def transpose(m):
    return QMatrix.from_rows([m.column(j) for j in range(m.cols)])


def matmul(a, b):
    if a.cols != b.rows:
        raise ValueError("shape mismatch in product")
    return QMatrix.from_rows(
        [[sum(a[i, t] * b[t, j] for t in range(a.cols)) for j in range(b.cols)] for i in range(a.rows)]
    )


def is_zero(m):
    return not any(m[i, j] for i in range(m.rows) for j in range(m.cols))


def is_symmetric(m):
    return m.rows == m.cols and transpose(m) == m


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return QMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


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


def test_fraction_roundtrip():
    # (a/b) * (b/a) = 1 for nonzero a, b
    rng = random.Random(11)
    for _ in range(200):
        a = rng.randint(1, 50) * rng.choice([1, -1])
        b = rng.randint(1, 50) * rng.choice([1, -1])
        assert Fraction(a, b) * Fraction(b, a) == 1


def test_rank_identity_and_zero():
    assert identity(3).rank() == 3
    assert QMatrix.zero(2, 5).rank() == 0
    assert QMatrix.zero(2, 5).kernel_dim() == 5


def test_rank_known_matrices():
    assert QMatrix.from_rows([[1, 2], [2, 4]]).rank() == 1
    assert QMatrix.from_rows([[1, 2], [3, 4]]).rank() == 2
    assert QMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).rank() == 2


def test_rank_equals_rank_of_transpose():
    rng = random.Random(5)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert m.rank() == transpose(m).rank()


def test_rank_plus_kernel_dim_is_column_count():
    rng = random.Random(6)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert m.rank() + m.kernel_dim() == m.cols


def test_kernel_basis_vectors_are_in_the_kernel():
    rng = random.Random(7)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        basis = m.kernel_basis()
        assert len(basis) == m.kernel_dim()
        for v in basis:
            col = QMatrix(m.cols, 1, v)
            assert is_zero(matmul(m, col))


def test_kernel_basis_is_free_column_normalized():
    # vector t carries 1 at its own free column and 0 at the others;
    # coboundary coordinate extraction depends on this shape
    rng = random.Random(8)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        basis = m.kernel_basis()
        free = m.kernel_free_columns()
        assert len(free) == len(basis)
        for t, v in enumerate(basis):
            for s, c in enumerate(free):
                assert v[c] == (1 if s == t else 0)


def test_matmul_and_shape_errors():
    # the dense product the determinant and kernel tests rely on
    a = QMatrix.from_rows([[1, 2], [3, 4]])
    b = QMatrix.from_rows([[0, 1], [1, 0]])
    assert matmul(a, b) == QMatrix.from_rows([[2, 1], [4, 3]])
    with pytest.raises(ValueError):
        matmul(a, QMatrix.from_rows([[1, 2, 3]]))


def test_det_known_values():
    assert QMatrix.from_rows([[2]]).det() == 2
    assert QMatrix.from_rows([[1, 2], [3, 4]]).det() == -2
    assert QMatrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 5]]).det() == 30
    assert QMatrix.from_rows([[1, 2], [2, 4]]).det() == 0


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        QMatrix.from_rows([[1, 2, 3], [4, 5, 6]]).det()


def test_det_of_product_is_product_of_dets():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        assert matmul(a, b).det() == a.det() * b.det()


def test_leading_principal_minors():
    m = QMatrix.from_rows([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    assert m.leading_principal_minor(1) == -2
    assert m.leading_principal_minor(2) == 3
    assert m.leading_principal_minor(3) == -4
    assert m.leading_principal_minor(3) == m.det()


def test_symmetry_and_zero_predicates():
    assert is_symmetric(QMatrix.from_rows([[1, 2], [2, 3]]))
    assert not is_symmetric(QMatrix.from_rows([[1, 2], [0, 3]]))
    assert is_zero(QMatrix.zero(3, 3))
    assert not is_zero(identity(2))


def test_mat_stack_vertical_rank_bounds():
    # stacking the rows of A and B: max(rank A, rank B) <= rank <= rank A + rank B
    rng = random.Random(10)
    for _ in range(60):
        cols = rng.randint(1, 5)
        a = random_matrix(rng, rng.randint(1, 4), cols)
        b = random_matrix(rng, rng.randint(1, 4), cols)
        rows = [a.row(i) for i in range(a.rows)] + [b.row(i) for i in range(b.rows)]
        s = QMatrix.from_rows(rows)
        assert s.rows == a.rows + b.rows
        assert s.rank() <= a.rank() + b.rank()
        assert s.rank() >= max(a.rank(), b.rank())
        assert Echelon(rows).rank == s.rank()


def test_mat_stack_vertical_duplicate_rows():
    assert QMatrix.from_rows([[1, 2], [1, 2]]).rank() == 1
    span = Echelon()
    assert span.add([1, 2]) and not span.add({0: 1, 1: 2}) and span.rank == 1


def test_mat_stack_vertical_empty_needs_columns():
    # a matrix with no rows still declares its columns, all of them free
    with pytest.raises(ValueError):
        SparseMatrix(0, 4, [])
    empty = SparseMatrix(0, 4, [{}] * 4)
    assert (empty.rows, empty.cols, empty.rank()) == (0, 4, 0)
    assert Echelon().free_columns(4) == [0, 1, 2, 3]


def test_mat_stack_vertical_rejects_column_mismatch():
    with pytest.raises(ValueError):
        QMatrix.from_rows([[0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        SparseMatrix(1, 3, [{}, {}])


def test_mat_rank_and_mat_kernel_dim_wrappers():
    m = QMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert m.rank() == 2
    assert m.kernel_dim() == 1


def in_column_span(m, vec) -> bool:
    """Is vec (a sequence, or a dict row -> value) a combination of the columns of m?"""
    if not isinstance(vec, dict) and len(vec) != m.rows:
        raise ValueError("vector length must match row count")
    columns = m.columns if isinstance(m, SparseMatrix) else [m.column(j) for j in range(m.cols)]
    return not Echelon(columns).reduce(vec)


def test_in_column_span():
    m = QMatrix.from_rows([[1, 0], [0, 1], [0, 0]])
    assert in_column_span(m, [3, -2, 0])
    assert not in_column_span(m, [0, 0, 1])
    assert in_column_span(QMatrix.zero(2, 3), [0, 0])


def test_in_column_span_on_random_combinations():
    rng = random.Random(12)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        coeffs = [rng.randint(-3, 3) for _ in range(m.cols)]
        vec = [
            sum(coeffs[j] * m[i, j] for j in range(m.cols)) for i in range(m.rows)
        ]
        assert in_column_span(m, vec)


# ----- the sparse integer core against the reference ------------------------

def _sparse_to_dense(vec, n):
    return [vec.get(j, Fraction(0)) for j in range(n)]


@pytest.mark.parametrize("rational", [False, True])
def test_echelon_matches_the_dense_reference(rational):
    rng = random.Random(13 + rational)
    for _ in range(150):
        nrows, ncols = rng.randint(0, 9), rng.randint(1, 9)
        rows = random_rows(rng, nrows, ncols, rng.choice([0.2, 0.5, 1.0]), rational)
        pivots, free, basis = reference_kernel(rows, ncols)
        span = Echelon(rows)
        assert span.rank == len(pivots)
        assert span.free_columns(ncols) == free
        assert [c for c in range(ncols) if c not in span.free_columns(ncols)] == pivots
        assert [_sparse_to_dense(v, ncols) for v in span.kernel_basis(ncols)] == basis
        m = QMatrix.from_rows(rows) if rows else QMatrix.zero(0, ncols)
        assert (m.rank(), m.kernel_free_columns(), m.kernel_basis()) == (len(pivots), free, basis)


def test_echelon_does_not_depend_on_the_row_order_or_scaling():
    rng = random.Random(14)
    for _ in range(60):
        ncols = rng.randint(1, 8)
        rows = random_rows(rng, rng.randint(1, 8), ncols, 0.5)
        want = Echelon(rows).kernel_basis(ncols)
        mixed = []
        for row in rows:
            scale = Fraction(rng.choice([-2, 1, 5]), 3)
            mixed.append([x * scale for x in row])
        rng.shuffle(mixed)
        assert Echelon({j: x for j, x in enumerate(row)} for row in mixed).kernel_basis(ncols) == want


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
        dense = QMatrix.from_rows(rows)
        columns = [{i: rows[i][j] for i in range(nrows) if rows[i][j]} for j in range(ncols)]
        sparse = SparseMatrix(nrows, ncols, columns)
        assert sparse.rank() == dense.rank()
        assert len(sparse.kernel_basis()) == dense.kernel_dim()
        assert [_sparse_to_dense(v, ncols) for v in sparse.kernel_basis()] == dense.kernel_basis()
        vec = {i: x for i, x in enumerate(random_rows(rng, 1, nrows, 0.5)[0]) if x}
        assert in_column_span(sparse, vec) == in_column_span(dense, _sparse_to_dense(vec, nrows))


def test_kernel_entries_are_ints_exactly_when_the_pivot_divides():
    # -v/a is an int when the stored pivot a divides v, and a Fraction otherwise
    rng = random.Random(17)
    seen = set()
    for _ in range(200):
        nrows, ncols = rng.randint(0, 8), rng.randint(1, 8)
        rows = random_rows(rng, nrows, ncols, rng.choice([0.3, 0.6, 1.0]), rational=rng.random() < 0.3)
        _, free, want = reference_kernel(rows, ncols)
        got = Echelon(rows).kernel_basis(ncols)
        assert [_sparse_to_dense(v, ncols) for v in got] == want
        for f, vec, ref in zip(free, got, want):
            assert vec[f] == 1 and type(vec[f]) is int
            for j, x in vec.items():
                assert x and ref[j] == x
                assert (type(x) is int) == (ref[j].denominator == 1), (rows, j, x)
                seen.add(type(x))
    assert seen == {int, Fraction}
