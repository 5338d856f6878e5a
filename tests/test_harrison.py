"""Brute-force Harrison/Hochschild engine against independent fixtures.

The anchor algebras all have cohomology known by other means: truncated
polynomial rings Q[x]/(x^n) are hypersurfaces, Q[x,y]/(x^2,y^2) is a complete
intersection, Q[x]/(x^2-1) is etale, and fat points have the closed-form
counting answers from the series module.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest

from ratsurf.harrison import (
    BudgetError,
    CochainSpace,
    CoefficientModule,
    DEFAULT_BUDGET,
    FiniteLocalAlgebra,
    REGULAR,
    TRIVIAL,
    apply_differential,
    check_budget,
    coboundary_matrix,
    harrison_dim,
    hochschild_dim,
    make_fat_point,
    shuffle_invariant_dim,
    signed_shuffles,
    zero_map_check,
    _action_table,
    _blocks,
    _full_coboundary,
    _shape_kernel,
)
from ratsurf import harrison, qlinalg
from ratsurf.qlinalg import QMatrix, SparseMatrix
from ratsurf.series import fatpoint_tdim, shuffle_dim
from test_qlinalg import reference_kernel


def _vec(n, entries=()):
    out = [Fraction(0)] * n
    for v, c in entries:
        out[v] = Fraction(c)
    return tuple(out)


def truncated_polynomial_algebra(n: int) -> FiniteLocalAlgebra:
    # Q[x]/(x^(n+1)) with basis e_0 = x, .., e_(n-1) = x^n
    prods = []
    for i in range(n):
        row = []
        for j in range(n):
            power = i + j + 2
            if power <= n:
                row.append((Fraction(0), _vec(n, [(power - 1, 1)])))
            else:
                row.append((Fraction(0), _vec(n)))
        prods.append(row)
    return FiniteLocalAlgebra(prods)


def two_variable_square_zero() -> FiniteLocalAlgebra:
    # Q[x,y]/(x^2, y^2) with basis e_0 = x, e_1 = y, e_2 = xy
    z = (Fraction(0), _vec(3))
    xy = (Fraction(0), _vec(3, [(2, 1)]))
    return FiniteLocalAlgebra([[z, xy, z], [xy, z, z], [z, z, z]])


def etale_quadratic() -> FiniteLocalAlgebra:
    # Q[x]/(x^2 - 1): the product of the basis vector with itself is the unit
    return FiniteLocalAlgebra([[(Fraction(1), _vec(1))]])


def test_make_fat_point_squares_to_zero():
    a = make_fat_point(1)
    assert a.n == 1
    assert a.product(0, 0) == (Fraction(0), (Fraction(0),))
    b = make_fat_point(3)
    for i in range(3):
        for j in range(3):
            assert b.product(i, j) == (Fraction(0), _vec(3))
    with pytest.raises(ValueError):
        make_fat_point(0)


def test_algebra_rejects_non_square_table():
    z = (Fraction(0), _vec(2))
    with pytest.raises(ValueError):
        FiniteLocalAlgebra([[z, z]])


def test_algebra_rejects_wrong_linear_length():
    with pytest.raises(ValueError):
        FiniteLocalAlgebra([[(Fraction(0), _vec(2))]])


def test_algebra_rejects_non_commutative_table():
    z = (Fraction(0), _vec(2))
    e1 = (Fraction(0), _vec(2, [(1, 1)]))
    with pytest.raises(ValueError, match="commutative"):
        FiniteLocalAlgebra([[z, e1], [z, z]])


def test_algebra_rejects_non_associative_table():
    # e0 e0 = e1 and e1 e1 = e0 force (e0 e0) e1 != e0 (e0 e1)
    z = (Fraction(0), _vec(2))
    e0 = (Fraction(0), _vec(2, [(0, 1)]))
    e1 = (Fraction(0), _vec(2, [(1, 1)]))
    with pytest.raises(ValueError, match="associative"):
        FiniteLocalAlgebra([[e1, z], [z, e0]])


def test_coefficient_module_kinds():
    a = make_fat_point(2)
    assert TRIVIAL.dim(a) == 1
    assert REGULAR.dim(a) == 3
    assert TRIVIAL.act(a, 0, 0) == []
    with pytest.raises(ValueError):
        CoefficientModule("bogus")


def test_signed_shuffles_counts_and_signs():
    assert signed_shuffles(1, 1) == [((1, 2), 1), ((2, 1), -1)]
    import math

    for p in range(1, 4):
        for q in range(1, 4):
            shuffles = signed_shuffles(p, q)
            assert len(shuffles) == math.comb(p + q, p)
            perms = [perm for perm, _ in shuffles]
            assert len(set(perms)) == len(perms)
            for perm, _ in shuffles:
                assert list(perm[:p]) == sorted(perm[:p])
                assert list(perm[p:]) == sorted(perm[p:])
    with pytest.raises(ValueError):
        signed_shuffles(0, 2)


def test_degree_one_space_has_no_constraints():
    a = make_fat_point(3)
    assert shuffle_invariant_dim(a, TRIVIAL, 1) == 3
    assert shuffle_invariant_dim(a, REGULAR, 1) == 12


def test_degree_two_invariants_are_the_symmetric_functionals():
    # pins the shuffle-action orientation: symmetric m(m+1)/2, not m(m-1)/2
    for m in range(1, 6):
        a = make_fat_point(m)
        assert shuffle_invariant_dim(a, TRIVIAL, 2) == m * (m + 1) // 2


def test_degree_three_count_separates_the_action_from_its_inverse():
    # both conventions agree in degree 2; c_{2,3} = 2 only for the right one
    assert shuffle_invariant_dim(make_fat_point(2), TRIVIAL, 3) == 2


def constraint_rows(words, k):
    # for every p = 1..k-1 and word w, the dense row of sh_{p,k-p}(w) over words
    index = {w: t for t, w in enumerate(words)}
    rows = []
    for p in range(1, k):
        for w in words:
            row = [0] * len(words)
            for perm, sign in signed_shuffles(p, k - p):
                u = [0] * k
                for t in range(k):
                    u[perm[t] - 1] = w[t]
                row[index[tuple(u)]] += sign
            rows.append(row)
    return rows


def stacked_constraint_dim(n: int, k: int) -> int:
    # direct computation from the tensor definition: stack, for every p, the
    # matrix of sh_{p,k-p} images of all words, then count the cokernel of
    # the transpose, i.e. n^k minus the rank of the stack
    words = list(itertools.product(range(n), repeat=k))
    return len(words) - QMatrix.from_rows(constraint_rows(words, k)).rank()


def test_invariant_dim_matches_direct_stacked_matrix():
    for n, k in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]:
        a = make_fat_point(n)
        direct = stacked_constraint_dim(n, k)
        assert shuffle_invariant_dim(a, TRIVIAL, k) == direct
        assert shuffle_invariant_dim(a, REGULAR, k) == (n + 1) * direct


def test_invariant_dim_agrees_with_moebius_count():
    for m in range(1, 5):
        a = make_fat_point(m)
        for k in range(1, 5):
            if m ** k > DEFAULT_BUDGET:
                continue
            assert shuffle_invariant_dim(a, TRIVIAL, k) == shuffle_dim(m, k)


def test_fat_point_trivial_differential_vanishes():
    for m in (2, 3):
        a = make_fat_point(m)
        for k in (1, 2, 3):
            assert not any(coboundary_matrix(a, TRIVIAL, k).columns)
            assert harrison_dim(a, TRIVIAL, k) == shuffle_invariant_dim(a, TRIVIAL, k)


def test_differential_squares_to_zero_on_sparse_cochains():
    fixtures = [
        (make_fat_point(2), REGULAR),
        (truncated_polynomial_algebra(2), REGULAR),
        (truncated_polynomial_algebra(2), TRIVIAL),
        (etale_quadratic(), REGULAR),
    ]
    for a, module in fixtures:
        acts = _action_table(a, module)
        for k in (1, 2):
            for alpha in range(module.dim(a)):
                for w in range(a.n ** k):
                    once = apply_differential(a, k, {alpha * a.n ** k + w: Fraction(1)}, acts)
                    twice = apply_differential(a, k + 1, once, acts)
                    assert twice == {}


def compose(second, first):
    """Columns of the product second * first of two sparse-column matrices."""
    assert second.cols == first.rows
    out = []
    for col in first.columns:
        image = {}
        for t, x in col.items():
            for i, y in second.columns[t].items():
                image[i] = image.get(i, 0) + x * y
        out.append({i: v for i, v in image.items() if v})
    return out


def test_restricted_differentials_compose_to_zero():
    a = truncated_polynomial_algebra(2)
    for k in (1, 2):
        first = coboundary_matrix(a, REGULAR, k)
        second = coboundary_matrix(a, REGULAR, k + 1)
        assert any(first.columns) and any(second.columns)
        assert not any(compose(second, first))


def test_rank_nullity_on_the_first_differential():
    a = make_fat_point(2)
    dom = CochainSpace(a, REGULAR, 1)
    assert dom.dim == 6
    cob = coboundary_matrix(a, REGULAR, 1)
    assert cob.cols == 6
    assert cob.rank() + cob.kernel_dim() == 6


def test_coords_of_rejects_functionals_outside_the_subspace():
    a = make_fat_point(2)
    space = CochainSpace(a, TRIVIAL, 2)
    # keys alpha * 4 + word: the words (0, 1) and (1, 0) are 1 and 2
    antisymmetric = {1: Fraction(1), 2: Fraction(-1)}
    with pytest.raises(RuntimeError):
        space.coords_of(antisymmetric)
    # a value coordinate the trivial module does not have: alpha = 1, word (0, 0)
    with pytest.raises(RuntimeError):
        space.coords_of({4: Fraction(1)})


def test_functional_coords_roundtrip():
    a = truncated_polynomial_algebra(2)
    for module in (TRIVIAL, REGULAR):
        space = CochainSpace(a, module, 3)
        for idx in range(space.dim):
            coords = space.coords_of(space.functional(idx))
            assert coords == {idx: 1}


def test_unit_coordinate_functionals_are_the_trivial_ones():
    # zero_map_check projects a regular cocycle to the residue field by
    # reading its alpha = 0 coordinates in the trivial space's basis
    for m, k in [(2, 2), (2, 4), (3, 3)]:
        a = make_fat_point(m)
        reg, triv = CochainSpace(a, REGULAR, k), CochainSpace(a, TRIVIAL, k)
        assert reg.dim == (m + 1) * triv.dim
        assert [reg.functional(idx) for idx in range(triv.dim)] == [
            triv.functional(idx) for idx in range(triv.dim)]


def test_fat_point_harrison_with_algebra_coefficients():
    table = {(2, 1): 4, (2, 2): 1, (2, 3): 4, (3, 1): 15, (3, 2): 18}
    for (m, i), want in table.items():
        a = make_fat_point(m)
        assert harrison_dim(a, REGULAR, i + 1) == want
        assert want == fatpoint_tdim(m, i)


def test_hypersurface_harrison_dimensions():
    # Q[x]/(x^n): dim T^1 = n - 1 embeds as Harr^2; Harr^(>=3) vanishes
    for n, t1 in [(3, 2), (4, 3)]:
        a = truncated_polynomial_algebra(n - 1)
        assert harrison_dim(a, REGULAR, 1) == t1
        assert harrison_dim(a, REGULAR, 2) == t1
        assert harrison_dim(a, REGULAR, 3) == 0
        assert harrison_dim(a, REGULAR, 4) == 0


def test_complete_intersection_harrison_dimensions():
    a = two_variable_square_zero()
    assert [harrison_dim(a, REGULAR, k) for k in (1, 2, 3, 4)] == [4, 4, 0, 0]


def test_etale_algebra_has_no_higher_harrison():
    a = etale_quadratic()
    assert [harrison_dim(a, REGULAR, k) for k in (2, 3, 4)] == [0, 0, 0]


def test_hochschild_of_truncated_polynomial_rings():
    # classical: dim HH^k(Q[x]/(x^n), A) = n - 1 for every k >= 1
    dual = truncated_polynomial_algebra(1)
    assert [hochschild_dim(dual, REGULAR, k) for k in (1, 2, 3, 4)] == [1, 1, 1, 1]
    cubic = truncated_polynomial_algebra(2)
    assert [hochschild_dim(cubic, REGULAR, k) for k in (1, 2, 3)] == [2, 2, 2]


def test_hochschild_of_fat_point_trivial_coefficients():
    # differential vanishes, so every reduced cochain survives
    a = make_fat_point(2)
    for k in (1, 2, 3):
        assert hochschild_dim(a, TRIVIAL, k) == 2 ** k


def test_harrison_is_at_most_hochschild():
    fixtures = [
        make_fat_point(2),
        make_fat_point(3),
        truncated_polynomial_algebra(2),
        two_variable_square_zero(),
    ]
    for a in fixtures:
        for k in (1, 2, 3):
            if a.n ** (k + 1) > DEFAULT_BUDGET:
                continue
            assert harrison_dim(a, REGULAR, k) <= hochschild_dim(a, REGULAR, k)


def _within_default_budget(m, k):
    try:
        check_budget(m, k)
    except BudgetError:
        return False
    return True


def test_brute_force_equals_the_closed_form_for_every_fat_point_in_budget():
    pairs = [(m, k) for m in range(1, 40) for k in range(1, 12) if _within_default_budget(m, k)]
    # the ranges reach past the budget in m and in k, so no pair is left out
    assert not _within_default_budget(39, 1) and not _within_default_budget(1, 11)
    checked = 0
    for m, k in pairs:
        algebra = make_fat_point(m)
        assert harrison_dim(algebra, TRIVIAL, k) == shuffle_dim(m, k), (m, k)
        checked += 1
        if (m, k + 1) in pairs:
            assert harrison_dim(algebra, REGULAR, k + 1) == fatpoint_tdim(m, k), (m, k)
            checked += 1
    assert checked == 104


def test_zero_map_check_on_small_fat_points():
    assert zero_map_check(2, 2)
    assert zero_map_check(2, 3)
    assert zero_map_check(3, 2)


def test_zero_map_check_eliminates_the_trivial_image_once(monkeypatch):
    # with the shape kernels cached, one Echelon is the regular kernel and one
    # is the span of the degree-(k-1) image, however many cocycles are tested
    built = []
    init = qlinalg.Echelon.__init__

    def counting_init(self, rows=()):
        built.append(self)
        init(self, rows)

    for m, k in [(2, 2), (2, 5), (3, 2), (3, 3)]:
        assert zero_map_check(m, k)
        monkeypatch.setattr(qlinalg.Echelon, "__init__", counting_init)
        built.clear()
        assert zero_map_check(m, k)
        monkeypatch.undo()
        assert len(built) == 2, (m, k, len(built))


def patch_outgoing(monkeypatch, columns_of):
    """Replace the regular-coefficient outgoing differential of zero_map_check
    by SparseMatrix(rows, cols, columns_of(cols)) of the same shape."""
    real = harrison.coboundary_matrix

    def fake(algebra, module, k, budget=None):
        matrix = real(algebra, module, k, budget)
        if module is not REGULAR:
            return matrix
        return SparseMatrix(matrix.rows, matrix.cols, columns_of(matrix.cols))

    monkeypatch.setattr(harrison, "coboundary_matrix", fake)


def test_zero_map_check_negative_control(monkeypatch):
    # a zero outgoing differential makes every unit-coordinate cochain a
    # cocycle; the residue-field ones do not bound, so the verdict is False
    patch_outgoing(monkeypatch, lambda cols: [{} for _ in range(cols)])
    assert not zero_map_check(2, 2)


def test_zero_map_check_sees_every_residue_field_coordinate(monkeypatch):
    # a kernel spanned by unit coordinate t alone: the check fails exactly
    # when t is one of the unit value's (alpha = 0) functionals
    scalar_dim = CochainSpace(make_fat_point(2), TRIVIAL, 2).scalar_dim
    dim = coboundary_matrix(make_fat_point(2), REGULAR, 2).cols
    assert 0 < scalar_dim < dim
    for t in range(dim):
        patch_outgoing(monkeypatch, lambda cols: [{} if j == t else {j: 1} for j in range(cols)])
        assert zero_map_check(2, 2) == (t >= scalar_dim), t
        monkeypatch.undo()


def test_zero_map_check_rejects_degenerate_arguments():
    with pytest.raises(ValueError):
        zero_map_check(1, 2)
    with pytest.raises(ValueError):
        zero_map_check(2, 1)


def test_budget_is_enforced():
    a = make_fat_point(4)
    with pytest.raises(BudgetError):
        harrison_dim(a, TRIVIAL, 9)
    with pytest.raises(BudgetError):
        hochschild_dim(a, TRIVIAL, 9)
    with pytest.raises(BudgetError):
        CochainSpace(make_fat_point(2), TRIVIAL, 5, budget=16)
    # a raised budget admits the same request
    assert CochainSpace(make_fat_point(2), TRIVIAL, 5, budget=32).dim == 6


def test_degree_must_be_positive():
    a = make_fat_point(2)
    with pytest.raises(ValueError):
        harrison_dim(a, REGULAR, 0)
    with pytest.raises(ValueError):
        hochschild_dim(a, REGULAR, 0)
    with pytest.raises(ValueError):
        CochainSpace(a, REGULAR, 0)


def test_make_fat_point_equals_the_checked_construction():
    for m in (1, 2, 3):
        zero = (Fraction(0), _vec(m))
        checked = FiniteLocalAlgebra([[zero] * m for _ in range(m)])
        fast = make_fat_point(m)
        assert fast.n == checked.n == m
        assert fast.products == checked.products
        assert fast._expansions == checked._expansions


def test_budget_is_checked_before_any_space_is_built():
    # the messages are those of the first degree that is over the cap
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"^word space 2\^11 = 2048 exceeds budget 1500$"):
        harrison_dim(make_fat_point(2), TRIVIAL, 10)
    with pytest.raises(BudgetError, match=r"^word space 3\^5 = 243 exceeds budget 100$"):
        harrison_dim(make_fat_point(3), REGULAR, 5, budget=100)
    with pytest.raises(BudgetError, match=r"^word space 2\^11 = 2048 exceeds budget 1500$"):
        zero_map_check(2, 10)
    with pytest.raises(BudgetError, match=r"^word space for the full degree-10 differential exceeds budget 1500$"):
        hochschild_dim(make_fat_point(2), REGULAR, 10)
    with pytest.raises(BudgetError, match=r"^word space 100\^2 = 10000 exceeds budget 1500$"):
        harrison_dim(make_fat_point(100), TRIVIAL, 1)
    assert time.perf_counter() - start < 1.0


# ----- integer-keyed cochains against the tuple-keyed code they replaced ---

def reference_differential(algebra, module, k, func):
    """The differential on cochains keyed (alpha, word tuple), term by term."""
    out = {}

    def add(key, val):
        cur = out.get(key, 0) + val
        if cur:
            out[key] = cur
        elif key in out:
            del out[key]

    last_sign = (-1) ** (k + 1)
    for (alpha, w), c in func.items():
        for i in range(algebra.n):
            for beta, a in module.act(algebra, i, alpha):
                add((beta, (i,) + w), c * a)
                add((beta, w + (i,)), last_sign * c * a)
        for t, letter in enumerate(w):
            sign = (-1) ** (t + 1)
            for i, j, coef in algebra._expansions[letter]:
                add((alpha, w[:t] + (i, j) + w[t + 1:]), sign * c * coef)
    return out


def base_n(w, n):
    """A word tuple as its base-n integer, first letter most significant."""
    x = 0
    for letter in w:
        x = x * n + letter
    return x


def encode(func, n, k):
    """A tuple-keyed degree-k cochain keyed alpha * n**k + base_n(word) instead."""
    return {alpha * n ** k + base_n(w, n): c for (alpha, w), c in func.items()}


def word_of(x, n, k):
    """The inverse of base_n on words of k letters."""
    return tuple(x // n ** (k - 1 - t) % n for t in range(k))


def decode(func, n, k):
    """The inverse of encode."""
    return {(key // n ** k, word_of(key % n ** k, n, k)): c for key, c in func.items()}


def reference_full_coboundary(algebra, module, k):
    """The Hochschild columns in itertools.product order, numbered by reduce."""
    n = algebra.n
    ncod = n ** (k + 1)
    columns = []
    for alpha in range(module.dim(algebra)):
        for w in itertools.product(range(n), repeat=k):
            image = reference_differential(algebra, module, k, {(alpha, w): 1})
            columns.append({beta * ncod + reduce(lambda t, x: t * n + x, u, 0): val
                            for (beta, u), val in image.items()})
    return SparseMatrix(module.dim(algebra) * ncod, len(columns), columns)


def differential_fixtures():
    algebras = [make_fat_point(m) for m in (1, 2, 3)] + [
        truncated_polynomial_algebra(1), truncated_polynomial_algebra(2), truncated_polynomial_algebra(3),
        two_variable_square_zero(), etale_quadratic(), half_square()]
    for a in algebras:
        for module in (TRIVIAL, REGULAR):
            for k in range(1, 5):
                if k <= 3 or a.n ** (k + 1) <= 256:
                    yield a, module, k


def test_integer_keys_encode_words_in_product_order():
    for n, k in [(1, 3), (2, 3), (3, 2), (4, 2)]:
        words = list(itertools.product(range(n), repeat=k))
        assert [base_n(w, n) for w in words] == list(range(n ** k))
        for alpha in range(2):
            func = {(alpha, w): t + 1 for t, w in enumerate(words)}
            assert decode(encode(func, n, k), n, k) == func


def reference_blocks(n, k):
    """The content blocks with tuple words, relabeled from the shape kernels."""
    out = []
    for content in itertools.combinations_with_replacement(range(n), k):
        counts = Counter(content)
        ordered = sorted(counts, key=lambda a: (-counts[a], a))
        cwords, cbasis, cfree = _shape_kernel(k, tuple(counts[a] for a in ordered))
        words = tuple(tuple(ordered[c] for c in cw) for cw in cwords)
        basis = tuple({words[t]: x for t, x in enumerate(vec) if x} for vec in cbasis)
        out.append((words, basis, tuple(words[t] for t in cfree)))
    return tuple(out)


def test_blocks_match_the_tuple_keyed_reference():
    for n, k in [(1, 3), (2, 4), (3, 3), (3, 4), (4, 3), (5, 2)]:
        ref = reference_blocks(n, k)
        assert len(_blocks(n, k)) == len(ref)
        for (words, basis, free), (rwords, rbasis, rfree) in zip(_blocks(n, k), ref):
            assert [word_of(x, n, k) for x in words] == list(rwords)
            assert [word_of(x, n, k) for x in free] == list(rfree)
            assert [{word_of(x, n, k): c for x, c in vec.items()} for vec in basis] == list(rbasis)


def test_differential_matches_the_tuple_keyed_reference():
    checked = 0
    for a, module, k in differential_fixtures():
        n, acts = a.n, _action_table(a, module)
        # every basis cochain of the full complex, the Hochschild columns
        full = _full_coboundary(a, module, k)
        ref = reference_full_coboundary(a, module, k)
        assert (full.rows, full.cols) == (ref.rows, ref.cols)
        assert full.columns == ref.columns, (a.n, module, k)
        for alpha in range(module.dim(a)):
            for w in itertools.product(range(n), repeat=k):
                image = apply_differential(a, k, {alpha * n ** k + base_n(w, n): 1}, acts)
                assert image == encode(reference_differential(a, module, k, {(alpha, w): 1}), n, k + 1)
        # every invariant basis functional, the Harrison columns before coords_of
        space = CochainSpace(a, module, k)
        for idx in range(space.dim):
            func = space.functional(idx)
            want = encode(reference_differential(a, module, k, decode(func, n, k)), n, k + 1)
            assert apply_differential(a, k, func, acts) == want
        checked += 1
    assert checked == 72


def reference_harrison_dim(algebra, module, k):
    """Harrison columns from the tuple-keyed differential, read off by coords_of."""
    n = algebra.n

    def rank(d):
        dom = CochainSpace(algebra, module, d)
        cod = CochainSpace(algebra, module, d + 1)
        columns = [cod.coords_of(encode(reference_differential(
            algebra, module, d, decode(dom.functional(idx), n, d)), n, d + 1)) for idx in range(dom.dim)]
        return SparseMatrix(cod.dim, dom.dim, columns).rank(), dom.dim

    outgoing, dim = rank(k)
    return dim - outgoing - (0 if k == 1 else rank(k - 1)[0])


def test_dimensions_match_the_tuple_keyed_reference():
    for a, module, k in differential_fixtures():
        ref_out = reference_full_coboundary(a, module, k).kernel_dim()
        ref_in = 0 if k == 1 else reference_full_coboundary(a, module, k - 1).rank()
        assert hochschild_dim(a, module, k) == ref_out - ref_in, (a.n, module, k)
        assert harrison_dim(a, module, k) == reference_harrison_dim(a, module, k), (a.n, module, k)


# ----- the sparse engine against the dense path it replaced ----------------

def dense_shuffle_kernel(letters):
    """(words, basis, free positions) of the shuffle constraints on the
    rearrangements of letters: words from itertools.permutations, one row per
    split p = 1..k-1 and word, reference dense Fraction elimination."""
    words = sorted(set(itertools.permutations(letters)))
    _, free, basis = reference_kernel(constraint_rows(words, len(letters)), len(words))
    return tuple(words), tuple(tuple(v) for v in basis), tuple(free)


def partitions(k, largest=None):
    largest = k if largest is None else largest
    if k == 0:
        yield ()
    for first in range(min(k, largest), 0, -1):
        for rest in partitions(k - first, first):
            yield (first,) + rest


def test_shape_kernel_matches_the_dense_reference():
    # every shape with k <= 5, and every shape on at most 3 letters up to k = 7
    checked = 0
    for k in range(1, 8):
        for shape in partitions(k):
            if k > 5 and len(shape) > 3:
                continue
            letters = [c for c, mult in enumerate(shape) for _ in range(mult)]
            assert _shape_kernel(k, shape) == dense_shuffle_kernel(letters), (k, shape)
            checked += 1
    assert checked == 33


def dense_invariant_basis(n, k):
    """[(free word, functional)] of the invariant scalar k-cochains, one letter
    content at a time, with no relabeling, by the dense reference."""
    out = []
    for content in itertools.combinations_with_replacement(range(n), k):
        words, basis, free = dense_shuffle_kernel(content)
        for vec, f in zip(basis, free):
            out.append((words[f], {w: x for w, x in zip(words, vec) if x}))
    return out


def dense_rank(rows, ncols):
    return len(reference_kernel(rows, ncols)[0])


def dense_harrison_dim(algebra, module, k):
    vdim = module.dim(algebra)

    def coboundary(d):
        # dense matrix of d -> d+1 in the reference bases, read off at free words
        dom = [(alpha, vec) for alpha in range(vdim) for _, vec in dense_invariant_basis(algebra.n, d)]
        cod_free = [(beta, fw) for beta in range(vdim) for fw, _ in dense_invariant_basis(algebra.n, d + 1)]
        images = [reference_differential(algebra, module, d, {(alpha, w): x for w, x in vec.items()})
                  for alpha, vec in dom]
        return [[image.get(key, 0) for image in images] for key in cod_free], len(dom)

    rows, ncols = coboundary(k)
    incoming = 0 if k == 1 else dense_rank(*coboundary(k - 1))
    return ncols - dense_rank(rows, ncols) - incoming


def dense_hochschild_dim(algebra, module, k):
    vdim, n = module.dim(algebra), algebra.n

    def coboundary(d):
        dom = list(itertools.product(range(n), repeat=d))
        cod = {w: t for t, w in enumerate(itertools.product(range(n), repeat=d + 1))}
        rows = [[Fraction(0)] * (vdim * len(dom)) for _ in range(vdim * len(cod))]
        for ci in range(vdim * len(dom)):
            alpha, t = divmod(ci, len(dom))
            image = reference_differential(algebra, module, d, {(alpha, dom[t]): Fraction(1)})
            for (beta, w), val in image.items():
                rows[beta * len(cod) + cod[w]][ci] = val
        return rows, vdim * len(dom)

    rows, ncols = coboundary(k)
    incoming = 0 if k == 1 else dense_rank(*coboundary(k - 1))
    return ncols - dense_rank(rows, ncols) - incoming


@pytest.mark.parametrize("module", [TRIVIAL, REGULAR], ids=["trivial", "regular"])
def test_dimensions_match_the_dense_path(module):
    for m in (1, 2, 3):
        a = make_fat_point(m)
        for k in (1, 2, 3, 4):
            assert harrison_dim(a, module, k) == dense_harrison_dim(a, module, k), (m, k)
            assert hochschild_dim(a, module, k) == dense_hochschild_dim(a, module, k), (m, k)
    for a in (truncated_polynomial_algebra(2), two_variable_square_zero(), etale_quadratic()):
        for k in (1, 2, 3):
            assert harrison_dim(a, module, k) == dense_harrison_dim(a, module, k)
            assert hochschild_dim(a, module, k) == dense_hochschild_dim(a, module, k)


def test_blocks_cover_the_invariant_space_of_the_dense_reference():
    # relabeled shape kernels span the same functionals as per-content kernels
    for n, k in [(2, 4), (3, 3), (3, 4)]:
        ours = [{word_of(x, n, k): c for x, c in vec.items()} for _, basis, _ in _blocks(n, k) for vec in basis]
        theirs = [vec for _, vec in dense_invariant_basis(n, k)]
        assert len(ours) == len(theirs)
        words = list(itertools.product(range(n), repeat=k))
        stacked = [[vec.get(w, 0) for w in words] for vec in ours + theirs]
        assert dense_rank(stacked, len(words)) == len(theirs)


# ----- integral data stays in ints; rational data falls back to Fractions ---

def test_fat_point_cochains_are_plain_ints():
    # a regression to Fraction arithmetic on integral data fails here loudly
    for m in (1, 2, 3):
        a = make_fat_point(m)
        for k in range(1, 8):
            if m ** (k + 1) > DEFAULT_BUDGET:
                break
            for words, basis, _ in _blocks(m, k):
                assert all(type(x) is int for vec in basis for x in vec.values()), (m, k)
            for module in (TRIVIAL, REGULAR):
                space = CochainSpace(a, module, k)
                acts = _action_table(a, module)
                for idx in range(space.dim):
                    image = apply_differential(a, k, space.functional(idx), acts)
                    assert all(type(x) is int for x in image.values()), (m, k, module)
                columns = coboundary_matrix(a, module, k).columns
                assert all(type(x) is int for col in columns for x in col.values()), (m, k, module)
    for k in range(1, 8):
        for shape in partitions(k):
            if len(shape) <= 3:
                _, basis, _ = _shape_kernel(k, shape)
                assert all(type(x) is int for vec in basis for x in vec), (k, shape)


def half_square() -> FiniteLocalAlgebra:
    """e_0 e_0 = (1/2) e_1, every other product 0: a rational structure constant."""
    z = (0, _vec(2))
    return FiniteLocalAlgebra([[(0, (0, Fraction(1, 2))), z], [z, z]])


def test_rational_structure_constants_fall_back_to_fractions():
    rational = half_square()
    # e_1 -> 2 e_1 rescales it to e_0 e_0 = e_1, an isomorphic integral algebra
    integral = truncated_polynomial_algebra(2)
    assert rational.product(0, 0) == (0, (0, Fraction(1, 2)))
    assert integral.product(0, 0) == (0, (0, 1))
    assert type(integral.product(0, 0)[1][1]) is int
    for module in (TRIVIAL, REGULAR):
        for k in range(1, 5):
            assert harrison_dim(rational, module, k) == harrison_dim(integral, module, k), (module, k)
            assert hochschild_dim(rational, module, k) == hochschild_dim(integral, module, k), (module, k)
    columns = coboundary_matrix(rational, REGULAR, 1).columns
    assert any(type(x) is Fraction for col in columns for x in col.values())


def test_algebra_stores_integral_constants_as_ints_and_rejects_inexact_ones():
    a = FiniteLocalAlgebra([[(Fraction(0), (Fraction(4, 2),))]])
    scalar, linear = a.product(0, 0)
    assert (type(scalar), type(linear[0])) == (int, int)
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            FiniteLocalAlgebra([[(0, (bad,))]])


# ----- Harrison's shuffle count is held to the budget ----------------------

def test_one_letter_shuffle_count_is_held_to_the_budget():
    # 1^k = 1 always fits, but each word has about 2^(k-1) signed shuffles
    a = make_fat_point(1)
    start = time.perf_counter()
    for k in (30, 1000, 20000):
        with pytest.raises(BudgetError, match=r"^shuffle count 2\^%d per word exceeds budget 1500$" % (k - 1)):
            harrison_dim(a, TRIVIAL, k)
    with pytest.raises(BudgetError, match=r"^shuffle count 2\^11 per word exceeds budget 1500$"):
        harrison_dim(a, REGULAR, 11)  # degree 12 is touched too
    with pytest.raises(BudgetError, match=r"^shuffle count 2\^4 per word exceeds budget 15$"):
        CochainSpace(a, TRIVIAL, 5, budget=15)
    assert time.perf_counter() - start < 1.0
    assert CochainSpace(a, TRIVIAL, 5, budget=16).dim == 0
    # Hochschild enumerates no shuffles, so only its word space is checked
    assert hochschild_dim(a, TRIVIAL, 12) == hochschild_dim(a, TRIVIAL, 2)
    for i in range(1, 7):
        assert harrison_dim(a, REGULAR, i + 1) == fatpoint_tdim(1, i), i
