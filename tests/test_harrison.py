"""Brute-force Harrison/Hochschild engine against independent fixtures.

The anchor algebras all have cohomology known by other means: truncated
polynomial rings Q[x]/(x^n) are hypersurfaces, Q[x,y]/(x^2,y^2) is a complete
intersection, Q[x]/(x^2-1) is etale, and fat points have the closed-form
counting answers from the series module.
"""

from __future__ import annotations

import itertools
import random
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
    signed_shuffles,
    zero_map_check,
    _action_table,
    _blocks,
    _full_coboundary,
    _shape_kernel,
)
from ratsurf import harrison, qlinalg
from ratsurf.cli import main
from ratsurf.qlinalg import Echelon, SparseMatrix
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
    assert CochainSpace(a, TRIVIAL, 1).dim == 3
    assert CochainSpace(a, REGULAR, 1).dim == 12


def test_degree_two_invariants_are_the_symmetric_functionals():
    # pins the shuffle-action orientation: symmetric m(m+1)/2, not m(m-1)/2
    for m in range(1, 6):
        a = make_fat_point(m)
        assert CochainSpace(a, TRIVIAL, 2).dim == m * (m + 1) // 2


def test_degree_three_count_separates_the_action_from_its_inverse():
    # both conventions agree in degree 2; c_{2,3} = 2 only for the right one
    assert CochainSpace(make_fat_point(2), TRIVIAL, 3).dim == 2


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
    return len(words) - Echelon(constraint_rows(words, k)).rank


def test_invariant_dim_matches_direct_stacked_matrix():
    for n, k in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]:
        a = make_fat_point(n)
        direct = stacked_constraint_dim(n, k)
        assert CochainSpace(a, TRIVIAL, k).dim == direct
        assert CochainSpace(a, REGULAR, k).dim == (n + 1) * direct


def test_invariant_dim_agrees_with_moebius_count():
    for m in range(1, 5):
        a = make_fat_point(m)
        for k in range(1, 5):
            if m ** k > DEFAULT_BUDGET:
                continue
            assert CochainSpace(a, TRIVIAL, k).dim == shuffle_dim(m, k)


def test_fat_point_trivial_differential_vanishes():
    for m in (2, 3):
        a = make_fat_point(m)
        for k in (1, 2, 3):
            assert not any(coboundary_matrix(a, TRIVIAL, k).columns)
            assert harrison_dim(a, TRIVIAL, k) == CochainSpace(a, TRIVIAL, k).dim


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
    assert cob.rank() + len(cob.kernel_basis()) == 6


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


@pytest.mark.parametrize("budget", [0, -3])
def test_a_budget_below_one_is_refused_alike_by_every_entry_point(budget):
    a = make_fat_point(2)
    calls = [
        lambda: harrison_dim(a, TRIVIAL, 2, budget=budget),
        lambda: hochschild_dim(a, TRIVIAL, 2, budget=budget),
        lambda: check_budget(2, 2, budget, hochschild=True),
        lambda: zero_map_check(2, 2, budget=budget),
        lambda: CochainSpace(a, TRIVIAL, 2, budget=budget),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^budget must be positive$"):
            call()


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
        full = reference_full_coboundary(a, module, k)
        ref_out = full.cols - full.rank()
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


# ----- free-prefix constraint rows against every row -----------------------

def all_rows_shape_kernel(k, shape):
    """_shape_kernel with the row sh(w[:p], w[p:]) of every word for each
    split p <= k/2, whatever its prefix: the construction it replaced."""
    words = list(harrison._multiset_words(list(shape)))
    index = {w: t for t, w in enumerate(words)}
    constraints = qlinalg.Echelon()
    for p in range(1, k // 2 + 1):
        movers = harrison._movers(p, k)
        for w in words:
            row = {}
            for take, sign in movers:
                j = index[take(w)]
                row[j] = row.get(j, 0) + sign
            constraints.add(row)
    n = len(words)
    basis = tuple(tuple(v.get(t, 0) for t in range(n)) for v in constraints.kernel_basis(n))
    return tuple(words), basis, tuple(constraints.free_columns(n))


def default_budget_shapes(max_letters=None):
    """Every (k, shape) whose kernel a default-budget job builds: harrison_dim
    on m letters in degree k touches the shapes of at most m letters in
    degrees k and k + 1."""
    out = set()
    for m in range(1, 40 if max_letters is None else max_letters + 1):
        for k in range(1, 12):
            if _within_default_budget(m, k):
                out |= {(d, s) for d in (k, k + 1) for s in partitions(d) if len(s) <= m}
    return sorted(out)


def test_shape_kernel_matches_the_all_rows_reference():
    shapes = default_budget_shapes()
    assert len(shapes) == 45 and (11, (11,)) in shapes and (4, (1,) * 4) in shapes
    for k, shape in shapes:
        assert _shape_kernel(k, shape) == all_rows_shape_kernel(k, shape), (k, shape)


def test_free_prefix_rows_are_fewer(monkeypatch):
    # k = 9, shape (5, 4): 4 splits of 126 words give 504 rows, 277 of them free-prefix
    harrison._shape_kernel.cache_clear()
    for k in range(1, 5):
        for shape in partitions(k):
            _shape_kernel(k, shape)
    added = []
    real_add = qlinalg.Echelon.add
    monkeypatch.setattr(qlinalg.Echelon, "add", lambda self, row: added.append(row) or real_add(self, row))
    assert _shape_kernel(9, (5, 4)) == all_rows_shape_kernel(9, (5, 4))
    assert len(added) == 277 + 504


# ----- an independent count: the super-Lyndon words of each shape ----------

def lyndon_words(letters, length):
    """The Lyndon words of length at most `length` on letters 0..letters-1,
    in lexicographic order (Duval 1983)."""
    w = [-1]
    while w:
        w[-1] += 1
        yield tuple(w)
        period = len(w)
        while len(w) < length:
            w.append(w[len(w) - period])
        while w and w[-1] == letters - 1:
            w.pop()


def super_lyndon_words(k, shape):
    """The leading words of a basis of the free Lie superalgebra on odd
    generators in the letter content `shape` (letter c shape[c] times): the
    Lyndon words w of that content, for the brackets P_w, and uu for each
    odd-length Lyndon word u of half of it, for the squares [P_u, P_u]."""
    def content(w):
        counts = Counter(w)
        return tuple(counts[c] for c in range(len(shape)))

    words = list(lyndon_words(len(shape), k))
    out = [w for w in words if len(w) == k and content(w) == shape]
    if k % 4 == 2 and all(c % 2 == 0 for c in shape):
        half = tuple(c // 2 for c in shape)
        out += [w + w for w in words if len(w) == k // 2 and content(w) == half]
    return out


def super_lyndon_count(k, shape):
    """Dimension of the free Lie superalgebra on odd generators in the content `shape`."""
    return len(super_lyndon_words(k, shape))


def test_lyndon_words_by_duval():
    assert list(lyndon_words(2, 4)) == [(0,), (0, 0, 0, 1), (0, 0, 1), (0, 0, 1, 1), (0, 1), (0, 1, 1),
                                         (0, 1, 1, 1), (1,)]
    # Witt's formula: 3 letters, length 6 gives (3^6 - 3^3 - 3^2 + 3) / 6 = 116
    assert sum(1 for w in lyndon_words(3, 6) if len(w) == 6) == 116


def test_shape_kernel_dimension_is_the_super_lyndon_count():
    shapes = default_budget_shapes(max_letters=3)
    assert (11, (11,)) in shapes and (10, (5, 5)) in shapes and (6, (2, 2, 2)) in shapes
    for k, shape in shapes:
        assert len(_shape_kernel(k, shape)[1]) == super_lyndon_count(k, shape), (k, shape)


def concatenate(a, b):
    """The product of two polynomials {word tuple: coefficient} in noncommuting letters."""
    out = Counter()
    for u, x in a.items():
        for v, y in b.items():
            out[u + v] += x * y
    return out


def bracket_vector(w):
    """The super-Lie polynomial whose leading word is w, all letters odd.

    A Lyndon word w of two or more letters gives its standard bracketing
    P_w = [P_u, P_v], where v is the longest proper suffix of w that is a
    Lyndon word (Reutenauer 1993, ch. 5), and [a, b] = ab - (-1)^(|a||b|) ba
    for a and b of lengths |a| and |b|; a square uu gives [P_u, P_u] = 2 P_u P_u.
    """
    if len(w) == 1:
        return {w: 1}
    half = len(w) // 2
    if w[:half] == w[half:]:
        square = concatenate(bracket_vector(w[:half]), bracket_vector(w[half:]))
        return {x: 2 * c for x, c in square.items()}
    i = next(i for i in range(1, len(w)) if all(w[i:] < w[j:] for j in range(i + 1, len(w))))
    u, v = bracket_vector(w[:i]), bracket_vector(w[i:])
    out = concatenate(u, v)
    out.subtract({x: (-1) ** (i * (len(w) - i)) * c for x, c in concatenate(v, u).items()})
    return {x: c for x, c in out.items() if c}


def test_bracket_vectors_are_a_triangular_basis_of_the_shape_kernel():
    # Ree's theorem, for odd letters: a Lie polynomial is killed by every
    # shuffle product. The bracket vectors are triangular in their leading
    # words, so independent; they lie in the span of the kernel basis and are
    # as many as its vectors, so they are a basis of the kernel.
    pool = [(k, shape) for k, shape in default_budget_shapes(max_letters=3)
            if 2 ** k * len(_shape_kernel(k, shape)[0]) <= 4000]
    shapes = [(2, (2,)), (6, (2, 2, 2)), (6, (4, 2))] + random.Random(18).sample(pool, 10)
    for k, shape in shapes:
        words, basis, free = _shape_kernel(k, shape)
        vectors = [(w, bracket_vector(w)) for w in super_lyndon_words(k, shape)]
        assert len(vectors) == len(basis), (k, shape)
        rows = [[(j, r) for j, r in enumerate(row) if r] for row in constraint_rows(words, k)]
        for w, vec in vectors:
            assert min(vec) == w and vec[w], (k, shape, w)
            assert set(vec) <= set(words)
            entries = [vec.get(x, 0) for x in words]
            assert not any(sum(r * entries[j] for j, r in row) for row in rows), (k, shape, w)
            rebuilt = [sum(vec.get(words[f], 0) * b[j] for f, b in zip(free, basis))
                       for j in range(len(words))]
            assert rebuilt == entries, (k, shape, w)


# ----- each differential's rank is computed once per process ---------------

def cold_rank_cache():
    harrison._ranks.clear()


def test_dimensions_do_not_depend_on_the_call_order():
    algebras = [make_fat_point(1), make_fat_point(2), make_fat_point(3),
                truncated_polynomial_algebra(3), two_variable_square_zero()]
    calls = [(dim, a, module, k) for dim in (harrison_dim, hochschild_dim)
             for a in range(len(algebras)) for module in (TRIVIAL, REGULAR)
             for k in range(1, 6) if algebras[a].n ** (k + 1) <= 250]

    def answer(call):
        dim, a, module, k = call
        return dim(algebras[a], module, k)

    want = {}
    for call in calls:
        cold_rank_cache()
        want[call] = answer(call)
    shuffled = calls[:]
    random.Random(15).shuffle(shuffled)
    for order in (calls, calls[::-1], shuffled):
        cold_rank_cache()
        assert {call: answer(call) for call in order} == want


def test_a_cached_rank_does_not_lift_the_budget(capsys):
    cold_rank_cache()
    assert main(["oracle", "--m", "3", "--k", "6"]) == 5
    refused = capsys.readouterr().out
    assert refused == "word space 3^7 = 2187 exceeds budget 1500\nstatus: budget-exceeded\n"
    fat = make_fat_point(3)
    assert harrison_dim(fat, TRIVIAL, 6, budget=5000) == shuffle_dim(3, 6)
    assert hochschild_dim(fat, TRIVIAL, 6, budget=5000) == 3 ** 6
    assert (fat.products, "trivial", False, 6) in harrison._ranks
    with pytest.raises(BudgetError, match=r"^word space 3\^7 = 2187 exceeds budget 1500$"):
        harrison_dim(fat, TRIVIAL, 6)
    with pytest.raises(BudgetError, match=r"^word space for the full degree-6 differential exceeds budget 1500$"):
        hochschild_dim(fat, TRIVIAL, 6)
    assert main(["oracle", "--m", "3", "--k", "6"]) == 5
    assert capsys.readouterr().out == refused


def test_equal_structure_constants_share_one_rank(monkeypatch):
    built = []
    real = harrison.coboundary_matrix

    def counting(algebra, module, k, budget=None):
        built.append(k)
        return real(algebra, module, k, budget)

    monkeypatch.setattr(harrison, "coboundary_matrix", counting)
    cold_rank_cache()
    fat = make_fat_point(2)  # kept alive, so the checked algebra cannot reuse its id
    want = harrison_dim(fat, REGULAR, 3)
    assert sorted(built) == [2, 3] and len(harrison._ranks) == 2
    zero = (Fraction(0), _vec(2))
    checked = FiniteLocalAlgebra([[zero, zero], [zero, zero]])
    assert harrison_dim(checked, REGULAR, 3) == want
    assert sorted(built) == [2, 3] and len(harrison._ranks) == 2
    # other constants on as many letters get ranks of their own
    harrison_dim(truncated_polynomial_algebra(2), REGULAR, 3)
    assert sorted(built) == [2, 2, 3, 3] and len(harrison._ranks) == 4


# ----- a differential that is zero by construction builds nothing ----------

def test_silent_coordinates_are_those_with_no_action_and_no_linear_part():
    products = [truncated_polynomial_algebra(2), truncated_polynomial_algebra(3), two_variable_square_zero()]
    cases = ([(make_fat_point(m), TRIVIAL, {0}) for m in (1, 2, 3)]
             + [(make_fat_point(m), REGULAR, set(range(1, m + 1))) for m in (1, 2, 3)]
             + [(a, module, set()) for a in products for module in (TRIVIAL, REGULAR)]
             + [(etale_quadratic(), TRIVIAL, {0}), (etale_quadratic(), REGULAR, set())])
    for a, module, want in cases:
        assert harrison._silent(a, _action_table(a, module)) == want, (a.products, module)


def test_skipped_columns_equal_the_computed_ones():
    algebras = [make_fat_point(m) for m in (1, 2, 3)] + [
        truncated_polynomial_algebra(2), truncated_polynomial_algebra(3), two_variable_square_zero(),
        etale_quadratic()]
    for a, module, k in itertools.product(algebras, (TRIVIAL, REGULAR), (1, 2, 3)):
        acts = _action_table(a, module)
        dom, cod = CochainSpace(a, module, k), CochainSpace(a, module, k + 1)
        harrison_columns = [cod.coords_of(apply_differential(a, k, dom.functional(idx), acts))
                            for idx in range(dom.dim)]
        assert coboundary_matrix(a, module, k).columns == harrison_columns, (a.n, module, k)
        ndom = module.dim(a) * a.n ** k
        full_columns = [apply_differential(a, k, {key: 1}, acts) for key in range(ndom)]
        assert _full_coboundary(a, module, k).columns == full_columns, (a.n, module, k)
        for hochschild, rows, columns in ((False, cod.dim, harrison_columns),
                                          (True, module.dim(a) * a.n ** (k + 1), full_columns)):
            cold_rank_cache()
            want = SparseMatrix(rows, len(columns), columns).rank()
            assert harrison._rank(a, module, hochschild, k, None) == want, (a.n, module, hochschild, k)


def test_a_zero_differential_builds_no_codomain(monkeypatch):
    cobounds, spaces, blocks, applied = [], [], [], []
    real_cob, real_init = harrison.coboundary_matrix, CochainSpace.__init__
    real_blocks, real_apply = harrison._blocks, harrison.apply_differential

    def counting_init(self, algebra, module, k, budget=None):
        spaces.append(k)
        real_init(self, algebra, module, k, budget)

    def counting_cob(algebra, module, k, budget=None):
        cobounds.append(k)
        return real_cob(algebra, module, k, budget)

    monkeypatch.setattr(harrison, "coboundary_matrix", counting_cob)
    monkeypatch.setattr(CochainSpace, "__init__", counting_init)
    monkeypatch.setattr(harrison, "_blocks", lambda n, k: blocks.append(k) or real_blocks(n, k))
    monkeypatch.setattr(harrison, "apply_differential",
                        lambda algebra, k, func, acts: applied.append(k) or real_apply(algebra, k, func, acts))
    cold_rank_cache()
    fat = make_fat_point(2)
    # trivial coefficients: both ranks are 0, and only the degree-k kernels are built
    assert harrison_dim(fat, TRIVIAL, 6) == shuffle_dim(2, 6)
    assert (cobounds, spaces, blocks) == ([], [], [6])
    assert hochschild_dim(fat, TRIVIAL, 6) == 2 ** 6 and applied == []
    # regular coefficients: each map is built, but only the unit coordinate's columns are applied
    assert harrison_dim(fat, REGULAR, 3) == fatpoint_tdim(2, 2)
    assert sorted(cobounds) == [2, 3] and sorted(spaces) == [2, 3, 3, 4]
    assert sorted(applied) == [2] * shuffle_dim(2, 2) + [3] * shuffle_dim(2, 3)
    want = dense_hochschild_dim(fat, REGULAR, 3)
    del applied[:]
    assert hochschild_dim(fat, REGULAR, 3) == want
    assert sorted(applied) == [2] * 2 ** 2 + [3] * 2 ** 3
