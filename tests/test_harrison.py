"""Brute-force Harrison/Hochschild engine against independent fixtures.

The engine computes fat points, which have the closed-form counting answers
from the series module. Its general reference lives here: an algebra given
by structure constants (Algebra) and a tuple-keyed differential on it. The
engine must equal that reference on the fat point's zero table, and the
reference is anchored on algebras whose cohomology is known by other means:
truncated polynomial rings Q[x]/(x^n) are hypersurfaces, Q[x,y]/(x^2,y^2) is
a complete intersection, and Q[x]/(x^2-1) is etale.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from operator import itemgetter

import pytest

from ratsurf.harrison import (
    BudgetError,
    CochainSpace,
    DEFAULT_BUDGET,
    coboundary_matrix,
    harrison_dim,
    hochschild_dim,
    zero_map_check,
    _blocks,
    _image,
    _shape_kernel,
)
from ratsurf import harrison, qlinalg
from ratsurf.cli import main
from ratsurf.qlinalg import Echelon, SparseMatrix
from ratsurf.series import fatpoint_tdim, shuffle_dim
from test_qlinalg import reference_kernel, row_dicts


def _vec(n, entries=()):
    out = [Fraction(0)] * n
    for v, c in entries:
        out[v] = Fraction(c)
    return tuple(out)


class Algebra:
    """Q*1 (+) span(e_0..e_(n-1)) from its structure constants: the tests' general reference.

    products[i][j] = (scalar, linear) encodes e_i e_j = scalar * 1 +
    sum_v linear[v] e_v. Nothing is checked or normalised. The reference
    functions take it with a coefficient name, "trivial" or "regular", as the
    engine takes m with one; value_dim gives the coefficients' dimension.
    """

    def __init__(self, products) -> None:
        self.n = n = len(products)
        self.products = products
        # expansions[v]: each ordered product e_i e_j with a term along e_v, and its weight
        self.expansions = [[(i, j, products[i][j][1][v]) for i in range(n) for j in range(n)
                            if products[i][j][1][v]] for v in range(n)]
        # regular[i][alpha]: e_i times the regular module's basis vector alpha,
        # whose index 0 is the unit and index v + 1 is e_v
        self.regular = [[[(i + 1, 1)]] + [[(0, scalar)] * (scalar != 0)
                                          + [(v + 1, c) for v, c in enumerate(linear) if c]
                                          for scalar, linear in row]
                        for i, row in enumerate(products)]

    def act(self, kind: str, i: int, alpha: int) -> list:
        """e_i . (value basis vector alpha) as [(beta, coefficient)]."""
        return [] if kind == "trivial" else self.regular[i][alpha]


def value_dim(algebra: Algebra, kind: str) -> int:
    """The dimension of the coefficients: 1 for the residue field, n + 1 for the algebra."""
    return 1 if kind == "trivial" else algebra.n + 1


def zero_table(m: int) -> Algebra:
    """The m-dimensional fat point as a reference algebra: the m x m zero table."""
    return Algebra([[(0, (0,) * m)] * m for _ in range(m)])


def truncated_polynomial_algebra(n: int) -> Algebra:
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
    return Algebra(prods)


def two_variable_square_zero() -> Algebra:
    # Q[x,y]/(x^2, y^2) with basis e_0 = x, e_1 = y, e_2 = xy
    z = (Fraction(0), _vec(3))
    xy = (Fraction(0), _vec(3, [(2, 1)]))
    return Algebra([[z, xy, z], [xy, z, z], [z, z, z]])


def etale_quadratic() -> Algebra:
    # Q[x]/(x^2 - 1): the product of the basis vector with itself is the unit
    return Algebra([[(Fraction(1), _vec(1))]])


def test_the_fat_point_squares_to_zero():
    # e_i . 1 = e_i is the only action, since e_i e_j = 0: the unit-valued
    # cochain dual to e_j maps to e_i at (e_i, e_j) and at (e_j, e_i)
    for m in (1, 3):
        for j in range(m):
            want = Counter()
            for i in range(m):
                want[(i + 1) * m ** 2 + i * m + j] += 1
                want[(i + 1) * m ** 2 + j * m + i] += 1
            assert _image(m, 1, {j: 1}) == dict(want)
        for coeffs, nonempty in (("trivial", 0), ("regular", m)):
            assert sum(map(bool, full_coboundary(m, coeffs, 1).columns)) == nonempty
    with pytest.raises(ValueError, match="^need m >= 1$"):
        harrison_dim(0, "trivial", 1)


NON_INTS = [True, False, 2.0, 2.5, "2", Fraction(2)]


def every_entry_point(k, budget, m=2, coeffs="trivial"):
    """Each library call that takes m, a degree k and a budget, by default on the
    2-dimensional fat point; the first four take the coefficient name coeffs too."""
    return [
        lambda: harrison_dim(m, coeffs, k, budget=budget),
        lambda: hochschild_dim(m, coeffs, k, budget=budget),
        lambda: CochainSpace(m, coeffs, k, budget=budget),
        lambda: coboundary_matrix(m, coeffs, k, budget=budget),
        lambda: zero_map_check(m, k, budget=budget),
    ]


@pytest.mark.parametrize("bad", NON_INTS, ids=repr)
def test_a_bool_or_non_int_m_is_refused(bad):
    # True compares as 1, so unchecked it would compute the 1-dimensional fat point
    for call in every_entry_point(2, None, m=bad):
        with pytest.raises(TypeError, match="^m must be an int, not "):
            call()


def test_an_m_below_one_is_refused_by_every_entry_point():
    # zero_map_check needs two letters, so it says so
    for m in (0, -3):
        calls = every_entry_point(2, None, m=m)
        for call in calls[:-1]:
            with pytest.raises(ValueError, match="^need m >= 1$"):
                call()
        with pytest.raises(ValueError, match="^need m >= 2$"):
            calls[-1]()


@pytest.mark.parametrize("bad", ["bogus", "Regular", "", None, 1], ids=repr)
def test_a_coefficient_name_other_than_trivial_or_regular_is_refused_by_every_entry_point(bad):
    # the refusal comes before the budget check: degree 50 is far over the budget
    for call in every_entry_point(50, None, coeffs=bad)[:4]:
        with pytest.raises(ValueError, match="^coeffs must be 'trivial' or 'regular', not "):
            call()


def test_the_arguments_are_refused_in_order_m_coeffs_k_budget():
    for call in (harrison_dim, hochschild_dim, CochainSpace, coboundary_matrix):
        with pytest.raises(TypeError, match="^m must be an int, not True$"):
            call(True, "bogus", True, True)
        with pytest.raises(ValueError, match="^need m >= 1$"):
            call(0, "bogus", True, True)
        with pytest.raises(ValueError, match="^coeffs must be"):
            call(2, "bogus", True, True)
        with pytest.raises(TypeError, match="^k must be an int, not True$"):
            call(2, "regular", True, True)
        with pytest.raises(TypeError, match="^budget must be an int, not True$"):
            call(2, "regular", 2, True)
    # and every argument before the budget: zero_map_check's m first
    with pytest.raises(ValueError, match="^need m >= 2$"):
        zero_map_check(1, 50)


@pytest.mark.parametrize("bad", NON_INTS, ids=repr)
def test_a_bool_or_non_int_degree_is_refused_by_every_entry_point(bad):
    # unchecked, k = True would compute degree 1
    for call in every_entry_point(bad, None):
        with pytest.raises(TypeError, match="^k must be an int, not "):
            call()


@pytest.mark.parametrize("bad", NON_INTS, ids=repr)
def test_a_bool_or_non_int_budget_is_refused_by_every_entry_point(bad):
    # unchecked, budget=True would cap the word space at 1, and budget=2.5 would
    # fail inside the check with an AttributeError
    for call in every_entry_point(2, bad):
        with pytest.raises(TypeError, match="^budget must be an int, not "):
            call()


def test_coefficient_kinds():
    # the coefficients' dimension: the residue field's 1, the algebra's m + 1
    assert CochainSpace(2, "trivial", 1).value_dim == 1
    assert CochainSpace(2, "regular", 1).value_dim == 3
    with pytest.raises(ValueError):
        harrison_dim(2, "bogus", 1)


def signed_shuffles(p: int, q: int) -> list:
    """All (p,q)-shuffles of {1..p+q} as (permutation tuple, sign).

    The tuple s satisfies s[t-1] = s(t); there are C(p+q, p) of them. Each s(t)
    of the first block exceeds exactly s(t) - t entries of the second, so the
    sign is (-1)^sum(s(t) - t) over t = 1..p.
    """
    total = p + q
    out = []
    for first in itertools.combinations(range(1, total + 1), p):
        chosen = set(first)
        rest = tuple(x for x in range(1, total + 1) if x not in chosen)
        out.append((first + rest, -1 if (sum(first) - p * (p + 1) // 2) % 2 else 1))
    return out


@lru_cache(maxsize=None)
def _movers(p: int, k: int) -> tuple:
    """The signed (p, k-p)-shuffles as (take, sign), shared by every shape of degree k.

    take(w) is w shuffled by s: the letters of w sorted by their target slots.
    """
    return tuple((itemgetter(*sorted(range(k), key=perm.__getitem__)), sign)
                 for perm, sign in signed_shuffles(p, k - p))


def inversion_sign(perm):
    """(-1)^(number of pairs a < b with perm[a] > perm[b])."""
    inversions = sum(x > y for a, x in enumerate(perm) for y in perm[a + 1:])
    return -1 if inversions % 2 else 1


def test_signed_shuffles_counts_and_signs():
    assert signed_shuffles(1, 1) == [((1, 2), 1), ((2, 1), -1)]
    import math

    for p in range(1, 10):
        for q in range(1, 11 - p):
            shuffles = signed_shuffles(p, q)
            assert len(shuffles) == math.comb(p + q, p)
            perms = [perm for perm, _ in shuffles]
            assert len(set(perms)) == len(perms)
            for perm, sign in shuffles:
                assert list(perm[:p]) == sorted(perm[:p])
                assert list(perm[p:]) == sorted(perm[p:])
                assert sign == inversion_sign(perm), (p, q, perm)


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
    for n, k in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2)]:
        direct = stacked_constraint_dim(n, k)
        assert CochainSpace(n, "trivial", k).dim == direct
        assert CochainSpace(n, "regular", k).dim == (n + 1) * direct


def test_invariant_dim_agrees_with_moebius_count():
    # k = 2 pins the shuffle-action orientation, symmetric m(m+1)/2 and not
    # m(m-1)/2; (2, 3) gives 2 only for the action, not for its inverse
    for m in range(1, 6):
        for k in range(1, 5):
            if m ** k > DEFAULT_BUDGET:
                continue
            assert CochainSpace(m, "trivial", k).dim == shuffle_dim(m, k)


def test_differential_squares_to_zero_on_sparse_cochains():
    fixtures = [
        (zero_table(2), "regular"),
        (truncated_polynomial_algebra(2), "regular"),
        (truncated_polynomial_algebra(2), "trivial"),
        (etale_quadratic(), "regular"),
    ]
    for a, coeffs in fixtures:
        for k in (1, 2):
            for alpha in range(value_dim(a, coeffs)):
                for w in itertools.product(range(a.n), repeat=k):
                    once = reference_differential(a, coeffs, k, {(alpha, w): Fraction(1)})
                    assert reference_differential(a, coeffs, k + 1, once) == {}, (a.products, coeffs, k)
    for k in (1, 2):
        first, second = full_coboundary(2, "regular", k), full_coboundary(2, "regular", k + 1)
        assert any(first.columns) and not any(compose(second, first))


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
    for a, coboundary in ((truncated_polynomial_algebra(2), reference_coboundary),
                          (2, coboundary_matrix)):
        for k in (1, 2):
            first = coboundary(a, "regular", k)
            second = coboundary(a, "regular", k + 1)
            assert any(first.columns) and any(second.columns)
            assert not any(compose(second, first))


def test_coords_of_rejects_functionals_outside_the_subspace():
    space = CochainSpace(2, "trivial", 2)
    # keys alpha * 4 + word: the words (0, 1) and (1, 0) are 1 and 2
    antisymmetric = {1: Fraction(1), 2: Fraction(-1)}
    with pytest.raises(RuntimeError):
        space.coords_of(antisymmetric)
    # a value coordinate the trivial module does not have: alpha = 1, word (0, 0)
    with pytest.raises(RuntimeError):
        space.coords_of({4: Fraction(1)})


def functional(space, idx):
    """Basis cochain idx of a CochainSpace, keyed alpha * n**k + word."""
    alpha, t = divmod(idx, space.scalar_dim)
    return {alpha * space._words + w: c for w, c in space._vectors[t].items()}


def test_functional_coords_roundtrip():
    for coeffs in ("trivial", "regular"):
        space = CochainSpace(2, coeffs, 3)
        for idx in range(space.dim):
            coords = space.coords_of(functional(space, idx))
            assert coords == {idx: 1}


def test_unit_coordinate_functionals_are_the_trivial_ones():
    # the zero-map lemma projects a regular cocycle to the residue field by
    # reading its coordinates idx < scalar_dim as the trivial space's
    for m, k in [(2, 2), (2, 4), (3, 3)]:
        reg, triv = CochainSpace(m, "regular", k), CochainSpace(m, "trivial", k)
        assert reg.dim == (m + 1) * triv.dim and reg.scalar_dim == triv.dim
        assert [functional(reg, idx) for idx in range(triv.dim)] == [
            functional(triv, idx) for idx in range(triv.dim)]


def unsigned_image(n, k, vec):
    """_image with +c on the suffix term, whose sign is (-1)^(k+1): right for
    odd k only, and for even k an image outside the shuffle-invariant subspace."""
    out = Counter()
    for w, c in vec.items():
        for i in range(n):
            out[(i + 1) * n ** (k + 1) + i * n ** k + w] += c
            out[(i + 1) * n ** (k + 1) + w * n + i] += c
    return {u: v for u, v in out.items() if v}


def test_coboundary_columns_go_through_the_invariance_check(monkeypatch):
    # an image outside the shuffle-invariant subspace raises instead of becoming a column
    assert unsigned_image(3, 1, {1: 1}) == _image(3, 1, {1: 1})
    monkeypatch.setattr(harrison, "_image", unsigned_image)
    assert any(coboundary_matrix(2, "regular", 1).columns)
    for m in (2, 3):
        with pytest.raises(RuntimeError, match="does not lie in the shuffle-invariant subspace"):
            coboundary_matrix(m, "regular", 2)


def test_block_ranks_go_through_the_invariance_check(monkeypatch):
    # the same for the block ranks that harrison_dim sums; d_1 still ranks
    want = harrison_dim(2, "regular", 1)
    monkeypatch.setattr(harrison, "_image", unsigned_image)
    try:
        cold_rank_cache()
        assert harrison_dim(2, "regular", 1) == want
        for m in (2, 3):
            with pytest.raises(RuntimeError, match="does not lie in the shuffle-invariant subspace"):
                harrison_dim(m, "regular", 3)
    finally:
        monkeypatch.undo()
        cold_rank_cache()  # drop any block rank the unsigned image computed


# ----- the general reference on algebras known by other means --------------

def test_hypersurface_harrison_dimensions():
    # Q[x]/(x^n): dim T^1 = n - 1 embeds as Harr^2; Harr^(>=3) vanishes
    for n, t1 in [(3, 2), (4, 3)]:
        a = truncated_polynomial_algebra(n - 1)
        assert [reference_harrison_dim(a, "regular", k) for k in (1, 2, 3, 4)] == [t1, t1, 0, 0]


def test_complete_intersection_harrison_dimensions():
    a = two_variable_square_zero()
    assert [reference_harrison_dim(a, "regular", k) for k in (1, 2, 3, 4)] == [4, 4, 0, 0]


def test_etale_algebra_has_no_higher_harrison():
    a = etale_quadratic()
    assert [reference_harrison_dim(a, "regular", k) for k in (2, 3, 4)] == [0, 0, 0]


def test_hochschild_of_truncated_polynomial_rings():
    # classical: dim HH^k(Q[x]/(x^n), A) = n - 1 for every k >= 1
    dual = truncated_polynomial_algebra(1)
    assert [reference_hochschild_dim(dual, "regular", k) for k in (1, 2, 3, 4)] == [1, 1, 1, 1]
    cubic = truncated_polynomial_algebra(2)
    assert [reference_hochschild_dim(cubic, "regular", k) for k in (1, 2, 3)] == [2, 2, 2]


def test_harrison_is_at_most_hochschild():
    # the engine on fat points, the reference on algebras with products
    fixtures = [(harrison_dim, hochschild_dim, m) for m in (2, 3)] + [
        (reference_harrison_dim, reference_hochschild_dim, a)
        for a in (truncated_polynomial_algebra(2), two_variable_square_zero())]
    for harrison_of, hochschild_of, a in fixtures:
        for k in (1, 2, 3):
            assert harrison_of(a, "regular", k) <= hochschild_of(a, "regular", k), (a, k)


def _within_default_budget(m, k):
    try:  # harrison_dim's own refusal, without its work
        harrison._check(m, "trivial", k, None, (0, 1))
    except BudgetError:
        return False
    return True


def fat_points_in_budget():
    """Every (m, k) whose Harrison degree k fits the default budget."""
    return [(m, k) for m in range(1, 40) for k in range(1, 12) if _within_default_budget(m, k)]


def test_brute_force_equals_the_closed_form_for_every_fat_point_in_budget():
    pairs = fat_points_in_budget()
    # the ranges reach past the budget in m and in k, so no pair is left out
    assert not _within_default_budget(39, 1) and not _within_default_budget(1, 11)
    checked = 0
    for m, k in pairs:
        assert harrison_dim(m, "trivial", k) == shuffle_dim(m, k), (m, k)
        checked += 1
        if (m, k + 1) in pairs:
            assert harrison_dim(m, "regular", k + 1) == fatpoint_tdim(m, k), (m, k)
            checked += 1
    assert checked == 104


def test_hochschild_equals_its_closed_forms_for_every_fat_point_in_budget():
    # every m >= 2 with m^(k+1) within the default budget, and one letter up to degree 60:
    # trivial coefficients keep every cochain, m^k; regular ones give 1 for m = 1, m^2 at
    # k = 1 and (m^2 - 1) m^(k-1) above (the forms live here only, never in the engine)
    pairs = [(m, k) for m in range(2, 40) for k in range(1, 11) if m ** (k + 1) <= harrison.DEFAULT_BUDGET]
    pairs += [(1, k) for k in range(1, 61)]
    assert len(pairs) == 121 and (38, 1) in pairs and (39, 1) not in pairs and (2, 9) in pairs
    for m, k in pairs:
        assert hochschild_dim(m, "trivial", k) == m ** k, (m, k)
        regular = 1 if m == 1 else m ** 2 if k == 1 else (m ** 2 - 1) * m ** (k - 1)
        assert hochschild_dim(m, "regular", k) == regular, (m, k)


def test_every_coboundary_in_budget_ranks_alike_with_and_without_the_peel():
    # every fat point with m^(k+1) within the default budget, both complexes and both
    # coefficient kinds: the peeled rank equals elimination of the columns and of the rows
    pairs = fat_points_in_budget()
    checked = 0
    for m, k in pairs:
        for coeffs in ("trivial", "regular"):
            for matrix in (coboundary_matrix(m, coeffs, k), full_coboundary(m, coeffs, k)):
                want = Echelon(matrix.columns).rank
                assert matrix.rank() == want == Echelon(row_dicts(matrix.columns)).rank, (m, k, coeffs)
                checked += 1
    assert checked == 4 * len(pairs) == 284


def test_block_ranks_sum_to_the_rank_of_the_whole_coboundary():
    # every Harrison d_k within the default budget, and three past it where
    # most contents miss some letter, both coefficient kinds
    cases = [(m, k, None) for m, k in fat_points_in_budget()]
    cases += [(3, 6, 3 ** 7), (4, 5, 4 ** 6), (6, 4, 6 ** 5)]
    for m, k, budget in cases:
        for coeffs in ("trivial", "regular"):
            cold_rank_cache()
            want = coboundary_matrix(m, coeffs, k, budget).rank()
            assert harrison._rank(m, coeffs, False, k) == want, (m, k, coeffs)


def test_one_missing_letter_ranks_a_content_like_all_of_them():
    # a content's columns of the whole d_k, with every letter of n stacked as
    # rows, rank as _block_rank's canonical block with at most one missing letter,
    # and d_k is block diagonal: the content ranks sum to its rank
    for n in range(1, 5):
        for k in range(1, 5):
            codomain = CochainSpace(n, "regular", k + 1)
            total = 0
            for content, (_, basis, _) in zip(itertools.combinations_with_replacement(range(n), k),
                                              _blocks(n, k)):
                shape = tuple(sorted(Counter(content).values(), reverse=True))
                columns = [codomain.coords_of(_image(n, k, vec)) for vec in basis]
                rank = SparseMatrix(codomain.dim, len(columns), columns).rank()
                assert rank == harrison._block_rank(k, shape, len(shape) < n), (n, k, content)
                total += rank
            assert total == coboundary_matrix(n, "regular", k).rank(), (n, k)


def test_hochschild_block_ranks_sum_to_the_rank_of_the_whole_complex():
    # every fat point with m^(k+1) within the default budget and seven past it,
    # both coefficient kinds: the sum over content shapes of count times block
    # rank is the rank of the whole m^k-column d_k
    cases = fat_points_in_budget() + [(2, 11), (2, 12), (3, 7), (4, 5), (4, 6), (6, 3), (6, 4)]
    for m, k in cases:
        for coeffs in ("trivial", "regular"):
            cold_rank_cache()
            want = full_coboundary(m, coeffs, k).rank()
            assert harrison._rank(m, coeffs, True, k) == want, (m, k, coeffs)


def fresh_rank_cache(monkeypatch):
    """Rank into an empty _rank cache until the test ends, so ranks computed
    from a faked block rank never reach the real one."""
    monkeypatch.setattr(harrison, "_rank", lru_cache(maxsize=None)(harrison._rank.__wrapped__))


def test_a_block_that_forgets_its_missing_letter_changes_the_hochschild_rank(monkeypatch):
    # the mutation: every block ranked as if its content held every letter loses
    # the images at a missing one. In even degree k the image of the word x^k
    # cancels at x (x^(k+1) - x^(k+1)) but not at another letter y (y x^k - x^k y),
    # so the sum falls short exactly for m >= 2 and even k
    real = harrison._hochschild_block_rank
    monkeypatch.setattr(harrison, "_hochschild_block_rank", lambda k, shape, outside: real(k, shape, False))
    differ = []
    for m, k in fat_points_in_budget():
        fresh_rank_cache(monkeypatch)
        if harrison._rank(m, "regular", True, k) != full_coboundary(m, "regular", k).rank():
            differ.append((m, k))
    assert differ == [(m, k) for m, k in fat_points_in_budget() if m > 1 and k % 2 == 0]
    assert {(2, 2), (3, 2), (4, 4)} <= set(differ) and len(differ) == 15


def test_a_cold_hochschild_dimension_ranks_one_block_per_shape(monkeypatch):
    # a cold regular hochschild_dim ranks one block for each content shape of
    # degrees k - 1 and k, and builds no shuffle kernel; a warm one ranks nothing
    ranked, eliminated = [], []
    real_block, real_rank = harrison._hochschild_block_rank, SparseMatrix.rank

    def refuse(k, shape):
        raise AssertionError("built the shape kernel %r" % ((k, shape),))

    def counting_block(k, shape, outside):
        ranked.append((k, shape))
        return real_block(k, shape, outside)

    def counting_rank(self):
        eliminated.append(self.cols)
        return real_rank(self)

    monkeypatch.setattr(harrison, "_shape_kernel", refuse)
    monkeypatch.setattr(harrison, "_hochschild_block_rank", counting_block)
    monkeypatch.setattr(SparseMatrix, "rank", counting_rank)
    for m, k in [(1, 7), (2, 3), (2, 9), (3, 4), (4, 3), (6, 3)]:
        harrison._rank.cache_clear()
        harrison._shapes.cache_clear()
        real_block.cache_clear()
        del ranked[:], eliminated[:]
        want = hochschild_dim(m, "regular", k)
        shapes = [(d, shape) for d in (k - 1, k) for shape, _ in harrison._shapes(m, d)]
        assert ranked == shapes and len(eliminated) == len(shapes), (m, k)
        del ranked[:], eliminated[:]
        assert hochschild_dim(m, "regular", k) == want
        assert (ranked, eliminated) == ([], []), (m, k)


def test_partitions_equal_a_brute_force_enumeration():
    # the descending tuples with sum k and at most `parts` parts, in descending
    # order; the first part starts at ceil(k / parts), so one part is one step
    for k in range(13):
        for parts in range(7):
            want = {tuple(sorted(c, reverse=True)) for n in range(parts + 1)
                    for c in itertools.combinations_with_replacement(range(1, k + 1), n) if sum(c) == k}
            assert list(harrison._partitions(k, parts)) == sorted(want, reverse=True), (k, parts)
    # in a fresh process with a time limit, so a loop over all k first parts fails instead of hanging
    code = "from ratsurf.harrison import _partitions; print(list(_partitions(10 ** 18, 1)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=5,
                          env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(harrison.__file__))))
    assert proc.stdout == "[(%d,)]\n" % 10 ** 18, proc.stderr


def test_zero_map_check_beyond_the_default_budget():
    start = time.perf_counter()
    assert zero_map_check(2, 10, budget=5000) is True
    assert time.perf_counter() - start < 10


def test_the_package_exports_the_engine_by_m_and_a_coefficient_name():
    # a fresh interpreter, so that any warning the package raises on import is an error
    code = ("from ratsurf import harrison_dim, hochschild_dim\n"
            "assert (harrison_dim(3, 'regular', 2), hochschild_dim(2, 'regular', 3)) == (15, 12)")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True, text=True, timeout=10,
                          env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(harrison.__file__))))
    assert proc.returncode == 0, proc.stderr


def kernel_of(matrix):
    """Right kernel of a sparse-column matrix, free-column normalized, through its rows."""
    return Echelon(row_dicts(matrix.columns)).kernel_basis(range(matrix.cols))


def reference_zero_map_check(m, k, budget=None):
    """zero_map_check as the lemma reads: each cocycle of the regular d_k, its
    residue projection (the unit coordinate's entries) reduced against the
    span of the trivial d_(k-1)'s image."""
    outgoing = harrison.coboundary_matrix(m, "regular", k, budget)  # as patch_outgoing sets it
    scalar_dim = outgoing.cols // (m + 1)
    triv_image = Echelon(harrison.coboundary_matrix(m, "trivial", k - 1, budget).columns)
    return not any(triv_image.reduce({idx: c for idx, c in coords.items() if idx < scalar_dim})
                   for coords in kernel_of(outgoing))


def test_zero_map_check_equals_the_cocycle_reference_in_budget():
    pairs = [(m, k) for m, k in fat_points_in_budget() if m >= 2 and k >= 2]
    assert len(pairs) == 24
    for m, k in pairs:
        assert zero_map_check(m, k) is reference_zero_map_check(m, k) is True, (m, k)


def test_zero_map_check_reads_the_kept_rank_of_d_k(monkeypatch):
    # a warm call ranks nothing; a cold one asks for each content shape's block
    # rank once and, with those forgotten too, eliminates once per shape, in its
    # rank; no whole coboundary is built and no trivial one
    built, ranked, cobounds = [], [], []
    init, real_rank, real_cob = qlinalg.Echelon.__init__, harrison._block_rank, harrison.coboundary_matrix

    def counting_init(self, rows=()):
        built.append(self)
        init(self, rows)

    def counting_rank(k, shape, outside):
        ranked.append(shape)
        return real_rank(k, shape, outside)

    def counting_coboundary(m, coeffs, k, budget=None):
        cobounds.append(coeffs)
        return real_cob(m, coeffs, k, budget)

    for m, k in [(2, 2), (2, 5), (3, 2), (3, 3)]:
        fresh_rank_cache(monkeypatch)
        assert zero_map_check(m, k)  # every shape kernel and block rank it needs, cached
        shapes = [shape for shape, _ in harrison._shapes(m, k)]
        monkeypatch.setattr(qlinalg.Echelon, "__init__", counting_init)
        monkeypatch.setattr(harrison, "_block_rank", counting_rank)
        monkeypatch.setattr(harrison, "coboundary_matrix", counting_coboundary)
        del built[:], ranked[:], cobounds[:]
        assert zero_map_check(m, k)
        assert (built, ranked) == ([], []), (m, k)
        fresh_rank_cache(monkeypatch)
        assert zero_map_check(m, k)
        assert (built, ranked) == ([], shapes), (m, k)
        real_rank.cache_clear()
        fresh_rank_cache(monkeypatch)
        assert zero_map_check(m, k)
        assert (len(built), ranked, cobounds) == (len(shapes), shapes * 2, []), (m, k)
        monkeypatch.undo()


def patch_outgoing(monkeypatch, columns_of, block_rank):
    """Replace the regular-coefficient outgoing differential of zero_map_check:
    for the reference, coboundary_matrix by SparseMatrix(rows, cols,
    columns_of(cols)) of the same shape; for the engine, _block_rank by
    block_rank, ranked into a fresh_rank_cache."""
    real = harrison.coboundary_matrix

    def fake(m, coeffs, k, budget=None):
        matrix = real(m, coeffs, k, budget)
        if coeffs != "regular":
            return matrix
        return SparseMatrix(matrix.rows, matrix.cols, columns_of(matrix.cols))

    monkeypatch.setattr(harrison, "coboundary_matrix", fake)
    monkeypatch.setattr(harrison, "_block_rank", block_rank)
    fresh_rank_cache(monkeypatch)


def test_zero_map_check_negative_control(monkeypatch):
    # a zero outgoing differential makes every unit-coordinate cochain a
    # cocycle; the residue-field ones do not bound, so the verdict is False
    patch_outgoing(monkeypatch, lambda cols: [{} for _ in range(cols)], lambda k, shape, outside: 0)
    assert not zero_map_check(2, 2)
    assert not reference_zero_map_check(2, 2)


def test_zero_map_check_sees_every_residue_field_coordinate(monkeypatch):
    # an injective d_k on the unit coordinate, non-unit columns empty as the
    # engine builds them, with column t emptied: the check fails exactly when
    # t is one of the unit value's (alpha = 0) functionals. The engine's blocks
    # lose rank 1 on the shape of t's content, and are injective elsewhere.
    scalar_dim = CochainSpace(2, "trivial", 2).scalar_dim
    dim = coboundary_matrix(2, "regular", 2).cols
    assert 0 < scalar_dim < dim and harrison._census(2, 2) == scalar_dim
    shape_of_column = [tuple(sorted(Counter(content).values(), reverse=True))
                       for content, (_, basis, _) in zip(itertools.combinations_with_replacement(range(2), 2),
                                                         _blocks(2, 2)) for _ in basis]
    assert len(shape_of_column) == scalar_dim
    for t in range(dim):
        dropped = shape_of_column[t] if t < scalar_dim else None
        patch_outgoing(monkeypatch,
                       lambda cols: [{j: 1} if j < scalar_dim and j != t else {} for j in range(cols)],
                       lambda k, shape, outside: len(_shape_kernel(k, shape)[1]) - (shape == dropped))
        assert zero_map_check(2, 2) == reference_zero_map_check(2, 2) == (t >= scalar_dim), t
        monkeypatch.undo()


def test_zero_map_check_rejects_degenerate_arguments():
    with pytest.raises(ValueError):
        zero_map_check(1, 2)
    with pytest.raises(ValueError):
        zero_map_check(2, 1)


def test_budget_is_enforced():
    with pytest.raises(BudgetError):
        harrison_dim(4, "trivial", 9)
    with pytest.raises(BudgetError):
        hochschild_dim(4, "trivial", 9)
    with pytest.raises(BudgetError):
        CochainSpace(2, "trivial", 5, budget=16)
    # a raised budget admits the same request
    assert CochainSpace(2, "trivial", 5, budget=32).dim == 6


@pytest.mark.parametrize("budget", [0, -3])
def test_a_budget_below_one_is_refused_alike_by_every_entry_point(budget):
    for call in every_entry_point(2, budget):
        with pytest.raises(ValueError, match="^budget must be positive$"):
            call()


def test_degree_must_be_positive():
    with pytest.raises(ValueError):
        harrison_dim(2, "regular", 0)
    with pytest.raises(ValueError):
        hochschild_dim(2, "regular", 0)
    with pytest.raises(ValueError):
        CochainSpace(2, "regular", 0)


def test_budget_is_checked_before_any_space_is_built():
    # the messages are those of the first degree that is over the cap
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"^word space 2\^11 = 2048 exceeds budget 1500$"):
        harrison_dim(2, "trivial", 10)
    with pytest.raises(BudgetError, match=r"^word space 3\^5 = 243 exceeds budget 100$"):
        harrison_dim(3, "regular", 5, budget=100)
    with pytest.raises(BudgetError, match=r"^word space 2\^11 = 2048 exceeds budget 1500$"):
        zero_map_check(2, 10)
    with pytest.raises(BudgetError, match=r"^word space for the full degree-10 differential exceeds budget 1500$"):
        hochschild_dim(2, "regular", 10)
    with pytest.raises(BudgetError, match=r"^word space 100\^2 = 10000 exceeds budget 1500$"):
        harrison_dim(100, "trivial", 1)
    assert time.perf_counter() - start < 1.0


# ----- integer-keyed cochains against the tuple-keyed code they replaced ---

def reference_differential(algebra, coeffs, k, func):
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
            for beta, a in algebra.act(coeffs, i, alpha):
                add((beta, (i,) + w), c * a)
                add((beta, w + (i,)), last_sign * c * a)
        for t, letter in enumerate(w):
            sign = (-1) ** (t + 1)
            for i, j, coef in algebra.expansions[letter]:
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


def full_coboundary(m, coeffs, k):
    """The engine's whole Hochschild d_k on the m-dimensional fat point: every
    reduced cochain's _image as a sparse column, numbered by key; only the
    unit coordinate's are nonempty. The block ranks are tested against it."""
    size, values = m ** k, 1 if coeffs == "trivial" else m + 1
    columns = [_image(m, k, {key: 1}) for key in range(size if coeffs == "regular" else 0)]
    columns += [{} for _ in range(values * size - len(columns))]
    return SparseMatrix(values * m ** (k + 1), values * size, columns)


def reference_full_coboundary(algebra, coeffs, k):
    """The Hochschild columns in itertools.product order, numbered by reduce."""
    n = algebra.n
    ncod = n ** (k + 1)
    columns = []
    for alpha in range(value_dim(algebra, coeffs)):
        for w in itertools.product(range(n), repeat=k):
            image = reference_differential(algebra, coeffs, k, {(alpha, w): 1})
            columns.append({beta * ncod + reduce(lambda t, x: t * n + x, u, 0): val
                            for (beta, u), val in image.items()})
    return SparseMatrix(value_dim(algebra, coeffs) * ncod, len(columns), columns)


def reference_coboundary(algebra, coeffs, k):
    """The Harrison columns: the tuple-keyed differential of each invariant
    basis functional, read off by coords_of."""
    n = algebra.n
    dom, cod = CochainSpace(n, coeffs, k), CochainSpace(n, coeffs, k + 1)
    columns = [cod.coords_of(encode(reference_differential(algebra, coeffs, k, decode(functional(dom, idx), n, k)),
                                    n, k + 1)) for idx in range(dom.dim)]
    return SparseMatrix(cod.dim, dom.dim, columns)


def reference_dim(coboundary, algebra, coeffs, k):
    """dim of degree-k cohomology from the reference columns of d_(k-1) and d_k,
    ranked by Echelon alone, without SparseMatrix.rank's peel."""
    outgoing = coboundary(algebra, coeffs, k)
    incoming = 0 if k == 1 else Echelon(coboundary(algebra, coeffs, k - 1).columns).rank
    return outgoing.cols - Echelon(outgoing.columns).rank - incoming


def reference_harrison_dim(algebra, coeffs, k):
    return reference_dim(reference_coboundary, algebra, coeffs, k)


def reference_hochschild_dim(algebra, coeffs, k):
    return reference_dim(reference_full_coboundary, algebra, coeffs, k)


def test_integer_keys_encode_words_in_product_order():
    for n, k in [(1, 3), (2, 3), (3, 2), (4, 2)]:
        words = list(itertools.product(range(n), repeat=k))
        assert [base_n(w, n) for w in words] == list(range(n ** k))
        for alpha in range(2):
            func = {(alpha, w): t + 1 for t, w in enumerate(words)}
            assert decode(encode(func, n, k), n, k) == func


def positional_kernel(k, shape):
    """_shape_kernel(k, shape) in the positional form the references build: the
    words as letter tuples, each basis vector dense and indexed like the words,
    and the free words by position."""
    codes, basis, free = _shape_kernel(k, shape)
    words = tuple(tuple(code // len(shape) ** (k - 1 - t) % len(shape) for t in range(k)) for code in codes)
    position = {code: t for t, code in enumerate(codes)}
    dense = tuple(tuple(vec.get(code, 0) for code in codes) for vec in basis)
    return words, dense, tuple(position[f] for f in free)


def reference_blocks(n, k):
    """The content blocks with tuple words, relabeled from the shape kernels."""
    out = []
    for content in itertools.combinations_with_replacement(range(n), k):
        counts = Counter(content)
        ordered = sorted(counts, key=lambda a: (-counts[a], a))
        cwords, cbasis, cfree = positional_kernel(k, tuple(counts[a] for a in ordered))
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
    # every fat point within the default budget (m^(k+1) <= 1500), both
    # coefficient kinds: each engine column equals the general reference's on
    # the m x m zero table, the Harrison columns and the Hochschild ones
    pairs = fat_points_in_budget()
    for m, k in pairs:
        ref = zero_table(m)
        for coeffs in ("trivial", "regular"):
            for ours, theirs in ((coboundary_matrix(m, coeffs, k), reference_coboundary(ref, coeffs, k)),
                                 (full_coboundary(m, coeffs, k), reference_full_coboundary(ref, coeffs, k))):
                assert (ours.rows, ours.cols) == (theirs.rows, theirs.cols), (m, k, coeffs)
                assert ours.columns == theirs.columns, (m, k, coeffs)
    assert len(pairs) == 71


def test_dimensions_match_the_tuple_keyed_reference():
    # the same fat points: every Harrison and Hochschild dimension of the engine
    # equals the general reference's on the zero table
    for m, k in fat_points_in_budget():
        ref = zero_table(m)
        for coeffs in ("trivial", "regular"):
            assert harrison_dim(m, coeffs, k) == reference_harrison_dim(ref, coeffs, k), (m, k, coeffs)
            assert hochschild_dim(m, coeffs, k) == reference_hochschild_dim(ref, coeffs, k), (m, k, coeffs)


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
            assert positional_kernel(k, shape) == dense_shuffle_kernel(letters), (k, shape)
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


def dense_harrison_dim(algebra, coeffs, k):
    vdim = value_dim(algebra, coeffs)

    def coboundary(d):
        # dense matrix of d -> d+1 in the reference bases, read off at free words
        dom = [(alpha, vec) for alpha in range(vdim) for _, vec in dense_invariant_basis(algebra.n, d)]
        cod_free = [(beta, fw) for beta in range(vdim) for fw, _ in dense_invariant_basis(algebra.n, d + 1)]
        images = [reference_differential(algebra, coeffs, d, {(alpha, w): x for w, x in vec.items()})
                  for alpha, vec in dom]
        return [[image.get(key, 0) for image in images] for key in cod_free], len(dom)

    rows, ncols = coboundary(k)
    incoming = 0 if k == 1 else dense_rank(*coboundary(k - 1))
    return ncols - dense_rank(rows, ncols) - incoming


def dense_hochschild_dim(algebra, coeffs, k):
    vdim, n = value_dim(algebra, coeffs), algebra.n

    def coboundary(d):
        dom = list(itertools.product(range(n), repeat=d))
        cod = {w: t for t, w in enumerate(itertools.product(range(n), repeat=d + 1))}
        rows = [[Fraction(0)] * (vdim * len(dom)) for _ in range(vdim * len(cod))]
        for ci in range(vdim * len(dom)):
            alpha, t = divmod(ci, len(dom))
            image = reference_differential(algebra, coeffs, d, {(alpha, dom[t]): Fraction(1)})
            for (beta, w), val in image.items():
                rows[beta * len(cod) + cod[w]][ci] = val
        return rows, vdim * len(dom)

    rows, ncols = coboundary(k)
    incoming = 0 if k == 1 else dense_rank(*coboundary(k - 1))
    return ncols - dense_rank(rows, ncols) - incoming


@pytest.mark.parametrize("coeffs", ["trivial", "regular"])
def test_dimensions_match_the_dense_path(coeffs):
    # the engine on fat points, the general reference on algebras with products
    for m in (1, 2, 3):
        ref = zero_table(m)
        for k in (1, 2, 3, 4):
            assert harrison_dim(m, coeffs, k) == dense_harrison_dim(ref, coeffs, k), (m, k)
            assert hochschild_dim(m, coeffs, k) == dense_hochschild_dim(ref, coeffs, k), (m, k)
    for a in (truncated_polynomial_algebra(2), two_variable_square_zero(), etale_quadratic()):
        for k in (1, 2, 3):
            assert reference_harrison_dim(a, coeffs, k) == dense_harrison_dim(a, coeffs, k)
            assert reference_hochschild_dim(a, coeffs, k) == dense_hochschild_dim(a, coeffs, k)


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
        for k in range(1, 8):
            if m ** (k + 1) > DEFAULT_BUDGET:
                break
            for words, basis, _ in _blocks(m, k):
                assert all(type(x) is int for vec in basis for x in vec.values()), (m, k)
            for vec in CochainSpace(m, "regular", k)._vectors:
                assert all(type(x) is int for x in _image(m, k, vec).values()), (m, k)
            for coeffs in ("trivial", "regular"):
                columns = coboundary_matrix(m, coeffs, k).columns
                assert all(type(x) is int for col in columns for x in col.values()), (m, k, coeffs)
    for k in range(1, 8):
        for shape in partitions(k):
            if len(shape) <= 3:
                _, basis, _ = positional_kernel(k, shape)
                assert all(type(x) is int for vec in basis for x in vec), (k, shape)


def half_square() -> Algebra:
    """e_0 e_0 = (1/2) e_1, every other product 0: a rational structure constant."""
    z = (0, _vec(2))
    return Algebra([[(0, (0, Fraction(1, 2))), z], [z, z]])


def test_rational_structure_constants_fall_back_to_fractions():
    # the reference's columns carry Fractions, which coords_of and Echelon take as they are
    rational = half_square()
    # e_1 -> 2 e_1 rescales it to e_0 e_0 = e_1, an isomorphic integral algebra
    integral = truncated_polynomial_algebra(2)
    assert rational.products[0][0] == (0, (0, Fraction(1, 2)))
    assert integral.products[0][0] == (0, (0, 1))
    for coeffs in ("trivial", "regular"):
        for k in range(1, 5):
            assert reference_harrison_dim(rational, coeffs, k) == reference_harrison_dim(integral, coeffs, k)
            assert reference_hochschild_dim(rational, coeffs, k) == reference_hochschild_dim(integral, coeffs, k)
    columns = reference_coboundary(rational, "regular", 1).columns
    assert any(type(x) is Fraction for col in columns for x in col.values())


# ----- Harrison's shuffle count is held to the budget ----------------------

def test_one_letter_shuffle_count_is_held_to_the_budget():
    # 1^k = 1 always fits, but each word has about 2^(k-1) signed shuffles
    start = time.perf_counter()
    for k in (30, 1000, 20000):
        with pytest.raises(BudgetError, match=r"^shuffle count 2\^%d per word exceeds budget 1500$" % (k - 1)):
            harrison_dim(1, "trivial", k)
    with pytest.raises(BudgetError, match=r"^shuffle count 2\^11 per word exceeds budget 1500$"):
        harrison_dim(1, "regular", 11)  # degree 12 is touched too
    with pytest.raises(BudgetError, match=r"^shuffle count 2\^4 per word exceeds budget 15$"):
        CochainSpace(1, "trivial", 5, budget=15)
    assert time.perf_counter() - start < 1.0
    assert CochainSpace(1, "trivial", 5, budget=16).dim == 0
    # Hochschild enumerates no shuffles, so only its word space is checked
    assert hochschild_dim(1, "trivial", 12) == hochschild_dim(1, "trivial", 2)


# ----- free-prefix constraint rows against every row -----------------------

def itemgetter_shape_kernel(k, shape, keep=lambda prefix: True):
    """_shape_kernel built one signed shuffle at a time: for each split
    p <= k/2, the row sh(w[:p], w[p:]) of each word with keep(w[:p]), added
    in word order. With every prefix kept this is the construction the
    free-prefix rows replaced, and with keep = _is_free the one the shuffle
    memo replaced."""
    words = list(harrison._multiset_words(shape))
    index = {w: t for t, w in enumerate(words)}
    constraints = qlinalg.Echelon()
    for p in range(1, k // 2 + 1):
        movers = _movers(p, k)
        for w in words:
            if not keep(w[:p]):
                continue
            row = {}
            for take, sign in movers:
                j = index[take(w)]
                row[j] = row.get(j, 0) + sign
            constraints.add(row)
    n = len(words)
    basis = tuple(tuple(v.get(t, 0) for t in range(n)) for v in constraints.kernel_basis(range(n)))
    return tuple(words), basis, tuple(constraints.free_columns(range(n)))


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
        assert positional_kernel(k, shape) == itemgetter_shape_kernel(k, shape), (k, shape)


def test_free_prefix_rows_are_fewer(monkeypatch):
    # k = 9, shape (5, 4): 4 splits of 126 words give 504 rows, 277 of them free-prefix
    harrison._shape_kernel.cache_clear()
    for k in range(1, 5):
        for shape in partitions(k):
            _shape_kernel(k, shape)
    added = []
    real_add = qlinalg.Echelon.add
    monkeypatch.setattr(qlinalg.Echelon, "add", lambda self, row: added.append(row) or real_add(self, row))
    assert positional_kernel(9, (5, 4)) == itemgetter_shape_kernel(9, (5, 4))
    assert len(added) == 277 + 504


def test_shape_kernel_matches_the_itemgetter_construction():
    # every 2-letter shape up to k = 12 that no default-budget job builds (the
    # all-rows test has those); the tuples, not only the dimensions, since the
    # echelon form is unique
    shapes = {(k, s) for k in range(1, 13) for s in partitions(k) if len(s) <= 2}
    for k, shape in sorted(shapes - set(default_budget_shapes())):
        assert positional_kernel(k, shape) == itemgetter_shape_kernel(k, shape, harrison._is_free), (k, shape)


def test_memoized_shuffles_equal_the_signed_shuffle_expansion():
    # every pair of nonempty words on at most 3 letters with |x| + |y| <= 8;
    # itertools.product lists the words of one length in base-L code order.
    # Renaming letters commutes with shuffling, so the expansion is summed
    # for the words whose letters first occur in order 0, 1, 2, .. and
    # renamed for the others.
    try:
        for letters in (1, 2, 3):
            for n in range(2, 9):
                words = list(itertools.product(range(letters), repeat=n))
                code = {w: c for c, w in enumerate(words)}
                renamings = [[code[tuple(sigma[a] for a in w)] for w in words]
                             for sigma in itertools.permutations(range(letters))]
                first = [w for w in words if list(dict.fromkeys(w)) == list(range(len(set(w))))]
                for p in range(1, n):
                    low = letters ** (n - p)
                    for w in first:
                        expansion = Counter()
                        for take, sign in _movers(p, n):
                            expansion[code[take(w)]] += sign
                        for rename in renamings:
                            c = rename[code[w]]
                            got = harrison._shuffle(letters, p, c // low, n - p, c % low)
                            assert got == {rename[u]: x for u, x in expansion.items() if x}, (words[c], p)
    finally:
        harrison._shuffles.clear()  # frees the 67k entries; kernels refill what they read


def test_building_a_kernel_leaves_the_shuffle_memo_unchanged():
    # __wrapped__ builds past the kernel cache; the first build fills the memo entries it reads
    first = _shape_kernel.__wrapped__(9, (5, 4))
    memo = {key: dict(entry) for key, entry in harrison._shuffles.items()}
    assert memo
    assert _shape_kernel.__wrapped__(9, (5, 4)) == first == _shape_kernel(9, (5, 4))
    assert harrison._shuffles == memo


def test_one_letter_words_enumerate_without_recursion():
    # a recursive enumeration ran out of stack at k = 990
    assert harrison._multiset_words((5000,)) == [(0,) * 5000]
    assert harrison._multiset_words(()) == [()]
    assert harrison._multiset_words((2, 1, 1)) == sorted(set(itertools.permutations((0, 0, 1, 2))))


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
        words, basis, free = positional_kernel(k, shape)
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
    harrison._rank.cache_clear()
    harrison._block_rank.cache_clear()
    harrison._hochschild_block_rank.cache_clear()
    harrison._shapes.cache_clear()
    harrison._content_block.cache_clear()


def test_dimensions_do_not_depend_on_the_call_order():
    calls = [(dim, m, coeffs, k) for dim in (harrison_dim, hochschild_dim)
             for m in (1, 2, 3, 4) for coeffs in ("trivial", "regular")
             for k in range(1, 6) if m ** (k + 1) <= 250]

    def answer(call):
        dim, m, coeffs, k = call
        return dim(m, coeffs, k)

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
    assert harrison_dim(3, "trivial", 6, budget=5000) == shuffle_dim(3, 6)
    assert hochschild_dim(3, "trivial", 6, budget=5000) == 3 ** 6
    hits = harrison._rank.cache_info().hits
    assert harrison._rank(3, "trivial", False, 6) == 0 and harrison._rank.cache_info().hits == hits + 1
    with pytest.raises(BudgetError, match=r"^word space 3\^7 = 2187 exceeds budget 1500$"):
        harrison_dim(3, "trivial", 6)
    with pytest.raises(BudgetError, match=r"^word space for the full degree-6 differential exceeds budget 1500$"):
        hochschild_dim(3, "trivial", 6)
    assert main(["oracle", "--m", "3", "--k", "6"]) == 5
    assert capsys.readouterr().out == refused


def test_equal_structure_constants_share_one_rank(monkeypatch):
    ranked = []
    real = harrison._block_rank

    def counting(k, shape, outside):
        ranked.append(k)
        return real(k, shape, outside)

    cold_rank_cache()
    monkeypatch.setattr(harrison, "_block_rank", counting)
    want = harrison_dim(2, "regular", 3)
    # one block rank per shape: (2,) and (1, 1) in degree 2, (3,) and (2, 1) in degree 3
    assert sorted(ranked) == [2, 2, 3, 3] and harrison._rank.cache_info().currsize == 2
    # the ranks are kept by m and the coefficient name, so a second call ranks nothing
    assert harrison_dim(2, "regular", 3) == want
    assert sorted(ranked) == [2, 2, 3, 3] and harrison._rank.cache_info().currsize == 2
    # another m gets ranks of its own, summed over its own shapes; (1, 1, 1) is new
    harrison_dim(3, "regular", 3)
    assert sorted(ranked) == [2] * 4 + [3] * 5 and harrison._rank.cache_info().currsize == 4


def test_each_content_block_is_relabeled_once_per_process(monkeypatch):
    # _block_rank asks for a degree-(k+1) content once for each neighbouring
    # degree-k shape; the cache relabels it on the first request only
    requests = []
    real = harrison._content_block

    def recording(n, k, content):
        requests.append((n, k, content))
        return real(n, k, content)

    cold_rank_cache()
    monkeypatch.setattr(harrison, "_content_block", recording)
    want = harrison_dim(2, "regular", 8)
    assert want == fatpoint_tdim(2, 7)
    assert real.cache_info().misses == len(set(requests)) < len(requests)
    assert all(list(content) == sorted(content) for _, _, content in requests)  # one key per content
    # the ranks forgotten and the blocks kept: the same requests again, and no miss
    misses, asked = real.cache_info().misses, len(requests)
    harrison._rank.cache_clear()
    harrison._block_rank.cache_clear()
    assert harrison_dim(2, "regular", 8) == want
    assert requests[asked:] == requests[:asked] and real.cache_info().misses == misses


# harrison_dim and hochschild_dim for every (m, k), m < 40, that harrison_dim admits
# under budget 5000 (m^(k+1) <= 5000, and k + 1 <= 13 for one letter), recorded as
# literals so that a changed rank fails by its arguments:
# (m, k): (Harrison trivial, Harrison regular, Hochschild trivial, Hochschild regular)
PINNED_5000 = {
    (1, 1): (1, 1, 1, 1), (1, 2): (1, 1, 1, 1), (1, 3): (0, 0, 1, 1), (1, 4): (0, 0, 1, 1),
    (1, 5): (0, 0, 1, 1), (1, 6): (0, 0, 1, 1), (1, 7): (0, 0, 1, 1), (1, 8): (0, 0, 1, 1),
    (1, 9): (0, 0, 1, 1), (1, 10): (0, 0, 1, 1), (1, 11): (0, 0, 1, 1), (1, 12): (0, 0, 1, 1),
    (2, 1): (2, 4, 2, 4), (2, 2): (3, 4, 4, 6), (2, 3): (2, 1, 8, 12), (2, 4): (3, 4, 16, 24),
    (2, 5): (6, 9, 32, 48), (2, 6): (11, 16, 64, 96), (2, 7): (18, 25, 128, 192),
    (2, 8): (30, 42, 256, 384), (2, 9): (56, 82, 512, 768), (2, 10): (105, 154, 1024, 1536),
    (2, 11): (186, 267, 2048, 3072), (3, 1): (3, 9, 3, 9), (3, 2): (6, 15, 9, 24), (3, 3): (8, 18, 27, 72),
    (3, 4): (18, 46, 81, 216), (3, 5): (48, 126, 243, 648), (3, 6): (124, 324, 729, 1944),
    (4, 1): (4, 16, 4, 16), (4, 2): (10, 36, 16, 60), (4, 3): (20, 70, 64, 240),
    (4, 4): (60, 220, 256, 960), (4, 5): (204, 756, 1024, 3840), (5, 1): (5, 25, 5, 25),
    (5, 2): (15, 70, 25, 120), (5, 3): (40, 185, 125, 600), (5, 4): (150, 710, 625, 3000),
    (6, 1): (6, 36, 6, 36), (6, 2): (21, 120, 36, 210), (6, 3): (70, 399, 216, 1260),
    (7, 1): (7, 49, 7, 49), (7, 2): (28, 189, 49, 336), (7, 3): (112, 756, 343, 2352),
    (8, 1): (8, 64, 8, 64), (8, 2): (36, 280, 64, 504), (8, 3): (168, 1308, 512, 4032),
    (9, 1): (9, 81, 9, 81), (9, 2): (45, 396, 81, 720), (10, 1): (10, 100, 10, 100),
    (10, 2): (55, 540, 100, 990), (11, 1): (11, 121, 11, 121), (11, 2): (66, 715, 121, 1320),
    (12, 1): (12, 144, 12, 144), (12, 2): (78, 924, 144, 1716), (13, 1): (13, 169, 13, 169),
    (13, 2): (91, 1170, 169, 2184), (14, 1): (14, 196, 14, 196), (14, 2): (105, 1456, 196, 2730),
    (15, 1): (15, 225, 15, 225), (15, 2): (120, 1785, 225, 3360), (16, 1): (16, 256, 16, 256),
    (16, 2): (136, 2160, 256, 4080), (17, 1): (17, 289, 17, 289), (17, 2): (153, 2584, 289, 4896),
    (18, 1): (18, 324, 18, 324), (19, 1): (19, 361, 19, 361), (20, 1): (20, 400, 20, 400),
    (21, 1): (21, 441, 21, 441), (22, 1): (22, 484, 22, 484), (23, 1): (23, 529, 23, 529),
    (24, 1): (24, 576, 24, 576), (25, 1): (25, 625, 25, 625), (26, 1): (26, 676, 26, 676),
    (27, 1): (27, 729, 27, 729), (28, 1): (28, 784, 28, 784), (29, 1): (29, 841, 29, 841),
    (30, 1): (30, 900, 30, 900), (31, 1): (31, 961, 31, 961), (32, 1): (32, 1024, 32, 1024),
    (33, 1): (33, 1089, 33, 1089), (34, 1): (34, 1156, 34, 1156), (35, 1): (35, 1225, 35, 1225),
    (36, 1): (36, 1296, 36, 1296), (37, 1): (37, 1369, 37, 1369), (38, 1): (38, 1444, 38, 1444),
    (39, 1): (39, 1521, 39, 1521),
}


def test_dimensions_past_the_default_budget_equal_the_pinned_table():
    cases = [(m, k) for m in range(1, 40) for k in range(1, 14)
             if all(m ** d <= 5000 and d <= 13 for d in (k, k + 1))]
    assert sorted(PINNED_5000) == cases and len(cases) == 87
    kinds = [(harrison_dim, "trivial"), (harrison_dim, "regular"),
             (hochschild_dim, "trivial"), (hochschild_dim, "regular")]
    cold_rank_cache()
    wrong = [(dim.__name__, m, coeffs, k) for (m, k), want in PINNED_5000.items()
             for (dim, coeffs), value in zip(kinds, want) if dim(m, coeffs, k, budget=5000) != value]
    assert wrong == []


# ----- a differential that is zero by construction builds nothing ----------

def test_silent_coordinates_are_those_with_no_action_and_no_linear_part():
    # on the reference algebras with products, the value coordinates whose
    # Hochschild columns are empty in degrees 1 and 2; on a fat point, where no
    # product has a linear part, the engine's columns are empty on the
    # coordinates with no action: the trivial unit and the regular non-units
    products = [truncated_polynomial_algebra(2), truncated_polynomial_algebra(3), two_variable_square_zero()]
    fat_cases = ([(m, "trivial", {0}) for m in (1, 2, 3)]
                 + [(m, "regular", set(range(1, m + 1))) for m in (1, 2, 3)])
    cases = ([(a, coeffs, set()) for a in products for coeffs in ("trivial", "regular")]
             + [(etale_quadratic(), "trivial", {0}), (etale_quadratic(), "regular", set())])
    for a, coeffs, want in cases:
        quiet = set(range(value_dim(a, coeffs)))
        for k in (1, 2):
            columns, size = reference_full_coboundary(a, coeffs, k).columns, a.n ** k
            quiet -= {key // size for key, col in enumerate(columns) if col}
        assert quiet == want, (a.products, coeffs)
    for m, coeffs, want in fat_cases:
        quiet = set(range(CochainSpace(m, coeffs, 1).value_dim))
        for k in (1, 2):
            scalar_dim = CochainSpace(m, coeffs, k).scalar_dim
            for columns, size in ((full_coboundary(m, coeffs, k).columns, m ** k),
                                  (coboundary_matrix(m, coeffs, k).columns, scalar_dim)):
                quiet -= {idx // size for idx, col in enumerate(columns) if col}
        assert quiet == want, (m, coeffs)


def test_a_zero_differential_builds_no_codomain(monkeypatch):
    cobounds, spaces, kernels, applied = [], [], [], []
    real_cob, real_init = harrison.coboundary_matrix, CochainSpace.__init__
    real_kernel, real_image = harrison._shape_kernel, harrison._image

    def counting_init(self, m, coeffs, k, budget=None):
        spaces.append(k)
        real_init(self, m, coeffs, k, budget)

    def counting_cob(m, coeffs, k, budget=None):
        cobounds.append(k)
        return real_cob(m, coeffs, k, budget)

    monkeypatch.setattr(harrison, "coboundary_matrix", counting_cob)
    monkeypatch.setattr(CochainSpace, "__init__", counting_init)
    monkeypatch.setattr(harrison, "_shape_kernel", lambda k, shape: kernels.append(k) or real_kernel(k, shape))
    monkeypatch.setattr(harrison, "_image", lambda n, k, vec: applied.append(k) or real_image(n, k, vec))
    cold_rank_cache()
    # trivial coefficients: both ranks are 0, and only the degree-k kernels are built
    assert harrison_dim(2, "trivial", 6) == shuffle_dim(2, 6)
    assert (cobounds, spaces, applied) == ([], [], []) and max(kernels) == 6
    assert hochschild_dim(2, "trivial", 6) == 2 ** 6 and applied == []
    # regular coefficients: no whole map is built, and only the unit coordinate's
    # columns of one content per shape are applied: the kernel vectors of (2,)
    # and (1, 1) in degree 2 and of (2, 1) in degree 3, where (3,) has none
    del kernels[:]
    assert harrison_dim(2, "regular", 3) == fatpoint_tdim(2, 2)
    assert (cobounds, spaces) == ([], []) and max(kernels) == 4
    assert sorted(applied) == [2, 2, 3]
    want = dense_hochschild_dim(zero_table(2), "regular", 3)
    # Hochschild applies the unit words of one content per shape: 00, 01 and 10
    # in degree 2, 000 and the three words of (2, 1) in degree 3
    del applied[:]
    assert hochschild_dim(2, "regular", 3) == want
    assert sorted(applied) == [2] * 3 + [3] * 4
