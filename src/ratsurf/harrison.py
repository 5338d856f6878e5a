"""Brute-force Harrison and Hochschild cohomology of fat points.

The m-dimensional fat point is A = Q*1 (+) V with V spanned by e_1..e_m and
every product e_i e_j zero. Reduced cochains in degree k are multilinear
maps on A that vanish whenever an argument is 1, so they are determined by
their values on basis words (i_1..i_k) from V; coefficients are either the
residue field (V acts as zero) or A itself with its multiplication.

Differential, written on a k-cochain f evaluated at k+1 arguments:

    (d f)(a_0,..,a_k) = a_0 f(a_1,..,a_k)
                        + sum_{j=1..k} (-1)^j f(a_0,..,a_{j-1} a_j,..,a_k)
                        + (-1)^(k+1) a_k f(a_0,..,a_{k-1})

On basis words every interior product a_{j-1} a_j is zero, so only the two
outer terms are left.

Shuffle convention: a permutation s of {1..p+q} is a (p,q)-shuffle when
s(1) < ... < s(p) and s(p+1) < ... < s(p+q); it moves the tensor slot t to
slot s(t), so on tensors s.(a_1 x..x a_k) puts a_{s^-1(j)} in slot j, and
sh_{p,q} is the signed sum of all (p,q)-shuffles. A cochain f is shuffle
invariant when it kills the image of every sh_{p,k-p}, 0 < p < k; written
out, sum_s sgn(s) f(a_{s^-1(1)},..,a_{s^-1(k)}) = 0, which is exactly
"f vanishes on shuffle products". In degree 2 this says f is symmetric. The
differential preserves shuffle invariance; the coordinate extraction below
verifies that on every computed image and raises if it ever failed.

The shuffle constraints permute only the positions of a word, so they
preserve its multiset of letters. The invariant-cochain computation therefore
splits into blocks indexed by letter content, and blocks whose letter
multiplicities agree as partitions share one kernel computation up to
relabeling. This is what keeps the search spaces small enough for exact
arithmetic; a direct stacked-matrix computation over the full word space
gives the same dimensions and is pinned by tests on small cases. A block
needs the shuffle row sh(w[:p], w[p:]) only when the prefix w[:p] is a free
word of its own shape kernel, which spans the same rows (see _shape_kernel).

A cochain is a sparse dict keyed alpha * n**k + word: alpha is the value
coordinate and the word is read in base n, first letter most significant
(itertools.product order). One differential routine, _image, builds the
Harrison and the Hochschild matrices; only their ranks are read, each once,
by SparseMatrix.rank, which peels the columns that own a row before
qlinalg.Echelon eliminates the rest. The word budget is checked for every
degree a computation touches first; dimensions and zero_map_check then share
the ranks of d_k, each kept per process by m, coefficient kind and degree.

The outer terms come only from the action on the values, and e_i . 1 = e_i
is the only nonzero one. Trivial coefficients: the differential is the zero
map, with rank 0 and no codomain built. Regular: only the unit coordinate's
columns are nonempty.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import log2
from operator import itemgetter

from .qlinalg import Echelon, SparseMatrix
from .series import BudgetError

DEFAULT_BUDGET = 1500


def _need_int(name: str, x) -> None:
    """Refuse a bool or a non-int, which would otherwise pass for a number."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError("%s must be an int, not %r" % (name, x))


class FatPoint:
    """The m-dimensional fat point Q*1 (+) span(e_1..e_m): every product e_i e_j is 0."""

    __slots__ = ("n",)

    def __init__(self, m: int) -> None:
        _need_int("m", m)
        if m < 1:
            raise ValueError("need m >= 1")
        self.n = m


def make_fat_point(m: int) -> FatPoint:
    """The m-dimensional fat point, the algebra every engine function takes."""
    return FatPoint(m)


class CoefficientModule:
    """Coefficients for the complexes: the residue field or the algebra itself.

    kind "trivial": values in Q, every e_i acts as zero.
    kind "regular": values in A, basis 1, e_1, .., e_n, where e_i . 1 = e_i
    and e_i . e_j = 0.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str) -> None:
        if kind not in ("trivial", "regular"):
            raise ValueError("kind must be 'trivial' or 'regular'")
        self.kind = kind

    def dim(self, algebra: FatPoint) -> int:
        return 1 if self.kind == "trivial" else algebra.n + 1

    def __repr__(self) -> str:
        return "CoefficientModule(%r)" % self.kind


TRIVIAL = CoefficientModule("trivial")
REGULAR = CoefficientModule("regular")


def signed_shuffles(p: int, q: int) -> list:
    """All (p,q)-shuffles of {1..p+q} as (permutation tuple, sign).

    The tuple s satisfies s[t-1] = s(t); there are C(p+q, p) of them. Each s(t)
    of the first block exceeds exactly s(t) - t entries of the second, so the
    sign is (-1)^sum(s(t) - t) over t = 1..p.
    """
    if p < 1 or q < 1:
        raise ValueError("need p, q >= 1")
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


def _far_over(n: int, k: int, cap: int) -> bool:
    """Is n^k certainly over cap and too long to compute or print? k stays an int."""
    return n > 1 and k > (max(cap.bit_length(), 13000) + 1) / log2(n)


def _cap(budget: int | None, k: int) -> int:
    """The word-space cap a budget argument sets: DEFAULT_BUDGET for None, else budget >= 1.

    Every entry point calls it first, so it also refuses a degree k below 1,
    and a k or budget that is a bool or not an int.
    """
    _need_int("k", k)
    if budget is not None:
        _need_int("budget", budget)
    if k < 1:
        raise ValueError("need k >= 1")
    cap = DEFAULT_BUDGET if budget is None else budget
    if cap < 1:
        raise ValueError("budget must be positive")
    return cap


def _check_budget(n: int, degrees, cap: int) -> None:
    """Raise BudgetError, before any work, if some degree's word space n^k is over the cap.

    The shuffle constraints of one word number about 2^(k-1) (the splits
    p <= k/2), so 2^(k-1) is held to the same cap; it is compared by bit
    length and is never computed. It binds only for n = 1, since n^k >= 2^k
    otherwise.
    """
    for k in degrees:
        if _far_over(n, k, cap):
            raise BudgetError("word space %d^%d exceeds budget %d" % (n, k, cap))
        if n ** k > cap:
            raise BudgetError("word space %d^%d = %d exceeds budget %d" % (n, k, n ** k, cap))
        if k > cap.bit_length():  # 2^(k-1) > cap
            raise BudgetError("shuffle count 2^%d per word exceeds budget %d" % (k - 1, cap))


def check_budget(n: int, k: int, budget: int | None = None, hochschild: bool = False) -> None:
    """The up-front check of harrison_dim (word spaces n^k and n^(k+1)) or,
    with hochschild, of hochschild_dim (the full degree-k differential)."""
    cap = _cap(budget, k)
    if not hochschild:
        return _check_budget(n, (k, k + 1), cap)
    if _far_over(n, k + 1, cap) or n ** (k + 1) > cap:
        raise BudgetError("word space for the full degree-%d differential exceeds budget %d" % (k, cap))


def _multiset_words(counts: list):
    """Each word with counts[c] copies of letter c, once, in lexicographic order."""
    if not any(counts):
        yield ()
    for c, left in enumerate(counts):
        if left:
            counts[c] -= 1
            for rest in _multiset_words(counts):
                yield (c,) + rest
            counts[c] += 1


def _relabel(content) -> tuple:
    """A content's letters in canonical order (descending multiplicity, then letter) and its shape."""
    counts = Counter(content)
    ordered = sorted(counts, key=lambda a: (-counts[a], a))
    return ordered, tuple(counts[a] for a in ordered)


@lru_cache(maxsize=None)
def _is_free(word: tuple) -> bool:
    """Is word, relabeled canonically, a free word of its own shape kernel?"""
    ordered, shape = _relabel(word)
    words, _, free = _shape_kernel(len(word), shape)
    return words.index(tuple(map(ordered.index, word))) in free


@lru_cache(maxsize=None)
def _shape_kernel(k: int, shape: tuple):
    """Shuffle-constraint kernel on the words with letter multiplicities `shape`.

    shape is a descending multiplicity pattern for canonical letters 0,1,2,...
    Returns (words, basis, free_positions): words is the sorted tuple of
    block words; basis vectors are tuples indexed like words and
    free-position normalized, with int entries wherever the echelon pivot
    divides (Fractions otherwise); free_positions[t] is the word index at
    which basis vector t reads 1 and the others read 0.

    The rows are the signed shuffles sh(w[:p], w[p:]), p <= k/2, whose prefix
    w[:p] is a free word of its canonically relabeled degree-p shape kernel.
    They span every row, so the echelon form and the result are unchanged.
    By induction on p: modulo I_p, the span of the degree-p shuffle products,
    every word is a sum of free words (the degree-p echelon form), and for
    sh(y1, y2) in I_p, sh(sh(y1, y2), v) = sh(y1, sh(y2, v)) by associativity
    of the signed shuffle, rows of the shorter split len(y1).
    """
    words = list(_multiset_words(list(shape)))
    index = {w: t for t, w in enumerate(words)}
    constraints = Echelon()
    # sh_{k-p,p} of a word is +-sh_{p,k-p} of the word rotated by p letters,
    # so the splits p <= k/2 already give every constraint up to sign
    for p in range(1, k // 2 + 1):
        movers = _movers(p, k)
        for w in words:
            if not _is_free(w[:p]):
                continue
            # constraint: the functional kills sh(w) = sum_s sgn(s) (w shuffled by s)
            row = {}
            for take, sign in movers:
                j = index[take(w)]
                row[j] = row.get(j, 0) + sign
            constraints.add(row)
    n = len(words)
    basis = tuple(tuple(v.get(t, 0) for t in range(n)) for v in constraints.kernel_basis(n))
    return tuple(words), basis, tuple(constraints.free_columns(n))


@lru_cache(maxsize=None)
def _blocks(n: int, k: int):
    """Content blocks of the degree-k word space on letters 0..n-1.

    Each block is (words, basis, free_words): words are the actual words of
    that content as base-n integers, basis vectors are sparse dicts word ->
    value (the shape kernel's entries, so ints on integral kernels), and
    free_words lists the words whose values coordinatize the block's kernel.
    """
    places = [n ** (k - 1 - t) for t in range(k)]
    out = []
    for content in itertools.combinations_with_replacement(range(n), k):
        ordered, shape = _relabel(content)
        cwords, cbasis, cfree = _shape_kernel(k, shape)
        words = tuple(sum(ordered[c] * p for c, p in zip(cw, places)) for cw in cwords)
        basis = tuple({words[t]: x for t, x in enumerate(vec) if x} for vec in cbasis)
        out.append((words, basis, tuple(words[t] for t in cfree)))
    return tuple(out)


class CochainSpace:
    """Shuffle-invariant reduced cochains of one degree, with explicit basis.

    Basis cochains are indexed value-coordinate-major: cochain
    alpha * scalar_dim + t is the scalar kernel vector _vectors[t] (word ->
    value: ints wherever the kernel is integral, Fractions only where it is
    not) placed in value coordinate alpha, keyed alpha * n**k + word.
    """

    def __init__(self, algebra: FatPoint, module: CoefficientModule, k: int,
                 budget: int | None = None) -> None:
        _check_budget(algebra.n, (k,), _cap(budget, k))
        self.value_dim = module.dim(algebra)
        self._words = algebra.n ** k
        blocks = _blocks(algebra.n, k)
        # the scalar kernel vectors in block order, and each one's index by its free word
        self._vectors = [vec for _, basis, _ in blocks for vec in basis]
        self._free = {fw: t for t, fw in enumerate(fw for _, _, free in blocks for fw in free)}
        self.scalar_dim = len(self._vectors)
        self.dim = self.value_dim * self.scalar_dim

    def coords_of(self, func: dict) -> dict:
        """Coordinates {index: value} of a functional that lies in this space.

        Reads the entries at free words and checks that they rebuild the
        functional exactly; a mismatch means it was outside the invariant
        subspace, which no supported computation should produce.
        """
        coords, recon = {}, {}
        for key, c in func.items():
            alpha, w = divmod(key, self._words)
            t = self._free.get(w)
            if t is None or not c or not 0 <= alpha < self.value_dim:
                continue
            coords[alpha * self.scalar_dim + t] = c
            base = alpha * self._words
            for u, x in self._vectors[t].items():
                recon[base + u] = recon.get(base + u, 0) + c * x
        if {key: v for key, v in recon.items() if v} != {key: v for key, v in func.items() if v}:
            raise RuntimeError("functional does not lie in the shuffle-invariant subspace")
        return coords


def _image(n: int, k: int, vec: dict) -> dict:
    """The degree-k differential of the cochain vec (word -> value) in the unit coordinate.

    e_i . 1 = e_i is the only action, so the image lies in the coordinates
    i + 1, keyed as in degree k+1: prefixing letter i to word w gives
    i * n**k + w with +c and suffixing it gives w * n + i with (-1)^(k+1) c.
    """
    size, big = n ** k, n ** (k + 1)
    last_sign = (-1) ** (k + 1)
    out = {}
    get = out.get
    for w, c in vec.items():
        for i in range(n):
            first, last = (i + 1) * big + i * size + w, (i + 1) * big + w * n + i
            out[first] = get(first, 0) + c
            out[last] = get(last, 0) + last_sign * c
    return {u: v for u, v in out.items() if v}


def coboundary_matrix(algebra: FatPoint, module: CoefficientModule,
                      k: int, budget: int | None = None) -> SparseMatrix:
    """Matrix of the differential between shuffle-invariant spaces k -> k+1,
    in the CochainSpace bases, as sparse columns; only the unit coordinate's are nonempty."""
    dom = CochainSpace(algebra, module, k, budget)
    cod = CochainSpace(algebra, module, k + 1, budget)
    unit = dom._vectors if module.kind == "regular" else []
    columns = [cod.coords_of(_image(algebra.n, k, vec)) for vec in unit]
    columns += [{} for _ in range(dom.dim - len(columns))]
    return SparseMatrix(cod.dim, dom.dim, columns)


_ranks = {}  # (m, coefficient kind, hochschild, k) -> rank of d_k


def _rank(algebra: FatPoint, module: CoefficientModule, hochschild: bool,
          k: int, budget: int | None) -> int:
    """Rank of d_k (0 for k = 0), once per process; call it only after the caller's budget check.

    With trivial coefficients d_k is zero: its rank is 0, and no space and
    no column is built.
    """
    key = (algebra.n, module.kind, hochschild, k)
    if k and key not in _ranks:
        if module.kind == "trivial":
            _ranks[key] = 0
        else:
            matrix = (_full_coboundary(algebra, module, k) if hochschild
                      else coboundary_matrix(algebra, module, k, budget))
            _ranks[key] = matrix.rank()
    return _ranks.get(key, 0)


def harrison_dim(algebra: FatPoint, module: CoefficientModule,
                 k: int, budget: int | None = None) -> int:
    """dim of degree-k Harrison cohomology (shuffle-invariant complex)."""
    check_budget(algebra.n, k, budget)
    cochains = module.dim(algebra) * sum(len(basis) for _, basis, _ in _blocks(algebra.n, k))
    return cochains - sum(_rank(algebra, module, False, d, budget) for d in (k - 1, k))


def _full_coboundary(algebra: FatPoint, module: CoefficientModule, k: int) -> SparseMatrix:
    """Differential on all reduced cochains as sparse columns, numbered by key;
    only the unit coordinate's are nonempty."""
    size = algebra.n ** k
    ndom = module.dim(algebra) * size
    columns = [_image(algebra.n, k, {key: 1}) for key in range(size if module.kind == "regular" else 0)]
    columns += [{} for _ in range(ndom - len(columns))]
    return SparseMatrix(module.dim(algebra) * algebra.n ** (k + 1), ndom, columns)


def hochschild_dim(algebra: FatPoint, module: CoefficientModule,
                   k: int, budget: int | None = None) -> int:
    """dim of degree-k Hochschild cohomology on the full reduced complex."""
    check_budget(algebra.n, k, budget, hochschild=True)
    cochains = module.dim(algebra) * algebra.n ** k
    return cochains - sum(_rank(algebra, module, True, d, budget) for d in (k - 1, k))


def zero_map_check(m: int, k: int, budget: int | None = None) -> bool:
    """Check that restriction to residue-field values kills degree-k classes.

    For the m-dimensional fat point: every cocycle in the shuffle-invariant
    complex with algebra coefficients, after projecting its values to the
    residue field, must land in the image of the degree-(k-1) differential of
    the residue-field complex. Returns the verdict; True means the induced
    map on cohomology is zero in this degree.

    The trivial complex's image is 0, the projection keeps the unit
    coordinate, and d_k is nonzero only there, so the map is zero exactly
    when d_k has rank scalar_dim: injective on the unit coordinate's cochains.
    """
    algebra = make_fat_point(m)
    if m < 2:
        raise ValueError("need m >= 2")
    check_budget(m, k, budget)
    if k < 2:
        raise ValueError("need k >= 2")
    scalar_dim = sum(len(basis) for _, basis, _ in _blocks(m, k))
    return _rank(algebra, REGULAR, False, k, budget) == scalar_dim
