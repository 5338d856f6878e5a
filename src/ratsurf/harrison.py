"""Brute-force Harrison and Hochschild cohomology of finite commutative algebras.

The algebra is A = Q*1 (+) V with V spanned by e_1..e_n and the products
e_i e_j given by structure constants (a scalar part along 1 plus a linear
part in V). Reduced cochains in degree k are multilinear maps on A that
vanish whenever an argument is 1, so they are determined by their values on
basis words (i_1..i_k) from V; coefficients are either the residue field
(V acts as zero) or A itself with its multiplication.

Differential, written on a k-cochain f evaluated at k+1 arguments:

    (d f)(a_0,..,a_k) = a_0 f(a_1,..,a_k)
                        + sum_{j=1..k} (-1)^j f(a_0,..,a_{j-1} a_j,..,a_k)
                        + (-1)^(k+1) a_k f(a_0,..,a_{k-1})

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
gives the same dimensions and is pinned by tests on small cases.

A cochain is a sparse dict keyed alpha * n**k + word: alpha is the value
coordinate and the word is read in base n, first letter most significant
(itertools.product order). One differential routine on these keys builds the
Harrison and the Hochschild matrices, each eliminated once by qlinalg.Echelon.
The word budget is checked for every degree a computation touches first.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import log2
from operator import itemgetter

from .qlinalg import Echelon, SparseMatrix, as_exact
from .series import BudgetError

DEFAULT_BUDGET = 1500


class FiniteLocalAlgebra:
    """Commutative associative algebra Q*1 (+) span(e_1..e_n).

    products[i][j] = (scalar, linear) encodes e_i e_j = scalar * 1 +
    sum_v linear[v] e_v, indices 0-based. Each constant is stored as an int
    when it is integral and as a Fraction otherwise. Commutativity and
    associativity are checked on basis elements at construction time.
    """

    __slots__ = ("n", "products", "_expansions")

    def __init__(self, products) -> None:
        n = len(products)
        table = []
        for i in range(n):
            if len(products[i]) != n:
                raise ValueError("structure constant table must be square")
            row = []
            for j in range(n):
                scalar, linear = products[i][j]
                linear = tuple(as_exact(x) for x in linear)
                if len(linear) != n:
                    raise ValueError("linear part of e_%d e_%d has wrong length" % (i, j))
                row.append((as_exact(scalar), linear))
            table.append(tuple(row))
        self.n = n
        self.products = tuple(table)
        for i in range(n):
            for j in range(i):
                if table[i][j] != table[j][i]:
                    raise ValueError("structure constants are not commutative at (%d, %d)" % (i, j))
        self._check_associativity()
        # reverse index: which ordered products e_i e_j hit e_v, and with what weight
        expansions = [[] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for v, ccoef in enumerate(table[i][j][1]):
                    if ccoef:
                        expansions[v].append((i, j, ccoef))
        self._expansions = tuple(tuple(e) for e in expansions)

    def product(self, i: int, j: int):
        return self.products[i][j]

    def _mul_elem_basis(self, elem, k: int):
        # elem = (scalar, vector); returns elem * e_k in the same form
        scalar, vec = elem
        out_s = 0
        out_v = [0] * self.n
        out_v[k] += scalar
        for u, x in enumerate(vec):
            if x:
                s2, lin2 = self.products[u][k]
                out_s += x * s2
                for v, y in enumerate(lin2):
                    if y:
                        out_v[v] += x * y
        return out_s, tuple(out_v)

    def _check_associativity(self) -> None:
        for i in range(self.n):
            for j in range(self.n):
                eij = self.products[i][j]
                for k in range(self.n):
                    left = self._mul_elem_basis(eij, k)
                    # e_i (e_j e_k) = (e_j e_k) e_i by commutativity
                    right = self._mul_elem_basis(self.products[j][k], i)
                    if left != right:
                        raise ValueError(
                            "structure constants are not associative at (%d, %d, %d)" % (i, j, k)
                        )


def make_fat_point(m: int) -> FiniteLocalAlgebra:
    """The m-dimensional fat point: e_i e_j = 0 for all i, j.

    Built directly: a zero table needs no O(m^5) associativity check.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    zero = (0, (0,) * m)
    algebra = object.__new__(FiniteLocalAlgebra)
    algebra.n, algebra.products, algebra._expansions = m, ((zero,) * m,) * m, ((),) * m
    return algebra


class CoefficientModule:
    """Coefficients for the complexes: the residue field or the algebra itself.

    kind "trivial": values in Q, every e_i acts as zero.
    kind "regular": values in A, basis 1, e_1, .., e_n, honest multiplication.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str) -> None:
        if kind not in ("trivial", "regular"):
            raise ValueError("kind must be 'trivial' or 'regular'")
        self.kind = kind

    def dim(self, algebra: FiniteLocalAlgebra) -> int:
        return 1 if self.kind == "trivial" else algebra.n + 1

    def act(self, algebra: FiniteLocalAlgebra, i: int, alpha: int):
        """e_i . (value basis vector alpha) as [(beta, coefficient)].

        Regular value basis: index 0 is the unit, index v+1 is e_v.
        """
        if self.kind == "trivial":
            return []
        if alpha == 0:
            return [(i + 1, 1)]
        scalar, linear = algebra.product(i, alpha - 1)
        out = []
        if scalar:
            out.append((0, scalar))
        for v, c in enumerate(linear):
            if c:
                out.append((v + 1, c))
        return out

    def __repr__(self) -> str:
        return "CoefficientModule(%r)" % self.kind


TRIVIAL = CoefficientModule("trivial")
REGULAR = CoefficientModule("regular")


def _perm_sign(perm) -> int:
    inv = 0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                inv += 1
    return -1 if inv % 2 else 1


def signed_shuffles(p: int, q: int) -> list:
    """All (p,q)-shuffles of {1..p+q} as (permutation tuple, sign).

    The tuple s satisfies s[t-1] = s(t); there are C(p+q, p) of them.
    """
    if p < 1 or q < 1:
        raise ValueError("need p, q >= 1")
    total = p + q
    out = []
    for first in itertools.combinations(range(1, total + 1), p):
        chosen = set(first)
        rest = tuple(x for x in range(1, total + 1) if x not in chosen)
        perm = first + rest
        out.append((perm, _perm_sign(perm)))
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


def _check_budget(n: int, degrees, budget: int | None) -> None:
    """Raise BudgetError, before any work, if some degree's word space n^k is over the cap.

    The shuffle constraints of one word number about 2^(k-1) (the splits
    p <= k/2), so 2^(k-1) is held to the same cap; it is compared by bit
    length and is never computed. It binds only for n = 1, since n^k >= 2^k
    otherwise.
    """
    cap = DEFAULT_BUDGET if budget is None else budget
    if cap < 1:
        raise ValueError("budget must be positive")
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
    if not hochschild:
        return _check_budget(n, (k, k + 1), budget)
    cap = DEFAULT_BUDGET if budget is None else budget
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


@lru_cache(maxsize=None)
def _shape_kernel(k: int, shape: tuple):
    """Shuffle-constraint kernel on the words with letter multiplicities `shape`.

    shape is a descending multiplicity pattern for canonical letters 0,1,2,...
    Returns (words, basis, free_positions): words is the sorted tuple of
    block words; basis vectors are tuples indexed like words and
    free-position normalized, with int entries wherever the echelon pivot
    divides (Fractions otherwise); free_positions[t] is the word index at
    which basis vector t reads 1 and the others read 0.
    """
    words = list(_multiset_words(list(shape)))
    index = {w: t for t, w in enumerate(words)}
    constraints = Echelon()
    # sh_{k-p,p} of a word is +-sh_{p,k-p} of the word rotated by p letters,
    # so the splits p <= k/2 already give every constraint up to sign
    for p in range(1, k // 2 + 1):
        movers = _movers(p, k)
        for w in words:
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
        counts = Counter(content)
        # canonical letter c gets the c-th largest multiplicity; ties by letter
        ordered = sorted(counts, key=lambda a: (-counts[a], a))
        cwords, cbasis, cfree = _shape_kernel(k, tuple(counts[a] for a in ordered))
        words = tuple(sum(ordered[c] * p for c, p in zip(cw, places)) for cw in cwords)
        basis = tuple({words[t]: x for t, x in enumerate(vec) if x} for vec in cbasis)
        out.append((words, basis, tuple(words[t] for t in cfree)))
    return tuple(out)


class CochainSpace:
    """Shuffle-invariant reduced cochains of one degree, with explicit basis.

    Basis functionals are indexed value-coordinate-major: functional
    alpha * scalar_dim + t is the t-th scalar kernel vector placed in value
    coordinate alpha. Functionals are sparse dicts keyed alpha * n**k + word,
    holding the scalar kernel entries as they are: ints wherever the kernel
    is integral, Fractions only where it is not.
    """

    def __init__(self, algebra: FiniteLocalAlgebra, module: CoefficientModule, k: int,
                 budget: int | None = None) -> None:
        if k < 1:
            raise ValueError("need degree k >= 1")
        _check_budget(algebra.n, (k,), budget)
        self.value_dim = module.dim(algebra)
        self._words = algebra.n ** k
        blocks = _blocks(algebra.n, k)
        # the scalar kernel vectors in block order, and each one's index by its free word
        self._vectors = [vec for _, basis, _ in blocks for vec in basis]
        self._free = {fw: t for t, fw in enumerate(fw for _, _, free in blocks for fw in free)}
        self.scalar_dim = len(self._vectors)
        self.dim = self.value_dim * self.scalar_dim

    def functional(self, idx: int) -> dict:
        if not (0 <= idx < self.dim):
            raise IndexError("functional index out of range")
        alpha, t = divmod(idx, self.scalar_dim)
        return {alpha * self._words + w: c for w, c in self._vectors[t].items()}

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


def _action_table(algebra: FiniteLocalAlgebra, module: CoefficientModule) -> list:
    """acts[alpha] lists (i, beta, a) for every term a * beta of e_i . alpha."""
    return [[(i, beta, a) for i in range(algebra.n) for beta, a in module.act(algebra, i, alpha)]
            for alpha in range(module.dim(algebra))]


def apply_differential(algebra: FiniteLocalAlgebra, k: int, func: dict, acts: list) -> dict:
    """Apply the degree-k differential to a sparse reduced cochain.

    func and its image are keyed alpha * n**k + word in degrees k and k+1, and
    acts is the module's _action_table. Prefixing letter i to word x gives
    i * n**k + x and suffixing x * n + i; an interior product e_i e_j is spliced
    into the word, its scalar part vanishing in the reduced complex.
    """
    n, expansions = algebra.n, algebra._expansions
    size, big = n ** k, n ** (k + 1)
    places = [n ** (k - 1 - t) for t in range(k)] if any(expansions) else ()
    last_sign = (-1) ** (k + 1)
    out = {}
    get = out.get
    for key, c in func.items():
        alpha, x = divmod(key, size)
        for i, beta, a in acts[alpha]:
            first, last = beta * big + i * size + x, beta * big + x * n + i
            out[first] = get(first, 0) + c * a
            out[last] = get(last, 0) + last_sign * c * a
        for t, place in enumerate(places):
            head, letter, tail = x // (place * n), x // place % n, x % place
            signed = -c if t % 2 == 0 else c
            for i, j, coef in expansions[letter]:
                u = alpha * big + ((head * n + i) * n + j) * place + tail
                out[u] = get(u, 0) + signed * coef
    return {u: v for u, v in out.items() if v}


def shuffle_invariant_dim(algebra: FiniteLocalAlgebra, module: CoefficientModule,
                          k: int, budget: int | None = None) -> int:
    """Dimension of the shuffle-invariant reduced k-cochains."""
    return CochainSpace(algebra, module, k, budget).dim


def coboundary_matrix(algebra: FiniteLocalAlgebra, module: CoefficientModule,
                      k: int, budget: int | None = None) -> SparseMatrix:
    """Matrix of the differential between shuffle-invariant spaces k -> k+1,
    in the CochainSpace bases, as sparse columns."""
    dom = CochainSpace(algebra, module, k, budget)
    cod = CochainSpace(algebra, module, k + 1, budget)
    acts = _action_table(algebra, module)
    columns = [cod.coords_of(apply_differential(algebra, k, dom.functional(idx), acts))
               for idx in range(dom.dim)]
    return SparseMatrix(cod.dim, dom.dim, columns)


def harrison_dim(algebra: FiniteLocalAlgebra, module: CoefficientModule,
                 k: int, budget: int | None = None) -> int:
    """dim of degree-k Harrison cohomology (shuffle-invariant complex)."""
    if k < 1:
        raise ValueError("need k >= 1")
    check_budget(algebra.n, k, budget)
    outgoing = coboundary_matrix(algebra, module, k, budget)
    incoming_rank = 0 if k == 1 else coboundary_matrix(algebra, module, k - 1, budget).rank()
    return outgoing.kernel_dim() - incoming_rank


def _full_coboundary(algebra: FiniteLocalAlgebra, module: CoefficientModule, k: int) -> SparseMatrix:
    """Differential on all reduced cochains as sparse columns, numbered by key."""
    acts = _action_table(algebra, module)
    ndom = module.dim(algebra) * algebra.n ** k
    columns = [apply_differential(algebra, k, {key: 1}, acts) for key in range(ndom)]
    return SparseMatrix(module.dim(algebra) * algebra.n ** (k + 1), ndom, columns)


def hochschild_dim(algebra: FiniteLocalAlgebra, module: CoefficientModule,
                   k: int, budget: int | None = None) -> int:
    """dim of degree-k Hochschild cohomology on the full reduced complex."""
    if k < 1:
        raise ValueError("need k >= 1")
    check_budget(algebra.n, k, budget, hochschild=True)
    outgoing = _full_coboundary(algebra, module, k)
    incoming_rank = 0 if k == 1 else _full_coboundary(algebra, module, k - 1).rank()
    return outgoing.kernel_dim() - incoming_rank


def zero_map_check(m: int, k: int, budget: int | None = None) -> bool:
    """Check that restriction to residue-field values kills degree-k classes.

    For the m-dimensional fat point: every cocycle in the shuffle-invariant
    complex with algebra coefficients, after projecting its values to the
    residue field, must land in the image of the degree-(k-1) differential of
    the residue-field complex. Returns the verdict; True means the induced
    map on cohomology is zero in this degree.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if k < 2:
        raise ValueError("need k >= 2")
    check_budget(m, k, budget)
    algebra = make_fat_point(m)
    outgoing = coboundary_matrix(algebra, REGULAR, k, budget)
    triv = CochainSpace(algebra, TRIVIAL, k, budget)
    # the span of the degree-(k-1) image, eliminated once for every cocycle
    triv_image = Echelon(coboundary_matrix(algebra, TRIVIAL, k - 1, budget).columns)
    for coords in outgoing.kernel_basis():
        # residue projection: the unit coordinate (alpha = 0), the trivial space's functionals
        projected = {}
        for idx, c in coords.items():
            if idx < triv.scalar_dim:
                for key, x in triv.functional(idx).items():
                    projected[key] = projected.get(key, 0) + c * x
        if triv_image.reduce(triv.coords_of(projected)):
            return False
    return True
