"""Brute-force Harrison and Hochschild cohomology of fat points.

The m-dimensional fat point is A = Q*1 (+) V with V spanned by e_1..e_m and
every product e_i e_j zero. Reduced cochains in degree k are multilinear
maps on A that vanish whenever an argument is 1, so they are determined by
their values on basis words (i_1..i_k) from V; coefficients are either the
residue field (V acts as zero) or A itself with its multiplication. The
engine takes the fat point as the int m and the coefficients by name,
"trivial" or "regular", as the oracle command's --coeffs does; _check refuses
bad arguments and degrees over the budget before any work.

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
Rows are built from smaller shuffle products: a shuffle of x and y starts
with the first letter of x or with that of y, so

    sh(x, y) = x_0 sh(x', y) + (-1)^|x| y_0 sh(x, y')

where x' drops the first letter x_0 of x, and y_0 passes the |x| letters of
x. _shuffle fills a memo of these sub-shuffles, each {word: coefficient}
with equal words merged and zeros dropped, for the whole process. A shape
kernel keys its words by their base-L codes, as the memo does, from its rows
to its blocks.

A cochain is a sparse dict keyed alpha * n**k + word: alpha is the value
coordinate and the word is read in base n, first letter most significant
(itertools.product order). One differential routine, _image, builds every
column, and one relabeling routine, _content_block, places a shape kernel on
a content, once per process and content, and not at all when the relabel
is the identity; only the ranks of the differentials are read, each once, by
SparseMatrix.rank, which peels the columns that own a row before
qlinalg.Echelon eliminates the rest. The dimensions and zero_map_check
share the ranks of d_k, which _rank's lru_cache keeps per process by m,
coefficient name, complex and degree.

The outer terms come only from the action on the values, and e_i . 1 = e_i
is the only nonzero one. Trivial coefficients: the differential is the zero
map, with rank 0 and nothing built. Regular: only the unit coordinate's
columns are nonempty, and a cochain on the words of a content c maps into
value coordinate x + 1 only at the content c + x, for each letter x. That
block of the codomain comes from c alone, so d_k, Harrison or Hochschild,
is block diagonal by content, and its rank is the sum over contents c of
the rank of the block M_c. Up to relabeling M_c depends only on k, the
shape of c and whether some letter is missing from c: for two missing
letters x and y, the image of a domain vector at y is its image at x with
x and y swapped, so the two row blocks have one kernel, and any number of
missing letters give the rank of one. _block_rank (on the content's kernel
vectors) and _hochschild_block_rank (on its unit words) rank one canonical
M_c per (k, shape, outside), and _shapes counts the contents of each
shape. Each Harrison image is still rebuilt from its free-word coordinates
(_read_back), so one outside the shuffle-invariant subspace raises.
CochainSpace and coboundary_matrix build the whole Harrison d_k in one
basis; they are the reference the block ranks are tested against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import factorial, log2

from .qlinalg import Echelon, SparseMatrix
from .series import BudgetError, _need_int

DEFAULT_BUDGET = 1500


def _far_over(n: int, k: int, cap: int) -> bool:
    """Is n^k certainly over cap and too long to compute or print? k stays an int."""
    return n > 1 and k > (max(cap.bit_length(), 13000) + 1) / log2(n)


def _check(m: int, coeffs: str, k: int, budget: int | None, offsets) -> int:
    """Refuse, before any work, an entry point's arguments, then each degree k + offset over
    the budget; return the value dimension, 1 for "trivial" and m + 1 for "regular" (module doc).

    In order: a bool or a non-int m, an m below 1, a coeffs other than "trivial" and "regular",
    a bool or a non-int k or budget, a k below 1 and a budget below 1 (None is DEFAULT_BUDGET).
    The offsets are added only then, to an int. A degree d is over the budget when its word
    space m^d is, or 2^(d-1), about the signed shuffles of one word over the splits p <= d/2,
    compared by bit length and never computed: the rows come from memoized sub-shuffles, but
    for m = 1, whose word space is always 1, this is the only bound on d.
    """
    _need_int(m=m)
    if m < 1:
        raise ValueError("need m >= 1")
    if coeffs not in ("trivial", "regular"):
        raise ValueError("coeffs must be 'trivial' or 'regular', not %r" % (coeffs,))
    _need_int(k=k)
    if budget is not None:
        _need_int(budget=budget)
    if k < 1:
        raise ValueError("need k >= 1")
    cap = DEFAULT_BUDGET if budget is None else budget
    if cap < 1:
        raise ValueError("budget must be positive")
    for d in (k + offset for offset in offsets):
        if _far_over(m, d, cap):
            raise BudgetError("word space %d^%d exceeds budget %d" % (m, d, cap))
        if m ** d > cap:
            raise BudgetError("word space %d^%d = %d exceeds budget %d" % (m, d, m ** d, cap))
        if d > cap.bit_length():  # 2^(d-1) > cap
            raise BudgetError("shuffle count 2^%d per word exceeds budget %d" % (d - 1, cap))
    return 1 if coeffs == "trivial" else m + 1


def _multiset_words(shape) -> list:
    """Each word with shape[c] copies of letter c, once, in lexicographic order.

    Iterative: from the sorted word, each next word finds the last ascent
    w[i] < w[i+1], swaps w[i] with the last letter greater than it and
    reverses the tail after i.
    """
    w = [c for c, count in enumerate(shape) for _ in range(count)]
    words = [tuple(w)]
    while True:
        i = len(w) - 2
        while i >= 0 and w[i] >= w[i + 1]:
            i -= 1
        if i < 0:
            return words
        j = len(w) - 1
        while w[j] <= w[i]:
            j -= 1
        w[i], w[j] = w[j], w[i]
        w[i + 1:] = w[:i:-1]
        words.append(tuple(w))


_shuffles = {}  # (L, p, x, q, y) -> sh(x, y) for base-L codes x, y of lengths p, q; see _shuffle


def _shuffle(L: int, p: int, x: int, q: int, y: int) -> dict:
    """The signed shuffle product sh(x, y) as {code: coefficient}, zeros dropped.

    Words on letters 0..L-1 are base-L integers, first letter most
    significant; x has length p and y length q. sh(x, y) is the signed sum
    of the (p,q)-shuffles of the word xy (module doc). The first letter of a
    shuffle is x_0 or y_0, and y_0 first passes all p letters of x:

        sh(x, y) = x_0 sh(x', y) + (-1)^p y_0 sh(x, y'),   sh(x, ()) = x, sh((), y) = y.

    The entries are filled without recursion, each suffix pair (x[i:], y[j:])
    after the two it extends, and kept for the process in _shuffles, shared
    by every shape and degree on L letters. An entry is never mutated, so a
    caller copies it before changing it.
    """
    want = (L, p, x, q, y)
    if want in _shuffles:
        return _shuffles[want]
    power = [L ** e for e in range(p + q + 1)]
    todo = [want]  # pairs to fill, each after the two it extends; none is pushed twice
    while todo:
        key = todo[-1]
        _, lx, u, ly, v = key
        if not lx or not ly:  # one side is empty: the other word alone
            _shuffles[key] = {u * power[ly] + v: 1}
            todo.pop()
            continue
        after_x = (L, lx - 1, u % power[lx - 1], ly, v)
        after_y = (L, lx, u, ly - 1, v % power[ly - 1])
        tail_x, tail_y = _shuffles.get(after_x), _shuffles.get(after_y)
        if tail_x is None or tail_y is None:
            if tail_x is None:
                todo.append(after_x)
            if tail_y is None:
                todo.append(after_y)
            continue
        top = power[lx + ly - 1]
        lead = u // power[lx - 1] * top
        out = {lead + w: c for w, c in tail_x.items()}
        lead = v // power[ly - 1] * top
        sign = -1 if lx % 2 else 1
        for w, c in tail_y.items():
            w += lead
            c = out.get(w, 0) + sign * c
            if c:
                out[w] = c
            else:
                del out[w]
        _shuffles[key] = out
        todo.pop()
    return _shuffles[want]


def _relabel(content) -> tuple:
    """A content's letters in canonical order (descending multiplicity, then letter) and its shape."""
    counts = Counter(content)
    ordered = sorted(counts, key=lambda a: (-counts[a], a))
    return ordered, tuple(counts[a] for a in ordered)


@lru_cache(maxsize=None)
def _is_free(word: tuple) -> bool:
    """Is word, relabeled canonically and read as a code, a free code of its own shape kernel?"""
    ordered, shape = _relabel(word)
    code = sum(ordered.index(a) * len(shape) ** t for t, a in enumerate(reversed(word)))
    return code in _shape_kernel(len(word), shape)[2]


@lru_cache(maxsize=None)
def _shape_kernel(k: int, shape: tuple):
    """Shuffle-constraint kernel on the words with letter multiplicities `shape`.

    shape is a descending multiplicity pattern for canonical letters 0,1,2,...
    A word is its base-L code, L = len(shape), as in _shuffle's memo.
    Returns (codes, basis, free): codes are the shape's words in ascending
    (lexicographic) order; basis vectors are sparse dicts code -> value, free
    normalized, with int entries wherever the echelon pivot divides
    (Fractions otherwise); free[t] is the code at which basis vector t reads
    1 and the others read 0.

    The rows are the signed shuffles sh(w[:p], w[p:]), p <= k/2, whose prefix
    w[:p] is a free word of its canonically relabeled degree-p shape kernel.
    They span every row, so the echelon form and the result are unchanged.
    By induction on p: modulo I_p, the span of the degree-p shuffle products,
    every word is a sum of free words (the degree-p echelon form), and for
    sh(y1, y2) in I_p, sh(sh(y1, y2), v) = sh(y1, sh(y2, v)) by associativity
    of the signed shuffle, rows of the shorter split len(y1).

    Each row is _shuffle's memo entry itself, built from the sub-shuffles of
    the suffixes of x and y by sh(x, y) = x_0 sh(x', y) + (-1)^|x| y_0 sh(x, y')
    with equal words merged, so the rows cancel as they are built: on
    (9, (5, 4)) a row has 8 nonzeros on average, of up to 126 shuffles.
    """
    words = _multiset_words(shape)
    L = len(shape)
    places = [L ** (k - 1 - t) for t in range(k)]
    codes = tuple(sum(a * place for a, place in zip(w, places)) for w in words)
    rows = []
    # sh_{k-p,p} of a word is +-sh_{p,k-p} of the word rotated by p letters,
    # so the splits p <= k/2 already give every constraint up to sign
    for p in range(1, k // 2 + 1):
        low = L ** (k - p)
        for w, code in zip(words, codes):
            if _is_free(w[:p]):
                # constraint: the functional kills sh(w[:p], w[p:]); Echelon copies the memo's entry
                rows.append(_shuffle(L, p, code // low, k - p, code % low))
    # rows whose first column comes last go first: a new pivot then seldom lies in a
    # stored row, so adding a row seldom clears one; the echelon form is unique, so
    # the order changes only the cost
    rows.sort(key=lambda row: min(row, default=-1), reverse=True)
    constraints = Echelon(rows)
    return codes, tuple(constraints.kernel_basis(codes)), tuple(constraints.free_columns(codes))


@lru_cache(maxsize=None)
def _content_block(n: int, k: int, content: tuple) -> tuple:
    """The block of one degree-k content, a sorted tuple of letters 0..n-1, once per process:
    its shape kernel's (codes, basis, free) with each code relabeled to the content's letters
    and read in base n; the kernel itself when the relabel is the identity on n = len(shape) letters."""
    ordered, shape = _relabel(content)
    block = _shape_kernel(k, shape)
    L = len(shape)
    if n == L and ordered == list(range(n)):
        return block
    codes, basis, free = block
    places = [(L ** t, n ** t) for t in range(k)]
    new = {code: sum(ordered[code // low % L] * place for low, place in places) for code in codes}
    return (tuple(new.values()), tuple({new[u]: x for u, x in vec.items()} for vec in basis),
            tuple(new[f] for f in free))


@lru_cache(maxsize=None)
def _blocks(n: int, k: int):
    """The content blocks (_content_block) of the degree-k word space on letters 0..n-1."""
    return tuple(_content_block(n, k, content)
                 for content in itertools.combinations_with_replacement(range(n), k))


def _partitions(k: int, parts: int, largest: int | None = None):
    """The descending tuples of positive ints with sum k, at most `parts` long; the first is >= k / parts."""
    if not k:
        yield ()
    elif parts:
        for first in range(min(k, largest or k), -(-k // parts) - 1, -1):
            for rest in _partitions(k - first, parts - 1, first):
                yield (first,) + rest


@lru_cache(maxsize=None)
def _shapes(n: int, k: int) -> tuple:
    """The shapes of the degree-k contents on n letters, each with its number of contents:
    one with l parts, r_j of them equal to j, gives its parts letters in n! / ((n - l)! prod r_j!) ways."""
    shapes = []
    for shape in _partitions(k, n):
        count = factorial(n) // factorial(n - len(shape))
        for repeats in Counter(shape).values():
            count //= factorial(repeats)
        shapes.append((shape, count))
    return tuple(shapes)


def _census(n: int, k: int) -> int:
    """The number of shuffle-invariant scalar cochains of degree k on n letters."""
    return sum(count * len(_shape_kernel(k, shape)[1]) for shape, count in _shapes(n, k))


@lru_cache(maxsize=None)
def _block_rank(k: int, shape: tuple, outside: bool) -> int:
    """Rank of the regular d_k on one content of shape `shape`, which misses
    some letter exactly when outside; see the module doc.

    The content is canonical on n = len(shape) + outside letters, the missing
    one last. Each image is read back at the free words of its codomain
    blocks (_read_back, as CochainSpace.coords_of does), so an image outside
    the shuffle-invariant subspace raises instead of becoming a column.
    """
    n = len(shape) + outside
    content = tuple(a for a, c in enumerate(shape) for _ in range(c))
    big = n ** (k + 1)
    free = {}  # a free word's key in value coordinate x + 1 -> (row, base, its basis vector)
    for x in range(n):
        _, basis, free_words = _content_block(n, k + 1, tuple(sorted(content + (x,))))
        base = (x + 1) * big
        for fw, vec in zip(free_words, basis):
            free[base + fw] = (len(free), base, vec)
    columns = [_read_back(_image(n, k, vec), free.get) for vec in _content_block(n, k, content)[1]]
    return SparseMatrix(len(free), len(columns), columns).rank()


@lru_cache(maxsize=None)
def _hochschild_block_rank(k: int, shape: tuple, outside: bool) -> int:
    """Rank of the regular Hochschild d_k on the unit words of one content, canonical as
    in _block_rank; every word is a codomain coordinate, so each image is a column as it stands."""
    n = len(shape) + outside
    codes = [0]  # a one-part shape's one word, placed without spelling out its k letters
    if len(shape) > 1:
        places = [n ** (k - 1 - t) for t in range(k)]
        codes = [sum(a * p for a, p in zip(w, places)) for w in _multiset_words(shape)]
    columns = [_image(n, k, {code: 1}) for code in codes]
    return SparseMatrix((n + 1) * n ** (k + 1), len(columns), columns).rank()


class CochainSpace:
    """Shuffle-invariant reduced cochains of one degree, with explicit basis.

    Basis cochains are indexed value-coordinate-major: cochain
    alpha * scalar_dim + t is the scalar kernel vector _vectors[t] (word ->
    value: ints wherever the kernel is integral, Fractions only where it is
    not) placed in value coordinate alpha, keyed alpha * n**k + word.
    """

    def __init__(self, m: int, coeffs: str, k: int, budget: int | None = None) -> None:
        self.value_dim = _check(m, coeffs, k, budget, (0,))
        self._words = m ** k
        blocks = _blocks(m, k)
        # the scalar kernel vectors in block order, and each one's index by its free word
        self._vectors = [vec for _, basis, _ in blocks for vec in basis]
        self._free = {fw: t for t, fw in enumerate(fw for _, _, free in blocks for fw in free)}
        self.scalar_dim = len(self._vectors)
        self.dim = self.value_dim * self.scalar_dim

    def coords_of(self, func: dict) -> dict:
        """Coordinates {index: value} of a functional that lies in this space (_read_back)."""
        return _read_back(func, self._locate)

    def _locate(self, key: int):
        alpha, w = divmod(key, self._words)
        t = self._free.get(w)
        if t is not None and 0 <= alpha < self.value_dim:
            return alpha * self.scalar_dim + t, alpha * self._words, self._vectors[t]
        return None


def _read_back(func: dict, locate) -> dict:
    """Coordinates {row: value} of a functional, read at its free keys.

    locate(key) is None off the free keys and (row, base, vector) at one:
    the coordinate's row, and its basis vector, whose word u sits at key
    base + u. The coordinates must rebuild the functional exactly; a
    mismatch means it was outside the invariant subspace, which no supported
    computation should produce.
    """
    coords, recon = {}, {}
    for key, c in func.items():
        found = locate(key) if c else None
        if found is not None:
            row, base, vec = found
            coords[row] = c
            for u, x in vec.items():
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


def coboundary_matrix(m: int, coeffs: str, k: int, budget: int | None = None) -> SparseMatrix:
    """Matrix of the differential between shuffle-invariant spaces k -> k+1,
    in the CochainSpace bases, as sparse columns; only the unit coordinate's are nonempty."""
    dom = CochainSpace(m, coeffs, k, budget)
    cod = CochainSpace(m, coeffs, k + 1, budget)
    unit = dom._vectors if coeffs == "regular" else []
    columns = [cod.coords_of(_image(m, k, vec)) for vec in unit]
    columns += [{} for _ in range(dom.dim - len(columns))]
    return SparseMatrix(cod.dim, dom.dim, columns)


@lru_cache(maxsize=None)
def _rank(m: int, coeffs: str, hochschild: bool, k: int) -> int:
    """Rank of d_k (0 for k = 0), once per process; call it only after the caller's budget check.
    Trivial coefficients give rank 0 with nothing built; a regular d_k is summed over content shapes."""
    if not k or coeffs == "trivial":
        return 0
    block_rank = _hochschild_block_rank if hochschild else _block_rank
    return sum(count * block_rank(k, shape, len(shape) < m) for shape, count in _shapes(m, k))


def harrison_dim(m: int, coeffs: str, k: int, budget: int | None = None) -> int:
    """dim of degree-k Harrison cohomology (shuffle-invariant complex)."""
    cochains = _check(m, coeffs, k, budget, (0, 1)) * _census(m, k)
    return cochains - sum(_rank(m, coeffs, False, d) for d in (k - 1, k))


def hochschild_dim(m: int, coeffs: str, k: int, budget: int | None = None) -> int:
    """dim of degree-k Hochschild cohomology on the full reduced complex, ranked by content shape."""
    values, cap = _check(m, coeffs, k, budget, ()), budget or DEFAULT_BUDGET
    if _far_over(m, k + 1, cap) or m ** (k + 1) > cap:
        raise BudgetError("word space for the full degree-%d differential exceeds budget %d" % (k, cap))
    return values * m ** k - sum(_rank(m, coeffs, True, d) for d in (k - 1, k))


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
    _need_int(m=m)
    if m < 2:
        raise ValueError("need m >= 2")
    _check(m, "trivial", k, budget, (0, 1))  # the budget does not depend on the coefficients
    if k < 2:
        raise ValueError("need k >= 2")
    return _rank(m, "regular", False, k) == _census(m, k)
