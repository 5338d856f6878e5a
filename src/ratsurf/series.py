"""Closed-form side of the dimension computations.

Two families of numbers drive everything here:

* shuffle_dim(m, k): the dimension of the shuffle-invariant k-cochains on an
  m-dimensional space (the free Lie superalgebra on m odd generators). A
  whole row k = 1..order comes from one integer divisor-sum recurrence; the
  tests check it against the Moebius sum, one k at a time.
  For the m-dimensional fat point with coefficients in the residue field this
  is exactly the space of Harrison k-cochains, which is what the brute-force
  engine in harrison.py recomputes from scratch.

* cone_tdim(i, d): the dimension of the i-th cotangent module of the cone
  over the rational normal curve of degree d, read off as the t^i coefficient
  of a generating series assembled from the shuffle dimensions.

Every coefficient is a Python int: the shuffle dimensions are integer sums,
and the cotangent series is built from them by integer recurrences. The low
coefficients of a truncated series do not depend on where it is truncated,
so the module keeps one pair of rows, Q and P, per degree d, shared by
shuffle_dim_series, poincare_series and cone_tdim (and so by the series and
analyze commands). It rebuilds them, longer, only when a higher coefficient
is asked for, and then to twice their order but not past the digit cap. The
rows are kept for the life of the process, and there is no bound on how
many degrees are kept: about 24 MB for d = 3 at the cap.

The coefficients grow like (d-1)^k, so a deep or wide request can ask for
numbers too long to print; check_digits refuses those up front.
"""

from __future__ import annotations

from functools import lru_cache
from math import log10

# cap on the estimated decimal digits of the largest value a request prints,
# under Python's default limit of 4300 digits for turning an int into a string
MAX_DIGITS = 4000


class BudgetError(RuntimeError):
    """A request exceeds a work or size budget: a word space n^k or shuffle
    count over the brute-force cap, or series values over MAX_DIGITS digits."""


class IntegralityError(ArithmeticError):
    """A quantity that must be a nonnegative integer came out otherwise.

    This cannot happen for valid inputs; it fires only on an internal bug,
    so nothing catches it.
    """


def _need_int(**values) -> None:
    """Refuse a bool or a non-int, which would otherwise pass for a number, by its argument's name."""
    for name, x in values.items():
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError("%s must be an int, not %r" % (name, x))


def _shuffle_row(m: int, order: int) -> list:
    """[0, shuffle_dim(m, 1), ..., shuffle_dim(m, order)] in one integer pass.

    Solves (-m)^k = sum over divisors j of k of (-1)^j j c_j(m) for c_k in
    turn: acc[k] holds the terms of the proper divisors, so t_k = (-m)^k -
    acc[k] is (-1)^k k c_k, and t_k goes into acc[2k], acc[3k], ...: O(order
    log order) big-int additions. A c_k that is not a nonnegative integer is
    a hard error.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    row = [0] * (order + 1)
    acc = [0] * (order + 1)
    p = 1
    for k in range(1, order + 1):
        p *= -m
        t = p - acc[k]
        val, rem = divmod(t, k)
        if rem:
            raise IntegralityError("shuffle_dim(%d, %d) is not an integer: %d/%d"
                                   % (m, k, t if k % 2 == 0 else -t, k))
        val = row[k] = val if k % 2 == 0 else -val
        if val < 0:
            raise IntegralityError("shuffle_dim(%d, %d) is negative: %d" % (m, k, val))
        for j in range(2 * k, order + 1, k):
            acc[j] += t
    return row


def shuffle_dim(m: int, k: int) -> int:
    """Dimension of the shuffle-invariant k-cochains on an m-dim space.

    The Witt-type count (1/k) * sum over divisors q of k of
    (-1)^(k + k/q) mu(q) m^(k/q), read off _shuffle_row's divisor-sum row.
    """
    _need_int(m=m, k=k)
    if k < 1:
        raise ValueError("need k >= 1")
    return _shuffle_row(m, k)[k]


def check_digits(d: int, order: int, terms: int = 1) -> None:
    """Raise BudgetError, before any series is built, if values get too long to print.

    Every coefficient up to t^order of the degree-d rows (Q and P alike) is
    below 10 (d-1)^order, so a sum of `terms` of them has at most about
    order*log10(d-1) + log10(terms) + 2 decimal digits. The request is
    refused when that estimate, without the 2, exceeds MAX_DIGITS; order is
    compared against a float bound, so no huge int is turned into a float.
    """
    if d < 3:
        raise ValueError("need d >= 3")
    if order > (MAX_DIGITS - log10(terms)) / log10(d - 1):
        raise BudgetError("coefficients up to t^%d of the degree-%d series exceed %d digits"
                          % (order, d, MAX_DIGITS))


def shuffle_dim_series(d: int, order: int) -> list:
    """Shuffle-dimension row of the degree-d cone: [0, shuffle_dim(d-1, 1..order)].

    Entry k is the t^k coefficient of Q = sum_k shuffle_dim(d-1, k) t^k; a
    copy of the cached row (_cone_rows).
    """
    return _cone_rows(d, order)[0][: order + 1]


def cone_series(d: int, q: list) -> list:
    """Cotangent series coefficients t^0..t^order of the degree-d cone.

    q is shuffle_dim_series(d, order). The series is
        P = (Q + 2t + 2) * ((d-1)t - t^2) / (1+t)^2 - 2t/(1+t),
    computed in integers: the product with (d-1)t - t^2 is a two-term
    recurrence, each division by 1+t is an alternating prefix sum, and
    2t/(1+t) contributes -2, +2, -2, ... from t^1 on. Coefficient j depends
    only on q[0..j], so a longer row never changes a shorter one. P must
    have zero constant term and nonnegative coefficients; a violation is an
    internal bug and raises IntegralityError.
    """
    if len(q) < 2:
        raise ValueError("need order >= 1")
    affine = [q[0] + 2, q[1] + 2] + q[2:]  # Q + 2t + 2
    p = [0] * len(q)
    for j in range(1, len(q)):
        p[j] = (d - 1) * affine[j - 1] - (affine[j - 2] if j >= 2 else 0)
    for _ in range(2):
        for j in range(1, len(p)):
            p[j] -= p[j - 1]
    for j in range(1, len(p)):
        p[j] += 2 if j % 2 == 0 else -2
    if p[0] != 0:
        raise IntegralityError("cotangent series of d=%d has nonzero constant term" % d)
    for j, x in enumerate(p):
        if x < 0:
            raise IntegralityError(
                "cotangent series coefficient t^%d for d=%d is %d, expected a nonnegative integer"
                % (j, d, x)
            )
    return p


def poincare_series(d: int, order: int) -> list:
    """Cotangent dimension series of the degree-d cone, coefficients t^0..t^order.

    A copy of the cached row (_cone_rows).
    """
    return _cone_rows(d, order)[1][: order + 1]


# d -> (_shuffle_row(d - 1, n), its cone_series) for the largest order n built so far
_CONE_ROWS: dict = {}


def _cone_rows(d: int, order: int) -> tuple:
    """The cached (Q, P) rows of degree d, built to at least t^order.

    Rows too short are rebuilt to twice their order, so asking for orders 1,
    2, ..., N in turn rebuilds them O(log N) times. A request that check_digits
    admits grows them no further than the largest order it admits for d; a
    longer one, from a caller that skips the check, still doubles them.
    Callers hand out slices, never the rows. A bool or a non-int d or order
    is refused before the lookup: 3.0 == 3 would otherwise read or replace
    the int rows of degree 3.
    """
    _need_int(d=d, order=order)
    if d < 3:
        raise ValueError("need d >= 3")
    if order < 1:
        raise ValueError("need order >= 1")
    rows = _CONE_ROWS.get(d)
    if rows is None or order >= len(rows[0]):
        if rows is not None:
            grown, cap = 2 * (len(rows[0]) - 1), int(MAX_DIGITS / log10(d - 1))
            order = max(order, min(grown, cap) if order <= cap else grown)
        q = _shuffle_row(d - 1, order)
        rows = _CONE_ROWS[d] = (q, cone_series(d, q))
    return rows


@lru_cache(maxsize=None, typed=True)  # typed: (4, 3.0) must not hit (4, 3)
def cone_tdim(i: int, d: int) -> int:
    """dim T^i of the cone over the rational normal curve of degree d.

    Reads the t^i coefficient of the cached P row of degree d, which the
    series command reads too; a row too short grows through poincare_series
    (_cone_rows). The lru_cache in front reports (i, d) lookups through
    cache_info().
    """
    _need_int(i=i, d=d)
    if i < 1:
        raise ValueError("need i >= 1")
    rows = _CONE_ROWS.get(d)
    if rows is None or i >= len(rows[1]):
        return poincare_series(d, i)[i]
    return rows[1][i]


def fatpoint_tdim(m: int, i: int) -> int:
    """dim T^i of the m-dimensional fat point: m*shuffle_dim(m, i+1) - shuffle_dim(m, i).

    The formula holds for m >= 2. For m = 1 the fat point k[x]/(x^2) is a
    hypersurface, so T^1 is 1-dimensional and T^i vanishes for i >= 2.
    """
    _need_int(m=m, i=i)
    if m < 1:
        raise ValueError("need m >= 1")
    if i < 1:
        raise ValueError("need i >= 1")
    if m == 1:
        return 1 if i == 1 else 0
    row = _shuffle_row(m, i + 1)
    val = m * row[i + 1] - row[i]
    if val < 0:
        raise IntegralityError("fat point dimension came out negative: m=%d i=%d" % (m, i))
    return val
