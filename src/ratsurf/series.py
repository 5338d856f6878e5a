"""Closed-form side of the dimension computations.

Two families of numbers drive everything here:

* shuffle_dim(m, k): the dimension of the shuffle-invariant k-cochains on an
  m-dimensional space, obtained by Moebius inversion over the divisors of k.
  For the m-dimensional fat point with coefficients in the residue field this
  is exactly the space of Harrison k-cochains, which is what the brute-force
  engine in harrison.py recomputes from scratch.

* cone_tdim(i, d): the dimension of the i-th cotangent module of the cone
  over the rational normal curve of degree d, read off as the t^i coefficient
  of a generating series assembled from the shuffle dimensions.

Every coefficient is a Python int: the shuffle dimensions are integer sums,
and the cotangent series is built from them by integer recurrences. The low
coefficients of a truncated series do not depend on where it is truncated,
so cone_tdim keeps one series per degree d and only rebuilds it, longer,
when a higher coefficient is asked for.

The coefficients grow like (d-1)^k, so a deep or wide request can ask for
numbers too long to print; check_digits refuses those up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, log10

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


def moebius(n: int) -> int:
    """Moebius function: (-1)^(#prime factors) on squarefree n, else 0."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("moebius is defined for integers n >= 1")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if n > 1:
        result = -result
    return result


def _divisors(k: int) -> list:
    small = [q for q in range(1, isqrt(k) + 1) if k % q == 0]
    return small + [k // q for q in reversed(small) if q * q != k]


def shuffle_dim(m: int, k: int) -> int:
    """Dimension of the shuffle-invariant k-cochains on an m-dim space.

    Computed by the Moebius-inverted closed form
        (1/k) * sum over divisors q of k of (-1)^(k + k/q) mu(q) m^(k/q).
    The sum is always a nonnegative integer; anything else is a hard error.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if k < 1:
        raise ValueError("need k >= 1")
    total = sum((-1) ** (k + k // q) * moebius(q) * m ** (k // q) for q in _divisors(k))
    if total % k:
        raise IntegralityError("shuffle_dim(%d, %d) is not an integer: %d/%d" % (m, k, total, k))
    val = total // k
    if val < 0:
        raise IntegralityError("shuffle_dim(%d, %d) is negative: %d" % (m, k, val))
    return val


def check_digits(d: int, order: int, terms: int = 1) -> None:
    """Raise BudgetError, before any series is built, if values get too long to print.

    Every coefficient up to t^order of the degree-d rows (Q and P alike) is
    below 10 (d-1)^order, so a sum of `terms` of them has at most about
    order*log10(d-1) + log10(terms) + 2 decimal digits. The request is
    refused when that estimate, without the 2, exceeds MAX_DIGITS; order is
    compared against a float bound, so no huge int is turned into a float.
    """
    if order > (MAX_DIGITS - log10(terms)) / log10(d - 1):
        raise BudgetError("coefficients up to t^%d of the degree-%d series exceed %d digits"
                          % (order, d, MAX_DIGITS))


def shuffle_dim_series(d: int, order: int) -> list:
    """Shuffle-dimension row of the degree-d cone: [0, shuffle_dim(d-1, 1..order)].

    Entry k is the t^k coefficient of Q = sum_k shuffle_dim(d-1, k) t^k.
    """
    if d < 3:
        raise ValueError("need d >= 3")
    if order < 1:
        raise ValueError("need order >= 1")
    return [0] + [shuffle_dim(d - 1, k) for k in range(1, order + 1)]


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
    """Cotangent dimension series of the degree-d cone, coefficients t^0..t^order."""
    return cone_series(d, shuffle_dim_series(d, order))


# d -> poincare_series(d, order) for the largest order built so far
_CONE_ROWS: dict = {}


@lru_cache(maxsize=None)
def cone_tdim(i: int, d: int) -> int:
    """dim T^i of the cone over the rational normal curve of degree d.

    Reads the t^i coefficient of one cached series per d. When i lies past
    the cached order the series is rebuilt to at least twice that order, so
    asking for i = 1, 2, ..., N in turn rebuilds it only O(log N) times. The
    lru_cache in front reports (i, d) lookups through cache_info().
    """
    if i < 1:
        raise ValueError("need i >= 1")
    if d < 3:
        raise ValueError("need d >= 3")
    row = _CONE_ROWS.get(d)
    if row is None or i >= len(row):
        order = i if row is None else max(i, 2 * (len(row) - 1))
        row = _CONE_ROWS[d] = poincare_series(d, order)
    return row[i]


def fatpoint_tdim(m: int, i: int) -> int:
    """dim T^i of the m-dimensional fat point: m*shuffle_dim(m, i+1) - shuffle_dim(m, i).

    The formula holds for m >= 2. For m = 1 the fat point k[x]/(x^2) is a
    hypersurface, so T^1 is 1-dimensional and T^i vanishes for i >= 2.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if i < 1:
        raise ValueError("need i >= 1")
    if m == 1:
        return 1 if i == 1 else 0
    val = m * shuffle_dim(m, i + 1) - shuffle_dim(m, i)
    if val < 0:
        raise IntegralityError("fat point dimension came out negative: m=%d i=%d" % (m, i))
    return val


@dataclass(frozen=True)
class DimensionTable:
    """Cotangent dimensions of one cone: values[i] == cone_tdim(i, d)."""

    d: int
    values: dict

    def __post_init__(self):
        for i, v in self.values.items():
            if not isinstance(v, int) or v < 0:
                raise IntegralityError("table entry T^%s = %r is not a nonnegative integer" % (i, v))


def dimension_table(d: int, imax: int = 6) -> DimensionTable:
    if imax < 1:
        raise ValueError("need imax >= 1")
    return DimensionTable(d=d, values={i: cone_tdim(i, d) for i in range(1, imax + 1)})
