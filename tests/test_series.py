"""Counting series: shuffle dimensions, Poincare series, cone and fat-point T^i.

The integer series in ratsurf.series are checked against a reference built
the slow way: Fraction shuffle sums and truncated power series over Q with
convolution products, two guard orders past the requested one.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from ratsurf import series
from ratsurf.harrison import harrison_dim
from ratsurf.qlinalg import as_fraction
from ratsurf.series import (
    IntegralityError,
    cone_tdim,
    fatpoint_tdim,
    poincare_series,
    shuffle_dim,
    shuffle_dim_series,
)


class TruncatedSeries:
    """Reference power series over Q truncated at t^order, exact arithmetic.

    coeffs[j] is the coefficient of t^j; len(coeffs) == order + 1. Binary
    operations truncate to the smaller order of the two operands.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order=None):
        data = [as_fraction(x) for x in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            if len(data) > order + 1:
                raise ValueError("more coefficients than the order allows")
            data += [Fraction(0)] * (order + 1 - len(data))
        if not data:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs = data

    @property
    def order(self):
        return len(self.coeffs) - 1

    def coeff(self, j):
        if not (0 <= j <= self.order):
            raise ValueError("coefficient %d beyond truncation order %d" % (j, self.order))
        return self.coeffs[j]

    def truncate(self, new_order):
        if new_order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: new_order + 1])

    def __add__(self, other):
        n = min(self.order, other.order)
        return TruncatedSeries([self.coeffs[j] + other.coeffs[j] for j in range(n + 1)])

    def __sub__(self, other):
        n = min(self.order, other.order)
        return TruncatedSeries([self.coeffs[j] - other.coeffs[j] for j in range(n + 1)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            return TruncatedSeries([c * x for x in self.coeffs])
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, x in enumerate(self.coeffs[: n + 1]):
            if x:
                for j in range(n + 1 - i):
                    y = other.coeffs[j]
                    if y:
                        out[i + j] += x * y
        return TruncatedSeries(out)

    def divide(self, other):
        """Divide by a series with invertible (nonzero) constant term."""
        if other.coeffs[0] == 0:
            raise ValueError("division needs a nonzero constant term in the divisor")
        n = min(self.order, other.order)
        inv0 = 1 / other.coeffs[0]
        out = []
        for j in range(n + 1):
            s = self.coeffs[j]
            for t in range(j):
                s -= out[t] * other.coeffs[j - t]
            out.append(s * inv0)
        return TruncatedSeries(out)

    @classmethod
    def geometric_alternating(cls, order):
        """1/(1+t) as the truncated series 1 - t + t^2 - ..."""
        return cls([(-1) ** j for j in range(order + 1)])


def moebius(n):
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
        p += 1
    if n > 1:
        result = -result
    return result


def reference_shuffle_dim(m, k):
    """The Moebius sum (1/k) sum_{q|k} (-1)^(k+k/q) mu(q) m^(k/q), one k at a time, over Q."""
    total = Fraction(0)
    for q in range(1, k + 1):
        if k % q == 0:
            total += (-1) ** (k + k // q) * moebius(q) * Fraction(m) ** (k // q)
    total /= k
    assert total.denominator == 1 and total >= 0
    return int(total)


def reference_poincare_series(d, order):
    """(Q + 2t + 2) * ((d-1)t - t^2) / (1+t)^2 - 2t/(1+t) over Q, as integers."""
    n = order + 2  # guard orders
    q = TruncatedSeries([0] + [reference_shuffle_dim(d - 1, k) for k in range(1, n + 1)])
    affine = q + TruncatedSeries([2, 2], order=n)
    bracket = TruncatedSeries([0, d - 1, -1], order=n)
    inv = TruncatedSeries.geometric_alternating(n)
    p = (affine * bracket * inv * inv - TruncatedSeries([0, 2], order=n) * inv).truncate(order)
    assert all(c.denominator == 1 and c >= 0 for c in p.coeffs) and p.coeffs[0] == 0
    return [int(c) for c in p.coeffs]


def test_moebius_first_values():
    want = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]
    assert [moebius(n) for n in range(1, 21)] == want


def test_moebius_rejects_nonpositive():
    with pytest.raises(ValueError):
        moebius(0)
    with pytest.raises(ValueError):
        moebius(-3)


def test_moebius_is_multiplicative_on_coprime_pairs():
    rng = random.Random(3)
    for _ in range(200):
        a = rng.randint(1, 100)
        b = rng.randint(1, 100)
        if math.gcd(a, b) == 1:
            assert moebius(a * b) == moebius(a) * moebius(b)


def test_shuffle_dim_rejects_bad_arguments():
    with pytest.raises(ValueError):
        shuffle_dim(0, 2)
    with pytest.raises(ValueError):
        shuffle_dim(2, 0)


def test_series_construction_and_coeff():
    # coeffs[j] is the t^j coefficient, so the order is len - 1
    s = TruncatedSeries([1, 2, 3])
    assert s.order == 2
    assert s.coeff(0) == 1 and s.coeff(2) == 3
    padded = TruncatedSeries([1], order=4)
    assert padded.coeffs == [Fraction(1), 0, 0, 0, 0]
    with pytest.raises(ValueError):
        s.coeff(3)
    with pytest.raises(ValueError):
        TruncatedSeries([1, 2, 3], order=1)


def test_series_truncate():
    s = TruncatedSeries([1, 2, 3, 4])
    assert s.truncate(2).coeffs == [1, 2, 3]
    with pytest.raises(ValueError):
        s.truncate(9)


def test_series_arithmetic():
    a = TruncatedSeries([1, 1])
    b = TruncatedSeries([1, -1])
    assert (a + b).coeffs == [2, 0]
    assert (a - b).coeffs == [0, 2]
    assert (a * b).coeffs == [1, 0]
    assert (a * 3).coeffs == [3, 3]


def test_series_multiply_divide_roundtrip():
    rng = random.Random(4)
    for _ in range(60):
        order = rng.randint(1, 8)
        a = TruncatedSeries([rng.randint(-4, 4) for _ in range(order)])
        b_coeffs = [rng.choice([1, -1, 2, 3])] + [
            rng.randint(-4, 4) for _ in range(order - 1)
        ]
        b = TruncatedSeries(b_coeffs)
        assert ((a * b).divide(b)).coeffs == a.coeffs


def test_series_divide_requires_unit_constant_term():
    with pytest.raises(ValueError):
        TruncatedSeries([1, 1]).divide(TruncatedSeries([0, 1]))


def test_geometric_alternating_inverts_one_plus_t():
    inv = TruncatedSeries.geometric_alternating(6)
    assert inv.coeffs == [1, -1, 1, -1, 1, -1, 1]
    one_plus_t = TruncatedSeries([1, 1], order=6)
    assert (inv * one_plus_t).coeffs == [1, 0, 0, 0, 0, 0, 0]


def test_shuffle_dim_series_collects_the_row():
    assert shuffle_dim_series(3, 6) == [0, 2, 3, 2, 3, 6, 11]
    with pytest.raises(ValueError):
        shuffle_dim_series(2, 6)


def test_shuffle_dim_matches_fraction_reference():
    for m in range(1, 8):
        for k in range(1, 40):
            assert shuffle_dim(m, k) == reference_shuffle_dim(m, k), (m, k)


def test_poincare_series_for_minimal_multiplicity():
    assert poincare_series(3, 6) == [0, 2, 0, 0, 1, 2, 4]
    assert poincare_series(4, 3) == [0, 4, 3, 3]


def test_poincare_series_coefficients_are_nonnegative_integers():
    for d in range(3, 9):
        s = poincare_series(d, 11)
        assert len(s) == 12
        assert s[0] == 0
        for c in s:
            assert type(c) is int
            assert c >= 0


def test_poincare_series_matches_cone_tdims():
    for d in range(3, 13):
        s = poincare_series(d, 8)
        for i in range(1, 7):
            assert s[i] == cone_tdim(i, d)


def test_poincare_series_matches_fraction_reference():
    for d in range(3, 13):
        want = reference_poincare_series(d, 150)
        assert poincare_series(d, 150) == want, d
        # a truncated series is a prefix of a longer one
        for order in (1, 2, 7, 40):
            assert poincare_series(d, order) == want[: order + 1], (d, order)


def test_cone_series_rejects_a_negative_coefficient():
    # a shuffle row too small for its degree drives P negative
    with pytest.raises(IntegralityError):
        series.cone_series(5, [0, 0, 0, 0], [0])


def test_cone_series_rejects_a_row_without_t1():
    for q in ([], [0]):
        with pytest.raises(ValueError, match="order >= 1"):
            series.cone_series(3, q, [0])


def test_cone_tdim_does_not_depend_on_call_order(monkeypatch):
    def ask(order):
        monkeypatch.setattr(series, "_CONE_ROWS", {})
        cone_tdim.cache_clear()
        return {(i, d): cone_tdim(i, d) for i, d in order}

    pairs = [(80, 5), (10, 5), (3, 5), (81, 5), (40, 9), (7, 9), (200, 9), (1, 3), (60, 3)]
    forward = ask(pairs)
    assert ask(reversed(pairs)) == forward
    assert ask(sorted(pairs)) == forward
    for (i, d), v in forward.items():
        assert v == poincare_series(d, i)[i]


def test_the_shared_row_cache_equals_fresh_builds(monkeypatch):
    # shuffle_dim_series, poincare_series and cone_tdim read one cached pair
    # of rows per d: in any order of requests each answer equals a build from
    # scratch, and a caller that mutates a row it was handed changes nothing
    rng = random.Random(3112)
    top = 90
    for d in range(3, 13):
        want = reference_poincare_series(d, top)
        requests = [(rng.choice(("q", "p", "tdim")), rng.randint(1, top)) for _ in range(24)]
        for order in (sorted(requests, key=lambda r: r[1]), sorted(requests, key=lambda r: -r[1]),
                      rng.sample(requests, len(requests))):
            monkeypatch.setattr(series, "_CONE_ROWS", {})
            cone_tdim.cache_clear()
            for kind, n in order:
                q = series._shuffle_row(d - 1, n, [0])
                p = series.cone_series(d, q, [0])
                assert p == want[: n + 1], (d, n)
                if kind == "tdim":
                    assert cone_tdim(n, d) == p[n], (d, n)
                    continue
                row = shuffle_dim_series(d, n) if kind == "q" else poincare_series(d, n)
                assert row == (q if kind == "q" else p), (d, kind, n)
                row[-1] += 1
                row[0] = -1
                row.append(7)
    cone_tdim.cache_clear()


def test_rows_past_the_digit_cap_still_double(monkeypatch):
    # below the cap a row grows to the cap at most; past it, as when a
    # library caller skips check_digits, it doubles, so i = cap+1, cap+2, ...
    # grows it O(log i) times and not once per i. Each growth appends only
    # the coefficients past the row's end: the entries it had stay the same
    # objects, so none is computed again
    monkeypatch.setattr(series, "MAX_DIGITS", 20)
    monkeypatch.setattr(series, "_CONE_ROWS", {})
    cap = int(20 / math.log10(2))  # 66 for d = 3
    built = []

    def counted(build):
        def extend(*args):
            row = args[-1]
            old = row[:]
            out = build(*args)
            assert out is row and all(x is y for x, y in zip(old, row)) and len(row) > len(old)
            built.append((build.__name__, len(old) - 1, len(row) - 1))
            return out
        return extend

    monkeypatch.setattr(series, "_shuffle_row", counted(series._shuffle_row))
    monkeypatch.setattr(series, "cone_series", counted(series.cone_series))
    cone_tdim.cache_clear()
    try:
        want = reference_poincare_series(3, cap + 200)
        assert [cone_tdim(i, 3) for i in range(1, cap + 1)] == want[1: cap + 1]
        ends = [end for name, _, end in built if name == "_shuffle_row"]
        assert [n for name, n, _ in built if name == "_shuffle_row"] == [0] + ends[:-1]
        assert max(ends) == cap
        del built[:]
        assert [cone_tdim(i, 3) for i in range(cap + 1, cap + 201)] == want[cap + 1:]
        assert built == [(name, n, 2 * n) for n in (cap, 2 * cap, 4 * cap)
                         for name in ("_shuffle_row", "cone_series")]
    finally:
        cone_tdim.cache_clear()


def test_extended_rows_equal_fresh_builds_in_any_request_order(monkeypatch):
    # _cone_rows extends the cached Q and P from where they end: after every
    # request both equal a build from [0] at their length and the reference,
    # whether the orders rise, fall or come at random, and whether the rows
    # stop at the digit cap or, past a lowered cap, keep doubling
    rng = random.Random(39)
    top = 60
    doubled = past_cap = 0
    for d in range(3, 13):
        want_q = [0] + [reference_shuffle_dim(d - 1, k) for k in range(1, 2 * top + 1)]
        want_p = reference_poincare_series(d, 2 * top)
        orders = [rng.randint(1, top) for _ in range(10)]
        for max_digits in (series.MAX_DIGITS, 10):
            monkeypatch.setattr(series, "MAX_DIGITS", max_digits)
            cap = int(max_digits / math.log10(d - 1))
            for requests in (sorted(orders), sorted(orders, reverse=True), orders):
                monkeypatch.setattr(series, "_CONE_ROWS", {})
                for n in requests:
                    assert poincare_series(d, n) == want_p[: n + 1], (d, n)
                    q, p = series._CONE_ROWS[d]
                    assert len(q) == len(p) > n
                    assert q == series._shuffle_row(d - 1, len(q) - 1, [0]) == want_q[: len(q)], (d, n)
                    assert p == series.cone_series(d, q, [0]) == want_p[: len(p)], (d, n)
                    doubled += len(q) - 1 > n
                    past_cap += len(q) - 1 > max(cap, n)
    assert doubled >= 400 and past_cap >= 300, (doubled, past_cap)


def test_a_growth_that_fails_leaves_both_rows_as_they_were(monkeypatch):
    # an IntegralityError halfway through a growth, in Q or in P, leaves the
    # cached pair of one length and unchanged, and the next request grows it
    d = 4
    want_p = reference_poincare_series(d, 30)
    build = series._shuffle_row

    def fails_halfway(m, order, row):
        build(m, (len(row) - 1 + order) // 2, row)
        raise IntegralityError("forced")

    def drives_p_negative(m, order, row):
        build(m, order, row)[order - 1] = -10 ** 30  # P fails at t^order, after t^(order-1)
        return row

    for bad, message in ((fails_halfway, "forced"), (drives_p_negative, r"t\^30 for d=4 is -")):
        monkeypatch.setattr(series, "_CONE_ROWS", {})
        monkeypatch.setattr(series, "_shuffle_row", bad)
        with pytest.raises(IntegralityError, match=message):
            poincare_series(d, 30)
        assert d not in series._CONE_ROWS
        monkeypatch.setattr(series, "_shuffle_row", build)
        poincare_series(d, 10)
        monkeypatch.setattr(series, "_shuffle_row", bad)
        with pytest.raises(IntegralityError, match=message):
            poincare_series(d, 30)
        q, p = series._CONE_ROWS[d]
        assert len(q) == len(p) == 11 and p == want_p[:11]
        monkeypatch.setattr(series, "_shuffle_row", build)
        assert poincare_series(d, 30) == want_p
        assert len(series._CONE_ROWS[d][0]) == len(series._CONE_ROWS[d][1]) == 31


def test_cone_tdim_known_values():
    assert cone_tdim(1, 3) == 2
    assert cone_tdim(2, 6) == 15
    assert cone_tdim(4, 3) == 1


def test_cone_tdim_rejects_out_of_range():
    with pytest.raises(ValueError):
        cone_tdim(1, 2)
    with pytest.raises(ValueError):
        cone_tdim(0, 4)


def test_fatpoint_tdim_small_table():
    assert fatpoint_tdim(2, 1) == 4
    assert fatpoint_tdim(2, 2) == 1
    assert fatpoint_tdim(2, 3) == 4
    assert fatpoint_tdim(2, 4) == 9
    assert fatpoint_tdim(3, 1) == 15
    assert fatpoint_tdim(3, 2) == 18


def test_fatpoint_tdim_of_the_dual_numbers_matches_brute_force():
    # k[x]/(x^2) is a hypersurface: T^1 is one-dimensional, higher T^i vanish
    for i in range(1, 7):
        assert harrison_dim(1, "regular", i + 1) == fatpoint_tdim(1, i)
    assert [fatpoint_tdim(1, i) for i in range(1, 7)] == [1, 0, 0, 0, 0, 0]


def test_fatpoint_tdim_is_the_advertised_combination():
    # m = 1 is the dual-number algebra, outside the fat-point formula's range
    for m in range(2, 6):
        for i in range(1, 6):
            assert fatpoint_tdim(m, i) == m * shuffle_dim(m, i + 1) - shuffle_dim(m, i)


def test_cone_tdim_reads_the_degree_5_table():
    assert [cone_tdim(i, 5) for i in range(1, 5)] == [6, 8, 12, 38]
    with pytest.raises(ValueError):
        cone_tdim(0, 5)


def test_coefficients_stay_under_the_digit_estimate():
    # check_digits rests on every Q and P coefficient up to t^order being
    # below 10 (d-1)^order
    for d in list(range(3, 25)) + [100, 1001]:
        for order in (1, 2, 3, 4, 5, 8, 13, 40, 120):
            q = shuffle_dim_series(d, order)
            assert max(q + series.cone_series(d, q, [0])) < 10 * (d - 1) ** order, (d, order)


def test_check_digits_caps_the_estimated_length():
    series.check_digits(3, 13287)  # 13287 log10(2) = 3999.8
    series.check_digits(10001, 1000)  # exactly 4000
    for d, order, terms in [(3, 13288, 1), (10002, 1000, 1), (10001, 1000, 2), (10 ** 4001, 1, 1), (3, 10 ** 400, 1)]:
        with pytest.raises(series.BudgetError):
            series.check_digits(d, order, terms)


def test_check_digits_rejects_degrees_below_3():
    # log10(d - 1) is 0 at d = 2 and undefined below it; refuse d < 3 first
    for d in (2, 1, 0, -5):
        with pytest.raises(ValueError, match="d >= 3"):
            series.check_digits(d, 5)


def test_shuffle_row_matches_the_moebius_sum():
    rng = random.Random(10)
    for m in range(1, 31):
        order = rng.randint(1, 300) if m > 3 else 300
        row = series._shuffle_row(m, order, [0])
        assert row == [0] + [reference_shuffle_dim(m, k) for k in range(1, order + 1)], m


def test_a_shorter_shuffle_row_is_a_prefix_of_a_longer_one():
    for m in (1, 2, 3, 7, 30):
        long = series._shuffle_row(m, 300, [0])
        for order in (1, 2, 17, 150, 299):
            assert series._shuffle_row(m, order, [0]) == long[: order + 1], (m, order)
        assert [shuffle_dim(m, k) for k in (1, 2, 60, 300)] == [long[k] for k in (1, 2, 60, 300)]


def test_shuffle_row_is_fast_at_the_digit_cap():
    t0 = time.perf_counter()
    row = shuffle_dim_series(3, 13287)
    assert time.perf_counter() - t0 < 0.5
    assert len(row) == 13288 and row[13287] == reference_shuffle_dim(2, 13287)


def test_shuffle_row_guards_its_entries_and_arguments():
    # a rational m gives c_1 = m, not an integer: the guard must fire, not round
    with pytest.raises(IntegralityError, match="not an integer"):
        series._shuffle_row(Fraction(3, 2), 4, [0])
    with pytest.raises(ValueError):
        series._shuffle_row(0, 5, [0])
    with pytest.raises(ValueError):
        shuffle_dim_series(3, 0)


def test_a_bool_or_non_int_argument_is_refused_before_any_cache(monkeypatch, capsys):
    # 3.0 == 3 and hashes alike, so unchecked poincare_series(3.0, 8) rebuilt the
    # degree-3 rows in floats, and a later series command printed 2.0 3.0 ...
    from ratsurf.cli import main

    monkeypatch.setattr(series, "_CONE_ROWS", {})
    assert cone_tdim(4, 3) == 1  # cached, so a typed-blind lru_cache would answer (4, 3.0) with it
    calls = [
        ("d", lambda: poincare_series(3.0, 8)),
        ("order", lambda: poincare_series(3, 8.0)),
        ("d", lambda: shuffle_dim_series(3.0, 8)),
        ("order", lambda: shuffle_dim_series(3, True)),
        ("m", lambda: shuffle_dim(True, 3)),
        ("k", lambda: shuffle_dim(2, 3.0)),
        ("d", lambda: cone_tdim(4, 3.0)),
        ("i", lambda: cone_tdim(True, 3)),
        ("m", lambda: fatpoint_tdim(2.0, 2)),
        ("i", lambda: fatpoint_tdim(2, "2")),
    ]
    for name, call in calls:
        with pytest.raises(TypeError, match="^%s must be an int, not " % name):
            call()
    assert main(["series", "--d", "3", "--order", "5"]) == 0
    assert capsys.readouterr().out == (
        "d = 3\n"
        "shuffle dims of the (d-1)-dim fat point, k = 1..5: 2 3 2 3 6\n"
        "Q coefficients t^1..t^5: 2 3 2 3 6\n"
        "P coefficients t^1..t^5 (cotangent dims of the cone): 2 0 0 1 2\n")
