import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticount.series import (
    NonInteger, _exact_quotient, cyclotomic_sum, divide_in_place, poly_mul, ratio, taylor_coeffs,
    taylor_series,
)

from helpers import as_fractions, binomial, extend_by_recurrence, truncated_inverse, truncated_mul


def taylor(num, D, order, d=1):
    """The first order+1 Taylor coefficients of num / (d D) as Fractions."""
    return as_fractions(taylor_coeffs(num, D, order), d)


# ---------------------------------------------------------------------------
# scalars


def test_ratio_prints_lowest_terms_as_a_fraction_does():
    assert ratio(2, 4) == "1/2"  # lowest terms
    assert ratio(-1, 2) == "-1/2"  # the sign on the numerator
    assert ratio(6, 3) == ratio(2, 1) == "2"
    assert ratio(0, 7) == "0"
    for num in range(-12, 13):
        for den in range(1, 13):
            assert ratio(num, den) == str(F(num, den))


# ---------------------------------------------------------------------------
# integer polynomials


def test_poly_basics():
    assert poly_mul([7], [1, 2]) == [7, 14]
    assert poly_mul([0, 0], [1, 2]) == [0, 0, 0]
    assert poly_mul([1, 2, 3], [0, 1]) == [0, 1, 2, 3]
    assert poly_mul([1, 1], [1, -1]) == [1, 0, -1]


# sums over stride denominators: a factor (k, e, sign) is (1 + sign z^k)^e,
# and the reduction divides out Psi_1 = 1 - z, Psi_2 = 1 + z,
# Psi_3 = 1 + z + z^2, Psi_4 = 1 + z^2, Psi_6 = 1 - z + z^2; a sum comes
# back as (num, D, d), standing for num / (d D) with D(0) = 1

ONE_MINUS = {k: (k, 1, -1) for k in (1, 2, 3, 4, 6)}  # 1 - z^k
ONE_PLUS = {k: (k, 1, 1) for k in (1, 2)}  # 1 + z^k


@pytest.mark.parametrize(
    "a, f, quotient",
    [
        # Psi_2 = 1 + t and Psi_6 = 1 - t + t^2 (leading 1), Psi_1 = 1 - t (leading -1)
        (poly_mul([1, 1], [2, 0, -7]), [1, 1], [2, 0, -7]),
        (poly_mul([1, -1, 1], [3, 4]), [1, -1, 1], [3, 4]),
        ([1, 0, 0, -1], [1, -1], [1, 1, 1]),
        # (1 - 3t)(1 + t + 5t^2) by 1 - 3t: a leading coefficient other than +-1
        (poly_mul([1, -3], [1, 1, 5]), [1, -3], [1, 1, 5]),
        # 1 + t by 1 - 2t: the one quotient step, -1/2, is not an integer
        ([1, 1], [1, -2], None),
        # t^2 - 1 by 1 - 2t: the first of two steps, -1/2, is not an integer,
        # and rounding it down would leave nothing at t^0
        ([-1, 0, 1], [1, -2], None),
        # 2 + t^2 by 1 + t and 1 + 6t by 1 - 3t: every step is an integer,
        # but a remainder (3 and 3) is left at t^0
        ([2, 0, 1], [1, 1], None),
        ([1, 6], [1, -3], None),
        # a shorter dividend
        ([5], [1, -3], None),
    ],
)
def test_exact_quotient_divides_or_returns_none(a, f, quotient):
    assert _exact_quotient(a, f) == quotient
    if quotient is not None:
        assert poly_mul(quotient, f) == a


def test_rational_function_reduces():
    # (1 - z^2)/(1 - z) = 1 + z, and (1 - z)/(1 - z^2) = 1/(1 + z)
    assert cyclotomic_sum([([1, 0, -1], 1, [ONE_MINUS[1]])], 1) == ((1, 1), (1,), 1)
    assert cyclotomic_sum([([1, -1], 1, [ONE_MINUS[2]])], 1) == ((1,), (1, 1), 1)
    # integer content, with the scale, is divided out into d > 0:
    # (2/4) / (1 - z^3)
    assert cyclotomic_sum([([2], 1, [ONE_MINUS[3]])], 4) == ((1,), (1, 0, 0, -1), 2)
    assert cyclotomic_sum([([-6, 0, 0, 6], 1, [ONE_MINUS[3]])], 3) == ((-2,), (1,), 1)
    assert cyclotomic_sum([], 1) == ((), (1,), 1)


def test_rational_function_arith():
    # 1/(1 - z) - 1/(1 - z) = 0 and 1/(1 - z) + 1/(1 + z) = 2/(1 - z^2)
    assert cyclotomic_sum([([1], 1, [ONE_MINUS[1]]), ([1], -1, [ONE_MINUS[1]])], 1) == ((), (1,), 1)
    assert cyclotomic_sum([([1], 1, [ONE_MINUS[1]]), ([1], 1, [ONE_PLUS[1]])], 1) == ((2,), (1, 0, -1), 1)
    # 1/(1 - z^4) - 1/(1 + z^2) = z^2/(1 - z^4), with no Psi_4 left to cancel
    got = cyclotomic_sum([([1], 1, [ONE_MINUS[4]]), ([1], -1, [ONE_PLUS[2]])], 1)
    assert got == ((0, 0, 1), (1, 0, 0, 0, -1), 1)
    # 1/(1 - z^6) - 1/((1 - z^3)(1 + z)) = (z - z^2)/(1 - z^6), and 1 - z
    # cancels: z/((1 + z)(1 + z + z^2)(1 - z + z^2)) = z/(1 + z + ... + z^5)
    got = cyclotomic_sum([([1], 1, [ONE_MINUS[6]]), ([1], -1, [ONE_MINUS[3], ONE_PLUS[1]])], 1)
    assert got == ((0, 1), (1, 1, 1, 1, 1, 1), 1)


def test_rational_function_mixes_odd_and_even_conf_factors():
    # the conf side's factors, 1 - z^k for odd k and 1 + z^k for even k:
    # 1/(1 - z) + 1/(1 + z^2) = (2 - z + z^2)/((1 - z)(1 + z^2))
    got = cyclotomic_sum([([1], 1, [ONE_MINUS[1]]), ([1], 1, [ONE_PLUS[2]])], 1)
    assert got == ((2, -1, 1), (1, -1, 1, -1), 1)
    # (1 + z^2)/((1 - z)(1 + z^2)) = 1/(1 - z): Psi_4 cancels from the sum
    both = [ONE_MINUS[1], ONE_PLUS[2]]
    got = cyclotomic_sum([([1], 1, both), ([0, 0, 1], 1, both)], 1)
    assert got == ((1,), (1, -1), 1)
    # 1/((1 - z)^2 (1 + z^2)) - 1/((1 - z)(1 + z^2)) = z/((1 - z)^2 (1 + z^2))
    got = cyclotomic_sum([([1], 1, [(1, 2, -1), ONE_PLUS[2]]), ([1], -1, both)], 1)
    assert got == ((0, 1), (1, -2, 2, -2, 1), 1)


# ---------------------------------------------------------------------------
# taylor_coeffs


def test_taylor_geometric():
    # 1/(1-3t): the zeta function of the affine line at q=3
    assert taylor((1,), (1, -3), 3) == [1, 3, 9, 27]


def test_taylor_long_division():
    assert taylor((1, 0, -3), (1, -3), 3) == [1, 3, 6, 18]
    assert taylor((1,), (1, -1), 3, 2) == [F(1, 2)] * 4


def test_taylor_constant():
    assert taylor((1,), (1,), 4) == [1, 0, 0, 0, 0]
    assert taylor((), (1,), 2) == [0, 0, 0]


def test_taylor_returns_integers_over_one_positive_denominator():
    # 1 / (6 (1 - z)^2): the sum carries d = 6, and taylor_coeffs integers
    assert cyclotomic_sum([([1], 1, [(1, 2, -1)])], 6) == ((1,), (1, -2, 1), 6)
    assert taylor_coeffs((1,), (1, -2, 1), 5) == [1, 2, 3, 4, 5, 6]
    # -1 / (2 (1 - z)): the sign stays on the numerator, d > 0
    assert cyclotomic_sum([([1], -1, [ONE_MINUS[1]])], 2) == ((-1,), (1, -1), 2)
    assert taylor_coeffs((-1,), (1, -1), 2) == [-1, -1, -1]


def test_taylor_divides_by_the_constant_term_once():
    # 1 / (6 (1 - z)^2): (n + 1) / 6
    assert taylor((1,), (1, -2, 1), 5, 6) == [F(n + 1, 6) for n in range(6)]
    # (1 + z) / (4 (1 + z^2)): 1/4, 1/4, -1/4, -1/4, ...
    assert taylor((1, 1), (1, 0, 1), 5, 4) == [F(s, 4) for s in (1, 1, -1, -1, 1, 1)]


def test_taylor_divides_exactly_by_any_nonzero_constant_term():
    # Z(t)/Z(t^2) for Z = 2/(1 - 3t) is (2 - 6t^2)/(2 - 6t): the 2 cancels
    assert taylor_coeffs((2, 0, -6), (2, -6), 3) == [1, 3, 6, 18]
    assert taylor_coeffs((-1,), (-1, 3), 3) == [1, 3, 9, 27]
    assert taylor_coeffs((6,), (-3,), 2) == [-2, 0, 0]


def test_taylor_series_raises_at_the_first_non_integer_and_not_before():
    # (2 - 3t^2)/(2 - 3t) = 1 + 3/2 t + ...
    values = taylor_series((2, 0, -3), (2, -3))
    assert next(values) == 1
    with pytest.raises(NonInteger, match=r"^non-integer coefficient 3/2 at t\^1$") as info:
        next(values)
    assert (info.value.value, info.value.n) == ("3/2", 1)
    with pytest.raises(NonInteger, match="-1/2 at t"):
        taylor_coeffs((1,), (-2,), 0)


def test_taylor_series_has_no_end():
    # 1/(1 - t - t^2): the Fibonacci numbers F_1, F_2, ...
    a, b = 1, 1
    for x in itertools.islice(taylor_series((1,), (1, -1, -1)), 300):
        assert x == a
        a, b = b, a + b


@given(
    st.lists(st.integers(-4, 4), max_size=4),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
)
def test_taylor_matches_the_rational_recurrence(num, tail):
    D = [1] + tail
    expected = []  # a_n = num_n - sum_(k>=1) D_k a_(n-k), over Fractions
    for n in range(13):
        s = F(num[n] if n < len(num) else 0)
        for k in range(1, min(n, len(D) - 1) + 1):
            s -= D[k] * expected[n - k]
        expected.append(s)
    assert taylor(num, D, 12) == expected


@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
)
def test_taylor_of_product_is_convolution(na, nb, da, db):
    da[0], db[0] = 1, 1  # D(0) = 1
    order = 8
    lhs = taylor(poly_mul(na, nb), poly_mul(da, db), order)
    rhs = truncated_mul(taylor(na, da, order), taylor(nb, db, order), order)
    assert lhs == rhs


def test_truncated_inverse_roundtrip():
    a = [F(1), F(2), F(-1), F(3)]
    inv = truncated_inverse(a, 6)
    assert truncated_mul(a, inv, 6) == [F(1)] + [F(0)] * 6


@pytest.mark.parametrize("sign", [1, -1])
def test_divide_in_place_inverts_the_product(sign):
    rng = random.Random(sign)
    factors = [(1, 2), (2, 1), (3, 3), (5, 1)]
    s = [rng.randint(-9, 9) for _ in range(20)]
    q = list(s)
    divide_in_place(q, factors, sign)
    for k, e in factors:
        for _ in range(e):
            q = truncated_mul(q, [1] + [0] * (k - 1) + [sign], len(s) - 1)
    assert q == s


# ---------------------------------------------------------------------------
# the recurrence a_i = -sum_k D_k a_(i-k), from i = len(num) on


def test_recurrence_geometric():
    assert taylor((1,), (1, -1), 19) == extend_by_recurrence((1, -1), [F(1)], 19) == [F(1)] * 20


def test_recurrence_normalizes_constant_term():
    # 1/(2 - 2z) has the same recurrence as 1/(1 - z)
    assert cyclotomic_sum([([1], 1, [ONE_MINUS[1]])], 2) == ((1,), (1, -1), 2)
    # and so does 1/(-2 + 2z), over a positive denominator
    assert cyclotomic_sum([([-1], 1, [ONE_MINUS[1]])], 2) == ((-1,), (1, -1), 2)


def test_recurrence_double_pole():
    # (1/z_lam) / (1-z)^2 for lambda=(2): a_i = 2a_{i-1} - a_{i-2}
    coeffs = taylor((1,), (1, -2, 1), 25, 2)
    assert extend_by_recurrence((1, -2, 1), coeffs[:1], 25) == coeffs
    assert coeffs[7] == F(8, 2)  # a_i = (i+1)/2


@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
)
def test_recurrence_holds_on_taylor_expansion(num, D):
    D[0] = 1
    upto = len(num) + 20
    coeffs = taylor(num, D, upto)
    assert extend_by_recurrence(D, coeffs[:len(num)], upto) == coeffs


def test_recurrence_extend():
    # z/(1 - z)^2 = sum_i i z^i: a_i = 2a_(i-1) - a_(i-2) from a_0 = 0, a_1 = 1
    assert extend_by_recurrence((1, -2, 1), [F(0), F(1)], 5) == [0, 1, 2, 3, 4, 5]
    assert taylor((0, 1), (1, -2, 1), 5) == [0, 1, 2, 3, 4, 5]


def test_recurrence_of_polynomial_is_empty():
    # D = 1: every a_i with i >= len(num) is 0
    assert extend_by_recurrence((1,), [F(1), F(2)], 4) == [F(1), F(2), F(0), F(0), F(0)]
    assert taylor((1, 2), (1,), 4) == [1, 2, 0, 0, 0]


# ---------------------------------------------------------------------------
# truncated series arithmetic


def test_mul_identity():
    a = [F(2), F(5), F(0), F(-1)]
    assert truncated_mul(a, [F(1)], 4) == a + [F(0)]


def test_mul_direct_expansion():
    # (1 + x)(1 - x) = 1 - x^2
    assert truncated_mul([F(1), F(1)], [F(1), F(-1)], 3) == [1, 0, -1, 0]


def test_mul_all_ones_convolution():
    geom = [F(1)] * 6
    assert truncated_mul(geom, geom, 5)[5] == 6


def test_inverse_geometric():
    assert truncated_inverse([F(1), F(-1)], 4) == [1] * 5


def test_inverse_diagonal():
    assert truncated_inverse([F(1), F(1)], 4) == [(-1) ** n for n in range(5)]


def test_inverse_roundtrip():
    a = [F(1), F(1), F(3)]
    back = truncated_inverse(truncated_inverse(a, 4), 4)
    assert back == a + [F(0)] * 2


def test_inverse_rejects_bad_head():
    with pytest.raises(ValueError):
        truncated_inverse([F(0), F(1)], 3)
    with pytest.raises(ValueError):
        truncated_inverse([], 3)


# ring laws (hypothesis)

series = st.lists(st.integers(-3, 3).map(F), min_size=1, max_size=5)


def add(a, b, order):
    """Coefficient-wise sum, kept to the given order."""
    return [
        (a[e] if e < len(a) else 0) + (b[e] if e < len(b) else 0)
        for e in range(order + 1)
    ]


@settings(max_examples=60)
@given(series, series)
def test_mul_commutes(a, b):
    assert truncated_mul(a, b, 4) == truncated_mul(b, a, 4)


@settings(max_examples=60)
@given(series, series, series)
def test_mul_associates(a, b, c):
    left = truncated_mul(truncated_mul(a, b, 4), c, 4)
    right = truncated_mul(a, truncated_mul(b, c, 4), 4)
    assert left == right


@settings(max_examples=60)
@given(series, series, series)
def test_mul_distributes(a, b, c):
    left = truncated_mul(a, add(b, c, 4), 4)
    right = add(truncated_mul(a, b, 4), truncated_mul(a, c, 4), 4)
    assert left == right


@settings(max_examples=60)
@given(series, st.sampled_from([F(1), F(-1), F(2)]))
def test_inverse_is_two_sided(a, head):
    a = [head] + a
    inv = truncated_inverse(a, 4)
    one = [F(1)] + [F(0)] * 4
    assert truncated_mul(a, inv, 4) == one
    assert truncated_mul(inv, a, 4) == one


# ---------------------------------------------------------------------------
# binomial


def test_binomial_empty_product():
    assert binomial(F(7, 2), 0) == 1
    assert binomial(0, 0) == 1


def test_binomial_scalar():
    assert binomial(5, 2) == 10
    assert binomial(F(1, 2), 2) == F(-1, 8)


def test_binomial_necklace_values():
    # k^l l! binom(M_k(y), l) = prod_(j<l) (N_k(y) - jk) with N_k = k M_k,
    # the identity that puts B(y) on integers
    from betticount.zeta import necklace_numerator

    for k in range(1, 7):
        for y in range(-3, 6):
            nk = sum(c * y**j for j, c in enumerate(necklace_numerator(k)))
            for l in range(5):
                prod = 1
                for j in range(l):
                    prod *= nk - j * k
                assert binomial(F(nk, k), l) * k**l * math.factorial(l) == prod
