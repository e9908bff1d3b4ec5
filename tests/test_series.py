import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticount.series import (
    Poly,
    RationalFunction,
    RecurrenceSpec,
    binomial,
    recurrence_from_ratfun,
    stable_limit,
    taylor_coeffs,
    truncated_inverse,
    truncated_mul,
)


# ---------------------------------------------------------------------------
# scalars


def test_rational_scalar_invariants():
    from betticount.series import Rational

    x = Rational(2, 4)
    assert (x.numerator, x.denominator) == (1, 2)  # lowest terms
    y = Rational(1, -2)
    assert y.denominator > 0 and y.numerator == -1  # positive denominator
    assert Rational(1, 3) + Rational(1, 6) == Rational(1, 2)  # exact


# ---------------------------------------------------------------------------
# Poly / RationalFunction


def test_poly_basics():
    p = Poly((1, 2, 3))
    q = Poly((0, 1))
    assert p.degree == 2
    assert Poly().degree == -1
    assert (p + q).coeffs == (F(1), F(3), F(3))
    assert (p * q).coeffs == (F(0), F(1), F(2), F(3))
    assert p(2) == 1 + 4 + 12
    assert (p - p).is_zero()


def test_poly_divmod_gcd():
    a = Poly((-1, 0, 1))  # x^2 - 1
    b = Poly((1, 1))  # x + 1
    quo, rem = divmod(a, b)
    assert quo == Poly((-1, 1)) and rem.is_zero()
    assert Poly.gcd(a, b) == b
    assert Poly.gcd(Poly((1, 1)), Poly((1, 0, 1))) == Poly((1,))


def _fraction_euclid_gcd(a, b):
    # the textbook reference: Euclid on Fraction remainders, made monic
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def test_poly_gcd_matches_fraction_euclid():
    rng = random.Random(20261018)

    def rand_poly(deg):
        cs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg)]
        return Poly(cs + [F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))])

    for _ in range(150):
        h = rand_poly(rng.randint(0, 4))
        a = rand_poly(rng.randint(0, 6)) * h
        b = rand_poly(rng.randint(0, 6)) * h
        g = Poly.gcd(a, b)
        assert g == _fraction_euclid_gcd(a, b) == _fraction_euclid_gcd(b, a) == Poly.gcd(b, a)
        assert (a % g).is_zero() and (b % g).is_zero() and (a % h).is_zero()
    for p in (Poly(), Poly((F(-2, 3),)), Poly((F(1, 2), 0, 3))):
        assert Poly.gcd(p, Poly()) == Poly.gcd(Poly(), p) == p.monic()


def test_poly_substitutions():
    p = Poly((1, 1, 1))
    assert p.stretch(2) == Poly((1, 0, 1, 0, 1))
    assert p.scale_arg(-1) == Poly((1, -1, 1))
    assert p.shift(2) == Poly((0, 0, 1, 1, 1))


def test_rational_function_reduces():
    f = RationalFunction(Poly((-1, 0, 1)), Poly((1, 1)))
    assert f.num == Poly((-1, 1)) and f.den == Poly((1,))
    g = RationalFunction(Poly((0, 2)), Poly((0, 0, 2)))
    assert g.num == Poly((1,)) and g.den == Poly((0, 1))
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Poly((1,)), Poly())


def test_rational_function_arith():
    one_minus_t = RationalFunction(Poly((1, -1)))
    f = RationalFunction(1) / one_minus_t
    g = f * one_minus_t
    assert g == RationalFunction(1)
    assert (f - f).is_zero()
    assert f(F(1, 2)) == 2


# ---------------------------------------------------------------------------
# taylor_coeffs


def test_taylor_geometric():
    # 1/(1-3t): the zeta function of the affine line at q=3
    f = RationalFunction(1, Poly((1, -3)))
    assert taylor_coeffs(f, 3) == [1, 3, 9, 27]


def test_taylor_long_division():
    f = RationalFunction(Poly((1, 0, -3)), Poly((1, -3)))
    assert taylor_coeffs(f, 3) == [1, 3, 6, 18]


def test_taylor_constant():
    assert taylor_coeffs(RationalFunction(1), 4) == [1, 0, 0, 0, 0]


def test_taylor_rejects_pole_at_zero():
    with pytest.raises(ValueError):
        taylor_coeffs(RationalFunction(1, Poly((0, 1))), 3)


@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
)
def test_taylor_of_product_is_convolution(na, nb, da, db):
    da[0], db[0] = 1, 1  # keep denominators invertible at 0
    f = RationalFunction(Poly(na), Poly(da))
    g = RationalFunction(Poly(nb), Poly(db))
    order = 8
    lhs = taylor_coeffs(f * g, order)
    rhs = truncated_mul(taylor_coeffs(f, order), taylor_coeffs(g, order), order)
    assert lhs == rhs


def test_truncated_inverse_roundtrip():
    a = [F(1), F(2), F(-1), F(3)]
    inv = truncated_inverse(a, 6)
    assert truncated_mul(a, inv, 6) == [F(1)] + [F(0)] * 6


# ---------------------------------------------------------------------------
# stable_limit


def test_stable_limit_trivial():
    f = RationalFunction(1, Poly((1, -3)))
    assert stable_limit(f, 3) == 1


def test_stable_limit_substitution():
    # (1-3t^2)/((1-3t)(1+t)) at c=3: H(1/3) = (1-1/3)/(1+1/3) = 1/2
    f = RationalFunction(Poly((1, 0, -3)), Poly((1, -3)) * Poly((1, 1)))
    assert stable_limit(f, 3) == F(1, 2)


def test_stable_limit_rejects_double_pole():
    f = RationalFunction(Poly((0, 1)), Poly((1, -1)) * Poly((1, -1)))
    with pytest.raises(ValueError):
        stable_limit(f, 1)


def test_stable_limit_matches_coefficients():
    # convergence of a_n / c^n is visible in exact arithmetic
    f = RationalFunction(Poly((1, 0, -3)), Poly((1, -3)) * Poly((1, 1)))
    lim = stable_limit(f, 3)
    coeffs = taylor_coeffs(f, 60)
    gap30 = abs(coeffs[30] / F(3) ** 30 - lim)
    gap60 = abs(coeffs[60] / F(3) ** 60 - lim)
    assert gap60 < gap30


# ---------------------------------------------------------------------------
# recurrence extraction


def test_recurrence_geometric():
    spec = recurrence_from_ratfun(RationalFunction(1, Poly((1, -1))))
    assert spec.coefficients == (F(1),)
    assert spec.valid_from == 1
    assert spec.holds_on([F(1)] * 20)


def test_recurrence_normalizes_constant_term():
    # 1/(2 - 2z) has the same recurrence as 1/(1 - z)
    spec = recurrence_from_ratfun(RationalFunction(1, Poly((2, -2))))
    assert spec.coefficients == (F(1),)


def test_recurrence_double_pole():
    # (1/z_lambda) / (1-z)^2 for lambda=(2): a_i = 2a_{i-1} - a_{i-2}
    f = RationalFunction(Poly((F(1, 2),)), Poly((1, -1)) * Poly((1, -1)))
    spec = recurrence_from_ratfun(f)
    assert spec.coefficients == (F(2), F(-1))
    coeffs = taylor_coeffs(f, 25)
    assert spec.holds_on(coeffs)
    assert coeffs[7] == F(8, 2)  # a_i = (i+1)/2


@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
)
def test_recurrence_holds_on_taylor_expansion(num, den):
    den[0] = 1
    f = RationalFunction(Poly(num), Poly(den))
    spec = recurrence_from_ratfun(f)
    coeffs = taylor_coeffs(f, spec.valid_from + 20)
    assert spec.holds_on(coeffs)


def test_recurrence_extend():
    spec = RecurrenceSpec((F(2), F(-1)), 2)
    assert spec.extend([F(0), F(1)], 5) == [0, 1, 2, 3, 4, 5]


def test_recurrence_of_polynomial_is_empty():
    spec = recurrence_from_ratfun(RationalFunction(Poly((1, 2))))
    assert spec.coefficients == ()
    assert spec.valid_from == 2
    assert spec.holds_on([F(1), F(2), F(0), F(0), F(0)])


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
    assert binomial(Poly((0, 1, 2)), 0) == Poly((1,))
    assert binomial(F(7, 2), 0) == 1


def test_binomial_scalar():
    assert binomial(5, 2) == 10
    assert binomial(F(1, 2), 2) == F(-1, 8)


def test_binomial_necklace_values():
    # as polynomials in y = 1/z: M_1(y) = y and M_2(y) = (y^2 - y)/2
    m1 = Poly((0, 1))
    assert binomial(m1, 1) == m1
    m2 = Poly((0, F(-1, 2), F(1, 2)))
    assert binomial(m2, 1) == m2
    # binom(M_1(y), 2) = y(y - 1)/2
    assert binomial(m1, 2) == Poly((0, F(-1, 2), F(1, 2)))
