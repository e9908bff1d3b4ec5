from fractions import Fraction as F
from math import comb

import pytest

from betticount import zeta
from betticount.zeta import (
    PointCountData,
    builtin_variety,
    closed_point_counts,
    closed_point_series,
    divisors,
    is_prime,
    is_prime_power,
    mobius_table,
    necklace_numerator,
    parse_variety_text,
)

from helpers import truncated_inverse


def test_mobius_small():
    assert mobius_table(12) == [0, 1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_mobius_table_agrees_with_trial_division():
    def mobius(n):
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]
        return 0 if any(n % (p * p) == 0 for p in primes) else (-1) ** len(primes)

    assert mobius_table(500) == [0] + [mobius(k) for k in range(1, 501)]
    assert mobius_table(0) == [0]


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


@pytest.mark.parametrize(
    "n, fooled",
    [
        (2021, 0),  # 43 * 47: no factor among the witnesses
        (3215031751, 4),  # strong pseudoprime to 2, 3, 5, 7 (also 19 and 37)
        (3825123056546413051, 11),
        (318665857834031151167461, 12),  # only the last witness, 41, catches it
    ],
)
def test_miller_rabin_finds_composites_past_trial_division(monkeypatch, n, fooled):
    # every composite below 1000 has a factor of at most 41, so only numbers
    # like these reach the witness loop's verdict
    assert not is_prime(n) and not is_prime_power(n)
    monkeypatch.setattr(zeta, "_WITNESSES", zeta._WITNESSES[:fooled])
    assert is_prime(n)


def test_prime_power_of_a_prime_past_the_witnesses():
    assert is_prime_power(10007**2)
    assert not is_prime_power(2021**2)


# ---------------------------------------------------------------------------
# necklace polynomials


def test_necklace_poly_small():
    # N_k = k M_k, so M_2(x) = (x^2 - x)/2 and M_6(x) = (x^6 - x^3 - x^2 + x)/6
    assert necklace_numerator(1) == [0, 1]
    assert necklace_numerator(2) == [0, -1, 1]
    assert necklace_numerator(6) == [0, 1, -1, -1, 0, 0, 1]


def necklace_at(k, x):
    """M_k(x), exactly."""
    return F(sum(c * x**j for j, c in enumerate(necklace_numerator(k))), k)


def test_necklace_m2_counts_irreducible_quadratics_over_f2():
    # brute force: monic quadratics x^2 + b x + c over F_2, irreducible iff
    # rootless
    count = 0
    for b in range(2):
        for c in range(2):
            if all((x * x + b * x + c) % 2 != 0 for x in range(2)):
                count += 1
    assert count == 1
    assert necklace_at(2, 2) == count


def test_necklace_m6_by_inclusion_exclusion_over_f2():
    # the monic irreducibles of degree d | k partition the roots of
    # x^(2^k) - x: sum_{d|k} d * N_d = 2^k; solve upward without Moebius
    n = {}
    for k in range(1, 7):
        used = sum(d * n[d] for d in divisors(k) if d < k)
        n[k] = (2**k - used) // k
    assert n[6] == 9
    assert necklace_at(6, 2) == 9


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_necklace_values_are_counts(q):
    for k in range(1, 13):
        v = necklace_at(k, q)
        assert v.denominator == 1 and v >= 0


@pytest.mark.parametrize("q", [2, 3, 5])
def test_field_elements_partition_by_minimal_polynomial_degree(q):
    for big in range(1, 11):
        total = sum(k * necklace_at(k, q) for k in divisors(big))
        assert total == q**big


# ---------------------------------------------------------------------------
# point counts and Moebius inversion


def test_affine_line_closed_points():
    v = builtin_variety("affine", 1, 3)
    assert v.point_counts(3) == [3, 9, 27]
    assert closed_point_counts(v, 3) == [3, 3, 8]
    assert [necklace_at(k, 3) for k in (1, 2, 3)] == [3, 3, 8]


def test_projective_line_closed_points():
    v = builtin_variety("projective", 1, 2)
    assert v.point_counts(2) == [3, 5]
    assert closed_point_counts(v, 2) == [3, 1]


def test_insufficient_counts_error():
    v = PointCountData(q=2, dim=1, counts=(2,))
    with pytest.raises(ValueError):
        closed_point_counts(v, 2)


def test_inconsistent_counts_error():
    v = PointCountData(q=2, dim=1, counts=(2, 3))
    with pytest.raises(ValueError):
        closed_point_counts(v, 2)  # M_2 = (3 - 2)/2 is not an integer


@pytest.mark.parametrize(
    "zeta, message",
    [
        (((1,), (1, 3)), "zeta function gives invalid count -3 at depth 1"),
        (((1,), (2, -3)), "zeta function gives invalid count 3/2 at depth 1"),
        # -1 at depth 1 comes before -5/2 at depth 3
        (((1,), (2, 2, 0, 1)), "zeta function gives invalid count -1 at depth 1"),
        (((1, 1), (1, -1)), "Moebius inversion gives non-count M_2 = -1; point-count data is inconsistent"),
        # M_2 = -1/2 at depth 2 is refused before the point count 9/2 at depth 4 is read
        (((1,), (2, -4, 3, -2)),
         "Moebius inversion gives non-count M_2 = -1/2; point-count data is inconsistent"),
    ],
    ids=["negative", "non-integer", "in-depth-order", "negative-closed-points",
         "closed-points-in-depth-order"],
)
def test_bad_zeta_data_is_refused_in_depth_order(zeta, message):
    v = PointCountData(q=3, dim=1, zeta=zeta)
    with pytest.raises(ValueError) as info:
        closed_point_counts(v, 6)
    assert str(info.value) == message
    series = closed_point_series(v, 6)
    with pytest.raises(ValueError) as info:
        list(series)
    assert str(info.value) == message


def test_closed_point_series_reads_no_further_than_asked():
    # P^64 over F_997: the point count at depth 200 takes seconds, the first M_k do not
    v = builtin_variety("projective", 64, 997)
    series = closed_point_series(v, 200)
    assert [next(series), next(series)] == closed_point_counts(v, 2)


@pytest.mark.parametrize(
    "kind,d,q", [("affine", 1, 3), ("affine", 2, 2), ("projective", 1, 2), ("projective", 2, 3)]
)
def test_mobius_roundtrip(kind, d, q):
    v = builtin_variety(kind, d, q)
    pts = v.point_counts(40)
    mk = closed_point_counts(v, 40)
    for k in range(1, 41):
        assert pts[k - 1] == sum(m * mk[m - 1] for m in divisors(k))


# ---------------------------------------------------------------------------
# Euler products: Z(V,t) = prod_k (1 - t^k)^(-M_k) for Z(V,0) = 1, the identity
# the weighted count series rests on


def zeta_series_from_counts(v, order):
    """prod_k (1 - t^k)^(-M_k) to the given order, from the closed-point counts."""
    out = [1] + [0] * order
    for k, m in enumerate(closed_point_counts(v, order), start=1):
        if m:
            # (1 - t^k)^(-m) = sum_j comb(m+j-1, j) t^(kj)
            factor = [0] * (order + 1)
            for j in range(order // k + 1):
                factor[k * j] = comb(m + j - 1, j)
            out = [sum(out[i] * factor[n - i] for i in range(n + 1)) for n in range(order + 1)]
    return out


def test_zeta_series_affine_line():
    v = builtin_variety("affine", 1, 3)
    assert zeta_series_from_counts(v, 3) == [1, 3, 9, 27]


def test_zeta_series_projective_line():
    v = builtin_variety("projective", 1, 2)
    assert zeta_series_from_counts(v, 2) == [1, 3, 7]


def test_zeta_series_empty_variety():
    v = PointCountData(q=2, dim=1, counts=(0, 0, 0))
    assert zeta_series_from_counts(v, 3) == [1, 0, 0, 0]


@pytest.mark.parametrize("d,q", [(1, 3), (2, 2), (3, 5)])
def test_zeta_series_matches_taylor(d, q):
    v = builtin_variety("affine", d, q)
    direct = truncated_inverse([1, -(q**d)], 8)
    assert zeta_series_from_counts(v, 8) == direct


def test_builtin_point_counts():
    assert builtin_variety("affine", 1, 5).point_counts(1)[0] == 5
    assert builtin_variety("projective", 1, 3).point_counts(1)[0] == 4
    assert builtin_variety("affine", 2, 2).point_counts(2)[1] == 16
    with pytest.raises(ValueError):
        builtin_variety("weird", 1, 2)
    with pytest.raises(ValueError):
        builtin_variety("affine", 0, 2)
    with pytest.raises(ValueError):
        builtin_variety("affine", 1, 6)  # not a prime power


# ---------------------------------------------------------------------------
# variety files


GOOD_ZETA = """
# the affine line over F_3
q = 3
dim = 1
zeta_num = 1
zeta_den = 1 -3
"""

GOOD_COUNTS = """
q = 2
dim = 1
counts = 3, 5, 9
"""


def test_parse_variety_zeta():
    v = parse_variety_text(GOOD_ZETA)
    assert v.q == 3 and v.dim == 1
    assert v.point_counts(3) == [3, 9, 27]


def test_parse_variety_counts():
    v = parse_variety_text(GOOD_COUNTS)
    assert v.counts == (3, 5, 9)
    assert closed_point_counts(v, 2) == [3, 1]


@pytest.mark.parametrize(
    "text",
    [
        "q = 3",
        "q = 3\ndim = 1",
        "q = 3\ndim = 1\nzeta_num = 1",
        "q = 3\ndim = 1\ncounts = 1 2\nzeta_num = 1\nzeta_den = 1",
        "q = 3\ndim = 1\ncounts = one two",
        "q = x\ndim = 1\ncounts = 3",
        "q = 3\ndim = 1\ncounts 3",
        "q = 3\nq = 5\ndim = 1\ncounts = 3",
        "q = 3\ndim = 1\nzeta_num = 1\nzeta_den = 0",
        "q = 3\ndim = 1\nzeta_num = 1\nzeta_den = 0 1",
        "q = 3\ndim = 1\nzeta_num = 0 1\nzeta_den = 1 -3",
        "q = 3\ndim = 1\nzeta_num = 0\nzeta_den = 1 -3",
    ],
)
def test_parse_variety_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_variety_text(text)
