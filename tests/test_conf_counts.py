import itertools
import re
import time
import tracemalloc
from fractions import Fraction as F
from math import comb

import pytest

from betticount import conf_counts
from betticount.chars import (
    CharPoly, active, binomial, cycle_type, parse_rep, partitions, weight,
)
from betticount.conf_betti import SIDE
from betticount.conf_counts import (
    GUARD,
    bruteforce_census,
    count_values,
    limits,
)
from betticount.zeta import (
    PointCountData,
    builtin_variety,
    closed_point_counts,
    is_prime,
    parse_variety_text,
)

from helpers import (
    as_fractions,
    bruteforce_weighted_count,
    coefficients,
    evaluate,
    partition_weighted_count,
    truncated_inverse,
    truncated_mul,
)

A1_Q3 = builtin_variety("affine", 1, 3)

LAMBDA_SWEEP = [
    cycle_type(()),
    cycle_type((1,)),
    cycle_type((2,)),
    cycle_type((0, 1)),
    cycle_type((1, 1)),
    cycle_type((3,)),
]


# ---------------------------------------------------------------------------
# a literal small-scale reference for the brute-force oracle: gcd-based
# square-free test plus trial division by sieved irreducibles


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def _normalize(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _poly_mod(a, b, p):
    a = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b) and any(a):
        c = (a[-1] * inv_lead) % p
        shift = len(a) - len(b)
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - c * bj) % p
        a = list(_normalize(a))
    return _normalize(a)


def _poly_gcd(a, b, p):
    a, b = _normalize(a), _normalize(b)
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _derivative(a, p):
    return _normalize([(k * c) % p for k, c in enumerate(a)][1:])


def _irreducibles_upto(p, dmax):
    irr = []
    for d in range(1, dmax + 1):
        for rest in itertools.product(range(p), repeat=d):
            f = rest + (1,)
            if all(_poly_mod(f, g, p) for g in irr if len(g) - 1 <= d // 2):
                irr.append(f)
    return irr


def trial_division_census(p, n):
    irr = _irreducibles_upto(p, max(n // 2, 1))
    census = {}
    for rest in itertools.product(range(p), repeat=n):
        f = rest + (1,)
        d = _derivative(f, p)
        if not d or len(_poly_gcd(f, d, p)) != 1:
            continue  # repeated factor
        counts = [0] * n
        rem = f
        for g in irr:
            if len(g) - 1 > (len(rem) - 1) // 2:
                break
            if not _poly_mod(rem, g, p):
                counts[len(g) - 2] += 1
                new = [0] * (len(rem) - len(g) + 1)
                # synthetic division rem // g
                r = list(rem)
                inv_lead = 1
                for k in range(len(new) - 1, -1, -1):
                    new[k] = r[k + len(g) - 1] * inv_lead % p
                    for j, gj in enumerate(g):
                        r[k + j] = (r[k + j] - new[k] * gj) % p
                rem = tuple(new)
        if len(rem) > 1:
            counts[len(rem) - 2] += 1
        ct = cycle_type(tuple(counts))
        census[ct] = census.get(ct, 0) + 1
    return census


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (3, 4), (5, 3)])
def test_sieve_census_matches_trial_division(p, n):
    census = bruteforce_census(p, n)
    assert dict(census[n]) == trial_division_census(p, n)


@pytest.mark.parametrize("p,n", [(2, 10), (3, 6), (5, 4), (7, 3), (11, 2)])
def test_one_sieve_matches_trial_division_at_every_degree(p, n):
    census = bruteforce_census(p, n)
    for m in range(n + 1):
        got = dict(census[m])
        # the reference counts the constant 1 as not square-free; it is the
        # one degree-0 monic and has no factors
        want = trial_division_census(p, m) if m else {cycle_type(()): 1}
        assert got == want, m
    assert len(census) == n + 1 and all(weight(ct) == m for m, row in enumerate(census) for ct, _ in row)


# ---------------------------------------------------------------------------
# brute force basics


def test_bruteforce_squarefree_count_q3_n2():
    census = bruteforce_census(3, 2)
    assert sum(cnt for _, cnt in census[2]) == 6  # 9 monic quadratics, 3 with repeated roots
    assert bruteforce_weighted_count(3, 2, CharPoly({(): 1})) == 6


def test_bruteforce_linear_polys():
    assert bruteforce_weighted_count(3, 1, CharPoly.variable(1)) == 3


def test_bruteforce_cubic_linear_factors_q3():
    # 18 monic square-free cubics over F_3 carry 12 linear factors in total
    assert bruteforce_weighted_count(3, 3, CharPoly.variable(1)) == 12


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        bruteforce_census(3, 30)
    with pytest.raises(ValueError):
        bruteforce_census(4, 2)  # not prime
    with pytest.raises(ValueError, match="n must be nonnegative"):
        conf_counts.check_bruteforce(3, -1)


def test_bruteforce_degree_zero():
    assert bruteforce_census(3, 0) == [[(cycle_type(()), 1)]]


def test_bruteforce_refuses_a_huge_n_without_computing_p_to_the_n():
    message = f"brute force at q=3, n={10**7} exceeds the guard {GUARD}; lower --max-n"
    start = time.monotonic()
    with pytest.raises(ValueError, match=re.escape(message)):
        bruteforce_census(3, 10**7)
    assert time.monotonic() - start < 0.5


def test_every_admitted_prime_power_fits_a_64_bit_slot():
    # one polynomial of degree <= n takes n + 1 fields of the sieve's width;
    # 524309 and 999983 are primes near the top of the guard
    assert is_prime(524309) and is_prime(999983)
    for p in [p for p in range(2, 1000) if is_prime(p)] + [524309, 999983]:
        n = max(k for k in range(GUARD.bit_length()) if p**k <= GUARD)
        assert (n + 1) * conf_counts._width(p) <= 64, (p, n)


def _slot(batch, i):
    return (batch >> (64 * i)) & ((1 << 64) - 1)


def _pack(coeffs, b):
    """A polynomial c_0 + c_1 x + ... as the sieve's int, one b-bit field per coefficient."""
    return sum(c << (b * i) for i, c in enumerate(coeffs))


@pytest.mark.parametrize(
    "p,e,g,start",
    [(3, 2, (1, 1), 1), (5, 2, (2, 3, 1), 7), (7, 1, (3, 1), 3), (2, 3, (1, 1, 1), 5), (3, 3, (2, 2, 1), 26)],
)
def test_products_from_a_start_slot_are_the_full_batch_shifted(p, e, g, start):
    # cofactors in odometer order; every coefficient of (2, 3, 1), (1, 1, 1)
    # and (2, 2, 1) is nonzero, so each of their fields adds a shifted table
    b, n = conf_counts._width(p), len(g) - 1 + e
    cofactors = [rest + (1,) for rest in itertools.product(range(p), repeat=e)]
    table = [
        sum(_pack([v * c % p for c in h], b) << (64 * j) for j, h in enumerate(cofactors)) for v in range(p)
    ]
    ones = sum(_pack([1] * (n + 1), b) << (64 * j) for j in range(len(cofactors)))
    lift = ((1 << (b - 1)) - p) * ones
    full = conf_counts._products(_pack(g, b), table, p, ones, lift, 0)
    assert [_slot(full, j) for j in range(len(cofactors))] == [_pack(_poly_mul(g, h, p), b) for h in cofactors]
    r = 64 * start
    assert conf_counts._products(_pack(g, b), table, p, ones >> r, lift >> r, start) == full >> r


# each corrupts the batch of products g * h that the irreducible g builds at
# degree 2, told by its first slot g^2: for g = x every cofactor x + c is
# admissible, for g = x + 1 only x + 1 and x + 2, from slot 1 on
CORRUPTIONS = {
    "the second product repeats the first": (
        (0, 1),
        lambda batch, p, b: batch + ((_slot(batch, 0) - _slot(batch, 1)) << 64),
        "the sieve over F_3 reached a degree-2 product twice",
    ),
    "a coefficient field holds p": (
        (0, 1),
        lambda batch, p, b: batch + p,
        "the sieve over F_3 made a degree-2 product outside the monics",
    ),
    "a leading coefficient is 2": (
        (0, 1),
        lambda batch, p, b: batch + (1 << (2 * b)),
        "the sieve over F_3 made a degree-2 product outside the monics",
    ),
    "past slot 0, the second product repeats the first": (
        (1, 1),
        lambda batch, p, b: batch + ((_slot(batch, 0) - _slot(batch, 1)) << 64),
        "the sieve over F_3 reached a degree-2 product twice",
    ),
    "a product of x + 1 repeats the product x (x + 1) of x": (
        (1, 1),
        lambda batch, p, b: batch - _slot(batch, 0) + _pack((0, 1, 1), b),
        "the sieve over F_3 reached a degree-2 product twice",
    ),
}


@pytest.mark.parametrize("n", [2, 3], ids=["top-degree", "below-the-top"])
@pytest.mark.parametrize("case", list(CORRUPTIONS))
def test_sieve_catches_a_corrupted_product_batch(monkeypatch, case, n):
    target, corrupt, message = CORRUPTIONS[case]
    builder = conf_counts._products
    b = conf_counts._width(3)

    def corrupted(g, *args):
        batch = builder(g, *args)
        hit = g == _pack(target, b) and _slot(batch, 0) == _pack(_poly_mul(target, target, 3), b)
        return corrupt(batch, 3, b) if hit else batch

    monkeypatch.setattr(conf_counts, "_products", corrupted)
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        bruteforce_census(3, n)


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3), (17, 2), (997, 1)])
def test_index_squeezes_every_monic_to_its_low_fields(p, n):
    # the monics of degree n in odometer order, c_0 turning fastest; masks
    # built over more slots than a batch holds are cut to it by &
    b = conf_counts._width(p)
    monics = [tuple(reversed(rest)) + (1,) for rest in itertools.product(range(p), repeat=n)]
    batch = sum(_pack(h, b) << (64 * j) for j, h in enumerate(monics))
    masks = conf_counts._index_masks(b, n, sum(1 << (64 * j) for j in range(len(monics) + 3)))
    squeezed = conf_counts._squeeze(batch, *masks)
    index = [_slot(squeezed, j) for j in range(len(monics))]
    assert index == [sum(c << ((b - 1) * i) for i, c in enumerate(h[:n])) for h in monics]
    assert len(set(index)) == len(monics) and max(index) < 1 << ((b - 1) * n)
    assert squeezed >> (64 * len(monics)) == 0
    assert conf_counts._squeeze(batch >> 64 * 5, *masks) == squeezed >> 64 * 5


def test_the_sieve_at_7_to_the_6_peaks_below_6_mb():
    # the top degree marks a bytearray of 2^18 bytes, not a set of its ~100,000 products
    tracemalloc.start()
    try:
        conf_counts._sieve(7, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak


@pytest.mark.parametrize("p,n", [(2, 12), (3, 9), (5, 6), (7, 6), (31, 3), (997, 2)])
def test_sieve_census_matches_the_closed_point_formula_at_every_degree(p, n):
    # N_mu = prod_k C(M_k, mu_k) square-free monics of factor degrees mu, with
    # M_k the degree-k irreducibles: beyond the sizes trial division reaches
    mk = closed_point_counts(builtin_variety("affine", 1, p), n)
    census = bruteforce_census(p, n)
    for m in range(n + 1):
        want = {mu: binomial(mk, mu) for mu in partitions(m) if binomial(mk, mu)}
        assert dict(census[m]) == want, m
    assert len(census) == n + 1 and all(weight(ct) == m for m, row in enumerate(census) for ct, _ in row)


# ---------------------------------------------------------------------------
# the generating-function path


def test_weighted_series_is_integers_over_the_rep_denominator():
    p = parse_rep("3/2*X1-1/6")
    nums, den = count_values(A1_Q3, p, 3)
    assert den == p.den == 6
    assert as_fractions(nums, den) == [partition_weighted_count(A1_Q3, p, n) for n in range(4)]


def test_limits_are_pairs_in_lowest_terms():
    assert limits(A1_Q3, CharPoly.binom(()))[0] == (2, 3)
    assert limits(A1_Q3, parse_rep("3/2*X1-1/6"))[1] == (23, 24)  # 3/2 * 3/4 - 1/6


def test_weighted_series_trivial_weight():
    got = as_fractions(*count_values(A1_Q3, CharPoly.binom(()), 4))
    assert got == [1, 3, 6, 18, 54]


def test_weighted_series_linear_weight():
    got = as_fractions(*count_values(A1_Q3, CharPoly.binom((1,)), 3))
    assert got[3] == 12
    assert got[0] == 0


def test_weighted_series_empty_configuration():
    for v in (A1_Q3, builtin_variety("projective", 1, 2)):
        assert as_fractions(*count_values(v, CharPoly.binom(()), 0)) == [1]


def test_weighted_count_linearity():
    # V1 = X1 - 1 on square-free cubics over F_3: 12 - 18 = -6
    assert as_fractions(*count_values(A1_Q3, parse_rep("V1"), 3))[3] == -6


def test_weighted_count_v11():
    assert as_fractions(*count_values(A1_Q3, parse_rep("V11"), 4))[4] == bruteforce_weighted_count(
        3, 4, parse_rep("V11")
    )
    assert as_fractions(*count_values(A1_Q3, parse_rep("V11"), 4))[4] == 6


def test_weighted_count_insufficient_data():
    v = PointCountData(q=3, dim=1, counts=(3, 9))
    with pytest.raises(ValueError):
        count_values(v, CharPoly.binom(()), 4)


def fraction_count_series(z, mk, lam, n):
    """Z(t)/Z(t^2) * prod_k binom(M_k, lam_k) (t^k / (1 + t^k))^lam_k to order
    n, by truncated Fraction series products from the Taylor coefficients z."""
    z2 = [F(0)] * (n + 1)
    for j in range(n // 2 + 1):
        z2[2 * j] = z[j]
    out = truncated_mul(z, truncated_inverse(z2, n), n)
    for k, lk in active(lam):
        one_plus_tk = [F(1)] + [F(int(m == k)) for m in range(1, n + 1)]
        factor = ([F(0)] * k + truncated_inverse(one_plus_tk, n))[: n + 1]
        for _ in range(lk):
            out = truncated_mul(out, factor, n)
        out = [comb(mk[k - 1], lk) * c for c in out]
    return out


P2_Q2 = builtin_variety("projective", 2, 2)
ZETA_AT_ZERO_2 = parse_variety_text("q = 3\ndim = 1\nzeta_num = 2\nzeta_den = 1 -3\n")
# an elliptic curve over F_5: its N is not constant, so B = D(t) N(t^2) has N(t^2)
ELLIPTIC_Q5 = parse_variety_text("q = 5\ndim = 1\nzeta_num = 1 -2 5\nzeta_den = 1 -6 5\n")

# variety, its zeta function, and the order n of the comparison
SERIES_CASES = {
    "affine1_q3": (A1_Q3, A1_Q3.zeta, 60),
    "projective2_q2": (P2_Q2, P2_Q2.zeta, 60),
    "counts_p1_q3": (
        PointCountData(q=3, dim=1, counts=tuple(3**m + 1 for m in range(1, 61))),
        ((1,), (1, -4, 3)),
        60,
    ),
    # Z(0) = 2: the constant must cancel in Z(t)/Z(t^2)
    "zeta_at_zero_2": (ZETA_AT_ZERO_2, ZETA_AT_ZERO_2.zeta, 60),
    "elliptic_q5": (ELLIPTIC_Q5, ELLIPTIC_Q5.zeta, 60),
    "empty": (PointCountData(q=2, dim=1, counts=(0, 0, 0)), ((1,), (1,)), 3),
}


@pytest.mark.parametrize("case", sorted(SERIES_CASES))
def test_series_matches_fraction_expansion(case):
    v, zeta, n = SERIES_CASES[case]
    z = truncated_mul(zeta[0], truncated_inverse(zeta[1], n), n)
    lambdas = [mu for w in range(5) for mu in partitions(w)]
    assert len(lambdas) == 12
    for lam in lambdas:
        if len(lam) > n:
            with pytest.raises(ValueError):
                count_values(v, CharPoly.binom(lam), n)  # counts needed beyond the data
            continue
        expected = fraction_count_series(z, closed_point_counts(v, n), lam, n)
        assert as_fractions(*count_values(v, CharPoly.binom(lam), n)) == expected, lam
    if case == "empty":
        assert as_fractions(*count_values(v, CharPoly.binom(()), n)) == [1, 0, 0, 0]


# the counts of P^1 over F_3 from a file, and its zeta function 1/((1-t)(1-3t))
P1_Q3_COUNTS = parse_variety_text(
    "q = 3\ndim = 1\ncounts = " + " ".join(str(3**m + 1) for m in range(1, 31)) + "\n"
)
WHOLE_REP_CASES = {
    "affine1_q3": (A1_Q3, A1_Q3.zeta),
    "projective2_q2": (P2_Q2, P2_Q2.zeta),
    "counts_file_p1_q3": (P1_Q3_COUNTS, ((1,), (1, -4, 3))),
}
WHOLE_REPS = [
    "1/2*C(X1,2) - 3/4*X2 + 5/3",
    "C(X1,3) - 2/7*X1*X2 + 1/5*C(X3,1) - X1",
    "(X1 - 1/3)*(X2 + 2/9) - 7/11*C(X2,2)",
]


@pytest.mark.parametrize("case", sorted(WHOLE_REP_CASES))
def test_whole_rep_series_is_the_sum_of_its_terms(case):
    v, zeta = WHOLE_REP_CASES[case]
    n = 30
    z = truncated_mul(zeta[0], truncated_inverse(zeta[1], n), n)
    mk = closed_point_counts(v, n)
    for text in WHOLE_REPS:
        p = parse_rep(text)
        assert len(p.items()) >= 3
        assert any(coeff.denominator > 1 for coeff in coefficients(p).values())
        expected = [F(0)] * (n + 1)
        for lam, coeff in coefficients(p).items():
            for m, c in enumerate(fraction_count_series(z, mk, lam, n)):
                expected[m] += coeff * c
        assert as_fractions(*count_values(v, p, n)) == expected, text


# ---------------------------------------------------------------------------
# counting configurations by cycle type


def test_binomial_counts_irreducible_quadratics():
    assert binomial(closed_point_counts(A1_Q3, 2), cycle_type((0, 1))) == 3


def test_binomial_counts_split_pairs():
    assert binomial(closed_point_counts(A1_Q3, 2), cycle_type((2,))) == 3


def test_binomial_counts_total():
    mk = closed_point_counts(A1_Q3, 2)
    total = sum(binomial(mk, mu) for mu in partitions(2))
    assert total == as_fractions(*count_values(A1_Q3, CharPoly.binom(()), 2))[2] == 6


@pytest.mark.parametrize(
    "kind,d,q", [("affine", 1, 3), ("affine", 2, 2), ("projective", 1, 3)]
)
def test_partition_sum_equals_series_for_trivial_weight(kind, d, q):
    v = builtin_variety(kind, d, q)
    series = as_fractions(*count_values(v, CharPoly.binom(()), 8))
    mk = closed_point_counts(v, 8)
    for n in range(9):
        total = sum(binomial(mk, mu) for mu in partitions(n))
        assert total == series[n]


# ---------------------------------------------------------------------------
# three-path oracle equivalence


def census_sum(census, rep, n):
    """The sum of rep over row n of a census of every degree."""
    return sum((cnt * evaluate(rep, ct) for ct, cnt in census[n]), F(0))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_three_paths_agree(p):
    v = builtin_variety("affine", 1, p)
    census = bruteforce_census(p, 6)
    for lam in LAMBDA_SWEEP:
        rep = CharPoly.binom(lam)
        series = as_fractions(*count_values(v, rep, 6))
        for n in range(7):
            brute = census_sum(census, rep, n)
            part = partition_weighted_count(v, rep, n)
            assert brute == part == series[n], (p, lam, n)


# ---------------------------------------------------------------------------
# limits


def test_limit_normalized_trivial():
    assert F(*limits(A1_Q3, CharPoly.binom(()))[0]) == F(2, 3)


def test_limit_normalized_linear():
    assert F(*limits(A1_Q3, CharPoly.binom((1,)))[0]) == F(1, 2)


def test_limit_expectation_values():
    assert F(*limits(A1_Q3, CharPoly.binom(()))[1]) == 1
    assert F(*limits(A1_Q3, CharPoly.binom((1,)))[1]) == F(3, 4)
    a1_q2 = builtin_variety("affine", 1, 2)
    assert F(*limits(a1_q2, CharPoly.binom((0, 1)))[1]) == F(1, 5)


def test_limit_rejects_a_double_pole():
    # Z = 1/(1 - 3t)^2: the limit series has a pole of order 2 at t = 1/3
    v = parse_variety_text("q = 3\ndim = 1\nzeta_num = 1\nzeta_den = 1 -6 9\n")
    with pytest.raises(ValueError, match="pole of order >= 2 at t = 1/3"):
        limits(v, CharPoly.binom(()))[0]


def test_limits_ignore_a_common_factor_and_the_value_at_zero():
    # (1 - t)/((1 - t)(1 - 3t)) and 2/(1 - 3t) give the affine line's limits
    same = [
        parse_variety_text(f"q = 3\ndim = 1\nzeta_num = {n}\nzeta_den = {d}\n")
        for n, d in (("1 -1", "1 -4 3"), ("2", "1 -3"), ("0 1", "0 1 -3"))
    ]
    for lam in LAMBDA_SWEEP:
        expected = F(*limits(A1_Q3, CharPoly.binom(lam))[0])
        assert all(F(*limits(v, CharPoly.binom(lam))[0]) == expected for v in same), lam


def test_limit_requires_rational_zeta():
    v = PointCountData(q=3, dim=1, counts=(3, 9, 27))
    with pytest.raises(ValueError):
        limits(v, CharPoly.binom(()))[0]


def test_limit_expectation_closed_form():
    # sum_lam c_lam prod_k binom(M_k, l_k) / (1 + q^(k d))^l_k, in Fractions:
    # a reference that shares no code with cyclotomic_sum
    reps = [CharPoly.binom(lam) for lam in LAMBDA_SWEEP]
    reps += [parse_rep(name) for name in ("V1", "V11", "V2", "3/2*X1-1/6", "1/2*X4+C(X2,2)")]
    for kind, d in (("affine", 1), ("affine", 2), ("projective", 1), ("projective", 2)):
        for q in (2, 3, 5):
            v = builtin_variety(kind, d, q)
            for p in reps:
                mk = closed_point_counts(v, max(len(lam) for lam in coefficients(p)) or 1)
                expected = F(0)
                for lam, c in coefficients(p).items():
                    for k, lk in active(lam):
                        c *= comb(mk[k - 1], lk) * F(1, 1 + q ** (k * d)) ** lk
                    expected += c
                assert limits(v, p)[1] == (expected.numerator, expected.denominator), (kind, d, q, p)


def test_normalized_counts_converge_monotonically():
    # exact gaps |a_n / q^n - limit| shrink for n in 12..25
    for lam in (cycle_type(()), cycle_type((1,)), cycle_type((0, 1))):
        lim = F(*limits(A1_Q3, CharPoly.binom(lam))[0])
        series = as_fractions(*count_values(A1_Q3, CharPoly.binom(lam), 26))
        gaps = [abs(series[n] / F(3) ** n - lim) for n in range(12, 27)]
        assert all(gaps[i + 1] <= gaps[i] for i in range(len(gaps) - 1))


def test_projective_line_limit_close_to_coefficients():
    v = builtin_variety("projective", 1, 2)
    for lam in (cycle_type(()), cycle_type((1,)), cycle_type((0, 1))):
        lim = F(*limits(v, CharPoly.binom(lam))[0])
        series = as_fractions(*count_values(v, CharPoly.binom(lam), 25))
        assert abs(series[25] / F(2) ** 25 - lim) < F(1, 10**6)


def test_elliptic_curve_limits_are_the_trivial_limit_times_the_expectation():
    # Z = (1 - 2t + 5t^2) / ((1 - t)(1 - 5t)), an elliptic curve over F_5:
    # the numerator's reciprocal roots have absolute value sqrt(5)
    v = parse_variety_text("q = 5\ndim = 1\nzeta_num = 1 -2 5\nzeta_den = 1 -6 5\n")
    one = F(*limits(v, CharPoly({(): 1}))[0])
    for name in ("1", "X1", "V11", "1/2*X4+C(X2,2)"):
        p = parse_rep(name)
        lim = F(*limits(v, p)[0])
        assert lim == one * F(*limits(v, p)[1]), name
        assert abs(as_fractions(*count_values(v, p, 25))[25] / F(5) ** 25 - lim) < F(1, 10**6), name


def test_affine_line_limits_are_the_stable_conf_series_at_minus_one_over_q():
    # the bridge at n = infinity: the normalized limit on the affine line is
    # sum_i (-1)^i b_i q^(-i) over the stable Betti numbers b_i, that is the
    # conf side's stable series num / (d D) at z = -1/q; the two sides share
    # only series.cyclotomic_sum
    def horner(poly, z):
        acc = F(0)
        for a in reversed(poly):
            acc = acc * z + a
        return acc

    reps = [CharPoly.binom(lam) for w in range(1, 7) for lam in partitions(w)]
    assert len(reps) == 29
    reps += [parse_rep(text) for text in ("1", "V1", "V11", "V2", "X1", "C(X1,2)-X2", "3/2*X1-1/6",
                                          "1/2*X4+C(X2,2)")]
    for p in reps:
        num, D, d = SIDE.stable_series(p)
        for q in (2, 3, 4, 5, 7, 9):
            z = F(-1, q)
            expected = horner(num, z) / (d * horner(D, z))
            assert F(*limits(builtin_variety("affine", 1, q), p)[0]) == expected, (p, q)


def test_bruteforce_budget():
    start = time.monotonic()
    bruteforce_census(7, 6)
    assert time.monotonic() - start < 30
