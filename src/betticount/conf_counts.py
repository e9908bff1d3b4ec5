"""Weighted point-counts on configuration spaces of a variety over F_q,
their large-n limits, and a brute-force oracle for the affine line.

Points of the n-th configuration space of the affine line over F_p are in
bijection with monic square-free degree-n polynomials; the number of
k-cycles of the Frobenius permutation of a configuration equals the number
of degree-k irreducible factors.  The oracle runs one smallest-factor sieve
over every monic polynomial over F_p of degree <= n and tallies the
square-free ones of each degree by their factor degrees.  A polynomial is a
packed int, one bit field per coefficient, so adding two of them mod p
takes no loop; each product g * h is the previous one plus a multiple of g,
one packed addition; and each polynomial's factor type is read from a table
kept for its cofactor.  It never uses the closed-point counts or the
binomial formula it checks.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction

from .chars import CharPoly, CycleType, binomial, partitions
from .series import divide_in_place, poly_mul
from .zeta import PointCountData, closed_point_counts, is_prime

__all__ = [
    "GUARD",
    "weighted_count_series",
    "weighted_count",
    "partition_weighted_count",
    "check_bruteforce",
    "bruteforce_census",
    "bruteforce_weighted_count",
    "limit_normalized",
    "limit_expectation",
]

GUARD = 10**6  # the largest p^n the sieve takes; 7^7 and 3^12 are the largest runs


# ---------------------------------------------------------------------------
# the generating-function path


def weighted_count_series(
    v: PointCountData, p: CharPoly, n_max: int
) -> list[Fraction]:
    """Coefficients c_0..c_{n_max} with c_n the sum of p over the Frobenius
    cycle types of all n-point configurations of V over F_q.

    For p = C(X, lam) the generating function is Z(V,t)/Z(V,t^2) times,
    for each k with lam_k > 0, the factor
    binom(M_k(V,q), lam_k) * (t^k / (1 + t^k))^lam_k.  Since
    Z(V,t) = Z(V,0) * prod_k (1 - t^k)^(-M_k), the ratio is
    prod_k (1 + t^k)^(M_k) and every step stays on integers: the product
    comes once, for all of p, from Newton's identity
    m s_m = sum_{i=1..m} c_i s_{m-i}, with c_i = sum_{k | i}
    (-1)^(i/k + 1) k M_k its logarithmic derivative; each lam then divides
    a prefix of it by prod_k (1 + t^k)^lam_k, in place, and adds it in at
    t^|lam| over the common denominator of p's coefficients.
    """
    terms = p.items()
    mk = closed_point_counts(v, max([n_max] + [len(lam.counts) for lam, _ in terms]))
    c = [0] * (n_max + 1)
    for k in range(1, n_max + 1):
        km = k * mk[k - 1]
        if km:
            for i in range(k, n_max + 1, 2 * k):
                c[i] += km
            for i in range(2 * k, n_max + 1, 2 * k):
                c[i] -= km
    prod = [1] + [0] * n_max
    for m in range(1, n_max + 1):
        total = sum(c[i] * prod[m - i] for i in range(1, m + 1))
        prod[m], rem = divmod(total, m)
        if rem:
            raise ArithmeticError(f"non-integer coefficient {total}/{m} at t^{m}")
    den = math.lcm(*(coeff.denominator for _, coeff in terms))
    out = [0] * (n_max + 1)
    for lam, coeff in terms:
        w = lam.n
        mult = coeff.numerator * (den // coeff.denominator) * binomial(mk, lam)
        if mult and w <= n_max:
            s = prod[: n_max + 1 - w]
            divide_in_place(s, lam.active(), 1)
            for m, x in enumerate(s, start=w):
                out[m] += mult * x
    return [Fraction(x, den) for x in out]


def weighted_count(v: PointCountData, p: CharPoly, n: int) -> Fraction:
    """Sum of p over the cycle types of Conf_n V(F_q)."""
    return weighted_count_series(v, p, n)[n]


def partition_weighted_count(v: PointCountData, p: CharPoly, n: int) -> Fraction:
    """Independent evaluation path: sum over partitions mu of n of N_mu *
    p(mu), where N_mu = binomial(M, mu) = prod_k binom(M_k(V,q), mu_k) is
    the number of n-point configurations of Frobenius cycle type mu."""
    mk = closed_point_counts(v, n) if n else []
    total = Fraction(0)
    for mu in partitions(n):
        cnt = binomial(mk, mu)
        if cnt:
            total += cnt * p.evaluate(mu)
    return total


# ---------------------------------------------------------------------------
# brute force over F_p
#
# A monic polynomial c_0 + c_1 x + ... + x^m is the int sum_i c_i 2^(b i),
# one b-bit field per coefficient (leading 1 included) with 2p <= 2^(b-1);
# the int is its own dict key and orders polynomials degree first.  Two
# such ints add mod p without a loop: each field of s = x + y is below 2p,
# so adding 2^(b-1) - p to every field sets its top bit exactly where the
# field reached p, and p comes off those fields.
#
# One sieve per prime, run up to degree n, builds every composite exactly
# once as g * h, with g its smallest irreducible factor (as an int) and h a
# cofactor with no factor below g, like an integer smallest-prime-factor
# sieve.  For each irreducible g the cofactors h of degree e are walked in
# odometer order, c_0 fastest.  The k-th step adds 1 + x + ... + x^v to h,
# v = nu_p(k) (digit v goes up and the v digits below wrap from p - 1 to
# 0), so it adds g (1 + ... + x^v) to the product: one packed addition.
# Every monic of degree < n keeps its smallest factor and its cycle-type
# key, the factor-degree counts a_k packed in base n + 1, or -1 when a
# factor repeats.  g * h is square-free iff h is and h's smallest factor is
# not g, and then its key is h's plus one degree-d factor; an irreducible
# is its own smallest factor.  The monics that no product reaches are the
# irreducibles, and every product must be a monic.  Degree-n products are
# only tallied.


def _sieve(p: int, n: int) -> list[Counter]:
    """tallies[m][key]: the number of monic square-free degree-m polynomials
    over F_p with cycle-type key `key`, for every m <= n."""
    b = (2 * p).bit_length() + 1
    top = b - 1
    ones = sum(1 << (b * i) for i in range(n + 1))
    lift = ((1 << top) - p) * ones
    base = n + 1
    # nus[i] = nu_p(i + 1): the highest odometer digit that moves at step i + 1
    size = p ** max(n - 1, 0)
    nus = [0] * size
    for v in range(1, n):
        nus[p**v - 1 :: p**v] = [v] * (size // p**v)
    mons = [1]  # the monics of the current degree, in odometer order
    small = [mons]  # small[e][i]: the smallest factor of the i-th monic of degree e
    types = [[0]]  # types[e][i]: its cycle-type key
    irr: list[list[int]] = [[]]
    tallies = [Counter({0: 1})]
    for m in range(1, n + 1):
        last = m == n
        made: dict[int, int] = {}  # product -> cycle-type key
        spf: dict[int, int] = {}  # product -> smallest factor
        for d in range(1, m // 2 + 1):
            e = m - d
            unit = base ** (d - 1)
            for g in irr[d]:
                steps = [g]  # steps[v] = g (1 + x + ... + x^v) mod p
                for j in range(1, e + 1):
                    s = steps[-1] + (g << (b * j))
                    steps.append(s - p * (((s + lift) >> top) & ones))
                f = g << (b * e)
                for v, hs, ht in zip(nus, small[e], types[e]):
                    if hs >= g:
                        if f in made:
                            raise ArithmeticError(f"the sieve over F_{p} reached {f:#x} twice")
                        made[f] = ht + unit if ht >= 0 and hs != g else -1
                        if not last:
                            spf[f] = g
                    s = f + steps[v]
                    f = s - p * (((s + lift) >> top) & ones)
        # the degree-m monics are f + x^m + (c - 1) x^(m-1), f of degree m - 1
        offsets = [(1 << (b * m)) + ((c - 1) << (b * (m - 1))) for c in range(p)]
        unit = base ** (m - 1)
        if last:
            reached = sum(sum(map(made.__contains__, map(o.__add__, mons))) for o in offsets)
            tally = Counter(made.values())
            tally[unit] = p * len(mons) - reached
        else:
            mons = [f + o for o in offsets for f in mons]
            small.append([spf.get(f, f) for f in mons])
            types.append([made.get(f, unit) for f in mons])
            irr.append([f for f, s in zip(mons, small[m]) if f == s])
            reached = len(mons) - len(irr[m])
            tally = Counter(types[m])
        if reached != len(made):
            raise ArithmeticError(f"the sieve over F_{p} made a degree-{m} product outside the monics")
        del tally[-1]
        tallies.append(tally)
    return tallies


def check_bruteforce(p: int, n: int) -> None:
    """Refuse brute force over F_p up to degree n unless p is prime and p^n <= GUARD."""
    if not is_prime(p):
        raise ValueError(f"q = {p} is not prime; brute force runs over prime fields only")
    if p**n > GUARD:
        raise ValueError(f"brute force at q={p}, n={n} exceeds the guard {GUARD}; lower --max-n")


def bruteforce_census(p: int, n: int) -> dict[CycleType, int]:
    """Cycle-type census of the monic square-free polynomials over F_p of
    every degree from 0 to n, all from one sieve.

    Returns a mapping CycleType -> number of square-free polynomials whose
    irreducible factorization has those factor degrees; the size of a cycle
    type is the degree of the polynomials it counts.
    """
    check_bruteforce(p, n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    tallies = _sieve(p, n)
    return {
        CycleType(tuple(key // (n + 1) ** k % (n + 1) for k in range(m))): cnt
        for m in range(n + 1)
        for key, cnt in tallies[m].items()
    }


def bruteforce_weighted_count(p: int, n: int, rep: CharPoly) -> Fraction:
    """Sum of rep over all monic square-free degree-n polynomials over F_p,
    each weighted by the cycle type of its factor degrees."""
    total = Fraction(0)
    for ct, cnt in bruteforce_census(p, n).items():
        if ct.n == n:
            total += cnt * rep.evaluate(ct)
    return total


# ---------------------------------------------------------------------------
# limits as n grows


def _at_t_squared(p: Sequence[int]) -> list[int]:
    out = [0] * (2 * len(p) - 1)
    out[::2] = p
    return out


def _deflate(p: list[int], c: int) -> list[int] | None:
    """p / (1 - c t) by synthetic division when p vanishes at t = 1/c,
    else None."""
    q, acc = [], 0
    for a in p[:-1]:
        acc = a + c * acc
        q.append(acc)
    return q if p[-1] + c * acc == 0 else None


def _at(p: list[int], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for a in reversed(p):
        acc = acc * x + a
    return acc


def limit_normalized(v: PointCountData, p: CharPoly) -> Fraction:
    """Exact limit of q^(-n d) times the p-weighted count on Conf_n V(F_q).

    For p = C(X, lam) the counts are the Taylor coefficients of
    F(t) = Z(V,t)/Z(V,t^2) times binom(M_k, lam_k) (t^k / (1 + t^k))^lam_k
    for each k, which has a simple pole at t = 1/c, c = q^d: the limit is
    (1 - c t) F(t) at t = 1/c.  Factors 1 - c t common to its numerator and
    denominator are divided out first; a denominator that still vanishes
    there is a pole of order >= 2.  The limit is linear in p.
    """
    if v.zeta is None:
        raise ValueError("limits need the zeta function as a rational function")
    zn, zd = v.zeta
    terms = p.items()
    depth = max([0] + [len(lam.counts) for lam, _ in terms])
    mk = closed_point_counts(v, depth) if depth else []
    c = v.q**v.dim
    x = Fraction(1, c)
    total = Fraction(0)
    for lam, coeff in terms:
        scale = binomial(mk, lam)
        if not scale:
            continue
        num, den = poly_mul(zn, _at_t_squared(zd)), poly_mul(zd, _at_t_squared(zn))
        for k, lk in lam.active():
            for _ in range(lk):
                num = [0] * k + num
                den = poly_mul(den, [1] + [0] * (k - 1) + [1])
        num = poly_mul(num, [1, -c])
        while (qn := _deflate(num, c)) is not None and (qd := _deflate(den, c)) is not None:
            num, den = qn, qd
        if _deflate(den, c) is not None:
            raise ValueError(f"pole of order >= 2 at t = {x}")
        total += coeff * scale * _at(num, x) / _at(den, x)
    return total


def limit_expectation(v: PointCountData, p: CharPoly) -> Fraction:
    """Limiting expected value of p over a uniform random point of
    Conf_n V(F_q): the ratio of the normalized limit to that of p = 1."""
    return limit_normalized(v, p) / limit_normalized(v, CharPoly.constant(1))
