"""Weighted point-counts on configuration spaces of a variety over F_q,
their large-n limits, and a brute-force oracle for the affine line.

Points of the n-th configuration space of the affine line over F_p are in
bijection with monic square-free degree-n polynomials; the number of
k-cycles of the Frobenius permutation of a configuration equals the number
of degree-k irreducible factors.  The oracle enumerates every monic
polynomial of degree n over F_p, reads off its factor degrees from a
smallest-factor sieve, and tallies the square-free ones.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb

from .chars import CharPoly, CycleType, LambdaSpec, partitions
from .series import Poly, RationalFunction, stable_limit
from .zeta import PointCountData, closed_point_counts

__all__ = [
    "DEFAULT_GUARD",
    "weighted_count_series",
    "weighted_count",
    "partition_weighted_count",
    "cycle_type_count",
    "bruteforce_census",
    "bruteforce_weighted_count",
    "limit_normalized",
    "limit_expectation",
]

DEFAULT_GUARD = 10**6


# ---------------------------------------------------------------------------
# the generating-function path


def weighted_count_series(
    v: PointCountData, lam: LambdaSpec, n_max: int
) -> list[Fraction]:
    """Coefficients c_0..c_{n_max} with c_n the sum of C(X, lam) over the
    Frobenius cycle types of all n-point configurations of V over F_q.

    The generating function is Z(V,t)/Z(V,t^2) times, for each k with
    lam_k > 0, the factor binom(M_k(V,q), lam_k) * (t^k / (1 + t^k))^lam_k.
    Since Z(V,t) = Z(V,0) * prod_k (1 - t^k)^(-M_k), the ratio is
    prod_k (1 + t^k)^(M_k) and every step stays on integers: the product
    comes from Newton's identity m s_m = sum_{i=1..m} c_i s_{m-i}, with
    c_i = sum_{k | i} (-1)^(i/k + 1) k M_k its logarithmic derivative, and
    each division by (1 + t^k) is an in-place stride-k difference.
    """
    mk = closed_point_counts(v, max(n_max, len(lam.entries)))
    scale = 1
    for k, lk in lam.active():
        scale *= comb(mk[k - 1], lk)
    w = lam.weight
    out = [0] * (n_max + 1)
    if scale and w <= n_max:
        order = n_max - w
        c = [0] * (order + 1)
        for k in range(1, order + 1):
            km = k * mk[k - 1]
            if km:
                for i in range(k, order + 1, 2 * k):
                    c[i] += km
                for i in range(2 * k, order + 1, 2 * k):
                    c[i] -= km
        s = [1] + [0] * order
        for m in range(1, order + 1):
            total = sum(c[i] * s[m - i] for i in range(1, m + 1))
            s[m], rem = divmod(total, m)
            if rem:
                raise ArithmeticError(f"non-integer coefficient {total}/{m} at t^{m}")
        for k, lk in lam.active():
            for _ in range(lk):
                for m in range(k, order + 1):
                    s[m] -= s[m - k]
        out[w:] = [scale * x for x in s]
    return [Fraction(x) for x in out]


def weighted_count(v: PointCountData, p: CharPoly, n: int) -> Fraction:
    """Sum of p over the cycle types of Conf_n V(F_q), by linearity over the
    binomial basis."""
    total = Fraction(0)
    for lam, coeff in p.items():
        total += coeff * weighted_count_series(v, lam, n)[n]
    return total


def cycle_type_count(v: PointCountData, n: int, c: CycleType) -> int:
    """Number of n-point configurations whose Frobenius permutation has the
    given cycle type: prod_k binom(M_k(V,q), a_k)."""
    if c.n != n:
        raise ValueError(f"cycle type has size {c.n}, expected {n}")
    depth = len(c.counts)
    return _type_count(closed_point_counts(v, depth) if depth else [], c)


def _type_count(mk: list[int], c: CycleType) -> int:
    out = 1
    for k, a in enumerate(c.counts, start=1):
        if a:
            out *= comb(mk[k - 1], a)
    return out


def partition_weighted_count(v: PointCountData, p: CharPoly, n: int) -> Fraction:
    """Independent evaluation path: sum over partitions mu of n of
    cycle_type_count(mu) * p(mu)."""
    mk = closed_point_counts(v, n) if n else []
    total = Fraction(0)
    for mu in partitions(n):
        cnt = _type_count(mk, mu)
        if cnt:
            total += cnt * p.evaluate(mu)
    return total


# ---------------------------------------------------------------------------
# brute force over F_p
#
# Monic polynomials of degree d are coefficient tuples (c_0, ..., c_{d-1}, 1)
# with entries mod p.  The sieve stores, for every monic polynomial of
# degree 2..n, its smallest irreducible factor (ordered by degree, then
# lexicographically) together with the quotient, built the same way an
# integer smallest-prime-factor sieve is: every composite is produced
# exactly once as (smallest factor) * (cofactor whose factors are >= it).


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


@lru_cache(maxsize=16)
def _monics(p: int, d: int) -> tuple[tuple[int, ...], ...]:
    return tuple(rest + (1,) for rest in itertools.product(range(p), repeat=d))


@lru_cache(maxsize=8)
def _factor_sieve(p: int, n: int):
    """spf[f] = (g, h) with f = g * h for every composite monic f of degree
    <= n, g the smallest irreducible factor (by degree, then lexicographic
    order on coefficient tuples) and h the cofactor."""
    spf: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    minf: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    irr: dict[int, list[tuple[int, ...]]] = {}
    for m in range(1, n + 1):
        keep_minf = m < n  # minf is only ever consulted for cofactor degrees
        for d in range(1, m // 2 + 1):
            for g in irr[d]:
                key_g = (d, g)
                for h in _monics(p, m - d):
                    if minf[h] < key_g:
                        continue
                    f = _poly_mul(g, h, p)
                    spf[f] = (g, h)
                    if keep_minf:
                        minf[f] = key_g
        if keep_minf:
            irr[m] = []
            for f in _monics(p, m):
                if f not in spf:
                    minf[f] = (m, f)
                    irr[m].append(f)
    return spf


def _factor_degrees(f: tuple[int, ...], spf, out: list[int]) -> bool:
    """Collect factor degrees of f into out; returns False when a factor
    repeats (chain factors come off in nondecreasing order, so repeats are
    adjacent)."""
    prev = None
    cur = f
    while True:
        entry = spf.get(cur)
        if entry is None:
            if len(cur) > 1:  # irreducible tail; degree-0 tail is the constant 1
                if prev == cur:
                    return False
                out[len(cur) - 2] += 1
            return True
        g, h = entry
        if g == prev:
            return False
        out[len(g) - 2] += 1
        prev, cur = g, h


def bruteforce_census(p: int, n: int, guard: int = DEFAULT_GUARD):
    """Cycle-type census of monic square-free degree-n polynomials over F_p.

    Returns a mapping CycleType -> number of square-free polynomials whose
    irreducible factorization has those factor degrees.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime; brute force runs over prime fields only")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if p**n > guard:
        raise ValueError(f"p^n = {p**n} exceeds the brute-force guard {guard}")
    return _census(p, n)


@lru_cache(maxsize=32)
def _census(p: int, n: int) -> dict[CycleType, int]:
    if n == 0:
        return {CycleType(()): 1}
    spf = _factor_sieve(p, n)
    tally: dict[tuple[int, ...], int] = {}
    counts = [0] * n
    for f in _monics(p, n):
        for i in range(n):
            counts[i] = 0
        if _factor_degrees(f, spf, counts):
            key = tuple(counts)
            tally[key] = tally.get(key, 0) + 1
    return {CycleType(key): cnt for key, cnt in tally.items()}


def bruteforce_weighted_count(
    p: int, n: int, rep: CharPoly, guard: int = DEFAULT_GUARD
) -> Fraction:
    """Sum of rep over all monic square-free degree-n polynomials over F_p,
    each weighted by the cycle type of its factor degrees."""
    census = bruteforce_census(p, n, guard)
    total = Fraction(0)
    for ct, cnt in census.items():
        total += cnt * rep.evaluate(ct)
    return total


# ---------------------------------------------------------------------------
# limits as n grows


def _limit_series(v: PointCountData, lam: LambdaSpec) -> RationalFunction:
    if v.zeta is None:
        raise ValueError("limits need the zeta function as a rational function")
    a = v.zeta / v.zeta.stretch(2)
    depth = len(lam.entries)
    mk = closed_point_counts(v, depth) if depth else []
    for k, lk in lam.active():
        scale = comb(mk[k - 1], lk)
        tk = Poly((0,) * k + (1,))
        a = a * RationalFunction(tk, Poly((1,)) + tk) ** lk * scale
    return a


def limit_normalized(v: PointCountData, lam: LambdaSpec) -> Fraction:
    """Exact limit of q^(-n d) times the C(X, lam)-weighted count on
    Conf_n V(F_q), extracted by clearing the simple pole at t = q^(-d)."""
    return stable_limit(_limit_series(v, lam), v.q**v.dim)


def limit_expectation(v: PointCountData, lam: LambdaSpec) -> Fraction:
    """Limiting expected value of C(X, lam) over a uniform random point of
    Conf_n V(F_q): the ratio of the normalized limit to its lam = () case."""
    base = limit_normalized(v, LambdaSpec(()))
    return limit_normalized(v, lam) / base
