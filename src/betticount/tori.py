"""Twisted Betti numbers of spaces of maximal tori in GL_n, and the weighted
counts of Frobenius-stable maximal tori over F_q that cross-check them.

The torus-side double generating function is

    sum_{n,i} beta_i(n) / ((1-z)(1-z^2)...(1-z^n)) * z^i t^n
        = [prod_k (1/lam_k!) (t^k / (k (1 - z^k)))^lam_k]
          * prod_{j>=0} 1/(1 - t z^j)

where beta_i(n) is the dimension of the degree-2i cohomology (odd degrees
vanish).  On the arithmetic side, the count of tori with Frobenius cycle
type mu is |GL_n(F_q)| / (z_mu * prod_k (q^k - 1)^(a_k)), which doubles as
an independent oracle for the series expansion.

Euler's identity prod_{j>=0} 1/(1 - t z^j) = sum_m t^m / ((1-z)...(1-z^m))
cancels the q-factorial, so for n >= w = |lam| each table row is the
polynomial

    sum_i beta_i(n) z^i
        = (1/z_lam) prod_{j=n-w+1..n} (1 - z^j) / prod_k (1 - z^k)^lam_k

and the row is zero for n < w.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction

from .chars import CharPoly, CycleType, LambdaSpec, centralizer_order, partitions
from .conf_betti import BettiTable, GLCheck, _gl_checks
from .series import RatFun, RecurrenceSpec, cyclotomic_sum, recurrence_from_ratfun, taylor_coeffs
from .zeta import divisors

__all__ = [
    "gl_order",
    "z_lambda",
    "weighted_series",
    "partition_weighted_count",
    "tori_count_by_type",
    "betti_table",
    "stable_series",
    "stable_betti_numbers",
    "recurrence",
    "count_oracle",
    "gl_checks",
    "gl_crosscheck",
]


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = prod_{i=0..n-1} (q^n - q^i); the empty product is 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def z_lambda(lam: LambdaSpec) -> int:
    """prod_k lam_k! * k^lam_k, the centralizer order of the cycle type lam."""
    out = 1
    for k, lk in lam.active():
        out *= math.factorial(lk) * k**lk
    return out


def weighted_series(lam: LambdaSpec, q: int, n_max: int) -> list[Fraction]:
    """Coefficients c_0..c_{n_max} of the torus-count generating function:
    c_n * |GL_n(F_q)| is the sum of C(X, lam) over the Frobenius cycle types
    of all maximal tori of GL_n(F_q).

    Expanded from (1/z_lam) prod_k (t^k/(q^k - 1))^lam_k times
    prod_{i>=1} 1/(1 - q^(-i) t), whose t^m coefficient is
    q^(-m) / prod_{j=1..m} (1 - q^(-j)).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    w = lam.weight
    scale = Fraction(1, z_lambda(lam))
    for k, lk in lam.active():
        scale *= Fraction(1, (q**k - 1) ** lk)
    out = [Fraction(0)] * (n_max + 1)
    tail = Fraction(1)  # q^(-m) / prod_{j<=m} (1 - q^(-j)) at m = 0
    for m in range(0, n_max - w + 1):
        if m:
            tail *= Fraction(1, q) / (1 - Fraction(1, q**m))
        out[w + m] = scale * tail
    return out


def partition_weighted_count(p: CharPoly, q: int, n: int) -> Fraction:
    """Independent path: sum over partitions mu of n of N_mu * p(mu), where
    N_mu counts the tori whose Frobenius permutation has cycle type mu."""
    return sum(
        (tori_count_by_type(q, n, mu) * p.evaluate(mu) for mu in partitions(n)),
        Fraction(0),
    )


def tori_count_by_type(q: int, n: int, mu: CycleType) -> int:
    """Number of Frobenius-stable maximal tori of GL_n(F_q) with the given
    Frobenius cycle type."""
    if mu.n != n:
        raise ValueError(f"cycle type has size {mu.n}, expected {n}")
    denom = centralizer_order(mu)
    for k, a in enumerate(mu.counts, start=1):
        denom *= (q**k - 1) ** a
    count = Fraction(gl_order(n, q), denom)
    if count.denominator != 1:
        raise ArithmeticError(f"non-integral torus count {count} at {mu.parts()}")
    return int(count)


def _row(lam: LambdaSpec, n: int, max_i: int) -> list[int]:
    """z_lam * sum_i beta_i(n) z^i for the weight C(X, lam), as integers
    truncated at z^max_i."""
    w = lam.weight
    row = [0] * (max_i + 1)
    if n < w:
        return row
    row[0] = 1
    for j in range(n - w + 1, n + 1):
        for e in range(max_i, j - 1, -1):
            row[e] -= row[e - j]
    for k, lk in lam.active():
        for _ in range(lk):
            for e in range(k, max_i + 1):
                row[e] += row[e - k]
    return row


def betti_table(p: CharPoly, max_i: int, max_n: int) -> BettiTable:
    """beta_i(n) = dim of the degree-2i twisted cohomology of the space of
    maximal tori, for i <= max_i and n <= max_n."""
    if max_i < 0 or max_n < 0:
        raise ValueError("max_i and max_n must be nonnegative")
    terms = [(coeff, z_lambda(lam), lam) for lam, coeff in p.items()]
    den = math.lcm(*(coeff.denominator * z for coeff, z, _ in terms))
    grid = [[0] * (max_n + 1) for _ in range(max_i + 1)]
    for coeff, z, lam in terms:
        mult = coeff.numerator * (den // (coeff.denominator * z))
        for n in range(max_n + 1):
            for i, c in enumerate(_row(lam, n, max_i)):
                grid[i][n] += mult * c
    top = [n * (n - 1) // 2 for n in range(max_n + 1)]
    for i, row in enumerate(grid):
        for n, c in enumerate(row):
            if c and i > top[n]:
                raise ArithmeticError(
                    f"nonzero beta beyond i = n(n-1)/2 at i={i}, n={n}"
                )
    return BettiTable(
        rep=p,
        kind="tori",
        max_i=max_i,
        max_n=max_n,
        entries=tuple(tuple(Fraction(c, den) for c in row) for row in grid),
    )


def stable_series(p: CharPoly) -> RatFun:
    """The stable series sum_i beta_i z^i of p as an integer pair
    (num, den) in lowest terms: for C(X, lam) it is
    (1/z_lam) / prod_k (1 - z^k)^lam_k, and 1 - z^k = prod_(d | k) Psi_d."""
    terms = []
    for lam, coeff in p.items():
        exps: dict[int, int] = {}
        for k, lk in lam.active():
            for d in divisors(k):
                exps[d] = exps.get(d, 0) + lk
        terms.append(([1], coeff / z_lambda(lam), exps))
    return cyclotomic_sum(terms)


def stable_betti_numbers(p: CharPoly, count: int, series: RatFun | None = None) -> list[Fraction]:
    """The stable values beta_0, ..., beta_count, read from `series`, p's
    stable_series, when it is already built."""
    return taylor_coeffs(stable_series(p) if series is None else series, count)


def recurrence(p: CharPoly, series: RatFun | None = None) -> RecurrenceSpec:
    """Linear recurrence satisfied by the stable torus-side Betti numbers,
    extracted from p's stable series (built unless given)."""
    if p.is_zero():
        raise ValueError("zero character polynomial")
    return recurrence_from_ratfun(stable_series(p) if series is None else series)


def count_oracle(q: int, max_n: int) -> list[list[tuple[CycleType, int]]]:
    """oracle[n], n <= max_n: every cycle type mu of n with the number of
    Frobenius-stable maximal tori of GL_n(F_q) of type mu."""
    if max_n < 0:
        raise ValueError("n must be nonnegative")
    return [
        [(mu, tori_count_by_type(q, n, mu)) for mu in partitions(n)]
        for n in range(max_n + 1)
    ]


def gl_checks(
    p: CharPoly, oracles: Mapping[int, list], max_n: int, values: dict
) -> dict[tuple[int, int], GLCheck]:
    """The GL checks of p at every n <= max_n and every q in oracles
    (q -> count_oracle(q, max_n)), from one Betti table: the weighted torus
    count (partition sum, p(mu) cached in values) against
    q^(n(n-1)) sum_i beta_i(n) q^(-i)."""
    table = betti_table(p, max_n * (max_n - 1) // 2, max_n)
    return _gl_checks(p, table, oracles, values, lambda q, n, i: q ** (n * (n - 1) - i))


def gl_crosscheck(p: CharPoly, q: int, n: int) -> GLCheck:
    """The GL check of p at one (q, n); see gl_checks."""
    return gl_checks(p, {q: count_oracle(q, n)}, n, {})[q, n]
