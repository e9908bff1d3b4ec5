"""Twisted Betti numbers of configuration spaces of the complex line.

The double generating function for a binomial-basis weight C(X, lam) is

    sum_{n,i} alpha_i(n) (-z)^i t^n
        = (1 - z t^2)/(1 - t)
          * prod_k binom(M_k(1/z), lam_k) * ((tz)^k / (1 + (tz)^k))^lam_k

with M_k the k-th necklace polynomial; the coefficient at z^i t^n is
(-1)^i alpha_i(n).  It factors as (1 - z t^2)/(1 - t) * B(1/z) * G(tz) with

    B(y) = prod_k binom(M_k(y), lam_k),   G(u) = u^w / prod_k (1 + u^k)^lam_k,

w = |lam|.  B has degree <= w in y and G has integer coefficients g_m, so
the t^n coefficient of (1 - t) F is B(1/z) (g_n z^n - g_(n-2) z^(n-1)), a
polynomial in z, and each table row is the running sum of these over n.
SIDE hands these kernels to betti.Side, which assembles everything else.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .betti import Side
from .chars import CycleType, binomial, centralizer_order, partitions
from .series import divide_in_place, poly_mul
from .zeta import builtin_variety, closed_point_counts, divisors, necklace_numerator

__all__ = [
    "SIDE",
    "difference_series",
    "betti_table",
    "stable_series",
    "stable_betti_numbers",
    "recurrence",
    "count_oracle",
    "gl_checks",
    "gl_crosscheck",
]


def _necklace_binomials(lam: CycleType) -> tuple[list[int], int]:
    """(b, scale): scale times B(y) = prod_k binom(M_k(y), lam_k), a
    polynomial of degree <= |lam|, has the integer coefficients b.

    With N_k = k M_k, k^l l! binom(M_k, l) = prod_(j<l) (N_k - jk), so b is
    a product of integer polynomials and scale = prod_k k^lam_k lam_k! = z_lam.
    """
    b = [1]
    for k, lk in lam.active():
        nk = necklace_numerator(k)
        for j in range(lk):
            b = poly_mul(b, [-j * k] + nk[1:])
    return b, centralizer_order(lam)


def _scaled_difference_terms(
    lam: CycleType, t_order: int
) -> tuple[dict[tuple[int, int], int], int]:
    """(terms, scale): scale times the coefficient of z^i t^n in (1 - t) F
    is the integer terms[(i, n)], for n <= t_order; zero terms are absent."""
    b, scale = _necklace_binomials(lam)
    g = [0] * (t_order + 1)
    if lam.n <= t_order:
        g[lam.n] = 1
    divide_in_place(g, lam.active(), 1)
    terms: dict[tuple[int, int], int] = {}
    for n in range(t_order + 1):
        # B(1/z) (g_n z^n - g_(n-2) z^(n-1)), with B(1/z) = sum_j b_j z^(-j)
        for gm, top in ((g[n], n), (-g[n - 2] if n >= 2 else 0, n - 1)):
            if gm:
                for j, bj in enumerate(b):
                    key = (top - j, n)
                    terms[key] = terms.get(key, 0) + gm * bj
    return {key: c for key, c in terms.items() if c}, scale


def difference_series(
    lam: CycleType, max_i: int, t_order: int
) -> dict[tuple[int, int], Fraction]:
    """(1 - t) times the Betti generating series for C(X, lam), as its
    nonzero terms {(i, n): c} with i <= max_i and n <= t_order.

    The coefficient c is (-1)^i (alpha_i(n) - alpha_i(n-1)), so every term
    satisfies the slope bound n - i <= weight + 1, which is what makes the
    stability range explicit.  Negative i are kept, not clipped.
    """
    terms, scale = _scaled_difference_terms(lam, t_order)
    return {(i, n): Fraction(c, scale) for (i, n), c in terms.items() if i <= max_i}


def _grid(lam: CycleType, max_i: int, max_n: int) -> tuple[list[list[int]], int]:
    """(rows, scale): alpha_i(n) of C(X, lam) is rows[i][n] / scale, for
    i <= max_i and n <= max_n; each row is the signed running sum of the
    difference terms."""
    terms, scale = _scaled_difference_terms(lam, max_n)
    rows = [[0] * (max_n + 1) for _ in range(max_i + 1)]
    for (i, n), c in terms.items():
        if i < 0:
            raise ArithmeticError(f"negative z-power z^{i} at t^{n} in the Betti series")
        if i <= max_i:
            rows[i][n] = c
    return [[(-1) ** i * s for s in accumulate(row)] for i, row in enumerate(rows)], scale


def _stable_term(lam: CycleType) -> tuple[list[int], int, dict[int, int]]:
    """(num, scale, {d: e}): the stable series sum_i alpha_i z^i of
    C(X, lam) is num / (scale * prod_d Psi_d^e).

    The signed series sum_i alpha_i (-z)^i is
    (1 - z) z^w B(1/z) / prod_k (1 + z^k)^lam_k, so z -> -z turns each
    factor into 1 - (-z)^k: 1 - z^k = prod_(d | k) Psi_d for odd k, and
    1 + z^k = prod_(d | 2k, d not | k) Psi_d for even k.
    """
    b, scale = _necklace_binomials(lam)
    w = lam.n
    b += [0] * (w + 1 - len(b))
    # (1 + z) z^w B(-1/z)
    num = poly_mul([(-1) ** e * b[w - e] for e in range(w + 1)], [1, 1])
    exps: dict[int, int] = {}
    for k, lk in lam.active():
        factors = divisors(k) if k % 2 else [d for d in divisors(2 * k) if k % d]
        for d in factors:
            exps[d] = exps.get(d, 0) + lk
    return num, scale, exps


def count_oracle(q: int, max_n: int) -> list[list[tuple[CycleType, int]]]:
    """oracle[n], n <= max_n: the cycle types of n-point configurations of
    the affine line over F_q, each with its nonzero count, from one list of
    closed-point counts."""
    if max_n < 0:
        raise ValueError("n must be nonnegative")
    mk = closed_point_counts(builtin_variety("affine", 1, q), max_n)
    return [[(mu, c) for mu in partitions(n) if (c := binomial(mk, mu))] for n in range(max_n + 1)]


SIDE = Side(
    "conf",
    grid=_grid,
    stable_term=_stable_term,
    top=lambda n: max(n - 1, 0),
    # q^n sum_i (-1)^i alpha_i(n) q^(-i)
    weight=lambda q, n, i: (-1) ** i * q ** (n - i),
    count_oracle=count_oracle,
)
betti_table, stable_series = SIDE.betti_table, SIDE.stable_series
stable_betti_numbers, recurrence = SIDE.stable_betti_numbers, SIDE.recurrence
gl_checks, gl_crosscheck = SIDE.gl_checks, SIDE.gl_crosscheck
