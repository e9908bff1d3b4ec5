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

and the row is zero for n < w.  SIDE's kernel sums the lam of each weight
w into one series first, so it builds the columns once per weight;
betti.Side assembles everything else.
"""

from itertools import repeat

from .betti import Side
from .chars import active, centralizer_order, partitions, weight
from .series import divide_in_place, ratio

__all__ = [
    "SIDE",
    "gl_order",
    "count_oracle",
]


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = prod_{i=0..n-1} (q^n - q^i); the empty product is 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def _torus_denominator(mu: tuple[int, ...], q: int) -> int:
    """z_mu * prod_k (q^k - 1)^(mu_k): |GL_n(F_q)| over it is the number of
    maximal tori of Frobenius cycle type mu."""
    out = centralizer_order(mu)
    for k, a in active(mu):
        out *= (q**k - 1) ** a
    return out


def _grid(terms: list[tuple[tuple[int, ...], int]], max_i: int, max_n: int) -> list[tuple[int, ...]]:
    """rows[i][n] = sum_lam m_lam z_lam beta_i(n; C(X, lam)) over the pairs
    (lam, m_lam) of terms.  The lam of one weight w share one series
    R_w = sum m_lam / prod_k (1 - z^k)^lam_k truncated at z^max_i, and
    column n >= w adds R_w prod_{j=n-w+1..n} (1 - z^j).  For w > 0, step n
    multiplies R_w by (1 - z^n) and, once n > w, divides it by (1 - z^(n-w))."""
    by_weight: dict[int, list[int]] = {}
    for lam, m in terms:
        if (w := weight(lam)) <= max_n:
            s = [m] + [0] * max_i
            divide_in_place(s, active(lam), -1)
            by_weight[w] = [a + b for a, b in zip(by_weight.get(w, repeat(0)), s)]
    cols = [[0] * (max_i + 1) for _ in range(max_n + 1)]
    for w, r in by_weight.items():
        for n in range(max_n + 1):
            if w and n:
                for e in range(max_i, n - 1, -1):
                    r[e] -= r[e - n]
                if n > w:
                    divide_in_place(r, [(n - w, 1)], -1)
            if n >= w:
                cols[n] = [a + b for a, b in zip(cols[n], r)]
    return list(zip(*cols))


def _stable_term(lam: tuple[int, ...]) -> tuple[list[int], list[tuple[int, int, int]]]:
    """(num, factors): the stable series sum_i beta_i z^i of C(X, lam) is
    (1/z_lam) / prod_k (1 - z^k)^lam_k."""
    return [1], [(k, lk, -1) for k, lk in active(lam)]


def count_oracle(q: int, max_n: int) -> list[list[tuple[tuple[int, ...], int]]]:
    """oracle[n], n <= max_n: every cycle type mu of n with the number of
    Frobenius-stable maximal tori of GL_n(F_q) of type mu, from one
    |GL_n(F_q)| per n divided exactly by each type's denominator."""
    if max_n < 0:
        raise ValueError("n must be nonnegative")
    oracle = []
    for n in range(max_n + 1):
        order, row = gl_order(n, q), []
        for mu in partitions(n):
            count, rem = divmod(order, den := _torus_denominator(mu, q))
            if rem:
                raise ArithmeticError(f"non-integral torus count {ratio(order, den)} at {mu}")
            row.append((mu, count))
        oracle.append(row)
    return oracle


SIDE = Side(
    "tori",
    grid=_grid,
    stable_term=_stable_term,
    top=lambda n: n * (n - 1) // 2,
    # q^(n(n-1)) sum_i beta_i(n) q^(-i)
    weight=lambda q, n, i: q ** (n * (n - 1) - i),
    count_oracle=count_oracle,
)
