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
SIDE's kernel adds every lam's terms into one grid and then takes one
running sum per row; betti.Side assembles everything else.
"""

from itertools import accumulate

from .betti import Side
from .chars import active, weight
from .series import divide_in_place, poly_mul
from .zeta import builtin_variety, necklace_numerator

__all__ = [
    "SIDE",
    "count_oracle",
]


def _necklace_binomials(lam: tuple[int, ...]) -> list[int]:
    """The integer coefficients b of z_lam B(y), with
    B(y) = prod_k binom(M_k(y), lam_k), a polynomial of degree <= |lam|.

    With N_k = k M_k, k^l l! binom(M_k, l) = prod_(j<l) (N_k - jk), so b is
    a product of integer polynomials and prod_k k^lam_k lam_k! = z_lam.
    """
    b = [1]
    for k, lk in active(lam):
        nk = necklace_numerator(k)
        for j in range(lk):
            b = poly_mul(b, [-j * k] + nk[1:])
    return b


def _difference_columns(
    terms: list[tuple[tuple[int, ...], int]], max_i: int, t_order: int
) -> list[list[int]]:
    """cols[n][i] = sum_lam m_lam z_lam [z^i t^n] (1 - t) F for C(X, lam),
    over the pairs (lam, m_lam) of terms, n <= t_order and i <= max_i:
    B(1/z) G(tz) has g_n b_j at z^(n-j) t^n, and (1 - z t^2) subtracts
    column n-2 moved down one row.  No i is negative: g_n = 0 for n < w,
    and deg b <= w."""
    cols = [[0] * (max_i + 1) for _ in range(t_order + 1)]
    for lam, m in terms:
        if (w := weight(lam)) <= t_order:
            rb = _necklace_binomials(lam)[::-1]  # b_j, to land at i = n - j
            g = [0] * w + [m] + [0] * (t_order - w)
            divide_in_place(g, active(lam), 1)
            for n in range(w, t_order + 1):
                if gn := g[n]:
                    lo = n + 1 - len(rb)
                    cols[n][lo:n + 1] = [c + gn * x for c, x in zip(cols[n][lo:n + 1], rb)]
    for n in range(t_order, 1, -1):
        cols[n][1:] = [c - d for c, d in zip(cols[n][1:], cols[n - 2])]
    return cols


def _grid(terms: list[tuple[tuple[int, ...], int]], max_i: int, max_n: int) -> list[list[int]]:
    """rows[i][n] = sum_lam m_lam z_lam alpha_i(n; C(X, lam)) for the pairs
    (lam, m_lam) of terms, i <= max_i and n <= max_n: the running sum of
    each row of the difference terms, negated on the odd rows."""
    rows = [list(accumulate(row)) for row in zip(*_difference_columns(terms, max_i, max_n))]
    for row in rows[1::2]:
        row[:] = [-s for s in row]
    return rows


def _stable_term(lam: tuple[int, ...]) -> tuple[list[int], list[tuple[int, int, int]]]:
    """(num, factors): the stable series sum_i alpha_i z^i of C(X, lam) is
    num / (z_lam * prod_k (1 + (-z)^k)^lam_k), the signed series
    sum_i alpha_i (-z)^i = (1 - z) z^w B(1/z) / prod_k (1 + z^k)^lam_k at -z.
    """
    b = _necklace_binomials(lam)
    w = weight(lam)
    b += [0] * (w + 1 - len(b))
    # (1 + z) z^w B(-1/z)
    num = poly_mul([(-1) ** e * b[w - e] for e in range(w + 1)], [1, 1])
    return num, [(k, lk, (-1) ** k) for k, lk in active(lam)]


def count_oracle(q: int, max_n: int) -> list[list[tuple[tuple[int, ...], int]]]:
    """conf_counts.count_oracle of the affine line over F_q."""
    from . import conf_counts  # imported here: only verify counts
    return conf_counts.count_oracle(builtin_variety("affine", 1, q), max_n)


SIDE = Side(
    "conf",
    grid=_grid,
    stable_term=_stable_term,
    top=lambda n: max(n - 1, 0),
    # q^n sum_i (-1)^i alpha_i(n) q^(-i)
    weight=lambda q, n, i: (-1) ** i * q ** (n - i),
    count_oracle=count_oracle,
)
