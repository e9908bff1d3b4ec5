"""Twisted Betti numbers of configuration spaces of the complex line.

The double generating function for a binomial-basis weight C(X, lam) is

    sum_{n,i} alpha_i(n) (-z)^i t^n
        = (1 - z t^2)/(1 - t)
          * prod_k binom(M_k(1/z), lam_k) * ((tz)^k / (1 + (tz)^k))^lam_k

with M_k the k-th necklace polynomial.  At z -> -z, with w = |lam| and
B(y) = prod_k binom(M_k(y), lam_k), of degree <= w in y, it is

    F = sum_{n,i} alpha_i(n) z^i t^n = (1 + z t^2)/(1 - t) * P(z) t^w h(tz) / z_lam,

    P(z) = z_lam (-z)^w B(-1/z),   h(u) = 1 / prod_k (1 + (-u)^k)^lam_k,

P an integer polynomial of degree <= w and h an integer series.  So the
t^n coefficient of (1 - t) z_lam F is (h_(n-w) z^(n-w) + h_(n-w-2)
z^(n-w-1)) P, each table row is the running sum of these over n, and the
stable series, at t = 1, is (1 + z) P h(z) / z_lam.  SIDE's kernel adds
every lam's terms into one grid and then takes one running sum per row;
betti.Side assembles everything else.
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


def _term(lam: tuple[int, ...]) -> tuple[list[int], list[tuple[int, int, int]]]:
    """(P, factors) of C(X, lam): P = z_lam (-z)^w B(-1/z), w = |lam|, as
    an integer list of length w + 1, and the stride factors (k, lam_k,
    (-1)^k) of prod_k (1 + (-z)^k)^lam_k, the denominator of h.

    With N_k = k M_k, k^l l! binom(M_k, l) = prod_(j<l) (N_k - jk), and
    prod_k k^lam_k lam_k! = z_lam.  N_k is monic of degree k with no
    constant term, so (-z)^k (N_k(-1/z) - jk) is an integer list of length
    k + 1: its y^d coefficient at z^(k-d), times (-1)^(k-d).
    """
    p = [1]
    for k, lk in active(lam):
        rev = [(-1) ** e * c for e, c in enumerate(necklace_numerator(k)[:0:-1])]
        for j in range(lk):
            p = poly_mul(p, rev + [(-1) ** (k + 1) * j * k])
    return p, [(k, lk, (-1) ** k) for k, lk in active(lam)]


def _difference_columns(
    terms: list[tuple[tuple[int, ...], int]], max_i: int, t_order: int
) -> list[list[int]]:
    """cols[n][i] = sum_lam m_lam z_lam [z^i t^n] (1 - t) F for C(X, lam),
    over the pairs (lam, m_lam) of terms, n <= t_order and i <= max_i:
    column n adds h_(n-w) P at z^(n-w), with h = m_lam / prod factors for
    _term's (P, factors), and (1 + z t^2) adds column n-2 moved down one
    row.  No i is negative."""
    cols = [[0] * (max_i + 1) for _ in range(t_order + 1)]
    for lam, m in terms:
        if (w := weight(lam)) <= t_order:
            p, factors = _term(lam)
            h = [m] + [0] * (t_order - w)
            divide_in_place(h, factors)
            for lo, hm in enumerate(h):
                if hm:
                    col = cols[lo + w]
                    col[lo:lo + w + 1] = [c + hm * x for c, x in zip(col[lo:lo + w + 1], p)]
    for n in range(t_order, 1, -1):
        cols[n][1:] = [c + d for c, d in zip(cols[n][1:], cols[n - 2])]
    return cols


def _grid(terms: list[tuple[tuple[int, ...], int]], max_i: int, max_n: int) -> list[list[int]]:
    """rows[i][n] = sum_lam m_lam z_lam alpha_i(n; C(X, lam)) for the pairs
    (lam, m_lam) of terms, i <= max_i and n <= max_n: the running sum of
    each row of the difference terms."""
    return [list(accumulate(row)) for row in zip(*_difference_columns(terms, max_i, max_n))]


def _stable_term(lam: tuple[int, ...]) -> tuple[list[int], list[tuple[int, int, int]]]:
    """(num, factors): the stable series sum_i alpha_i z^i of C(X, lam) is
    (1 + z) P / (z_lam prod factors), (1 - t) F at t = 1, for _term's
    (P, factors)."""
    p, factors = _term(lam)
    return poly_mul(p, [1, 1]), factors


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
