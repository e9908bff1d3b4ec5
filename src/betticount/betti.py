"""What the two families Y_n share: Betti tables, stable series, and the
Grothendieck-Lefschetz checks.

Y_n is Conf_n(C) (module conf_betti) or the space of maximal tori in
GL_n(C) (module tori).  Each of the two modules exports a Side, SIDE, with
the few ingredients in which they differ; everything else is written once
here, linear in the character polynomial p = sum_lam c_lam C(X, lam).
"""

import math

from .chars import CharPoly, centralizer_order
from .series import cyclotomic_sum

__all__ = ["ScaledValues", "Side", "weighted_sum"]


class ScaledValues(dict):
    """den * p(mu) by cycle type mu, an integer computed on first use, for
    p = sum_lam c_lam C(X, lam) and den = p.den.

    The lam of p sit in a trie keyed by lam_1, lam_2, ...: a node is [m_lam,
    children], m_lam = c_lam den of the lam that ends there (0 if none) and
    children its pairs (lam_k, node), appended in ascending lam_k as the lam
    arrive sorted.  p(mu) den is one walk that multiplies by C(mu_k, lam_k)
    on the way down and stops at a node's first lam_k > mu_k (C = 0 there)."""

    def __init__(self, p: CharPoly):
        super().__init__()
        self.den = p.den
        self.trie = root = [0, []]
        for lam, m in sorted(p.items()):
            node = root
            for lk in lam:
                if not node[1] or node[1][-1][0] != lk:
                    node[1].append((lk, [0, []]))
                node = node[1][-1][1]
            node[0] += m

    def __missing__(self, mu: tuple[int, ...]) -> int:
        value = self[mu] = _trie_value(self.trie, mu, 0)
        return value


def _trie_value(node: list, a: tuple[int, ...], j: int) -> int:
    """sum_lam m_lam prod_(k > j) C(a_k, lam_k) over the lam below node,
    a node at depth j (a_k = a[k-1], and 0 past the end of a)."""
    total, children = node
    ak = a[j] if j < len(a) else 0
    for lk, child in children:
        if lk > ak:
            break
        total += math.comb(ak, lk) * _trie_value(child, a, j + 1)
    return total


def weighted_sum(values: ScaledValues, types) -> tuple[int, int]:
    """sum_mu N_mu p(mu) over the pairs (mu, N_mu) in types, for values the
    ScaledValues of p: one integer sum, returned with values.den.  Sums
    that share values evaluate p once per cycle type."""
    return sum([cnt * values[mu] for mu, cnt in types]), values.den


class Side:
    """One family Y_n, given by five ingredients; the one scale of both
    sides is z_lam (chars.centralizer_order):

    - grid(terms, max_i, max_n) -> rows: the integers rows[i][n] =
      sum_lam m_lam z_lam b_i(n; C(X, lam)) over the pairs (lam, m_lam);
    - stable_term(lam) -> (num, factors): the stable series of C(X, lam)
      is num(z) / (z_lam * prod (1 + sign z^k)^e) over the stride factors
      (k, e, sign), with an integer list num;
    - top(n): the largest i with a nonzero Betti number at n;
    - weight(q, n, i): the factor of the i-th Betti number in the
      Grothendieck-Lefschetz sum at (q, n);
    - count_oracle(q, max_n): oracle[n], the cycle types mu of n, each
      with its count N_mu over F_q.
    """

    def __init__(self, name: str, grid, stable_term, top, weight, count_oracle):
        self.name = name
        self.grid = grid
        self.stable_term = stable_term
        self.top = top
        self.weight = weight
        self.count_oracle = count_oracle

    def __repr__(self) -> str:
        return f"Side({self.name!r})"

    def betti_table(self, p: CharPoly, max_i: int, max_n: int) -> tuple[list[tuple], int]:
        """(cells, den): the Betti numbers c / den of p = sum_lam c_lam C(X, lam)
        as cells (i, n, c), one per i <= min(max_i, top(n)) and n <= max_n,
        by i and then n; alpha_i(n) on conf, beta_i(n) (degree 2i) on tori.
        They come from one integer grid over den = p.den * L, L the lcm of
        the z_lam, with multipliers m_lam = c_lam den / z_lam, checked to
        vanish beyond top(n)."""
        if max_i < 0 or max_n < 0:
            raise ValueError("max_i and max_n must be nonnegative")
        terms, den = _multipliers(p)
        tops = [self.top(n) for n in range(max_n + 1)]
        cells = []
        for i, row in enumerate(self.grid(terms, max_i, max_n)):
            for n, c in enumerate(row):
                if i <= tops[n]:
                    cells.append((i, n, c))
                elif c:
                    raise ArithmeticError(
                        f"nonzero Betti number beyond i = {tops[n]} at i={i}, n={n}"
                    )
        return cells, den

    def stable_series(self, p: CharPoly) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """The stable series sum_i b_i z^i of p as the triple (num, D, d)
        of series.cyclotomic_sum: num / (d D) in lowest terms, D(0) = 1."""
        terms, den = _multipliers(p)
        parts = []
        for lam, m in terms:
            num, factors = self.stable_term(lam)
            parts.append((num, m, factors))
        return cyclotomic_sum(parts, den)

    def gl_sums(self, p: CharPoly, qs, max_n: int) -> dict[tuple[int, int], tuple[int, int]]:
        """The Betti side sum_i weight(q, n, i) b_i(n) of the GL check of p
        at every q in qs and n <= max_n, from one Betti table, each a pair
        (numerator, positive denominator)."""
        cells, den = self.betti_table(p, self.top(max_n), max_n)
        sums = dict.fromkeys([(q, n) for q in qs for n in range(max_n + 1)], 0)
        for q in qs:
            for i, n, c in cells:
                sums[q, n] += self.weight(q, n, i) * c
        return {key: (s, den) for key, s in sums.items()}


def _multipliers(p: CharPoly) -> tuple[list[tuple[tuple[int, ...], int]], int]:
    """([(lam, m_lam)], den) with sum_lam c_lam C(X, lam) / z_lam =
    sum_lam m_lam C(X, lam) / den: den = p.den * L for L the lcm of the z_lam,
    and m_lam = (numerator of c_lam) * L / z_lam."""
    terms = [(lam, m, centralizer_order(lam)) for lam, m in p.items()]
    scale = math.lcm(*(z for _, _, z in terms))
    return [(lam, m * (scale // z)) for lam, m, z in terms], p.den * scale
