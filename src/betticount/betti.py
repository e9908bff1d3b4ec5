"""What the two families Y_n share: Betti tables, stable series, and the
Grothendieck-Lefschetz checks.

Y_n is Conf_n(C) (module conf_betti) or the space of maximal tori in
GL_n(C) (module tori).  Each of the two modules exports a Side, SIDE, with
the few ingredients in which they differ; everything else is written once
here, linear in the character polynomial p = sum_lam c_lam C(X, lam).
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from .chars import CharPoly, CycleType, centralizer_order
from .series import RatFun, _Frozen, cyclotomic_sum

__all__ = ["BettiTable", "ScaledValues", "Side", "weighted_sum"]


class BettiTable(_Frozen):
    """A grid of twisted Betti numbers rows[i][n] / den, 0 <= i <= max_i and
    0 <= n <= max_n, of one character polynomial on one side: alpha_i(n)
    (conf, all cohomological degrees) or beta_i(n) (tori, even degrees 2i
    only).  rows holds integers over the one positive integer den, so the
    values are exact rationals; genuine representations give nonnegative
    integers, virtual ones need not.
    """

    __slots__ = ("rep", "side", "max_i", "max_n", "rows", "den")

    def __init__(self, rep: CharPoly, side: Side, max_i: int, max_n: int,
                 rows: tuple[tuple[int, ...], ...], den: int):
        self._set(rep, side, max_i, max_n, rows, den)


class ScaledValues(dict):
    """den * p(mu) by cycle type mu, an integer computed on first use, for
    p = sum_lam c_lam C(X, lam) and den = p.den.

    The lam of p sit in a trie keyed by lam_1, lam_2, ...: a node is the
    integer m_lam = c_lam den of the lam that ends there (0 if none) and its
    children in ascending order of the next lam_k, so p(mu) den is one walk
    that multiplies by C(mu_k, lam_k) on the way down and skips the rest of
    a node's children at the first lam_k > mu_k, where C(mu_k, lam_k) = 0."""

    def __init__(self, p: CharPoly):
        super().__init__()
        self.den = p.den
        root = [0, {}]
        for lam, m in p.items():
            node = root
            for lk in lam.counts:
                node = node[1].setdefault(lk, [0, {}])
            node[0] += m
        self.trie = _freeze(root)

    def __missing__(self, mu: CycleType) -> int:
        value = self[mu] = _trie_value(self.trie, mu.counts, 0)
        return value


def _freeze(node: list) -> tuple:
    m, children = node
    return m, sorted((lk, _freeze(child)) for lk, child in children.items())


def _trie_value(node: tuple, a: tuple[int, ...], j: int) -> int:
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

    def betti_table(self, p: CharPoly, max_i: int, max_n: int) -> BettiTable:
        """The Betti numbers of p = sum_lam c_lam C(X, lam) at every
        i <= max_i, n <= max_n: one integer grid over den = p.den * L, L
        the lcm of the z_lam, with multipliers m_lam = c_lam den / z_lam."""
        if max_i < 0 or max_n < 0:
            raise ValueError("max_i and max_n must be nonnegative")
        terms, den = _multipliers(p)
        rows = self.grid(terms, max_i, max_n)
        tops = [self.top(n) for n in range(max_n + 1)]
        for i, row in enumerate(rows):
            for n, c in enumerate(row):
                if c and i > tops[n]:
                    raise ArithmeticError(
                        f"nonzero Betti number beyond i = {tops[n]} at i={i}, n={n}"
                    )
        return BettiTable(p, self, max_i, max_n, tuple(map(tuple, rows)), den)

    def stable_series(self, p: CharPoly) -> RatFun:
        """The stable series sum_i b_i z^i of p as an integer pair
        (num, den) in lowest terms."""
        terms, den = _multipliers(p)
        parts = []
        for lam, m in terms:
            num, factors = self.stable_term(lam)
            parts.append((num, m, factors))
        return cyclotomic_sum(parts, den)

    def gl_checks(
        self, p: CharPoly, oracles: Mapping[int, list], max_n: int, values: ScaledValues
    ) -> dict[tuple[int, int], tuple[tuple[int, int], tuple[int, int]]]:
        """The GL checks (lhs, rhs) of p, equal when they pass, at every
        n <= max_n and q in oracles (q -> count_oracle(q, max_n)), from one
        Betti table, each side a pair (numerator, positive denominator):
        lhs is the weighted count over oracles[q][n] (values, the
        ScaledValues of p), rhs is sum_i weight(q, n, i) b_i(n)."""
        table = self.betti_table(p, self.top(max_n), max_n)
        return {
            (q, n): (
                weighted_sum(values, oracle[n]),
                (sum(self.weight(q, n, i) * table.rows[i][n] for i in range(self.top(n) + 1)),
                 table.den),
            )
            for q, oracle in oracles.items()
            for n in range(max_n + 1)
        }


def _multipliers(p: CharPoly) -> tuple[list[tuple[CycleType, int]], int]:
    """([(lam, m_lam)], den) with sum_lam c_lam C(X, lam) / z_lam =
    sum_lam m_lam C(X, lam) / den: den = p.den * L for L the lcm of the z_lam,
    and m_lam = (numerator of c_lam) * L / z_lam."""
    terms = [(lam, m, centralizer_order(lam)) for lam, m in p.items()]
    scale = math.lcm(*(z for _, _, z in terms))
    return [(lam, m * (scale // z)) for lam, m, z in terms], p.den * scale
