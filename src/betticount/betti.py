"""What the two families Y_n share: Betti tables, stable series, stable
values and recurrences, and the Grothendieck-Lefschetz checks.

Y_n is Conf_n(C) (module conf_betti) or the space of maximal tori in
GL_n(C) (module tori).  Each of the two modules exports a Side, SIDE, with
the few ingredients in which they differ; everything else is written once
here, linear in the character polynomial p = sum_lam c_lam C(X, lam).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction

from .chars import CharPoly, CycleType, centralizer_order
from .series import (
    RatFun, RecurrenceSpec, _Frozen, cyclotomic_sum, recurrence_from_ratfun, taylor_coeffs,
)

__all__ = ["BettiTable", "GLCheck", "Side", "weighted_sum"]


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

    def entry(self, i: int, n: int) -> Fraction:
        return Fraction(self.rows[i][n], self.den)


class GLCheck(_Frozen):
    """One Grothendieck-Lefschetz comparison: a weighted point count (lhs)
    against the q-weighted sum of Betti numbers (rhs), both exact."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Fraction, rhs: Fraction):
        self._set(lhs, rhs)

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def weighted_sum(p: CharPoly, types, values: dict[CycleType, Fraction]) -> Fraction:
    """sum_mu N_mu p(mu) over the pairs (mu, N_mu) in types.  values holds
    p(mu) by cycle type and is filled in on first use, so sums over the
    same p that share it evaluate p once per cycle type."""
    total = Fraction(0)
    for mu, cnt in types:
        if mu not in values:
            values[mu] = p.evaluate(mu)
        total += cnt * values[mu]
    return total


class Side:
    """One family Y_n, given by five ingredients; the one scale of both
    sides is z_lam (chars.centralizer_order):

    - grid(terms, max_i, max_n) -> rows: the integers rows[i][n] =
      sum_lam m_lam z_lam b_i(n; C(X, lam)) over the pairs (lam, m_lam);
    - stable_term(lam) -> (num, {d: e}): the stable series of C(X, lam) is
      num(z) / (z_lam * prod_d Psi_d(z)^e), with an integer list num;
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
        i <= max_i, n <= max_n: one integer grid over the lcm den of the
        c_lam.denominator * z_lam, with multipliers m_lam = c_lam den / z_lam."""
        if max_i < 0 or max_n < 0:
            raise ValueError("max_i and max_n must be nonnegative")
        scales = [(lam, c, c.denominator * centralizer_order(lam)) for lam, c in p.items()]
        den = math.lcm(*(scale for _, _, scale in scales))
        rows = self.grid([(lam, c.numerator * (den // scale)) for lam, c, scale in scales],
                         max_i, max_n)
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
        terms = []
        for lam, coeff in p.items():
            num, exps = self.stable_term(lam)
            terms.append((num, coeff / centralizer_order(lam), exps))
        return cyclotomic_sum(terms)

    def stable_betti_numbers(
        self, p: CharPoly, count: int, series: RatFun | None = None
    ) -> list[Fraction]:
        """The stable values b_0, ..., b_count, read from `series`, p's
        stable_series, when it is already built."""
        return taylor_coeffs(self.stable_series(p) if series is None else series, count)

    def recurrence(self, p: CharPoly, series: RatFun | None = None) -> RecurrenceSpec:
        """Linear recurrence satisfied by the stable Betti numbers of p,
        extracted from its stable series (built unless given)."""
        if p.is_zero():
            raise ValueError("zero character polynomial")
        return recurrence_from_ratfun(self.stable_series(p) if series is None else series)

    def gl_checks(
        self, p: CharPoly, oracles: Mapping[int, list], max_n: int, values: dict
    ) -> dict[tuple[int, int], GLCheck]:
        """The GL checks of p at every n <= max_n and every q in oracles
        (q -> count_oracle(q, max_n)), from one Betti table: lhs is the
        weighted count over oracles[q][n] (p(mu) cached in values), rhs is
        sum_i weight(q, n, i) b_i(n) over the support of column n."""
        table = self.betti_table(p, self.top(max_n), max_n)
        return {
            (q, n): GLCheck(
                lhs=weighted_sum(p, oracle[n], values),
                rhs=Fraction(sum(self.weight(q, n, i) * table.rows[i][n]
                                 for i in range(self.top(n) + 1)), table.den),
            )
            for q, oracle in oracles.items()
            for n in range(max_n + 1)
        }
