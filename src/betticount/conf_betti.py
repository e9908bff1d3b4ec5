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
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction

from .chars import CharPoly, CycleType, LambdaSpec, partitions
from .conf_counts import _type_count
from .series import (
    RatFun,
    RecurrenceSpec,
    _Frozen,
    cyclotomic_sum,
    poly_mul,
    recurrence_from_ratfun,
    taylor_coeffs,
)
from .zeta import builtin_variety, closed_point_counts, divisors, necklace_numerator

__all__ = [
    "BettiTable",
    "GLCheck",
    "difference_series",
    "betti_table",
    "stable_series",
    "stable_betti_numbers",
    "recurrence",
    "StabilityRow",
    "StabilityReport",
    "stability_report",
    "weighted_sum",
    "count_oracle",
    "gl_checks",
    "gl_crosscheck",
]


class BettiTable(_Frozen):
    """A grid of twisted Betti numbers entries[i][n], 0 <= i <= max_i and
    0 <= n <= max_n, for one character polynomial.

    kind is "conf" (alpha_i(n), all cohomological degrees) or "tori"
    (beta_i(n), even degrees 2i only).  Values are exact rationals; genuine
    representations give nonnegative integers, virtual ones need not.
    """

    __slots__ = ("rep", "kind", "max_i", "max_n", "entries")

    def __init__(
        self,
        rep: CharPoly,
        kind: str,
        max_i: int,
        max_n: int,
        entries: tuple[tuple[Fraction, ...], ...],
    ):
        self._set(rep, kind, max_i, max_n, entries)

    def entry(self, i: int, n: int) -> Fraction:
        return self.entries[i][n]

    def in_support(self, i: int, n: int) -> bool:
        if self.kind == "conf":
            return i <= max(n - 1, 0)
        return i <= n * (n - 1) // 2

    def is_integral_nonnegative(self) -> bool:
        return all(
            v.denominator == 1 and v >= 0 for row in self.entries for v in row
        )


class GLCheck(_Frozen):
    """One Grothendieck-Lefschetz comparison: a weighted point count (lhs)
    against the q-weighted sum of Betti numbers (rhs), both exact."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Fraction, rhs: Fraction):
        self._set(lhs, rhs)

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def _necklace_binomials(lam: LambdaSpec) -> tuple[list[int], int]:
    """(b, scale): scale times B(y) = prod_k binom(M_k(y), lam_k), a
    polynomial of degree <= |lam|, has the integer coefficients b.

    With N_k = k M_k, k^l l! binom(M_k, l) = prod_(j<l) (N_k - jk), so b is
    a product of integer polynomials and scale = prod_k k^lam_k lam_k!.
    """
    b, scale = [1], 1
    for k, lk in lam.active():
        nk = necklace_numerator(k)
        for j in range(lk):
            b = poly_mul(b, [-j * k] + nk[1:])
        scale *= k**lk * math.factorial(lk)
    return b, scale


def _scaled_difference_terms(
    lam: LambdaSpec, t_order: int
) -> tuple[dict[tuple[int, int], int], int]:
    """(terms, scale): scale times the coefficient of z^i t^n in (1 - t) F
    is the integer terms[(i, n)], for n <= t_order; zero terms are absent."""
    b, scale = _necklace_binomials(lam)
    g = [0] * (t_order + 1)
    if lam.weight <= t_order:
        g[lam.weight] = 1
    for k, lk in lam.active():
        for _ in range(lk):
            for m in range(k, t_order + 1):
                g[m] -= g[m - k]
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
    lam: LambdaSpec, max_i: int, t_order: int
) -> dict[tuple[int, int], Fraction]:
    """(1 - t) times the Betti generating series for C(X, lam), as its
    nonzero terms {(i, n): c} with i <= max_i and n <= t_order.

    The coefficient c is (-1)^i (alpha_i(n) - alpha_i(n-1)), so every term
    satisfies the slope bound n - i <= weight + 1, which is what makes the
    stability range explicit.  Negative i are kept, not clipped.
    """
    terms, scale = _scaled_difference_terms(lam, t_order)
    return {(i, n): Fraction(c, scale) for (i, n), c in terms.items() if i <= max_i}


def betti_table(p: CharPoly, max_i: int, max_n: int) -> BettiTable:
    """alpha_i(n) for the character polynomial p on grids i <= max_i,
    n <= max_n."""
    if max_i < 0 or max_n < 0:
        raise ValueError("max_i and max_n must be nonnegative")
    kernels = [
        (coeff, *_scaled_difference_terms(lam, max_n)) for lam, coeff in p.items()
    ]
    den = math.lcm(*(coeff.denominator * scale for coeff, _, scale in kernels))
    diff = [[0] * (max_n + 1) for _ in range(max_i + 1)]
    for coeff, terms, scale in kernels:
        mult = coeff.numerator * (den // (coeff.denominator * scale))
        for (i, n), c in terms.items():
            if i < 0:
                raise ArithmeticError(
                    f"negative z-power z^{i} at t^{n} in the Betti series"
                )
            if i <= max_i:
                diff[i][n] += mult * c
    entries = []
    for i, row in enumerate(diff):
        sign = -1 if i % 2 else 1
        acc, out = 0, []
        for c in row:
            acc += c
            out.append(Fraction(sign * acc, den))
        entries.append(tuple(out))
    table = BettiTable(
        rep=p,
        kind="conf",
        max_i=max_i,
        max_n=max_n,
        entries=tuple(entries),
    )
    for i in range(max_i + 1):
        for n in range(max_n + 1):
            if not table.in_support(i, n) and table.entry(i, n):
                raise ArithmeticError(
                    f"nonzero entry outside the cohomological support at i={i}, n={n}"
                )
    return table


def stable_series(p: CharPoly) -> RatFun:
    """The stable series sum_i alpha_i z^i of p as an integer pair
    (num, den) in lowest terms.

    For C(X, lam) the signed series sum_i alpha_i (-z)^i is
    (1 - z) z^w B(1/z) / prod_k (1 + z^k)^lam_k, so z -> -z turns each
    factor into 1 - (-z)^k: 1 - z^k = prod_(d | k) Psi_d for odd k, and
    1 + z^k = prod_(d | 2k, d not | k) Psi_d for even k.
    """
    terms = []
    for lam, coeff in p.items():
        b, scale = _necklace_binomials(lam)
        w = lam.weight
        b += [0] * (w + 1 - len(b))
        # (1 + z) z^w B(-1/z)
        num = poly_mul([(-1) ** e * b[w - e] for e in range(w + 1)], [1, 1])
        exps: dict[int, int] = {}
        for k, lk in lam.active():
            factors = divisors(k) if k % 2 else [d for d in divisors(2 * k) if k % d]
            for d in factors:
                exps[d] = exps.get(d, 0) + lk
        terms.append((num, coeff / scale, exps))
    return cyclotomic_sum(terms)


def stable_betti_numbers(p: CharPoly, count: int, series: RatFun | None = None) -> list[Fraction]:
    """The stable values alpha_0, ..., alpha_count (unsigned), read from
    `series`, p's stable_series, when it is already built."""
    return taylor_coeffs(stable_series(p) if series is None else series, count)


def recurrence(p: CharPoly, series: RatFun | None = None) -> RecurrenceSpec:
    """Linear recurrence satisfied by the stable Betti numbers of p,
    extracted from its rational stable series (built unless given)."""
    if p.is_zero():
        raise ValueError("zero character polynomial")
    return recurrence_from_ratfun(stable_series(p) if series is None else series)


class StabilityRow(_Frozen):
    __slots__ = ("i", "bound_n", "stable_within_bound", "first_stable_n")

    def __init__(self, i: int, bound_n: int, stable_within_bound: bool, first_stable_n: int):
        self._set(i, bound_n, stable_within_bound, first_stable_n)


class StabilityReport(_Frozen):
    __slots__ = ("rep", "rows")

    def __init__(self, rep: CharPoly, rows: tuple[StabilityRow, ...]):
        self._set(rep, rows)

    @property
    def all_stable(self) -> bool:
        return all(r.stable_within_bound for r in self.rows)


def stability_report(p: CharPoly, max_i: int, max_n: int) -> StabilityReport:
    """Verify alpha_i(n) = alpha_i(n+1) for n >= i + deg(p) + 1 within the
    grid and report the first n from which each row actually stabilizes."""
    deg = p.degree()
    if max_n < max_i + deg + 2:
        raise ValueError(f"table too small: need max_n >= {max_i + deg + 2}")
    table = betti_table(p, max_i, max_n)
    rows = []
    for i in range(max_i + 1):
        bound = i + deg + 1
        ok = all(
            table.entry(i, n) == table.entry(i, n + 1)
            for n in range(bound, max_n)
        )
        first = max_n
        while first > 0 and table.entry(i, first - 1) == table.entry(i, max_n):
            first -= 1
        rows.append(StabilityRow(i, bound, ok, first))
    return StabilityReport(p, tuple(rows))


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


def _gl_checks(p, table: BettiTable, oracles, values, weight) -> dict[tuple[int, int], GLCheck]:
    """{(q, n): GLCheck} for q in oracles and n <= table.max_n: lhs sums p
    over oracles[q][n], rhs is sum_i weight(q, n, i) * entry(i, n) over the
    support of column n."""
    return {
        (q, n): GLCheck(
            lhs=weighted_sum(p, oracle[n], values),
            rhs=sum((weight(q, n, i) * table.entry(i, n) for i in range(table.max_i + 1)
                     if table.in_support(i, n)), Fraction(0)),
        )
        for q, oracle in oracles.items()
        for n in range(table.max_n + 1)
    }


def count_oracle(q: int, max_n: int) -> list[list[tuple[CycleType, int]]]:
    """oracle[n], n <= max_n: the cycle types of n-point configurations of
    the affine line over F_q, each with its nonzero count, from one list of
    closed-point counts."""
    if max_n < 0:
        raise ValueError("n must be nonnegative")
    mk = closed_point_counts(builtin_variety("affine", 1, q), max_n)
    return [[(mu, c) for mu in partitions(n) if (c := _type_count(mk, mu))] for n in range(max_n + 1)]


def gl_checks(
    p: CharPoly, oracles: Mapping[int, list], max_n: int, values: dict
) -> dict[tuple[int, int], GLCheck]:
    """The GL checks of p at every n <= max_n and every q in oracles
    (q -> count_oracle(q, max_n)), from one Betti table: the weighted point
    count on n-point configurations of the affine line over F_q (partition
    sum, p(mu) cached in values) against q^n sum_i (-1)^i alpha_i(n) q^(-i)."""
    table = betti_table(p, max(max_n - 1, 0), max_n)
    return _gl_checks(p, table, oracles, values, lambda q, n, i: (-1) ** i * q ** (n - i))


def gl_crosscheck(p: CharPoly, q: int, n: int) -> GLCheck:
    """The GL check of p at one (q, n); see gl_checks."""
    return gl_checks(p, {q: count_oracle(q, n)}, n, {})[q, n]
