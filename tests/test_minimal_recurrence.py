"""The paper's recurrence claim, checked from the Betti table alone.

The stable Betti numbers of a character polynomial are linearly recurrent in
i.  The package gives their series as the triple (num, D, d) of
Side.stable_series, num / (d D) in lowest terms, and reads the recurrence
from D.  Here Berlekamp-Massey over Fractions finds the shortest recurrence
of the stable part of column n = 64 of Side.betti_table: its connection
polynomial C and its linear complexity L.  In lowest terms C is D and L is
max(deg D, len(num)), so the test checks that D is minimal, which no check
against the Taylor coefficients of the same triple can.  It shares no code
with cyclotomic_sum or taylor_coeffs.
"""

from fractions import Fraction

import pytest

from betticount import conf_betti, tori
from betticount.chars import CharPoly, parse_rep, partitions

from helpers import degree

COLUMN = 64
SIDES = {"conf": conf_betti.SIDE, "tori": tori.SIDE}
REPS = {str(lam): CharPoly.binom(lam) for w in range(7) for lam in partitions(w)}
REPS.update((name, parse_rep(name)) for name in ("V1", "V11", "V2"))


def berlekamp_massey(s: list[Fraction]) -> tuple[list[Fraction], int]:
    """(C, L): the shortest recurrence sum_(k=0..L) C_k s_(n-k) = 0, n >= L,
    that s satisfies, with C_0 = 1 and C without trailing zeros."""
    C, B = [Fraction(1)], [Fraction(1)]
    L, m, b = 0, 1, Fraction(1)
    for n in range(len(s)):
        d = sum(C[k] * s[n - k] for k in range(min(len(C), n + 1)))
        if d == 0:
            m += 1
            continue
        T = list(C)
        C += [Fraction(0)] * (len(B) + m - len(C))
        for k, x in enumerate(B):
            C[k + m] -= d / b * x
        if 2 * L <= n:
            L, B, b, m = n + 1 - L, T, d, 1
        else:
            m += 1
    while C[-1] == 0:
        C.pop()
    return C, L


def test_berlekamp_massey_finds_the_shortest_recurrence():
    fib = [Fraction(x) for x in (0, 1, 1, 2, 3, 5, 8, 13)]
    assert berlekamp_massey(fib) == ([1, -1, -1], 2)
    # 1, 1, 0, 0, ...: the polynomial 1 + z, whose recurrence starts at i = 2
    assert berlekamp_massey([Fraction(x) for x in (1, 1, 0, 0, 0, 0)]) == ([1], 2)
    assert berlekamp_massey([Fraction(0)] * 4) == ([1], 0)


@pytest.mark.parametrize("rep", list(REPS))
@pytest.mark.parametrize("side", list(SIDES))
def test_the_stable_series_is_in_lowest_terms(side, rep):
    # column n holds the stable b_i for i <= n - deg - 1 on both sides: conf
    # stabilizes for n >= i + deg + 1, and a tori row once n - deg + 1 > i
    p, last = REPS[rep], COLUMN - degree(REPS[rep]) - 1
    cells, den = SIDES[side].betti_table(p, last, COLUMN)
    values = [Fraction(c, den) for i, n, c in cells if n == COLUMN]
    assert len(values) == last + 1
    num, D, _ = SIDES[side].stable_series(p)
    L = max(len(D) - 1, len(num))
    if 2 * L >= len(values):
        pytest.skip(f"L = {L} needs more than the {len(values)} stable values of column {COLUMN}")
    assert berlekamp_massey(values) == (list(D), L)
