"""Reference helpers shared by the tests: a scalar binomial, truncated
univariate series products and reciprocals over Fractions, a sequence
continued by a recurrence, and the Grothendieck-Lefschetz check of one
(q, n).  The package's kernels work on
integer lists and do not use them, so they stay independent references."""

import math
from collections.abc import Sequence
from fractions import Fraction

from betticount.betti import ScaledValues


def binomial(x, m: int) -> Fraction:
    """binom(x, m) = x(x-1)...(x-m+1)/m! for a rational x; binom(x, 0) = 1."""
    if m < 0:
        raise ValueError("binomial needs m >= 0")
    acc = Fraction(1)
    x = Fraction(x)
    for j in range(m):
        acc = acc * (x - j)
    return acc * Fraction(1, math.factorial(m))


def truncated_mul(a: Sequence[Fraction], b: Sequence[Fraction], order: int) -> list[Fraction]:
    """Cauchy product of two coefficient lists, kept to the given order."""
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def truncated_inverse(a: Sequence[Fraction], order: int) -> list[Fraction]:
    """Reciprocal of a coefficient list with nonzero constant term."""
    if not a or a[0] == 0:
        raise ValueError("inverse requires a nonzero constant term")
    inv0 = Fraction(1) / Fraction(a[0])
    out = [inv0] + [Fraction(0)] * order
    for n in range(1, order + 1):
        s = Fraction(0)
        for k in range(1, min(n, len(a) - 1) + 1):
            if a[k]:
                s += Fraction(a[k]) * out[n - k]
        out[n] = -inv0 * s
    return out


def extend_by_recurrence(spec, prefix: Sequence[Fraction], upto: int) -> list[Fraction]:
    """prefix continued through index upto by a_i = sum_k c_k a_(i-k), for
    the coefficients c_1, c_2, ... of spec (a RecurrenceSpec), reading
    indices below zero as zero.  A sequence seq satisfies spec exactly when
    continuing seq[:spec.valid_from] to its length gives seq back."""
    out = [Fraction(v) for v in prefix]
    for i in range(len(out), upto + 1):
        out.append(sum((c * out[i - k] for k, c in enumerate(spec.coefficients, start=1)
                        if k <= i), Fraction(0)))
    return out


def gl_crosscheck(side, p, q: int, n: int) -> tuple[Fraction, Fraction]:
    """The GL check (lhs, rhs) of p at one (q, n) on side (a betti.Side)."""
    return side.gl_checks(p, {q: side.count_oracle(q, n)}, n, ScaledValues(p))[q, n]
