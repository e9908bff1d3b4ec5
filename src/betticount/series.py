"""Exact series kernel: integer polynomials, sums of rational functions
over cyclotomic denominators, and power-series helpers.

All arithmetic is exact; there is no floating point anywhere in this module.
A rational value is an integer numerator over a positive integer
denominator, and a list of them shares one denominator; `ratio` prints one
as "p/q" in lowest terms, and is the one place that refuses a value too
long to print; `_int` reads an integer from text, for the command line and
the variety files.  A polynomial is a list of integer coefficients, ascending
by exponent, divided exactly by `_exact_quotient`, and a sum of rational
functions comes back as a triple (num, D, d) that stands for num / (d D),
with D(0) = 1 and d > 0.
"""

import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import count, islice
from operator import mul

__all__ = [
    "ratio",
    "shown",
    "poly_mul",
    "cyclotomic_sum",
    "divide_in_place",
    "NonInteger",
    "taylor_series",
    "taylor_coeffs",
]


def ratio(num: int, den: int) -> str:
    """num / den, den > 0, as text: "p/q" in lowest terms, or "p" for an
    integer, as a Fraction prints.  A value past the digit limit, which
    str() refuses to print, raises ValueError naming the inputs to lower."""
    g = math.gcd(num, den)
    try:
        return str(num // g) if g == den else f"{num // g}/{den // g}"
    except ValueError:
        # lifting the limit costs minutes
        raise ValueError(f"a value has more than {sys.get_int_max_str_digits()} digits; "
                         "lower --q, --max-n or the dimension of the variety") from None


def _int(text: str) -> int:
    """text as an integer: an optional "-" and ASCII digits, in surrounding
    whitespace (int() also reads "+", "_" and other scripts' digits)."""
    text = text.strip()
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(text)
    return int(text)


def shown(num: int, den: int = 1) -> str:
    """ratio(num, den) for an error message, which must not fail in turn: a
    value that ratio refuses is named instead of printed."""
    try:
        return ratio(num, den)
    except ValueError:
        return "(a value too long to print)"


# ---------------------------------------------------------------------------
# integer polynomials


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer coefficient lists (ascending, nonempty)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _strip(a: Sequence[int]) -> list[int]:
    """a without trailing zeros (empty for the zero polynomial)."""
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


# ---------------------------------------------------------------------------
# sums over stride denominators
#
# A term's denominator is a product of stride factors 1 + sign z^k, sign
# +-1.  Psi_1 = 1 - z and Psi_d = Phi_d, the d-th cyclotomic polynomial, for
# d > 1: every Psi_d has constant term 1 and leading coefficient +-1, and
# 1 - z^k = prod_(d | k) Psi_d, 1 + z^k = prod_(d | 2k, d not | k) Psi_d.
# The Psi_d are irreducible over Q, so a sum put over a common multiple of
# its denominators is in lowest terms once every Psi_d that still divides
# the summed numerator has been divided out of it, and no gcd is needed.


def _exact_quotient(a: Sequence[int], f: Sequence[int]) -> list[int] | None:
    """a / f when f divides a in Z[t], else None, for a nonzero integer list
    a and an integer list f of content 1 (the gcd of its coefficients), such
    as a Psi_d or 1 - c t.  By Gauss's lemma a / f is then an integer list
    if it is a polynomial at all, so a quotient step that is not an integer
    means f does not divide a."""
    d = len(f) - 1
    if len(a) <= d:
        return None
    r = list(a)
    lead = f[-1]
    q = [0] * (len(r) - d)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + d], lead)
        if rem:
            return None
        if c:
            q[i] = c
            for j, fj in enumerate(f):
                r[i + j] -= c * fj
    return None if any(r[:d]) else q


def _cyclotomics(ds: Iterable[int]) -> dict[int, list[int]]:
    """{d: Psi_d} for every d in ds and every divisor of one: Psi_d is
    1 - z^d divided by Psi_e for each proper divisor e of d."""
    need = sorted({e for d in ds for e in range(1, d + 1) if d % e == 0})
    psi: dict[int, list[int]] = {}
    for d in need:
        f = [1] + [0] * (d - 1) + [-1]
        for e, g in psi.items():
            if d % e == 0:
                f = _exact_quotient(f, g)
        psi[d] = f
    return psi


def cyclotomic_sum(
    terms: Iterable[tuple[Sequence[int], int, Sequence[tuple[int, int, int]]]], scale: int
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """sum_j m_j n_j(z) / (scale prod (1 + sign z^k)^e) in lowest terms,
    for terms (n_j, m_j, factors_j) with integer lists n_j, integers m_j and
    the stride factors (k, e, sign) of each denominator, and scale > 0.

    Q = prod (1 + sign z^k)^(max_j e) is a multiple of every denominator,
    so N = Q sum_j m_j n_j / den_j is a polynomial of degree below
    size = max_j (len n_j + deg Q - deg den_j): the sum of the terms'
    Taylor series to that order, times Q, is N.

    Returns (num, D, d), the sum being num / (d D) in lowest terms: D is
    the product of the Psi_d left after the reduction, so D(0) = 1, d =
    scale / g > 0 and num is the stripped numerator over g, for g the gcd
    of scale and the numerator's coefficients; a zero sum is ((), (1,), 1).
    """
    terms = list(terms)
    top: dict[tuple[int, int], int] = {}
    for _, _, factors in terms:
        for k, e, sign in factors:
            top[k, sign] = max(top.get((k, sign), 0), e)
    deg_q = sum(k * e for (k, _), e in top.items())
    size = max((len(num) + deg_q - sum(k * e for k, e, _ in factors)
                for num, _, factors in terms), default=0)
    total = [0] * size
    for num, m, factors in terms:
        part = [m * x for x in num] + [0] * (size - len(num))
        divide_in_place(part, factors)
        total = [a + b for a, b in zip(total, part)]
    for (k, sign), e in top.items():
        for _ in range(e):
            for m in range(size - 1, k - 1, -1):
                total[m] += sign * total[m - k]
    total = _strip(total)
    if not total:
        return (), (1,), 1
    exps: dict[int, int] = {}
    for (k, sign), e in top.items():
        for d in range(1, 2 * k + 1):
            if 2 * k % d == 0 and (k % d == 0) == (sign < 0):
                exps[d] = exps.get(d, 0) + e
    psi = _cyclotomics(exps)
    for d in exps:
        while exps[d] and (q := _exact_quotient(total, psi[d])) is not None:
            total = q
            exps[d] -= 1
    D = [1]
    for d, e in exps.items():
        for _ in range(e):
            D = poly_mul(D, psi[d])
    g = math.gcd(scale, *total)
    return tuple(x // g for x in total), tuple(D), scale // g


def divide_in_place(s: list[int], factors: Iterable[tuple[int, int, int]]) -> None:
    """Replace the series s by s / prod (1 + sign t^k)^e, truncated at
    len(s), for the stride factors (k, e, sign) in factors, sign +-1: each
    division is a stride-k running difference (sign 1) or sum (sign -1)."""
    for k, e, sign in factors:
        for _ in range(e):
            for m in range(k, len(s)):
                s[m] -= sign * s[m - k]


class NonInteger(ArithmeticError):
    """The Taylor coefficient value (its text) at t^n is not an integer."""

    def __init__(self, value: str, n: int):
        super().__init__(f"non-integer coefficient {value} at t^{n}")
        self.value = value
        self.n = n


def taylor_series(num: Sequence[int], D: Sequence[int]) -> Iterator[int]:
    """The Taylor coefficients at 0 of num / D, for integer lists num and D
    with D(0) != 0, one at a time and without end: the integers
    a_n = (num_n - sum_(k>=1) D_k a_(n-k)) / D_0.  Raises NonInteger at the
    first a_n that is not one."""
    d0 = D[0]
    tail = D[1:]
    a: list[int] = []
    for n in count():
        # a[n-1::-1] is a_(n-1), a_(n-2), ..., a_0 (empty at n = 0)
        total = (num[n] if n < len(num) else 0) - sum(map(mul, tail, a[n - 1::-1]))
        an, rem = divmod(total, d0)
        if rem:
            raise NonInteger(shown(total * d0, d0 * d0), n)  # total / d0 over d0^2 > 0
        a.append(an)
        yield an


def taylor_coeffs(num: Sequence[int], D: Sequence[int], order: int) -> list[int]:
    """The first order+1 values of taylor_series(num, D), such as the
    stable values of each triple that cyclotomic_sum returns."""
    return list(islice(taylor_series(num, D), order + 1))
