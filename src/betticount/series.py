"""Exact series kernel: rationals, univariate polynomials and rational
functions, and truncated power-series helpers.

All arithmetic is exact; there is no floating point anywhere in this module.
Scalars are `fractions.Fraction` (re-exported as `Rational`), which already
guarantees lowest terms and a positive denominator.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

Rational = Fraction
Scalar = int | Fraction

__all__ = [
    "Rational",
    "Poly",
    "RationalFunction",
    "RecurrenceSpec",
    "binomial",
    "taylor_coeffs",
    "truncated_mul",
    "truncated_inverse",
    "stable_limit",
    "recurrence_from_ratfun",
]


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class _Frozen:
    """Base of the immutable value types.  A subclass names its fields in
    __slots__ and sets them once, in __init__, through _set (or
    object.__setattr__); assignment then raises, and two instances of the
    same class are equal, and hash alike, exactly when their fields are."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({args})"


# ---------------------------------------------------------------------------
# univariate polynomials and rational functions


class Poly:
    """Univariate polynomial with exact rational coefficients.

    Coefficients are stored ascending by exponent with trailing zeros
    stripped.  The zero polynomial stores an empty tuple and reports the
    sentinel degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @staticmethod
    def x() -> Poly:
        return Poly((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __neg__(self) -> Poly:
        return Poly(-c for c in self.coeffs)

    def __add__(self, other: Poly | Scalar) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self[k] + other[k] for k in range(n))

    __radd__ = __add__

    def __sub__(self, other: Poly | Scalar) -> Poly:
        return self + (-other if isinstance(other, Poly) else Poly((-_frac(other),)))

    def __rsub__(self, other: Scalar) -> Poly:
        return Poly((other,)) - self

    def __mul__(self, other: Poly | Scalar) -> Poly:
        if isinstance(other, (int, Fraction)):
            return Poly(c * other for c in self.coeffs)
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, m: int) -> Poly:
        if m < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly((1,))
        for _ in range(m):
            out = out * self
        return out

    def __call__(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def derivative(self) -> Poly:
        return Poly(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def monic(self) -> Poly:
        if self.is_zero():
            return self
        return self * (Fraction(1) / self.coeffs[-1])

    def shift(self, k: int) -> Poly:
        """Multiply by x**k."""
        if self.is_zero():
            return self
        return Poly((Fraction(0),) * k + self.coeffs)

    def stretch(self, k: int) -> Poly:
        """Substitute x -> x**k."""
        out = [Fraction(0)] * (len(self.coeffs) * k)
        for j, c in enumerate(self.coeffs):
            out[j * k] = c
        return Poly(out)

    def scale_arg(self, a: Scalar) -> Poly:
        """Substitute x -> a*x."""
        return Poly(c * _frac(a) ** k for k, c in enumerate(self.coeffs))

    @staticmethod
    def gcd(a: Poly, b: Poly) -> Poly:
        """The monic gcd (zero for two zeros), by Euclid on primitive
        integer polynomials: every remainder has its content divided out,
        so coefficients stay near the size of the inputs' instead of
        growing at each step as Fraction remainders do."""
        a, b = _primitive(a.coeffs), _primitive(b.coeffs)
        while b:
            a, b = b, _primitive(_pseudo_remainder(a, b))
        return Poly(a).monic()

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        parts = [f"{c}*x^{k}" for k, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(parts) + ")"


def _primitive(coeffs: Sequence[Scalar]) -> list[int]:
    """Coprime integer coefficients of a positive rational multiple of the
    polynomial with these coefficients (empty for zero)."""
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = math.gcd(*ints)
    return [c // g for c in ints] if g else []


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """a mod b times a nonzero integer, for integer coefficient lists
    (ascending, no trailing zeros, b nonzero)."""
    r = list(a)
    lead = b[-1]
    while len(r) >= len(b):
        g = math.gcd(r[-1], lead)
        mult, c = lead // g, r[-1] // g
        if mult != 1:
            r = [mult * v for v in r]
        shift = len(r) - len(b)
        for j, v in enumerate(b):
            r[shift + j] -= c * v
        while r and not r[-1]:
            r.pop()
    return r


class RationalFunction:
    """Ratio of two polynomials, stored with common factors removed and a
    monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly | Scalar, den: Poly | Scalar = 1):
        if not isinstance(num, Poly):
            num = Poly((num,))
        if not isinstance(den, Poly):
            den = Poly((den,))
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = Poly(), Poly((1,))
            return
        g = Poly.gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        lead = den.coeffs[-1]
        self.num = num * (Fraction(1) / lead)
        self.den = den * (Fraction(1) / lead)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, Poly)):
            return self == RationalFunction(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __neg__(self) -> RationalFunction:
        return RationalFunction(-self.num, self.den)

    def __add__(self, other: RationalFunction | Poly | Scalar) -> RationalFunction:
        if not isinstance(other, RationalFunction):
            other = RationalFunction(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other: RationalFunction | Poly | Scalar) -> RationalFunction:
        if not isinstance(other, RationalFunction):
            other = RationalFunction(other)
        return self + (-other)

    def __rsub__(self, other: Poly | Scalar) -> RationalFunction:
        return RationalFunction(other) - self

    def __mul__(self, other: RationalFunction | Poly | Scalar) -> RationalFunction:
        if not isinstance(other, RationalFunction):
            other = RationalFunction(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalFunction | Poly | Scalar) -> RationalFunction:
        if not isinstance(other, RationalFunction):
            other = RationalFunction(other)
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, m: int) -> RationalFunction:
        if m < 0:
            return RationalFunction(self.den, self.num) ** (-m)
        return RationalFunction(self.num**m, self.den**m)

    def __call__(self, x: Scalar) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num(x) / d

    def derivative(self) -> RationalFunction:
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def stretch(self, k: int) -> RationalFunction:
        return RationalFunction(self.num.stretch(k), self.den.stretch(k))

    def scale_arg(self, a: Scalar) -> RationalFunction:
        return RationalFunction(self.num.scale_arg(a), self.den.scale_arg(a))

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"


# ---------------------------------------------------------------------------
# generic binomial, truncated univariate helpers


def binomial(x, m: int):
    """binom(x, m) = x(x-1)...(x-m+1)/m! for any x supporting * and -.

    Works on scalars and polynomials; binom(x, 0) is the multiplicative
    identity of the matching kind.
    """
    if m < 0:
        raise ValueError("binomial needs m >= 0")
    if isinstance(x, Poly):
        acc = Poly((1,))
    else:
        acc = Fraction(1)
        x = _frac(x)
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
    inv0 = Fraction(1) / _frac(a[0])
    out = [inv0] + [Fraction(0)] * order
    for n in range(1, order + 1):
        s = Fraction(0)
        for k in range(1, min(n, len(a) - 1) + 1):
            if a[k]:
                s += _frac(a[k]) * out[n - k]
        out[n] = -inv0 * s
    return out


def taylor_coeffs(f: RationalFunction, order: int) -> list[Fraction]:
    """First order+1 Taylor coefficients of f at 0, exact.

    Requires the denominator to have a nonzero constant term.
    """
    if f.den[0] == 0:
        raise ValueError("denominator vanishes at 0")
    num = [f.num[k] for k in range(order + 1)]
    den = [f.den[k] for k in range(min(order, f.den.degree) + 1)]
    return truncated_mul(num, truncated_inverse(den, order), order)


def stable_limit(f: RationalFunction, c: Scalar) -> Fraction:
    """lim_n a_n / c^n for the Taylor coefficients a_n of f, assuming
    f = H(t)/(1 - c t) with H regular at t = 1/c; the limit is H(1/c).

    Rejects a pole of order >= 2 at t = 1/c (the remaining denominator
    still vanishing there after one factor is cleared).
    """
    c = _frac(c)
    if c == 0:
        raise ValueError("c must be nonzero")
    h = f * RationalFunction(Poly((1, -c)))
    x = Fraction(1) / c
    if h.den(x) == 0:
        raise ValueError(f"pole of order >= 2 at t = {x}")
    return h(x)


class RecurrenceSpec(_Frozen):
    """A linear recurrence a_i = sum_k coefficients[k-1] * a_{i-k}, valid for
    all indices i >= valid_from (indices below zero read as zero)."""

    __slots__ = ("coefficients", "valid_from")

    def __init__(self, coefficients: tuple[Fraction, ...], valid_from: int):
        self._set(coefficients, valid_from)

    @property
    def length(self) -> int:
        return len(self.coefficients)

    def predict(self, seq: Sequence[Fraction], i: int) -> Fraction:
        s = Fraction(0)
        for k, c in enumerate(self.coefficients, start=1):
            if i - k >= 0:
                s += c * _frac(seq[i - k])
        return s

    def holds_on(self, seq: Sequence[Fraction]) -> bool:
        start = max(self.valid_from, 0)
        return all(_frac(seq[i]) == self.predict(seq, i) for i in range(start, len(seq)))

    def extend(self, prefix: Sequence[Fraction], upto: int) -> list[Fraction]:
        """Continue a sequence with the recurrence through index upto."""
        out = [_frac(v) for v in prefix]
        for i in range(len(out), upto + 1):
            out.append(self.predict(out, i))
        return out


def recurrence_from_ratfun(f: RationalFunction) -> RecurrenceSpec:
    """Recurrence satisfied by the Taylor coefficients of f.

    With the denominator normalized to constant term 1, written as
    1 - sum_k c_k z^k, the coefficients a_i of f satisfy
    a_i = sum_k c_k a_{i-k} for every i > deg(numerator).
    """
    q0 = f.den[0]
    if q0 == 0:
        raise ValueError("denominator vanishes at 0")
    coeffs = tuple(-f.den[k] / q0 for k in range(1, f.den.degree + 1))
    return RecurrenceSpec(coeffs, f.num.degree + 1)
