"""Arithmetic data of a variety over a finite field: point-count sequences,
zeta functions, necklace polynomials and the Moebius inversion tying them
together.

The Euler product used here is Z(V,t) = prod_k (1 - t^k)^(-M_k) over the
closed-point counts M_k; expanding it reproduces 1/(1 - q^d t) for affine
d-space, which pins the variable of the product to t.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Sequence
from operator import mul

from .series import _strip, poly_mul, ratio

__all__ = [
    "mobius_table",
    "divisors",
    "is_prime",
    "is_prime_power",
    "necklace_numerator",
    "PointCountData",
    "closed_point_counts",
    "builtin_variety",
    "load_variety_file",
    "parse_variety_text",
]


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return small + large


def necklace_numerator(k: int) -> list[int]:
    """The integer coefficients of N_k(x) = k M_k(x) = sum_{j|k} mu(k/j) x^j,
    k times the k-th necklace polynomial M_k."""
    if k < 1:
        raise ValueError("necklace polynomials are indexed by k >= 1")
    mu = mobius_table(k)
    coeffs = [0] * (k + 1)
    for j in divisors(k):
        coeffs[j] = mu[k // j]
    return coeffs


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, 2015); larger q are refused
PRIME_TEST_BOUND = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _check_decidable(q: int) -> None:
    if q >= PRIME_TEST_BOUND:
        raise ValueError(f"q = {q} is too large: q must be below {PRIME_TEST_BOUND}")


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, for p below PRIME_TEST_BOUND."""
    if p < 2:
        return False
    _check_decidable(p)
    if p in _WITNESSES:
        return True
    if any(p % a == 0 for a in _WITNESSES):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's method on integers from
    above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def is_prime_power(q: int) -> bool:
    """q = p^a for a prime p and a >= 1, for q below PRIME_TEST_BOUND.

    The largest k with q an exact k-th power leaves a root that is no
    power itself, so q is a prime power exactly when that root is prime.
    """
    if q < 2:
        return False
    _check_decidable(q)
    for k in range(q.bit_length(), 0, -1):
        r = _iroot(q, k)
        if r**k == q:
            return is_prime(r)
    return False


class PointCountData(namedtuple("PointCountData", "q dim zeta counts")):
    """A variety's arithmetic over F_q: dimension, and either an exact zeta
    function or a finite point-count sequence |V(F_{q^m})| for m = 1..M.

    Requests that need counts deeper than the supplied data raise instead of
    extrapolating.
    """

    __slots__ = ()

    def __new__(
        cls,
        q: int,
        dim: int,
        zeta: tuple[Sequence[int], Sequence[int]] | None = None,
        counts: tuple[int, ...] | None = None,
    ):
        if not is_prime_power(q):
            raise ValueError(f"q = {q} is not a prime power")
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if (zeta is None) == (counts is None):
            raise ValueError("supply exactly one of zeta or counts")
        if zeta is not None:
            num, den = (_strip(p) for p in zeta)
            if not den:
                raise ValueError("zeta function has a zero denominator")
            while num and num[0] == den[0] == 0:
                num, den = num[1:], den[1:]
            if num and den[0] == 0:
                raise ValueError("zeta function must be regular at t = 0")
            if not num or num[0] == 0:
                # Z(V,t) = Z(V,0) * prod_k (1 - t^k)^(-M_k) needs Z(V,0) != 0
                raise ValueError("zeta function must be nonzero at t = 0")
            zeta = (tuple(num), tuple(den))
        return super().__new__(cls, q, dim, zeta, counts)

    def point_counts(self, depth: int) -> list[int]:
        """|V(F_{q^m})| for m = 1..depth."""
        if self.counts is not None:
            if depth > len(self.counts):
                raise ValueError(
                    f"need point counts to depth {depth}, only {len(self.counts)} supplied"
                )
            return list(self.counts[:depth])
        # t Z'/Z = sum_m |V(F_{q^m})| t^m = r / f, r = t N' D - N t D' and
        # f = N D; with f_0 > 0 the counts are c_m / f_0^m for the integers
        # c_m = f_0^(m-1) r_m - sum_(j=1..m-1) f_j f_0^(j-1) c_(m-j) of
        # Newton's identity
        num, den = self.zeta
        f = poly_mul(num, den)
        r = [a - b for a, b in zip(poly_mul([j * x for j, x in enumerate(num)], den),
                                   poly_mul(num, [j * x for j, x in enumerate(den)]))]
        if f[0] < 0:
            f, r = [-x for x in f], [-x for x in r]
        powers = [f[0] ** j for j in range(depth + 1)]
        scaled = list(map(mul, f[1:], powers))  # f_j f_0^(j-1), j >= 1
        c, out = [0], []
        for m in range(1, depth + 1):
            total = (powers[m - 1] * r[m] if m < len(r) else 0) - sum(map(mul, scaled, c[m - 1:0:-1]))
            v, rem = divmod(total, powers[m])
            if rem or v < 0:
                raise ValueError(f"zeta function gives invalid count {ratio(total, powers[m])} at depth {m}")
            c.append(total)
            out.append(v)
        return out


def mobius_table(n: int) -> list[int]:
    """[0, mu(1), ..., mu(n)] by a sieve: each prime p flips the sign at
    its multiples and zeroes the multiples of p^2."""
    mu = [0] + [1] * n
    composite = bytearray(n + 1)
    for p in range(2, n + 1):
        if not composite[p]:
            composite[p::p] = b"\1" * (n // p)
            mu[p::p] = [-x for x in mu[p::p]]
            mu[p * p::p * p] = [0] * (n // (p * p))
    return mu


def closed_point_counts(v: PointCountData, depth: int) -> list[int]:
    """M_k(V, q) for k = 1..depth via Moebius inversion of the point counts:
    k M_k = sum_(jm = k) mu(j) |V(F_(q^m))|, summed over the multiples of
    each m, with mu sieved once up to depth.

    Each M_k counts closed points of degree k, so a non-integer or negative
    value flags inconsistent user data.
    """
    pts = v.point_counts(depth)
    mu = mobius_table(depth)
    totals = [0] * (depth + 1)
    for m, count in enumerate(pts, start=1):
        for j in range(1, depth // m + 1):
            if mu[j]:
                totals[j * m] += mu[j] * count
    out = []
    for k in range(1, depth + 1):
        total = totals[k]
        if total % k or total < 0:
            raise ValueError(
                f"Moebius inversion gives non-count M_{k} = {ratio(total, k)}; "
                "point-count data is inconsistent"
            )
        out.append(total // k)
    return out


def builtin_variety(kind: str, d: int, q: int) -> PointCountData:
    """Affine or projective space of dimension d with its standard zeta
    function: 1/(1 - q^d t), resp. prod_{i=0..d} 1/(1 - q^i t)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if kind == "affine":
        den = [1, -(q**d)]
    elif kind == "projective":
        den = [1]
        for i in range(d + 1):
            den = poly_mul(den, [1, -(q**i)])
    else:
        raise ValueError(f"unknown builtin variety kind {kind!r}")
    return PointCountData(q=q, dim=d, zeta=((1,), den))


# ---------------------------------------------------------------------------
# the variety file format
#
#   q = 3
#   dim = 1
#   zeta_num = 1          # integer coefficients, ascending degree
#   zeta_den = 1 -3
# or
#   counts = 3 9 27       # |V(F_{q^m})| for m = 1..M
#
# '#' starts a comment; integers only, read as the command line reads them.


def _int(text: str) -> int:
    """text as an integer: an optional "-" and ASCII digits, in surrounding
    whitespace (int() also reads "+", "_" and other scripts' digits)."""
    text = text.strip()
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(text)
    return int(text)


def parse_variety_text(text: str) -> PointCountData:
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in fields:
            raise ValueError(f"line {lineno}: duplicate field {key!r}")
        fields[key] = value.strip()
    # the length first: int() refuses more digits than the limit
    limit = sys.get_int_max_str_digits()  # 0: no limit
    for key in ("q", "dim", "zeta_num", "zeta_den", "counts"):
        for tok in fields.get(key, "").replace(",", " ").split():
            if 0 < limit <= len(tok):
                raise ValueError(f"field {key!r} has an entry of {len(tok)} characters; "
                                 f"numbers have fewer than {limit} digits")

    def int_list(key: str) -> list[int]:
        try:
            return [_int(tok) for tok in fields[key].replace(",", " ").split()]
        except ValueError:
            raise ValueError(f"field {key!r} must be a list of integers") from None

    for required in ("q", "dim"):
        if required not in fields:
            raise ValueError(f"missing field {required!r}")
    try:
        q = _int(fields["q"])
        dim = _int(fields["dim"])
    except ValueError:
        raise ValueError("fields 'q' and 'dim' must be integers") from None

    has_zeta = "zeta_num" in fields or "zeta_den" in fields
    has_counts = "counts" in fields
    if has_zeta == has_counts:
        raise ValueError("supply either zeta_num/zeta_den or counts, not both")
    if has_zeta:
        if not ("zeta_num" in fields and "zeta_den" in fields):
            raise ValueError("zeta_num and zeta_den must both be present")
        num, den = int_list("zeta_num"), int_list("zeta_den")
        if not any(den):
            raise ValueError("zeta_den is the zero polynomial")
        return PointCountData(q=q, dim=dim, zeta=(num, den))
    counts = int_list("counts")
    if not counts:
        raise ValueError("counts must be non-empty")
    return PointCountData(q=q, dim=dim, counts=tuple(counts))


def load_variety_file(path: str) -> PointCountData:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_variety_text(handle.read())
