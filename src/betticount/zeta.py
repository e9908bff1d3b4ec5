"""Arithmetic data of a variety over a finite field: point-count sequences,
zeta functions, necklace polynomials and the Moebius inversion tying them
together.

The Euler product used here is Z(V,t) = prod_k (1 - t^k)^(-M_k) over the
closed-point counts M_k; expanding it reproduces 1/(1 - q^d t) for affine
d-space, which pins the variable of the product to t.
"""

import sys
from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import islice

from .series import NonInteger, _int, _strip, poly_mul, shown, taylor_series

__all__ = [
    "mobius_table",
    "is_prime",
    "is_prime_power",
    "necklace_numerator",
    "PointCountData",
    "closed_point_counts",
    "closed_point_series",
    "builtin_variety",
    "load_variety_file",
    "parse_variety_text",
]


def necklace_numerator(k: int) -> list[int]:
    """The integer coefficients of N_k(x) = k M_k(x) = sum_{j|k} mu(k/j) x^j,
    k times the k-th necklace polynomial M_k."""
    if k < 1:
        raise ValueError("necklace polynomials are indexed by k >= 1")
    mu = mobius_table(k)
    return [0] + [0 if k % j else mu[k // j] for j in range(1, k + 1)]


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
    for k in range(q.bit_length(), 0, -1):  # k = 1 returns, with r = q
        r = _iroot(q, k)
        if r**k == q:
            return is_prime(r)


class PointCountData(namedtuple("PointCountData", "q dim zeta counts")):
    """A variety's arithmetic over F_q: dimension, and either an exact zeta
    function or a finite point-count sequence |V(F_{q^m})| for m = 1..M.

    The constructor makes every check of variety data. It keeps counts as a
    tuple of one or more nonnegative ints, so equal counts from any sequence
    compare and hash alike. Requests that need counts deeper than the
    supplied data raise instead of extrapolating.
    """

    __slots__ = ()

    def __new__(
        cls,
        q: int,
        dim: int,
        zeta: tuple[Sequence[int], Sequence[int]] | None = None,
        counts: Sequence[int] | None = None,
    ):
        if not is_prime_power(q):
            raise ValueError(f"q = {q} is not a prime power")
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if (zeta is None) == (counts is None):
            raise ValueError("supply exactly one of zeta or counts")
        if zeta is not None:
            if not all(isinstance(c, int) for p in zeta for c in p):
                raise ValueError("zeta function coefficients must be integers")
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
        elif not (counts := tuple(counts)) or not all(isinstance(c, int) and c >= 0 for c in counts):
            raise ValueError("counts must be one or more nonnegative integers")
        return super().__new__(cls, q, dim, zeta, counts)

    def point_series(self, depth: int) -> Iterator[int]:
        """|V(F_{q^m})| for m = 1..depth, one at a time; a zeta's counts are
        computed and checked as they are read, in depth order."""
        if self.counts is not None:
            if depth > len(self.counts):
                raise ValueError(
                    f"need point counts to depth {depth}, only {len(self.counts)} supplied"
                )
            yield from self.counts[:depth]
            return
        # t Z'/Z = sum_m |V(F_{q^m})| t^m = r / f, r = t N' D - N t D' and
        # f = N D; every value must be a count
        num, den = self.zeta
        r = [a - b for a, b in zip(poly_mul([j * x for j, x in enumerate(num)], den),
                                   poly_mul(num, [j * x for j, x in enumerate(den)]))]
        values = islice(taylor_series(r, poly_mul(num, den)), 1, depth + 1)
        try:
            for m, v in enumerate(values, start=1):
                if v < 0:
                    raise ValueError(f"zeta function gives invalid count {shown(v)} at depth {m}")
                yield v
        except NonInteger as exc:
            raise ValueError(f"zeta function gives invalid count {exc.value} at depth {exc.n}") from None


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
    value flags inconsistent user data.  The data is checked in depth order:
    M_k is refused before any point count deeper than k is read.
    """
    return list(closed_point_series(v, depth))


def closed_point_series(v: PointCountData, depth: int) -> Iterator[int]:
    """closed_point_counts(v, depth) one at a time: M_k comes as soon as
    |V(F_(q^k))| has been read and checked, when every divisor of k has
    added its term, so good data is read no further than M_k is."""
    pts = v.point_series(depth)
    mu = mobius_table(depth)
    totals = [0] * (depth + 1)
    for k, count in enumerate(pts, start=1):
        for j in range(1, depth // k + 1):
            if mu[j]:
                totals[j * k] += mu[j] * count
        total = totals[k]
        if total % k or total < 0:
            raise ValueError(
                f"Moebius inversion gives non-count M_{k} = {shown(total, k)}; "
                "point-count data is inconsistent"
            )
        yield total // k


def builtin_variety(kind: str, d: int, q: int) -> PointCountData:
    """Affine or projective space of dimension d with its standard zeta
    function: 1/(1 - q^d t), resp. prod_{i=0..d} 1/(1 - q^i t)."""
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
# Any other field name is refused.


def parse_variety_text(text: str) -> PointCountData:
    limit = sys.get_int_max_str_digits()  # 0: no limit
    fields: dict[str, list[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in ("q", "dim", "zeta_num", "zeta_den", "counts"):
            raise ValueError(f"line {lineno}: unknown field {key!r}")
        if key in fields:
            raise ValueError(f"line {lineno}: duplicate field {key!r}")
        scalar = key in ("q", "dim")
        fields[key] = []
        for tok in value.split() if scalar else value.replace(",", " ").split():
            # the length first: int() refuses more digits than the limit
            if 0 < limit <= len(tok):
                raise ValueError(f"field {key!r} has an entry of {len(tok)} characters; "
                                 f"numbers have fewer than {limit} digits")
            try:
                fields[key].append(_int(tok))
            except ValueError:
                raise ValueError("fields 'q' and 'dim' must be integers" if scalar
                                 else f"field {key!r} must be a list of integers") from None
    for key in ("q", "dim"):
        if key not in fields:
            raise ValueError(f"missing field {key!r}")
        if len(fields[key]) != 1:
            raise ValueError("fields 'q' and 'dim' must be integers")
    if ("zeta_num" in fields) != ("zeta_den" in fields):
        raise ValueError("zeta_num and zeta_den must both be present")
    zeta = (fields["zeta_num"], fields["zeta_den"]) if "zeta_num" in fields else None
    return PointCountData(fields["q"][0], fields["dim"][0], zeta, fields.get("counts"))


def load_variety_file(path: str) -> PointCountData:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_variety_text(text)
