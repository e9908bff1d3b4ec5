"""Weighted point-counts on configuration spaces of a variety over F_q,
their large-n limits, and a brute-force oracle for the affine line.

Points of the n-th configuration space of the affine line over F_p are in
bijection with monic square-free degree-n polynomials; the number of
k-cycles of the Frobenius permutation of a configuration equals the number
of degree-k irreducible factors.  The oracle runs one smallest-factor sieve
over every monic polynomial over F_p of degree <= n and tallies the
square-free ones of each degree by their factor degrees.  Polynomials are
packed ints, many to one big int, so the products of an irreducible with
all its cofactors of one degree take a few whole-int operations.  The top
degree only marks its products in a bytearray, to see that none is reached
twice.  It never uses the closed-point counts or the binomial formula it
checks.
"""

import math
import sys
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator, Sequence
from itertools import chain, filterfalse, islice, repeat
from operator import add, and_, mul

from .chars import CharPoly, active, binomial, cycle_type, partitions, weight
from .series import _exact_quotient, cyclotomic_sum, poly_mul, ratio, taylor_series
from .zeta import PointCountData, closed_point_counts, closed_point_series, is_prime

__all__ = [
    "GUARD",
    "count_values",
    "count_oracle",
    "check_bruteforce",
    "bruteforce_census",
    "limits",
]

GUARD = 10**6  # the largest p^n the sieve takes; 7^7 and 3^12 are the largest runs


# ---------------------------------------------------------------------------
# the generating-function path


def _weight_factor(p: CharPoly, mk: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """cyclotomic_sum's (num, D, d) for the factor that the weight p brings
    to the count series, given the closed-point counts M_k = mk[k - 1] to
    p's longest lam: binom(M_k, lam_k) (t^k / (1 + t^k))^lam_k over k, for
    p = C(X, lam), summed over p.  A p that vanishes on V gives num (0,)."""
    parts = []
    for lam, m in p.items():
        c = m * binomial(mk, lam)
        if c:
            parts.append(([0] * weight(lam) + [1], c, [(k, e, 1) for k, e in active(lam)]))
    num, D, d = cyclotomic_sum(parts, p.den)
    return num or (0,), D, d


def count_values(v: PointCountData, p: CharPoly, n_max: int) -> tuple[Iterator[int], int]:
    """(values, d): the sum over the n-point configurations of V over F_q
    of p at their Frobenius cycle types is c_n / d, for n <= n_max, with
    c_n the n-th of values, read one at a time.

    The c_n are the Taylor coefficients of num / (d D): Z(V,t)/Z(V,t^2) =
    A/B (_zeta_ratio) times _weight_factor(p, M).  Point counts give the
    zeta Z mod t^(n_max+1) by Newton's identity m z_m = sum_(i<=m)
    |V(F_(q^i))| z_(m-i).  The M_k are read to the longest lam, then M_n
    before c_n, so V is checked as far as c is read.
    """
    depth = max([0] + [len(lam) for lam, _ in p.items()])
    checked = closed_point_series(v, max(depth, n_max))
    mk = list(islice(checked, depth))
    if v.zeta is None:
        pts = list(v.point_series(n_max))
        z = [1]
        for m in range(1, n_max + 1):
            z.append(sum(map(mul, pts[:m], z[::-1])) // m)
        A, B = _zeta_ratio(z, [1])
    else:
        A, B = _zeta_ratio(*v.zeta)
    num, D, d = _weight_factor(p, mk)
    values = taylor_series(poly_mul(A, num), poly_mul(B, D))
    steps = zip(chain([0], mk, checked), values)  # M_n is checked before c_n is read
    return (c for _, c in islice(steps, n_max + 1)), d


def count_oracle(v: PointCountData, max_n: int) -> list[list[tuple[tuple[int, ...], int]]]:
    """rows[n], n <= max_n: the cycle types mu of n-point configurations of
    V over F_q, each with its nonzero count N_mu = binomial(M, mu) =
    prod_k binom(M_k(V,q), mu_k), from one list of closed-point counts."""
    if max_n < 0:
        raise ValueError("n must be nonnegative")
    mk = closed_point_counts(v, max_n)
    return [[(mu, c) for mu in partitions(n) if (c := binomial(mk, mu))] for n in range(max_n + 1)]


# ---------------------------------------------------------------------------
# brute force over F_p
#
# A monic polynomial c_0 + c_1 x + ... + x^m is the int sum_i c_i 2^(b i),
# one b-bit field per coefficient (leading 1 included) with p - 1 below the
# field's top bit 2^(b-1).  Such ints add mod p without a loop: each field
# of s = x + y is below 2p, so adding 2^(b-1) - p to every field sets its
# top bit exactly where the field reached p, and p comes off those fields.
# A batch is one int of 64-bit slots, one polynomial of (n + 1) b <= 42 bits
# each, and the same few operations reduce every field of every slot.
#
# One sieve per prime, run up to degree n, builds every composite exactly
# once as g * h, with g its smallest irreducible factor (as an int) and h a
# cofactor with small(h) >= g, like an integer smallest-prime-factor sieve.
# A monic of degree < n keeps one code: small(h) above its cycle-type key,
# the factor-degree counts a_k in base n + 1, with a flag bit when a factor
# repeats.  g * h is square-free iff h is and small(h) != g, and then its
# key is h's plus one degree-d factor.  The monics h of each degree below n,
# their multiples v h and their codes are kept sorted by smallest factor, at
# no cost: degree m is built by d upward and each irr[d] upward, a monic of
# lower degree is a smaller int, and the irreducibles of degree m, which no
# product reaches, come last in ascending order.  So the cofactors of g are
# the suffix of codes[e] from bisect_left(codes[e], g << shift), and g * h
# for all of them is the sum of the multiples by g's coefficients, each
# shifted to its degree.  The top degree keeps no products: it marks each in
# a bytearray of 2^((b-1) n) bytes, at an index injective on monics, the low
# n fields squeezed to b - 1 bits each (their top bit is 0 once a batch has
# passed its checks).  Fewer marks than products means a product was
# reached twice.  Every degree takes its tally from the cofactors.


def _width(p: int) -> int:
    """The bits b of a coefficient field over F_p."""
    return (p - 1).bit_length() + 1


def _slots(data: bytes) -> memoryview:
    """The 64-bit slots of the little-endian batch data, lowest first."""
    return memoryview(data).cast("Q") if sys.byteorder == "little" else memoryview(data[::-1]).cast("Q")[::-1]


def _index_masks(b: int, n: int, units: int) -> tuple[int, list[tuple[int, int]]]:
    """The masks of _squeeze at degree n, repeated in every slot that units
    has a 1 in: the n low fields, and for each step j the fields i < n with
    bit j of i set, with the gap 2^j that step closes."""
    steps = []
    for j in range(max(1, (n - 1).bit_length())):
        hi = 0
        for i in range(n):
            if i >> j & 1:
                hi |= ((1 << b) - 1) << b * i
        steps.append((hi * units, 1 << j))
    return ((1 << b * n) - 1) * units, steps


def _squeeze(x: int, fields: int, steps: list[tuple[int, int]]) -> int:
    """Every slot of x, a monic of degree n with fields below 2^(b-1), as
    sum_{i<n} c_i 2^((b-1) i): step j moves each odd block of 2^j fields
    down by the 2^j spare bits of the block below it.  A mask longer than x
    is cut to x's length by &."""
    x &= fields
    for hi, gap in steps:
        t = x & hi
        x = x ^ t | t >> gap
    return x


def _products(g: int, table: list[int], p: int, ones: int, lift: int, start: int) -> int:
    """The batch of g * h for the monics h of one degree from slot start on,
    which, in their order by smallest factor, are the h with small(h) >= g;
    table[v] is the batch of v h for all of them, and ones and lift are the
    reduction's constants for the slots from start on."""
    b, s, r = _width(p), 0, 64 * start
    for i in range(0, g.bit_length(), b):
        if v := (g >> i) & ((1 << b) - 1):
            s += table[v] >> r << i
            s -= p * (((s + lift) >> (b - 1)) & ones)
    return s


def _sieve(p: int, n: int) -> list[Counter]:
    """tallies[m][key]: the number of monic square-free degree-m polynomials
    over F_p with cycle-type key `key`, for every m <= n."""
    b, base = _width(p), n + 1
    shift = (base**n).bit_length() + 1
    flag, low = 1 << (shift - 1), (1 << shift) - 1
    # units[e]: a 1 in each of p^e slots; ones[e]: a 1 in each field of them
    units = [int.from_bytes((1).to_bytes(8, "little") * p**e, "little") for e in range(n)]
    spread = sum(1 << (b * i) for i in range(n + 1))
    ones = [spread * u for u in units]
    lifts = [((1 << (b - 1)) - p) * o for o in ones]  # adding 2^(b-1) - p sets a top bit iff a field reached p
    tables = [[0, 1]]  # tables[e][v]: the batch of v h for the monics h of degree e
    codes: list[list[int]] = [[]]  # codes[e][i]: small << shift | key of the i-th of them
    irr: list[list[int]] = [[]]

    def batches(m, masks=None):
        """(d, g, start, the bytes of g * h for the h of degree m - d from
        slot start on, those with small(h) >= g, squeezed when masks are
        given) for each g of degree d <= m / 2."""
        for d in range(1, m // 2 + 1):
            e = m - d
            high = ((1 << (64 - b * m)) - 1) * units[e]
            for g in irr[d]:
                start = bisect_left(codes[e], g << shift)
                r = 64 * start
                one, lift = ones[e] >> r, lifts[e] >> r
                batch = _products(g, tables[e], p, one, lift, start)
                if (batch >> (b * m)) & (high >> r) != units[e] >> r or (batch | (batch + lift)) & one << (b - 1):
                    raise ArithmeticError(f"the sieve over F_{p} made a degree-{m} product outside the monics")
                if masks:
                    batch = _squeeze(batch, *masks)
                data = batch.to_bytes(8 * (p**e - start), "little")
                del batch, one, lift  # only the bytes stay alive while the caller works
                yield d, g, start, data

    odo = 1  # the monics of degree m - 1 in odometer order
    for m in range(1, n):
        # p copies of them, x^m + (c - 1) x^(m-1) added to the c-th
        size = p ** (m - 1)
        odo = int.from_bytes(odo.to_bytes(8 * size, "little") * p, "little")
        odo += sum(((1 << b) + c - 1) * units[m - 1] << (b * (m - 1) + 64 * c * size) for c in range(p))
        made: dict[int, int] = {}  # product -> code, in batch order
        batch, at = bytearray(8 * p**m), 0
        for d, g, start, data in batches(m):
            slots, cofs = _slots(data), codes[m - d]
            k = bisect_left(cofs, g + 1 << shift, start) - start  # small(h) = g: g^2 divides g * h
            before = len(made)
            made.update(zip(slots[:k], repeat(g << shift | flag)))
            keys = map(add, map(and_, cofs[start + k :], repeat(low)), repeat((g << shift) + base ** (d - 1)))
            made.update(zip(slots[k:], keys))
            if len(made) - before != len(slots):
                raise ArithmeticError(f"the sieve over F_{p} reached a degree-{m} product twice")
            batch[at : at + len(data)] = data
            at += len(data)
        mons = _slots(odo.to_bytes(8 * p**m, "little"))
        irr.append(list(filterfalse(made.__contains__, mons)))
        if len(mons) - len(irr[m]) != len(made):
            raise ArithmeticError(f"the sieve over F_{p} made a degree-{m} product outside the monics")
        made.update([(f, f << shift | base ** (m - 1)) for f in irr[m]])
        codes.append(list(made.values()))
        del made, mons  # the codes replace them
        batch[at:] = b"".join(map(int.to_bytes, irr[m], repeat(8), repeat("little")))
        tables.append([0, h := int.from_bytes(batch, "little")])
        del batch
        for v in range(2, p):
            s = tables[m][v - 1] + h
            tables[m].append(s - p * (((s + lifts[m]) >> (b - 1)) & ones[m]))
    del odo
    seen, products = bytearray(1 << (b - 1) * n), 0  # the top degree only marks its products
    for d, g, start, data in batches(n, _index_masks(b, n, units[n - 1]) if n else None):
        for i in _slots(data):
            seen[i] = 1
        products += len(data) // 8
    if seen.count(1) != products:
        raise ArithmeticError(f"the sieve over F_{p} reached a degree-{n} product twice")
    irreducibles = [len(f) for f in irr] + [p**n - products]
    tallies = [Counter({0: 1})]
    for m in range(1, n + 1):
        tally = Counter({base ** (m - 1): irreducibles[m]})
        for d in range(1, m // 2 + 1):
            # a square-free h is the cofactor of one square-free product per g < small(h),
            # so of w of them for the h from ends[w - 1] to ends[w]
            cofs = codes[m - d]
            ends = [bisect_left(cofs, g + 1 << shift) for g in irr[d]] + [len(cofs)]
            for w in range(1, len(ends)):
                for key, c in Counter(map(and_, cofs[ends[w - 1] : ends[w]], repeat(low))).items():
                    if key < flag:
                        tally[key + base ** (d - 1)] += w * c
        tallies.append(tally)
    return tallies


def check_bruteforce(p: int, n: int) -> None:
    """Refuse brute force over F_p up to degree n unless p is prime, n >= 0
    and p^n <= GUARD."""
    if not is_prime(p):
        raise ValueError(f"q = {p} is not prime; brute force runs over prime fields only")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n >= GUARD.bit_length() or p**n > GUARD:
        raise ValueError(f"brute force at q={p}, n={n} exceeds the guard {GUARD}; lower --max-n")


def bruteforce_census(p: int, n: int) -> list[list[tuple[tuple[int, ...], int]]]:
    """rows[m], m <= n: the cycle types of the monic square-free degree-m
    polynomials over F_p, by their irreducible factor degrees, each with
    the number of polynomials of that type; all from one sieve."""
    check_bruteforce(p, n)
    return [
        [(cycle_type(key // (n + 1) ** k % (n + 1) for k in range(m)), cnt)
         for key, cnt in tally.items()]
        for m, tally in enumerate(_sieve(p, n))
    ]


# ---------------------------------------------------------------------------
# limits as n grows


def _zeta_ratio(zn: Sequence[int], zd: Sequence[int]) -> tuple[list[int], list[int]]:
    """(A, B) with Z(t)/Z(t^2) = A/B for Z = zn/zd: A = zn(t) zd(t^2) and
    B = zd(t) zn(t^2)."""
    zn2 = [0] * (2 * len(zn) - 1)
    zn2[::2] = zn
    zd2 = [0] * (2 * len(zd) - 1)
    zd2[::2] = zd
    return poly_mul(zn, zd2), poly_mul(zd, zn2)


def _at_inverse(p: list[int], c: int) -> int:
    """c^(len(p) - 1) p(1/c), by Horner's rule from the constant term."""
    acc = 0
    for a in p:
        acc = acc * c + a
    return acc


def _lowest(num: int, den: int) -> tuple[int, int]:
    """num / den as (p, q) in lowest terms with q > 0."""
    g = math.gcd(num, den) * (1 if den > 0 else -1)
    return num // g, den // g


def limits(v: PointCountData, p: CharPoly) -> tuple[tuple[int, int], tuple[int, int]]:
    """(normalized, expectation) in lowest terms, each as (numerator,
    positive denominator): the limit of q^(-n d) times the p-weighted count
    on Conf_n V(F_q), and the limiting mean of p over its points.

    The counts are the Taylor coefficients of Z(V,t)/Z(V,t^2) times
    _weight_factor(p, M).  The expectation is that factor at t = 1/c,
    c = q^d, sum_lam c_lam binom(M, lam) / prod_k (1 + c^k)^lam_k, read from
    the closed-point counts alone.  The ratio has a simple pole at 1/c,
    where the factor is regular, so the normalized limit is its residue
    (1 - c t) Z(V,t)/Z(V,t^2) at 1/c times the expectation.  Factors
    1 - c t common to the ratio's numerator and denominator are divided out
    first; a denominator that still vanishes there is a pole of order >= 2,
    and a numerator that does leaves no pole: then d does not match Z.
    Each polynomial f is evaluated at 1/c on integers, as c^deg(f) f(1/c).
    """
    if v.zeta is None:
        raise ValueError("limits need the zeta function as a rational function")
    c = v.q**v.dim
    num, den = _zeta_ratio(*v.zeta)
    fc = [1, -c]
    num = poly_mul(num, fc)
    while (qn := _exact_quotient(num, fc)) is not None and (qd := _exact_quotient(den, fc)) is not None:
        num, den = qn, qd
    if _exact_quotient(den, fc) is not None:
        raise ValueError(f"pole of order >= 2 at t = {ratio(1, c)}")
    # the closed-point counts report bad variety data before a missing pole
    mk = closed_point_counts(v, max([0] + [len(lam) for lam, _ in p.items()]))
    w_num, D, d = _weight_factor(p, mk)
    e_num = _at_inverse(w_num, c) * c ** (len(D) - 1)
    e_den = _at_inverse(D, c) * c ** (len(w_num) - 1) * d
    residue = _at_inverse(num, c)
    if residue == 0:
        raise ValueError(f"Z(V,t)/Z(V,t^2) has no pole at t = {ratio(1, c)}: "
                         f"dim = {v.dim} does not match the zeta function")
    normalized = _lowest(residue * c ** (len(den) - 1) * e_num, _at_inverse(den, c) * c ** (len(num) - 1) * e_den)
    return normalized, _lowest(e_num, e_den)
