"""An enumeration oracle for the weighted counts of a real curve.

E: y^2 = x^3 + x + 1 over F_5, with its point at infinity.  F_(5^k) is
built as F_5[t] / (f), for the first monic f of degree k in which t has
order 5^k - 1: then the powers of t are every nonzero element, so the ring
is a field, and a product is a sum of discrete logarithms.  The points of
E(F_(5^k)) fall into orbits of the Frobenius (x, y) -> (x^5, y^5); those of
size k are the closed points of degree k, and there are M_k of them.

A configuration of n distinct points of E over the algebraic closure that
Frobenius permutes is a set of distinct closed points of total degree n,
and its Frobenius cycle type has one k-cycle per closed point of degree k.
The sets are enumerated, tallied by type, and the p-weighted count of
Conf_n E(F_5) is the sum of p over them.  Hasse-Weil gives the zeta
function from #E(F_5) alone: Z(E, t) = (1 - a t + 5 t^2) / ((1 - t)(1 - 5t))
with a = 5 + 1 - #E(F_5).  Nothing here reads a series: the library's
point counts (Newton's identity on Z), closed-point counts and weighted
count series (a Taylor recurrence) are checked against enumeration only.
"""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from betticount.chars import parse_rep
from betticount.conf_counts import count_values
from betticount.zeta import PointCountData, closed_point_counts

from helpers import evaluate

P = 5
N_MAX = 4  # closed points of degree <= 4: F_(5^4) has 625 elements
R6 = "*".join(["(X1+X2+X3+X4+X5+X6+1)"] * 6)


def _field(k):
    """The list exp of t^i, i < 5^k - 1, as coefficient tuples (constant
    first) in F_5[t] / (f), for the first monic f of degree k, in
    lexicographic order of its lower coefficients, in which t has order
    5^k - 1."""
    for low in product(range(P), repeat=k):  # f = t^k + sum_i low[i] t^i
        if low[0] == 0:
            continue  # t divides f: t is no unit
        exp = [(1,) + (0,) * (k - 1)]
        while True:
            x = exp[-1]  # times t: shift up, then t^k = -sum_i low[i] t^i
            x = tuple((c - x[-1] * f) % P for c, f in zip((0,) + x[:-1], low))
            if x == exp[0]:
                break
            exp.append(x)
        if len(exp) == P**k - 1:
            return exp
    raise AssertionError(f"no monic f of degree {k} has t of order {P}^{k} - 1")


def _curve(k):
    """(#E(F_(5^k)), the number of closed points of degree k)."""
    exp = _field(k)
    log = {x: i for i, x in enumerate(exp)}
    zero, one = (0,) * k, exp[0]

    def power(x, e):
        return zero if x == zero else exp[log[x] * e % len(exp)]

    roots = {}
    for y in [zero, *exp]:
        roots.setdefault(power(y, 2), []).append(y)
    points = [None]  # the point at infinity
    for x in [zero, *exp]:
        rhs = tuple(sum(c) % P for c in zip(power(x, 3), x, one))
        points += [(x, y) for y in roots.get(rhs, [])]

    def frobenius(pt):
        return pt and (power(pt[0], P), power(pt[1], P))

    seen, degree_k = set(), 0
    for pt in points:
        if pt not in seen:
            orbit = [pt]
            while (image := frobenius(orbit[-1])) != pt:
                orbit.append(image)
            seen.update(orbit)
            degree_k += len(orbit) == k
    return len(points), degree_k


def _tallies(closed, n_max):
    """tallies[n]: the sets of distinct closed points of total degree n,
    counted by Frobenius cycle type, for closed[d - 1] closed points of
    degree d."""
    points = [d for d, m in enumerate(closed, start=1) for _ in range(m)]  # by degree
    tallies = [Counter() for _ in range(n_max + 1)]
    mu = [0] * n_max

    def extend(start, total):
        tallies[total][tuple(mu)] += 1
        for i in range(start, len(points)):
            d = points[i]
            if total + d > n_max:
                break
            mu[d - 1] += 1
            extend(i + 1, total + d)
            mu[d - 1] -= 1

    extend(0, 0)
    return tallies


@pytest.fixture(scope="module")
def curve():
    counts, closed = zip(*(_curve(k) for k in range(1, N_MAX + 1)))
    a = P + 1 - counts[0]
    v = PointCountData(q=P, dim=1, zeta=((1, -a, P), (1, -(P + 1), P)))
    return v, list(counts), list(closed)


def test_the_curve_is_the_one_with_nine_points(curve):
    v, counts, closed = curve
    assert counts[0] == 9
    assert v.zeta == ((1, 3, 5), (1, -6, 5))


def test_point_counts_match_enumeration(curve):
    v, counts, _ = curve
    assert list(v.point_series(N_MAX)) == counts


def test_closed_point_counts_match_frobenius_orbits(curve):
    v, _, closed = curve
    assert closed_point_counts(v, N_MAX) == closed


@pytest.mark.parametrize("rep", ["1", "V1", "V11", "V2", R6], ids=["1", "V1", "V11", "V2", "R6"])
def test_weighted_counts_match_enumerated_configurations(curve, rep):
    v, _, closed = curve
    p = parse_rep(rep)
    values, d = count_values(v, p, N_MAX)
    expected = [sum((m * evaluate(p, mu) for mu, m in tally.items()), Fraction(0))
                for tally in _tallies(closed, N_MAX)]
    assert [Fraction(c, d) for c in values] == expected
