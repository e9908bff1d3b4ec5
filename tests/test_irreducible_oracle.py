"""An oracle from the irreducible characters of S_n.

For a partition lam, V(lam)[n] is the irreducible representation of S_n
of shape (n - |lam|, lam_1, lam_2, ...), defined for n >= |lam| + lam_1.
Its character is one polynomial P_lam in the cycle counts X_1, X_2, ...
for every such n.  Here chi^nu(mu) comes from the Murnaghan-Nakayama rule
on beta-numbers, and P_lam in the binomial basis C(X, nu), |nu| <= |lam|,
is solved for exactly at n = max(2|lam|, |lam| + lam_1): the polynomial
takes X_k, k <= |lam|, only, and cycles longer than |lam| let X_1 take
enough values at that n to fix every coefficient.

Nothing here uses the package's kernels or its builtin reps, so the
tables of the genuine representations P_lam give an independent check:
their Betti numbers are multiplicities, nonnegative integers.
"""

import math
from fractions import Fraction

import pytest

from betticount import conf_betti, tori
from betticount.chars import CharPoly, cycle_type, parse_rep
from betticount.series import taylor_coeffs

MAX_WEIGHT = 6
GRID = 11  # the tables are 12 x 12
STABLE_I = 20


def partitions_of(n, largest=None):
    """The partitions of n as nonincreasing tuples."""
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    return [(k, *rest) for k in range(min(n, largest), 0, -1) for rest in partitions_of(n - k, k)]


def multiplicities(parts, length):
    """(m_1, ..., m_length): m_k the number of parts equal to k."""
    return tuple(parts.count(k) for k in range(1, length + 1))


def character(shape, mu):
    """chi^shape(mu) by Murnaghan-Nakayama: removing a rim hook of length r
    moves one bead of the beta-set from b to b - r onto a free place, with
    the sign (-1)^(beads strictly between)."""
    beta = frozenset(part + len(shape) - 1 - j for j, part in enumerate(shape))
    memo = {}

    def chi(beads, k):
        if k == len(mu):
            return 1
        if (beads, k) not in memo:
            r, total = mu[k], 0
            for b in beads:
                if b >= r and b - r not in beads:
                    sign = (-1) ** sum(b - r < c < b for c in beads)
                    total += sign * chi(beads - {b} | {b - r}, k + 1)
            memo[beads, k] = total
        return memo[beads, k]

    return chi(beta, 0)


def character_polynomial(lam):
    """{nu: c_nu} with P_lam = sum c_nu C(X, nu), nu a tuple of
    multiplicities of weight <= |lam|, solved by exact elimination over all
    cycle types of n = max(2|lam|, |lam| + lam_1)."""
    d = sum(lam)
    n = max(2 * d, d + (lam[0] if lam else 0))
    shape = (n - d, *lam)
    basis = [multiplicities(nu, d) for w in range(d + 1) for nu in partitions_of(w)]
    rows = []
    for mu in partitions_of(n):
        m = multiplicities(mu, d)
        rows.append([Fraction(math.prod(map(math.comb, m, nu))) for nu in basis]
                    + [Fraction(character(shape, mu))])
    rank = 0
    for col in range(len(basis)):
        pivot = next(r for r in range(rank, len(rows)) if rows[r][col])  # full column rank
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    assert all(row[-1] == 0 for row in rows[rank:]), "inconsistent character values"
    return {nu: rows[j][-1] for j, nu in enumerate(basis) if rows[j][-1]}


def as_charpoly(coeffs):
    return CharPoly({cycle_type(nu): c for nu, c in coeffs.items()})


LAMBDAS = [lam for w in range(MAX_WEIGHT + 1) for lam in partitions_of(w)]


def test_the_sweep_holds_every_lambda_of_weight_at_most_six():
    # 29 nonempty ones and the empty one
    assert len(LAMBDAS) == 30


def test_murnaghan_nakayama_matches_known_values():
    # the sign character, the standard character and the column sums
    assert [character((1, 1, 1), mu) for mu in partitions_of(3)] == [1, -1, 1]
    assert [character((3, 1), mu) for mu in partitions_of(4)] == [-1, 0, -1, 1, 3]
    for n in range(1, 7):
        dims = [character(shape, (1,) * n) for shape in partitions_of(n)]
        assert sum(x * x for x in dims) == math.factorial(n)


@pytest.mark.parametrize("lam, rep", [((), "1"), ((1,), "V1"), ((1, 1), "V11"), ((2,), "V2")])
def test_small_character_polynomials_are_the_builtins(lam, rep):
    assert as_charpoly(character_polynomial(lam)) == parse_rep(rep)


@pytest.mark.parametrize("lam", LAMBDAS, ids=lambda lam: ",".join(map(str, lam)) or "empty")
@pytest.mark.parametrize("side", [conf_betti.SIDE, tori.SIDE], ids=["conf", "tori"])
def test_genuine_representations_have_nonnegative_integral_betti_numbers(side, lam):
    p = as_charpoly(character_polynomial(lam))
    n_min = sum(lam) + (lam[0] if lam else 0)
    cells, den = side.betti_table(p, GRID, GRID)
    for i, n, c in cells:
        if n >= n_min:
            assert c % den == 0 and c >= 0, (i, n, Fraction(c, den))
    num, D, d = side.stable_series(p)
    for i, c in enumerate(taylor_coeffs(num, D, STABLE_I)):
        assert c % d == 0 and c >= 0, (i, Fraction(c, d))
