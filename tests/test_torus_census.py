"""A brute-force census of the maximal tori of GL_n over F_q, q prime.

A maximal torus T of GL_n defined over F_q is the unit group of a maximal
commutative semisimple subalgebra A = F_(q^k_1) x ... x F_(q^k_r) of
M_n(F_q).  The idempotents of A split F_q^n = W_1 + ... + W_r into blocks
of dimension k_i, and A is the product of one degree-k_i subfield of
End(W_i) per block; the Frobenius cycle type of T is the partition mu of n
into the k_i.  So the number of tori of type mu is

    N_mu = D_mu prod_k c_k^(mu_k),

for D_mu the number of unordered direct decompositions of F_q^n into mu_k
blocks of dimension k, for every k, and c_k the number of degree-k
subfields of M_k(F_q): the distinct algebras F_q[h] over the h in M_k(F_q)
whose characteristic polynomial is irreducible.  Both are found here by
enumeration, of subspaces and of matrices, and compared with
tori.count_oracle, which divides |GL_n(F_q)| by z_mu prod_k (q^k - 1)^(mu_k),
and with Steinberg's count q^(n(n-1)) of all the tori.

A torus need not be F_q[g]^x for a regular semisimple g: a split torus of
GL_3(F_2) has no element with 3 distinct eigenvalues, and the tori of that
form are only 36 of the 64 at (n, q) = (3, 2).
"""

import math
from functools import cache
from itertools import product

import pytest

from betticount.chars import active, partitions
from betticount.tori import count_oracle

# q^(n^2) <= 3^9: the scan over M_3(F_3) sets the module's time
CASES = [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3)]


def _add(u, v, a, q):
    """u + a v over F_q, for vectors as tuples."""
    return tuple((x + a * y) % q for x, y in zip(u, v))


@cache
def subspaces(n: int, q: int) -> list[list[frozenset]]:
    """[the subspaces of F_q^n of dimension d for d = 0..n], each the
    frozenset of its vectors: a subspace of dimension d is W + F_q v for a W
    of dimension d - 1 and a vector v outside it."""
    vectors = list(product(range(q), repeat=n))
    out = [{frozenset([(0,) * n])}]
    for _ in range(n):
        out.append({frozenset(_add(w, v, a, q) for w in W for a in range(q))
                    for W in out[-1] for v in vectors if v not in W})
    return [list(spaces) for spaces in out]


def decompositions(parts: tuple[int, ...], n: int, q: int) -> int:
    """D_mu for mu with the given parts (descending): the unordered
    decompositions of F_q^n into a direct sum of subspaces of those
    dimensions.  The ordered ones are counted and then divided by prod_k
    mu_k!, as the blocks of one dimension are distinct subspaces."""
    spaces = subspaces(n, q)

    def ordered(rest: tuple[int, ...], total: frozenset) -> int:
        # total is the sum so far; W is direct to it when |total + W| = |total| |W|,
        # and once the dimensions reach n the direct sum is all of F_q^n
        if not rest:
            return 1
        count = 0
        for W in spaces[rest[0]]:
            grown = {_add(s, w, 1, q) for s in total for w in W}
            if len(grown) == len(total) * len(W):
                count += ordered(rest[1:], frozenset(grown))
        return count

    count, rem = divmod(ordered(parts, spaces[0][0]),
                        math.prod(math.factorial(parts.count(k)) for k in set(parts)))
    assert rem == 0
    return count


def _invertible(m: list[list[int]], p: int) -> bool:
    """Whether the square matrix m (a list of rows) is invertible over
    F_p, by Gaussian elimination."""
    m = [row[:] for row in m]
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c] % p), None)
        if pivot is None:
            return False
        m[c], m[pivot] = m[pivot], m[c]
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, len(m)):
            f = m[r][c] * inv % p
            m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return True


def _mul(a: tuple, b: tuple, k: int, q: int) -> tuple:
    """The product of two k x k matrices over F_q, each a flat row-major tuple."""
    return tuple(sum(a[i * k + j] * b[j * k + c] for j in range(k)) % q
                 for i in range(k) for c in range(k))


@cache
def subfields(k: int, q: int) -> int:
    """c_k: the distinct algebras F_q[h] over the h in M_k(F_q) whose
    characteristic polynomial is irreducible.  For k = 2, 3 that is an h
    with no eigenvalue in F_q, so h - a is invertible for every a in F_q;
    every polynomial of degree 1 is irreducible.  Each F_q[h] is a field of
    q^k elements, the span of 1, h, ..., h^(k-1), and each of its elements
    with an irreducible characteristic polynomial generates it: a field is
    counted at its first generator, and its elements are skipped after."""
    assert k <= 3  # at degree 4 a product of two irreducible quadratics has no root
    one = tuple(int(i == j) for i in range(k) for j in range(k))
    seen, count = set(), 0
    for h in product(range(q), repeat=k * k):
        if h in seen:
            continue
        if k > 1 and not all(
            _invertible([[h[i * k + j] - a * one[i * k + j] for j in range(k)] for i in range(k)], q)
            for a in range(q)
        ):
            continue
        count += 1
        powers = [one]
        for _ in range(k - 1):
            powers.append(_mul(powers[-1], h, k, q))
        for coeffs in product(range(q), repeat=k):
            seen.add(tuple(sum(c * x for c, x in zip(coeffs, col)) % q for col in zip(*powers)))
    return count


@pytest.mark.parametrize("n, q", CASES, ids=[f"n{n}-q{q}" for n, q in CASES])
def test_census_of_maximal_tori_matches_the_count_oracle(n, q):
    census = {}
    for mu in partitions(n):
        parts = tuple(k for k, a in reversed(active(mu)) for _ in range(a))
        count = decompositions(parts, n, q)
        for k, a in active(mu):
            count *= subfields(k, q) ** a
        census[mu] = count
    assert census == dict(count_oracle(q, n)[n])
    assert sum(census.values()) == q ** (n * (n - 1))

