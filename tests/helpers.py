"""Reference helpers shared by the tests: a scalar binomial, truncated
univariate series products and reciprocals over Fractions, a sequence
continued by a recurrence, a side's stable values as Fractions, the
Grothendieck-Lefschetz check of one (q, n), and the reference paths over
Fractions: a character polynomial as a dict of Fraction coefficients with
its own sum, product and text, its value on a cycle type, the partition
and brute-force sums of weighted counts, the torus count series and the
conf difference series.  The package's kernels work on integers over one
denominator and do not use them, so they stay independent references."""

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import zip_longest

from betticount import conf_betti, conf_counts, tori
from betticount.chars import CharPoly, centralizer_order, cycle_type, weight
from betticount.series import taylor_coeffs


def as_fractions(nums: Sequence[int], den: int) -> list[Fraction]:
    """The values num / den, for integers over one denominator."""
    return [Fraction(x, den) for x in nums]


def coefficients(p: CharPoly) -> dict[tuple[int, ...], Fraction]:
    """p's coefficient of each C(X, lam), as Fractions."""
    return {lam: Fraction(m, p.den) for lam, m in p.items()}


def degree(p: CharPoly) -> int:
    """The largest degree |lam| of the terms of a nonzero p."""
    return max(weight(lam) for lam, _ in p.items())


def betti_rows(side, p: CharPoly, max_i: int, max_n: int) -> list[list[Fraction]]:
    """side.betti_table(p, max_i, max_n) as rows[i][n] of Fractions, the
    cells beyond the support i <= top(n) read as zero."""
    cells, den = side.betti_table(p, max_i, max_n)
    rows = [[Fraction(0)] * (max_n + 1) for _ in range(max_i + 1)]
    for i, n, c in cells:
        rows[i][n] = Fraction(c, den)
    return rows


def evaluate(p: CharPoly, mu: tuple[int, ...]) -> Fraction:
    """p(mu) = sum_lam c_lam prod_k C(mu_k, lam_k), over Fractions."""
    return sum((c * math.prod(math.comb(a, lk) for a, lk in zip_longest(mu, lam, fillvalue=0))
                for lam, c in coefficients(p).items()), Fraction(0))


# ---------------------------------------------------------------------------
# a character polynomial as {lam: Fraction}, zero coefficients dropped


def ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for lam, c in b.items():
        out[lam] = out.get(lam, Fraction(0)) + sign * c
    return {lam: c for lam, c in out.items() if c}


def _product_weight(a: int, b: int, c: int) -> int:
    """The coefficient of C(x, c) in C(x, a) C(x, b): the c-th finite
    difference at 0, sum_j (-1)^(c-j) C(c, j) C(j, a) C(j, b)."""
    return sum((-1) ** (c - j) * math.comb(c, j) * math.comb(j, a) * math.comb(j, b)
               for j in range(c + 1))


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for l1, c1 in a.items():
        for l2, c2 in b.items():
            terms = [((), c1 * c2)]
            for x, y in zip_longest(l1, l2, fillvalue=0):
                terms = [(ent + (c,), w * _product_weight(x, y, c))
                         for ent, w in terms for c in range(x + y + 1)]
            for ent, w in terms:
                if w:
                    lam = cycle_type(ent)
                    out[lam] = out.get(lam, Fraction(0)) + w
    return {lam: c for lam, c in out.items() if c}


def ref_str(d: dict) -> str:
    """The text of {lam: Fraction} in the CLI grammar: terms by degree and
    then by lam, X_k for C(X_k, 1), a coefficient 1 or -1 left out."""
    chunks = []
    for lam, coeff in sorted(d.items(), key=lambda kv: (weight(kv[0]), kv[0])):
        factors = [f"X{k}" if lk == 1 else f"C(X{k},{lk})"
                   for k, lk in enumerate(lam, start=1) if lk]
        if factors and abs(coeff) == 1:
            chunks.append(("-" if coeff < 0 else "") + "*".join(factors))
        else:
            chunks.append("*".join([str(coeff), *factors]))
    if not chunks:
        return "0"
    return chunks[0] + "".join(f" - {t[1:]}" if t.startswith("-") else f" + {t}" for t in chunks[1:])


# ---------------------------------------------------------------------------
# reference paths of the weighted counts


def partition_weighted_count(v, p: CharPoly, n: int) -> Fraction:
    """The p-weighted count of Conf_n V(F_q): sum over the rows (mu, N_mu)
    of conf_counts.count_oracle at n of N_mu p(mu)."""
    return sum((cnt * evaluate(p, mu) for mu, cnt in conf_counts.count_oracle(v, n)[n]), Fraction(0))


def bruteforce_weighted_count(p: int, n: int, rep: CharPoly) -> Fraction:
    """Sum of rep over all monic square-free degree-n polynomials over F_p,
    each weighted by the cycle type of its factor degrees."""
    return sum((cnt * evaluate(rep, ct) for ct, cnt in conf_counts.bruteforce_census(p, n)[n]),
               Fraction(0))


def tori_partition_weighted_count(p: CharPoly, q: int, n: int) -> Fraction:
    """sum over the rows (mu, N_mu) of tori.count_oracle at n of N_mu p(mu),
    N_mu the number of tori whose Frobenius permutation has cycle type mu."""
    return sum((cnt * evaluate(p, mu) for mu, cnt in tori.count_oracle(q, n)[n]), Fraction(0))


def weighted_series(lam: tuple[int, ...], q: int, n_max: int) -> list[Fraction]:
    """Coefficients c_0..c_{n_max} of the torus-count generating function:
    c_n * |GL_n(F_q)| is the sum of C(X, lam) over the Frobenius cycle types
    of all maximal tori of GL_n(F_q).

    Expanded from (1/z_lam) prod_k (t^k/(q^k - 1))^lam_k times
    prod_{i>=1} 1/(1 - q^(-i) t), whose t^m coefficient is
    q^(-m) / prod_{j=1..m} (1 - q^(-j)).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    w = weight(lam)
    scale = Fraction(1, centralizer_order(lam))
    for k, lk in enumerate(lam, start=1):
        scale /= (q**k - 1) ** lk
    out = [Fraction(0)] * (n_max + 1)
    tail = Fraction(1)  # q^(-m) / prod_{j<=m} (1 - q^(-j)) at m = 0
    for m in range(0, n_max - w + 1):
        if m:
            tail *= Fraction(1, q) / (1 - Fraction(1, q**m))
        out[w + m] = scale * tail
    return out


def difference_series(lam: tuple[int, ...], max_i: int, t_order: int) -> dict[tuple[int, int], Fraction]:
    """(1 - t) times the conf Betti generating series for C(X, lam), as its
    nonzero terms {(i, n): c} with i <= max_i and n <= t_order.

    The coefficient c is (-1)^i (alpha_i(n) - alpha_i(n-1)), so every term
    satisfies the slope bound n - i <= weight + 1, which is what makes the
    stability range explicit.
    """
    den = centralizer_order(lam)
    cols = conf_betti._difference_columns([(lam, 1)], max_i, t_order)
    return {(i, n): Fraction(c, den) for n, col in enumerate(cols) for i, c in enumerate(col) if c}


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


def extend_by_recurrence(D: Sequence[int], prefix: Sequence[Fraction], upto: int) -> list[Fraction]:
    """prefix continued through index upto by a_i = -sum_(k>=1) D_k a_(i-k),
    the recurrence of num / (d D) for an integer list D with D(0) = 1,
    reading indices below zero as zero.  The Taylor coefficients of num /
    (d D) satisfy it from i = len(num) on: continuing their first len(num)
    to their length gives them back."""
    out = [Fraction(v) for v in prefix]
    for i in range(len(out), upto + 1):
        out.append(-sum((D[k] * out[i - k] for k in range(1, min(i, len(D) - 1) + 1)), Fraction(0)))
    return out


def stable_values(side, p: CharPoly, order: int) -> list[Fraction]:
    """The stable values b_0, ..., b_order of p on side (a betti.Side) as
    Fractions, read from the package's triple (num, D, d) by taylor_coeffs."""
    num, D, d = side.stable_series(p)
    return as_fractions(taylor_coeffs(num, D, order), d)


def gl_crosscheck(side, p, q: int, n: int) -> tuple[Fraction, Fraction]:
    """The GL check (lhs, rhs) of p at one (q, n) on side (a betti.Side),
    each side as a Fraction: lhs sums N_mu p(mu) over side.count_oracle
    here, rhs is side.gl_sums."""
    lhs = sum((cnt * evaluate(p, mu) for mu, cnt in side.count_oracle(q, n)[n]), Fraction(0))
    return lhs, Fraction(*side.gl_sums(p, [q], n)[q, n])
