import time
from fractions import Fraction as F

import pytest

from betticount import tori
from betticount.chars import (
    CharPoly,
    active,
    centralizer_order,
    cycle_type,
    parse_rep,
    partitions,
    weight,
)
from betticount.tori import (
    SIDE,
    count_oracle,
    gl_order,
)

from helpers import (
    betti_rows,
    coefficients,
    extend_by_recurrence,
    gl_crosscheck,
    stable_values,
    truncated_mul,
    weighted_series,
)
from helpers import tori_partition_weighted_count as partition_weighted_count
from test_conf_betti import MIXED_REP

X1 = CharPoly.variable(1)
X2 = CharPoly.binom(cycle_type((0, 1)))
ONE = CharPoly({(): 1})

LAMBDA_SWEEP_4 = [
    cycle_type(tuple(e))
    for e in [(), (1,), (2,), (3,), (4,), (0, 1), (1, 1), (2, 1), (0, 2), (0, 0, 1), (1, 0, 1), (0, 0, 0, 1)]
]


# ---------------------------------------------------------------------------
# group orders and weighted counts


def test_gl_order_values():
    assert gl_order(0, 5) == 1
    assert gl_order(1, 3) == 2
    assert gl_order(2, 2) == 6
    assert gl_order(3, 2) == 168


def test_centralizer_order_of_lambda():
    assert centralizer_order(cycle_type(())) == 1
    assert centralizer_order(cycle_type((2,))) == 2
    assert centralizer_order(cycle_type((1, 1))) == 2
    assert centralizer_order(cycle_type((0, 3))) == 48


@pytest.mark.parametrize("q", [2, 3, 5])
def test_total_tori_count_is_steinberg(q):
    series = weighted_series(cycle_type(()), q, 2)
    assert series[2] * gl_order(2, q) == q**2


def test_weighted_series_linear_weight():
    series = weighted_series(cycle_type((1,)), 3, 2)
    assert series[2] * gl_order(2, 3) == 12
    assert series[0] == 0


def test_split_and_nonsplit_counts_n2():
    for q in (2, 3, 5, 7):
        counts = dict(count_oracle(q, 2)[2])
        assert counts[cycle_type((2,))] == q * (q + 1) // 2
        assert counts[cycle_type((0, 1))] == q * (q - 1) // 2


def test_partition_count_n3_q2():
    # 168/6 + 168/6 + 168/21 = 28 + 28 + 8 = 64 = 2^6
    counts = dict(count_oracle(2, 3)[3])
    assert counts[cycle_type((3,))] == 28
    assert counts[cycle_type((1, 1))] == 28
    assert counts[cycle_type((0, 0, 1))] == 8
    assert partition_weighted_count(ONE, 2, 3) == 64


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_count_oracle_matches_the_count_by_type(q):
    # |GL_n(F_q)| / (z_mu prod_k (q^k - 1)^(mu_k)), one Fraction per type
    oracle = count_oracle(q, 12)
    assert len(oracle) == 13
    for n, row in enumerate(oracle):
        assert [mu for mu, _ in row] == list(partitions(n))
        for mu, count in row:
            den = centralizer_order(mu)
            for k, a in active(mu):
                den *= (q**k - 1) ** a
            assert count == F(gl_order(n, q), den), (q, mu)


def test_count_oracle_refuses_a_count_that_is_not_an_integer(monkeypatch):
    monkeypatch.setattr(tori, "_torus_denominator", lambda mu, q: 7)
    with pytest.raises(ArithmeticError, match=r"non-integral torus count 1/7 at \(\)"):
        count_oracle(2, 3)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_steinberg_through_n7(q):
    for n in range(8):
        assert partition_weighted_count(ONE, q, n) == q ** (n * (n - 1))


def test_partition_count_linear_weight():
    assert partition_weighted_count(X1, 3, 2) == 12


@pytest.mark.parametrize("q", [2, 3, 5])
def test_two_paths_agree(q):
    for lam in LAMBDA_SWEEP_4:
        series = weighted_series(lam, q, 8)
        rep = CharPoly.binom(lam)
        for n in range(9):
            assert series[n] * gl_order(n, q) == partition_weighted_count(
                rep, q, n
            ), (q, lam, n)


# ---------------------------------------------------------------------------
# the double generating series


def euler_inverse_qfactorial(n, max_i):
    """1/((1-z)(1-z^2)...(1-z^n)) truncated at z^max_i, independently."""
    out = [F(1)] + [F(0)] * max_i
    for j in range(1, n + 1):
        # divide by (1 - z^j): prefix-sum with stride j
        for e in range(j, max_i + 1):
            out[e] += out[e - j]
    return out


def qfactorial(n, max_i):
    """(1-z)(1-z^2)...(1-z^n) truncated at z^max_i."""
    out = [F(1)] + [F(0)] * max_i
    for j in range(1, n + 1):
        out = truncated_mul(out, [F(1)] + [F(0)] * (j - 1) + [F(-1)], max_i)
    return out


def product_gf_coeff(p, n, max_i):
    """The t^n coefficient, truncated at z^max_i, of the double generating
    function sum_lam c_lam (1/z_lam) t^w prod_k (1 - z^k)^(-lam_k)
    prod_{j>=0} 1/(1 - t z^j), expanded factor by factor."""
    # rows[m][e]: coefficient of t^m z^e in prod_{j=0..max_i} 1/(1 - t z^j)
    rows = [[F(1)] + [F(0)] * max_i] + [[F(0)] * (max_i + 1) for _ in range(n)]
    for j in range(max_i + 1):
        for m in range(1, n + 1):
            for e in range(j, max_i + 1):
                rows[m][e] += rows[m - 1][e - j]
    out = [F(0)] * (max_i + 1)
    for lam, coeff in coefficients(p).items():
        if weight(lam) > n:
            continue
        col = rows[n - weight(lam)]
        for k, lk in active(lam):
            geometric = [F(1) if e % k == 0 else F(0) for e in range(max_i + 1)]
            for _ in range(lk):
                col = truncated_mul(col, geometric, max_i)
        for e in range(max_i + 1):
            out[e] += coeff * col[e] / centralizer_order(lam)
    return out


def test_trivial_weight_is_euler_identity():
    table = betti_rows(SIDE, ONE, 8, 8)
    for n in range(9):
        euler = euler_inverse_qfactorial(n, 8)
        assert product_gf_coeff(ONE, n, 8) == euler
        # the kernel's row over (z;z)_n is the same t^n coefficient
        row = [table[i][n] for i in range(9)]
        assert truncated_mul(row, euler, 8) == euler


def test_t0_coefficient():
    assert [betti_rows(SIDE, ONE, 4, 4)[i][0] for i in range(5)] == [1, 0, 0, 0, 0]
    assert all(betti_rows(SIDE, X1, 4, 4)[i][0] == 0 for i in range(5))


def test_linear_weight_normalizes_to_geometric_sums():
    # (z;z)_n [t^n] of the lam = (1) series is 1 + z + ... + z^(n-1)
    for n in range(1, 7):
        product = truncated_mul(product_gf_coeff(X1, n, 5), qfactorial(n, 5), 5)
        assert product == [F(1) if e < n else F(0) for e in range(6)]


@pytest.mark.parametrize(
    "rep",
    [CharPoly.binom(lam) for lam in LAMBDA_SWEEP_4] + [parse_rep("V11"), parse_rep(MIXED_REP)],
)
def test_kernel_matches_product_expansion(rep):
    # beta(n) = (z;z)_n * [t^n] of the double generating function; the
    # q-factorial has nonnegative exponents, so truncating at z^max_i is exact
    max_i, max_n = 7, 7
    table = betti_rows(SIDE, rep, max_i, max_n)
    for n in range(max_n + 1):
        expected = truncated_mul(product_gf_coeff(rep, n, max_i), qfactorial(n, max_i), max_i)
        assert [table[i][n] for i in range(max_i + 1)] == expected, n


# ---------------------------------------------------------------------------
# Betti tables


def test_trivial_rep_rows():
    table = betti_rows(SIDE, ONE, 6, 10)
    for n in range(11):
        for i in range(7):
            assert table[i][n] == (1 if i == 0 else 0)


def test_standard_variable_rows():
    table = betti_rows(SIDE, X1, 9, 10)
    for n in range(11):
        for i in range(10):
            assert table[i][n] == (1 if 0 <= i <= n - 1 else 0)


def test_x2_row_n2():
    table = betti_rows(SIDE, X2, 1, 2)
    assert table[0][2] == F(1, 2)
    assert table[1][2] == F(-1, 2)


def test_entries_vanish_beyond_top_degree():
    # the raw grid is zero at every i > n(n-1)/2, and the table holds
    # exactly the cells inside that support
    p = parse_rep("V11")
    rows = SIDE.grid(list(p.items()), 10, 4)
    for n in range(5):
        for i in range(n * (n - 1) // 2 + 1, 11):
            assert rows[i][n] == 0, (i, n)
    cells, _ = SIDE.betti_table(p, 10, 4)
    assert [(i, n) for i, n, _ in cells] == [
        (i, n) for i in range(11) for n in range(5) if i <= n * (n - 1) // 2
    ]


def test_betti_table_rejects_negative_bounds():
    for bounds in ((-1, 3), (3, -1)):
        with pytest.raises(ValueError):
            SIDE.betti_table(X1, *bounds)


def test_genuine_rep_tables_integral_nonnegative():
    for rep, n_min in (("V1", 2), ("V11", 3), ("V2", 4)):
        table = betti_rows(SIDE, parse_rep(rep), 8, 8)
        for i in range(9):
            for n in range(n_min, 9):
                v = table[i][n]
                assert v.denominator == 1 and v >= 0, (rep, i, n)


# ---------------------------------------------------------------------------
# stable values and recurrences


def test_stable_gf_values():
    # 1, 1/(1 - z) and (1/2)/(1 - z)^2
    assert SIDE.stable_series(CharPoly.binom(cycle_type(()))) == ((1,), (1,), 1)
    assert SIDE.stable_series(CharPoly.binom(cycle_type((1,)))) == ((1,), (1, -1), 1)
    assert SIDE.stable_series(CharPoly.binom(cycle_type((2,)))) == ((1,), (1, -2, 1), 2)


def test_stable_rows_emerge_in_tables():
    for rep in (ONE, X1, parse_rep("V11")):
        table = betti_rows(SIDE, rep, 6, 12)
        stable = stable_values(SIDE, rep, 6)
        for i in range(7):
            assert table[i][12] == stable[i]
            # eventual constancy within the grid
            assert table[i][11] == table[i][12]


# the recurrence of a stable series (num, D, d) is a_i = -sum_k D_k a_(i-k)
# for i >= len(num)


def test_recurrence_single_cycle():
    num, D, _ = SIDE.stable_series(X1)
    assert D == (1, -1)  # a_i = a_(i-1)
    assert len(num) <= 1


def test_recurrence_two_cycle():
    assert SIDE.stable_series(X2)[1] == (1, 0, -1)  # a_i = a_(i-2)


def test_recurrence_lambda_2():
    # a_i = 2 a_(i-1) - a_(i-2)
    assert SIDE.stable_series(CharPoly.binom(cycle_type((2,))))[1] == (1, -2, 1)


def test_recurrences_hold_to_40():
    for rep in (X1, X2, parse_rep("V11"), parse_rep("V2"), CharPoly.binom(cycle_type((2,)))):
        num, D, _ = SIDE.stable_series(rep)
        vals = stable_values(SIDE, rep, 40)
        assert extend_by_recurrence(D, vals[:len(num)], 40) == vals


# ---------------------------------------------------------------------------
# Grothendieck-Lefschetz cross-checks


def test_gl_trivial_n3_q2():
    assert gl_crosscheck(SIDE, ONE, 2, 3) == (64, 64)


def test_gl_x1_n2_q3():
    assert gl_crosscheck(SIDE, X1, 3, 2) == (12, 12)


def test_gl_standard_rep_n2_q5():
    assert gl_crosscheck(SIDE, parse_rep("V1"), 5, 2) == (5, 5)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_gl_suite(q):
    reps = [ONE, parse_rep("V1"), parse_rep("V11"), parse_rep("V2"), X2]
    for rep in reps:
        for n in range(7):
            lhs, rhs = gl_crosscheck(SIDE, rep, q, n)
            assert lhs == rhs, (rep, q, n)


def test_tori_suite_budget():
    start = time.monotonic()
    SIDE.betti_table(ONE, 6, 10)
    SIDE.betti_table(X1, 9, 10)
    for q in (2, 3, 5):
        for rep in (ONE, parse_rep("V1")):
            for n in range(7):
                lhs, rhs = gl_crosscheck(SIDE, rep, q, n)
                assert lhs == rhs
    assert time.monotonic() - start < 30
