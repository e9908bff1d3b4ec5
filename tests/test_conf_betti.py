import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticount import tori
from betticount.chars import CharPoly, active, cycle_type, parse_rep, partitions, weight
from betticount.conf_betti import SIDE
from betticount.series import taylor_coeffs

from helpers import (
    betti_rows,
    binomial,
    bruteforce_weighted_count,
    coefficients,
    degree,
    difference_series,
    extend_by_recurrence,
    gl_crosscheck,
    stable_values,
)

# Golden grids, entered row by row exactly as printed; keys are (i, n).
# Blank cells (outside the cohomological support) are simply absent.

V11_TABLE = {}
for n, vals in {
    3: {0: 0, 1: 0, 2: 0},
    4: {0: 0, 1: 0, 2: 1, 3: 1},
    5: {0: 0, 1: 0, 2: 2, 3: 3, 4: 1},
    6: {0: 0, 1: 0, 2: 2, 3: 5, 4: 4, 5: 1},
    7: {0: 0, 1: 0, 2: 2, 3: 5, 4: 6, 5: 5, 6: 2},
    8: {0: 0, 1: 0, 2: 2, 3: 5, 4: 6, 5: 7, 6: 7, 7: 3},
    9: {0: 0, 1: 0, 2: 2, 3: 5, 4: 6, 5: 7, 6: 10, 7: 9, 8: 3},
    10: {0: 0, 1: 0, 2: 2, 3: 5, 4: 6, 5: 7, 6: 10, 7: 13, 8: 10, 9: 3},
    11: {0: 0, 1: 0, 2: 2, 3: 5, 4: 6, 5: 7, 6: 10, 7: 13, 8: 14, 9: 11, 10: 4},
    12: {0: 0, 1: 0, 2: 2, 3: 5, 4: 6, 5: 7, 6: 10, 7: 13, 8: 14, 9: 15, 10: 13, 11: 5},
    13: {0: 0, 1: 0, 2: 2, 3: 5, 4: 6, 5: 7, 6: 10, 7: 13, 8: 14, 9: 15, 10: 18, 11: 15, 12: 5},
    14: {0: 0, 1: 0, 2: 2, 3: 5, 4: 6, 5: 7, 6: 10, 7: 13, 8: 14, 9: 15, 10: 18, 11: 21, 12: 16, 13: 5},
}.items():
    for i, v in vals.items():
        V11_TABLE[(i, n)] = v

V2_TABLE = {}
for n, vals in {
    4: {0: 0, 1: 1, 2: 1, 3: 0},
    5: {0: 0, 1: 1, 2: 2, 3: 2, 4: 1},
    6: {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 2},
    7: {0: 0, 1: 1, 2: 2, 3: 3, 4: 6, 5: 6, 6: 2},
    8: {0: 0, 1: 1, 2: 2, 3: 3, 4: 6, 5: 9, 6: 7, 7: 2},
    9: {0: 0, 1: 1, 2: 2, 3: 3, 4: 6, 5: 9, 6: 10, 7: 8, 8: 3},
    10: {0: 0, 1: 1, 2: 2, 3: 3, 4: 6, 5: 9, 6: 10, 7: 11, 8: 10, 9: 4},
    11: {0: 0, 1: 1, 2: 2, 3: 3, 4: 6, 5: 9, 6: 10, 7: 11, 8: 14, 9: 12, 10: 4},
    12: {0: 0, 1: 1, 2: 2, 3: 3, 4: 6, 5: 9, 6: 10, 7: 11, 8: 14, 9: 17, 10: 13, 11: 4},
    13: {0: 0, 1: 1, 2: 2, 3: 3, 4: 6, 5: 9, 6: 10, 7: 11, 8: 14, 9: 17, 10: 18, 11: 14, 12: 5},
    14: {0: 0, 1: 1, 2: 2, 3: 3, 4: 6, 5: 9, 6: 10, 7: 11, 8: 14, 9: 17, 10: 18, 11: 19, 12: 16, 13: 6},
}.items():
    for i, v in vals.items():
        V2_TABLE[(i, n)] = v


LAMBDA_SWEEP_6 = [
    cycle_type(tuple(ent))
    for ent in [
        (), (1,), (2,), (3,), (4,), (5,), (6,),
        (0, 1), (1, 1), (2, 1), (4, 1), (0, 2), (2, 2), (0, 3),
        (0, 0, 1), (1, 0, 1), (3, 0, 1), (0, 0, 2),
        (0, 0, 0, 1), (2, 0, 0, 1), (0, 1, 0, 1),
        (0, 0, 0, 0, 1), (1, 0, 0, 0, 1), (0, 0, 0, 0, 0, 1),
    ]
]
assert all(weight(l) <= 6 for l in LAMBDA_SWEEP_6)


# ---------------------------------------------------------------------------
# the generating series itself


def signed_column(table, n):
    """The nonzero coefficients of z^i t^n in the generating series,
    (-1)^i alpha_i(n), read back from a table."""
    return {i: (-1) ** i * row[n] for i, row in enumerate(table) if row[n]}


def test_trivial_weight_series():
    # (1 - t) * (1 - z t^2)/(1 - t) = 1 - z t^2
    assert difference_series(cycle_type(()), 6, 8) == {(0, 0): 1, (1, 2): -1}


def test_t0_coefficient():
    assert signed_column(betti_rows(SIDE, CharPoly.constant(1), 4, 4), 0) == {0: 1}
    for lam in (cycle_type((1,)), cycle_type((0, 1)), cycle_type((2,))):
        assert signed_column(betti_rows(SIDE, CharPoly.binom(lam), 4, 4), 0) == {}


def test_standard_rep_series_matches_printed_expansion():
    # combination for V1 = X1 - 1: (-z + z^2) t^3 + (-z + 2z^2 - z^3) t^4
    # + (-z + 2z^2 - 2z^3 + z^4) t^5
    table = betti_rows(SIDE, parse_rep("V1"), 8, 8)
    assert signed_column(table, 3) == {1: -1, 2: 1}
    assert signed_column(table, 4) == {1: -1, 2: 2, 3: -1}
    assert signed_column(table, 5) == {1: -1, 2: 2, 3: -2, 4: 1}


def test_series_addition_matches_per_term_recomputation():
    # the table of a sum of weights is the sum of the per-term tables
    a = betti_rows(SIDE, CharPoly.binom(cycle_type((1,))), 6, 8)
    b = betti_rows(SIDE, CharPoly.constant(1), 6, 8)
    s = betti_rows(SIDE, CharPoly.binom(cycle_type((1,))) + CharPoly.constant(1), 6, 8)
    for i in range(7):
        for n in range(9):
            assert s[i][n] == a[i][n] + b[i][n]


def test_necklace_binomials_match_scalar_binomials():
    # B(y) = prod_k binom(M_k(y), lam_k) has degree <= w, so its values at
    # w + 1 points pin it down; each value here is a product of scalar
    # binomials of M_k(y) = (1/k) sum_(d | k) mu(k/d) y^d
    from betticount.chars import centralizer_order
    from betticount.conf_betti import _necklace_binomials
    from betticount.zeta import divisors, mobius_table

    for w in range(11):
        for mu in partitions(w):
            lam = mu
            b, scale = _necklace_binomials(lam), centralizer_order(lam)
            assert len(b) == w + 1
            for y in range(-w // 2 - 1, w // 2 + 2):
                expected = F(1)
                for k, lk in active(lam):
                    mk = F(sum(mobius_table(k)[k // d] * y**d for d in divisors(k)), k)
                    expected *= binomial(mk, lk)
                assert F(sum(c * y**j for j, c in enumerate(b)), scale) == expected, (lam, y)


@pytest.mark.parametrize("lam", LAMBDA_SWEEP_6)
def test_no_negative_powers_survive(lam):
    assert all(i >= 0 for i, _ in difference_series(lam, 12, 14))


@pytest.mark.parametrize("lam", LAMBDA_SWEEP_6)
def test_slope_bound(lam):
    for i, n in difference_series(lam, 12, 14):
        assert n - i <= weight(lam) + 1


# ---------------------------------------------------------------------------
# tables


def test_v11_golden_table():
    table = betti_rows(SIDE, parse_rep("V11"), 13, 14)
    for (i, n), v in V11_TABLE.items():
        assert table[i][n] == v, (i, n)


def test_v2_golden_table():
    table = betti_rows(SIDE, parse_rep("V2"), 13, 14)
    for (i, n), v in V2_TABLE.items():
        assert table[i][n] == v, (i, n)


def test_v1_case_formula():
    table = betti_rows(SIDE, parse_rep("V1"), 13, 14)
    for n in range(3, 13):
        for i in range(n):
            if i == 0:
                expected = 0
            elif i == n - 1:
                expected = 1
            elif i == 1:
                expected = 1
            else:
                expected = 2
            assert table[i][n] == expected, (i, n)


def test_entries_vanish_beyond_cohomological_dimension():
    # the raw grid is zero at every i > max(n - 1, 0), and the table holds
    # exactly the cells inside that support
    for rep in ("V1", "V11", "V2"):
        p = parse_rep(rep)
        rows = SIDE.grid(list(p.items()), 10, 11)
        for n in range(12):
            for i in range(max(n, 1), 11):
                assert rows[i][n] == 0, (rep, i, n)
        cells, _ = SIDE.betti_table(p, 10, 11)
        assert [(i, n) for i, n, _ in cells] == [
            (i, n) for i in range(11) for n in range(12) if i <= max(n - 1, 0)
        ]


@pytest.mark.parametrize(
    "side, message",
    [(SIDE, "beyond i = 2 at i=3, n=3"), (tori.SIDE, "beyond i = 3 at i=4, n=3")],
    ids=["conf", "tori"],
)
def test_a_nonzero_cell_beyond_the_support_is_refused(side, message, monkeypatch, capsys):
    from betticount.cli import main

    def grid(terms, max_i, max_n):
        # one nonzero cell at n = 3, one row past top(3)
        rows = [[0] * (max_n + 1) for _ in range(max_i + 1)]
        rows[side.top(3) + 1][3] = 1
        return rows

    monkeypatch.setattr(side, "grid", grid)
    with pytest.raises(ArithmeticError, match=f"^nonzero Betti number {message}$"):
        side.betti_table(CharPoly.constant(1), 4, 3)
    assert main([f"{side.name}-betti", "--rep", "1", "--max-i", "4", "--max-n", "3"]) == 2
    assert capsys.readouterr().err == f"error: nonzero Betti number {message}\n"


def test_tables_of_genuine_reps_are_nonnegative_integral():
    # each builtin is an honest representation from some n on (V1 needs
    # n >= 2, V11 n >= 3, V2 n >= 4); below that the character polynomial
    # is merely virtual and the boundary value can dip negative
    for rep, n_min in (("V1", 2), ("V11", 3), ("V2", 4)):
        table = betti_rows(SIDE, parse_rep(rep), 13, 14)
        for i in range(14):
            for n in range(15):
                v = table[i][n]
                assert v.denominator == 1
                if n >= n_min:
                    assert v >= 0, (rep, i, n)


def test_standard_rep_boundary_value():
    # X1 - 1 evaluates to -1 on the empty cycle type, so alpha_0(0) = -1;
    # this matches the point count: the single empty configuration has
    # weight -1 = q^0 * (-1)
    assert betti_rows(SIDE, parse_rep("V1"), 2, 2)[0][0] == -1
    assert gl_crosscheck(SIDE, parse_rep("V1"), 3, 0) == (-1, -1)


def test_trivial_rep_table():
    table = betti_rows(SIDE, CharPoly.constant(1), 2, 5)
    for n in range(6):
        assert table[0][n] == 1
        assert table[1][n] == (1 if n >= 2 else 0)


def test_betti_table_rejects_negative_bounds():
    for bounds in ((-1, 3), (3, -1)):
        with pytest.raises(ValueError):
            SIDE.betti_table(parse_rep("V11"), *bounds)


@pytest.mark.parametrize("side", ["conf", "tori"])
def test_table_holds_integer_rows_over_one_denominator(side):
    p = parse_rep("1/2*C(X1,2) - 2/3*X2 + 3/4")
    cells, den = (SIDE if side == "conf" else tori.SIDE).betti_table(p, 6, 7)
    # p.den times 2, the lcm of the z_lam
    assert (p.den, den) == (12, 24)
    assert all(type(c) is int for _, _, c in cells)
    assert any(F(c, den).denominator > 1 for _, _, c in cells)


# fractional coefficients, two lam of weight 2 and three of weight 3
MIXED_REP = "1/2*C(X1,2) - 2/3*C(X2,1) + 1/5*C(X1,1)*C(X2,1) + C(X1,3) + C(X3,1) + 7/4"


@pytest.mark.parametrize("grid", [(0, 0), (5, 7), (13, 14), (64, 64)])
@pytest.mark.parametrize("side", [SIDE, tori.SIDE], ids=["conf", "tori"])
def test_table_of_a_rep_is_the_sum_of_its_basis_tables(side, grid):
    p = parse_rep(MIXED_REP)
    assert sorted(weight(lam) for lam, _ in p.items()) == [0, 2, 2, 3, 3, 3]
    table = betti_rows(side, p, *grid)
    parts = [(c, betti_rows(side, CharPoly.binom(lam), *grid)) for lam, c in coefficients(p).items()]
    for i in range(grid[0] + 1):
        for n in range(grid[1] + 1):
            assert table[i][n] == sum(c * t[i][n] for c, t in parts), (i, n)


def test_empty_configuration_entry():
    assert betti_rows(SIDE, parse_rep("V11"), 2, 2)[0][0] == 1


# ---------------------------------------------------------------------------
# stable values and recurrences


# the signed series sum_i alpha_i (-z)^i is 1 - z for lam = () and
# (1 - z)/(1 + z) for lam = (1); stable_series is the unsigned one


def test_stable_gf_trivial():
    assert SIDE.stable_series(CharPoly.binom(cycle_type(()))) == ((1, 1), (1,), 1)


def test_stable_gf_single_cycle():
    assert SIDE.stable_series(CharPoly.binom(cycle_type((1,)))) == ((1, 1), (1, -1), 1)


def test_stable_v1_values():
    vals = stable_values(SIDE, parse_rep("V1"), 12)
    assert vals[0] == 0 and vals[1] == 1
    assert all(v == 2 for v in vals[2:])


def test_stable_v11_series_matches_printed():
    unsigned = stable_values(SIDE, parse_rep("V11"), 11)
    signed = [(-1) ** i * a for i, a in enumerate(unsigned)]
    assert signed == [0, 0, 2, -5, 6, -7, 10, -13, 14, -15, 18, -21]


def test_recurrence_coefficients():
    # the recurrence of (num, D, d) is a_i = -sum_k D_k a_(i-k) for i >= len(num)
    for rep in ("V11", "V2"):
        assert SIDE.stable_series(parse_rep(rep))[1] == (1, -2, 2, -2, 1)
    num, D, _ = SIDE.stable_series(parse_rep("V1"))
    assert D == (1, -1)
    assert len(num) <= 3


def _remainder(a, f):
    """a mod f by schoolbook long division, for integer lists (ascending)
    whose divisor f has leading coefficient 1 or -1."""
    r = list(a)
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(f):
            return r
        c, shift = r[-1] * f[-1], len(r) - len(f)
        for j, fj in enumerate(f):
            r[shift + j] -= c * fj


@pytest.mark.parametrize("side", [SIDE, tori.SIDE], ids=["conf", "tori"])
def test_recurrence_roots_are_roots_of_unity(side):
    # the reduced denominator d D of every |lam| <= 6 has D, the
    # recurrence's characteristic polynomial, as its primitive part, and D
    # divides (1 - z^120)^m, m its degree: 120 is a multiple of every order
    # 2k (conf) or k (tori) with k <= 6
    lambdas = [mu for w in range(7) for mu in partitions(w)]
    assert len(lambdas) == 30
    for lam in lambdas:
        rep = CharPoly.binom(lam)
        _, char, d = side.stable_series(rep)
        assert char[0] == 1 and d > 0, lam
        assert abs(char[-1]) == 1, lam
        base = _remainder([1] + [0] * 119 + [-1], char)
        power = _remainder([1], char)
        for _ in range(len(char) - 1):
            product = [0] * (len(power) + len(base))
            for i, a in enumerate(power):
                for j, b in enumerate(base):
                    product[i + j] += a * b
            power = _remainder(product, char)
        assert power == [], lam


SMALL_LAMBDAS = [mu for w in range(5) for mu in partitions(w)]


@pytest.mark.parametrize("side", [SIDE, tori.SIDE], ids=["conf", "tori"])
@settings(deadline=None)
@given(st.lists(st.tuples(st.sampled_from(SMALL_LAMBDAS),
                          st.fractions(-3, 3, max_denominator=4)), max_size=4))
def test_stable_series_keeps_its_contract(side, terms):
    # sum_lam c_lam C(X, lam), |lam| <= 4, comes back as num / (d D) with
    # D(0) = 1, d > 0, num stripped and no integer factor common to d and
    # num, and its values follow D from i = len(num) on
    num, D, d = side.stable_series(CharPoly(terms))
    assert D[0] == 1 and d > 0
    assert not num or num[-1]
    assert math.gcd(d, *num) == 1
    values = taylor_coeffs(num, D, 40)
    assert extend_by_recurrence(D, values[:len(num)], 40) == values


def test_recurrence_holds_on_stable_sequence():
    for rep in ("V1", "V11", "V2"):
        p = parse_rep(rep)
        num, D, _ = SIDE.stable_series(p)
        vals = stable_values(SIDE, p, 40)
        assert extend_by_recurrence(D, vals[:len(num)], 40) == vals


def test_stable_closed_forms_mod_four():
    v11 = stable_values(SIDE, parse_rep("V11"), 50)
    for i in range(3, 51):
        expected = {0: 2 * i - 2, 1: 2 * i - 3, 2: 2 * i - 2, 3: 2 * i - 1}[i % 4]
        assert v11[i] == expected
    v2 = stable_values(SIDE, parse_rep("V2"), 50)
    for i in range(1, 51):
        expected = {0: 2 * i - 2, 1: 2 * i - 1, 2: 2 * i - 2, 3: 2 * i - 3}[i % 4]
        assert v2[i] == expected


def test_table_rows_reach_stable_values():
    for rep in ("V1", "V11", "V2"):
        p = parse_rep(rep)
        table = betti_rows(SIDE, p, 8, 14)
        stable = stable_values(SIDE, p, 8)
        deg = degree(p)
        for i in range(9):
            for n in range(i + deg + 1, 15):
                assert table[i][n] == stable[i], (rep, i, n)


# ---------------------------------------------------------------------------
# stability ranges


def test_stability_sharpness():
    for rep in ("V11", "V2"):
        table = betti_rows(SIDE, parse_rep(rep), 8, 14)
        for i in range(2, 9):
            assert table[i][i + 2] != table[i][i + 3], (rep, i)


def test_v11_first_stable_row2():
    table = betti_rows(SIDE, parse_rep("V11"), 4, 14)
    assert table[2][4] == 1 != table[2][5] == 2


# ---------------------------------------------------------------------------
# Grothendieck-Lefschetz cross-checks


def test_gl_v11_worked_example():
    assert gl_crosscheck(SIDE, parse_rep("V11"), 3, 4) == (6, 6)


def test_gl_trivial_count():
    assert gl_crosscheck(SIDE, CharPoly.constant(1), 3, 2) == (6, 6)


def test_gl_standard_rep_vs_bruteforce():
    lhs, rhs = gl_crosscheck(SIDE, parse_rep("V1"), 5, 3)
    assert lhs == rhs == bruteforce_weighted_count(5, 3, parse_rep("V1"))


GL_REPS = ["1", "V1", "V11", "V2", "X2", "C(X1,1)*C(X1,1)"]


@pytest.mark.parametrize("q", [3, 5, 7])
def test_gl_suite(q):
    reps = [parse_rep(r) for r in GL_REPS[:4]] + [
        CharPoly.binom(cycle_type((0, 1))),
        CharPoly.binom(cycle_type((1, 1))),
    ]
    for rep in reps:
        for n in range(7):
            lhs, rhs = gl_crosscheck(SIDE, rep, q, n)
            assert lhs == rhs, (rep, q, n)
