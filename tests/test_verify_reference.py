"""`verify` rows against a reference computed row by row.

Each row's lhs, rhs and brute column is recomputed here on its own, from
the public partition sums, a fresh Betti table betti_table(p, top(n), n)
per row, and its own brute-force census per q, summed here row by row, so
the reference shares none of the per-command tables and oracles that
`verify` builds once.
"""

import json
import random
from fractions import Fraction as F

import pytest

from betticount import conf_betti, tori
from betticount.betti import ScaledValues, weighted_sum
from betticount.chars import parse_rep, partitions
from betticount.cli import main
from betticount.conf_counts import bruteforce_census
from betticount.zeta import builtin_variety

from helpers import betti_rows, evaluate, partition_weighted_count, tori_partition_weighted_count

from test_conf_counts import census_sum


def seeded_rep(seed):
    """A rational combination of products of one to three of X1..X4; it
    has no comma, and verify's --rep list splits only at commas outside
    parentheses anyway."""
    rng = random.Random(seed)
    text = ""
    for _ in range(rng.randint(2, 4)):
        mono = "*".join(rng.choice(("X1", "X1", "X2", "X3", "X4")) for _ in range(rng.randint(1, 3)))
        coeff = rng.choice(("1", "2", "3", "1/2", "3/4"))
        text += f"{rng.choice('+-') if text else ''}{coeff}*{mono}"
    return text + rng.choice(("", "+1", "-1", "+5/6"))


REPS = ["1", "V1", "V11", "V2", seeded_rep(7), seeded_rep(1603)]


def reference_row(side, q, n, name, census):
    rep = parse_rep(name)
    if side == "conf":
        lhs = partition_weighted_count(builtin_variety("affine", 1, q), rep, n)
        top = max(n - 1, 0)
        table = betti_rows(conf_betti.SIDE, rep, top, n)
        rhs = q**n * sum(((-1) ** i * table[i][n] * F(1, q**i) for i in range(top + 1)), F(0))
    else:
        lhs = tori_partition_weighted_count(rep, q, n)
        top = n * (n - 1) // 2
        table = betti_rows(tori.SIDE, rep, top, n)
        rhs = q ** (n * (n - 1)) * sum((table[i][n] * F(1, q**i) for i in range(top + 1)), F(0))
    row = {"q": q, "n": n, "rep": name, "lhs": str(lhs), "rhs": str(rhs)}
    ok = lhs == rhs
    if census is not None:
        count = census_sum(census, rep, n)
        row["brute"] = str(count)
        ok = ok and count == lhs
    row["pass"] = ok
    return row


@pytest.mark.parametrize(
    "side, qs, max_n, brute",
    [
        ("conf", (2, 3, 4, 5, 9), 8, False),
        ("conf", (2, 3), 8, True),
        ("conf", (5,), 7, True),
        ("tori", (2, 3, 4, 5, 9), 8, False),
    ],
    ids=["conf", "conf-bruteforce-2-3", "conf-bruteforce-5", "tori"],
)
def test_verify_rows_match_a_per_row_reference(capsys, side, qs, max_n, brute):
    argv = ["verify", "--side", side, "--q", ",".join(map(str, qs)), "--max-n", str(max_n),
            "--rep", ",".join(REPS), "--format", "json"]
    code = main(argv + (["--bruteforce"] if brute else []))
    rows = json.loads(capsys.readouterr().out)["data"]
    censuses = {q: bruteforce_census(q, max_n) if brute else None for q in qs}
    expected = [
        reference_row(side, q, n, name, censuses[q])
        for q in qs
        for n in range(max_n + 1)
        for name in REPS
    ]
    assert rows == expected
    assert all(row["pass"] for row in expected)
    assert code == 0


R6 = "*".join(["(X1+X2+X3+X4+X5+X6+1)"] * 6)  # 924 terms


@pytest.mark.parametrize("name", ["V1", "V11", "V2", R6, "1/2*C(X1,2) - 5/3*X2 + 1/4*X1 + 2/7"],
                         ids=["V1", "V11", "V2", "R6", "rational"])
def test_scaled_values_equal_evaluate_on_every_cycle_type(name):
    rep = parse_rep(name)
    values = ScaledValues(rep)
    types = [mu for n in range(13) for mu in partitions(n)]
    for mu in types:
        assert F(values[mu], values.den) == evaluate(rep, mu), mu
    weighted = [(mu, 3 * k - 5) for k, mu in enumerate(types)]
    total, den = weighted_sum(values, weighted)
    assert den == values.den and F(total, den) == sum(cnt * evaluate(rep, mu) for mu, cnt in weighted)
