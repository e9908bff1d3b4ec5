"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact (rationals); the only tolerance anywhere is the
documented 1e-6 decimal comparison of criterion 8, and the runtime budgets.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction as F

from betticount.chars import CharPoly, cycle_type, parse_rep, partitions, weight
from betticount.cli import main as cli_main
from betticount.conf_betti import SIDE
from betticount.conf_counts import (
    bruteforce_census,
    count_values,
    limits,
)
from betticount import tori
from betticount.zeta import builtin_variety

from helpers import (
    as_fractions,
    betti_rows,
    degree,
    difference_series,
    gl_crosscheck,
    partition_weighted_count,
    stable_values,
    tori_partition_weighted_count,
)
from test_conf_betti import V2_TABLE, V11_TABLE
from test_conf_counts import census_sum


def report(num, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}")
    assert ok, f"criterion {num}: {description}"


def cli_table_cells(rep, max_i, max_n, capsys):
    code = cli_main(
        ["conf-betti", "--rep", rep, "--max-i", str(max_i), "--max-n", str(max_n),
         "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    return {(r["i"], r["n"]): F(r["value"]) for r in doc["data"]}


def test_criterion_01_v11_golden_table(capsys):
    start = time.monotonic()
    cells = cli_table_cells("V11", 13, 14, capsys)
    elapsed = time.monotonic() - start
    exact = all(cells[(i, n)] == v for (i, n), v in V11_TABLE.items())
    spot = (
        cells[(2, 5)] == 2
        and cells[(3, 6)] == 5
        and cells[(6, 9)] == 10
        and cells[(11, 14)] == 21
    )
    with capsys.disabled():
        report(1, f"V(1,1) golden table, exact, {elapsed:.2f}s < 10s",
               exact and spot and elapsed < 10)


def test_criterion_02_v2_golden_table(capsys):
    start = time.monotonic()
    cells = cli_table_cells("V2", 13, 14, capsys)
    elapsed = time.monotonic() - start
    exact = all(cells[(i, n)] == v for (i, n), v in V2_TABLE.items())
    spot = cells[(1, 4)] == 1 and cells[(5, 8)] == 9 and cells[(9, 12)] == 17
    with capsys.disabled():
        report(2, f"V(2) golden table, exact, {elapsed:.2f}s < 10s",
               exact and spot and elapsed < 10)


def test_criterion_03_v1_case_formula():
    table = betti_rows(SIDE, parse_rep("V1"), 12, 13)
    ok = True
    for n in range(3, 13):
        for i in range(n):
            if i == 0:
                want = 0
            elif i == n - 1 or i == 1:
                want = 1
            else:
                want = 2
            ok = ok and table[i][n] == want
    report(3, "V(1) case formula for 3 <= n <= 12, exact", ok)


def test_criterion_04_stable_recurrences_and_closed_forms():
    ok = True
    for rep in ("V11", "V2"):
        # a_i = -sum_k D_k a_(i-k), so D = 1 - 2z + 2z^2 - 2z^3 + z^4
        ok = ok and SIDE.stable_series(parse_rep(rep))[1] == (1, -2, 2, -2, 1)
    v11 = stable_values(SIDE, parse_rep("V11"), 50)
    for i in range(3, 51):
        want = {0: 2 * i - 2, 1: 2 * i - 3, 2: 2 * i - 2, 3: 2 * i - 1}[i % 4]
        ok = ok and v11[i] == want
    v2 = stable_values(SIDE, parse_rep("V2"), 50)
    for i in range(1, 51):
        want = {0: 2 * i - 2, 1: 2 * i - 1, 2: 2 * i - 2, 3: 2 * i - 3}[i % 4]
        ok = ok and v2[i] == want
    report(4, "stable recurrences (2,-2,2,-1) and mod-4 closed forms to i=50", ok)


def test_criterion_05_stability_bound_and_sharpness():
    ok = True
    for rep in ("V1", "V11", "V2"):
        p = parse_rep(rep)
        deg = degree(p)
        table = betti_rows(SIDE, p, 8, 14)
        for i in range(9):
            for n in range(i + deg + 1, 14):
                ok = ok and table[i][n] == table[i][n + 1]
    for rep in ("V11", "V2"):
        table = betti_rows(SIDE, parse_rep(rep), 8, 14)
        for i in range(2, 9):
            ok = ok and table[i][i + 2] != table[i][i + 3]
    report(5, "stability for n >= i+deg+1 and sharpness at n = i+2 vs i+3", ok)


def test_criterion_06_gl_conf_suite():
    start = time.monotonic()
    reps = [CharPoly({(): 1}), parse_rep("V1"), parse_rep("V11"), parse_rep("V2")]
    ok = True
    for q in (3, 5, 7):
        census = bruteforce_census(q, 6)
        for rep in reps:
            for n in range(7):
                lhs, rhs = gl_crosscheck(SIDE, rep, q, n)
                brute = census_sum(census, rep, n)
                ok = ok and brute == lhs == rhs
    elapsed = time.monotonic() - start
    report(6, f"Grothendieck-Lefschetz conf suite, exact, {elapsed:.1f}s < 60s",
           ok and elapsed < 60)


def test_criterion_07_three_path_oracle_equivalence():
    lams = [cycle_type(e) for e in ((), (1,), (2,), (0, 1), (1, 1))]
    ok = True
    for p in (3, 5):
        v = builtin_variety("affine", 1, p)
        census = bruteforce_census(p, 6)
        for lam in lams:
            rep = CharPoly.binom(lam)
            series = as_fractions(*count_values(v, rep, 6))
            for n in range(7):
                a = series[n]
                b = partition_weighted_count(v, rep, n)
                c = census_sum(census, rep, n)
                ok = ok and a == b == c
    report(7, "three-path oracle equivalence on the affine line, exact", ok)


def test_criterion_08_limits():
    a1_q3 = builtin_variety("affine", 1, 3)
    a1_q2 = builtin_variety("affine", 1, 2)
    ok = F(*limits(a1_q3, CharPoly.binom(()))[0]) == F(2, 3)
    ok = ok and F(*limits(a1_q3, CharPoly.binom((1,)))[1]) == F(3, 4)
    ok = ok and F(*limits(a1_q2, CharPoly.binom((0, 1)))[1]) == F(1, 5)
    p1_q2 = builtin_variety("projective", 1, 2)
    for lam in (cycle_type(()), cycle_type((1,)), cycle_type((0, 1))):
        lim = F(*limits(p1_q2, CharPoly.binom(lam))[0])
        series = as_fractions(*count_values(p1_q2, CharPoly.binom(lam), 25))
        ok = ok and abs(series[25] / F(2) ** 25 - lim) < F(1, 10**6)
    report(8, "limit values 2/3, 3/4, 1/5 and P^1 agreement at n=25 within 1e-6", ok)


def test_criterion_09_tori_suite():
    start = time.monotonic()
    ok = True
    for q in (2, 3, 5):
        for n in range(8):
            ok = ok and tori_partition_weighted_count(CharPoly({(): 1}), q, n) == q ** (n * (n - 1))
    trivial = betti_rows(tori.SIDE, CharPoly({(): 1}), 6, 10)
    for n in range(11):
        for i in range(7):
            ok = ok and trivial[i][n] == (1 if i == 0 else 0)
    x1 = betti_rows(tori.SIDE, CharPoly.variable(1), 9, 10)
    for n in range(11):
        for i in range(10):
            ok = ok and x1[i][n] == (1 if i <= n - 1 else 0)
    reps = [CharPoly({(): 1}), parse_rep("V1"), parse_rep("V11"), parse_rep("V2")]
    for q in (2, 3, 5):
        for rep in reps:
            for n in range(7):
                lhs, rhs = gl_crosscheck(tori.SIDE, rep, q, n)
                ok = ok and lhs == rhs
    elapsed = time.monotonic() - start
    report(9, f"tori suite (Steinberg, trivial/X1 rows, GL), exact, {elapsed:.1f}s < 30s",
           ok and elapsed < 30)


def test_criterion_10_cancellation_and_slope():
    lams = [mu for w in range(7) for mu in partitions(w)]
    assert len(lams) == 30
    ok = True
    for lam in lams:
        for i, n in difference_series(lam, 12, 14):
            ok = ok and i >= 0 and n - i <= weight(lam) + 1
    report(10, "no negative z-powers and slope <= weight+1 for all |lam| <= 6", ok)


def test_full_verification_script_passes_every_check():
    # the sweep of scripts/full_verification.py, run as a script: the only
    # end-to-end check of the 924-term rep on both sides
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, str(src.parent / "scripts" / "full_verification.py")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))),
    )
    assert proc.returncode == 0, proc.stderr
    totals = re.findall(r"^(\d+)/(\d+) checks passed$", proc.stdout, re.M)
    assert len(totals) == 6 and all(a == b != "0" for a, b in totals), totals
