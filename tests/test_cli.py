import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betticount
from betticount import conf_counts
from betticount.cli import (
    MAX_COUNT_N,
    MAX_VERIFY_N,
    OutputDocument,
    _json,
    _split_reps,
    main,
    parse_args,
    render,
    render_csv,
    render_json,
)
from betticount.chars import MAX_DEGREE, MAX_NESTING, CharPoly, parse_rep
from betticount.conf_counts import GUARD, count_values
from betticount.series import ratio, shown
from betticount.zeta import PRIME_TEST_BOUND, builtin_variety

from helpers import betti_rows, partition_weighted_count


def _child_env():
    """This environment, with this checkout's package first on PYTHONPATH and
    without PYTHONUNBUFFERED, so the child's stdout is block-buffered as a
    user's pipe is."""
    src = os.path.dirname(os.path.dirname(betticount.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return env


def run_child(*argv, timeout):
    """Run the CLI in a child process; returns (process, wall seconds)."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "betticount.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=_child_env(),
    )
    return proc, time.monotonic() - start


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# rational serialization


def test_values_print_as_fractions_do():
    assert [ratio(c, 2) for c in [12, -1, 0, 4]] == ["6", "-1/2", "0", "2"]
    assert [ratio(c, 1) for c in [12, -1]] == ["12", "-1"]
    assert Fraction("-1/2") == Fraction(-1, 2)
    assert Fraction("6") == 6
    cells = list(range(-30, 31))
    for den in range(1, 13):
        assert [ratio(c, den) for c in cells] == [str(Fraction(c, den)) for c in cells]


def test_a_value_too_long_to_print_is_refused():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError, match=f"more than {limit} digits; lower --q, --max-n"):
        ratio(1, 10**limit)
    with pytest.raises(ValueError, match=f"more than {limit} digits; lower --q, --max-n"):
        ratio(10**limit, 1)


# ---------------------------------------------------------------------------
# conf-betti


def test_conf_betti_reproduces_printed_example(capsys):
    code, doc = run_json(
        capsys, "conf-betti", "--rep", "V11", "--max-i", "13", "--max-n", "14"
    )
    assert code == 0
    cells = {(r["i"], r["n"]): r["value"] for r in doc["data"]}
    assert cells[(2, 5)] == "2"
    assert cells[(3, 6)] == "5"
    assert cells[(6, 9)] == "10"
    assert cells[(11, 14)] == "21"
    # blank below the support: no row at i > max(n-1, 0)
    assert (3, 3) not in cells
    assert (1, 0) not in cells


def test_conf_betti_expression_rep(capsys):
    code, doc = run_json(
        capsys, "conf-betti", "--rep", "X1-1", "--max-i", "5", "--max-n", "8"
    )
    assert code == 0
    cells = {(r["i"], r["n"]): r["value"] for r in doc["data"]}
    assert cells[(1, 5)] == "1"
    assert cells[(2, 5)] == "2"
    assert cells[(4, 5)] == "1"


def test_conf_betti_trivial_rows(capsys):
    code, doc = run_json(
        capsys, "conf-betti", "--rep", "1", "--max-i", "2", "--max-n", "5"
    )
    assert code == 0
    cells = {(r["i"], r["n"]): r["value"] for r in doc["data"]}
    for n in range(6):
        assert cells[(0, n)] == "1"
    for n in range(2, 6):
        assert cells[(1, n)] == "1"


def test_conf_betti_stable_meta(capsys):
    code, doc = run_json(
        capsys, "conf-betti", "--rep", "V11", "--max-i", "6", "--max-n", "14", "--stable"
    )
    assert code == 0
    assert doc["meta"]["stable"] == ["0", "0", "2", "5", "6", "7", "10"]
    assert doc["meta"]["recurrence"]["coefficients"] == ["2", "-2", "2", "-1"]


def test_conf_betti_bound_exceeded(capsys):
    code, out, err = run(capsys, "conf-betti", "--rep", "1", "--max-i", "99", "--max-n", "120")
    assert code == 2
    assert "error" in err


def test_conf_betti_parse_error(capsys):
    code, out, err = run(capsys, "conf-betti", "--rep", "X1 +")
    assert code == 2
    assert "error" in err


def test_conf_betti_rejects_a_high_degree_rep_before_expanding_it():
    # run in a child with a timeout, so an expansion that never ends fails
    # the test instead of hanging the suite
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "betticount.cli", "conf-betti", "--rep", "C(X1,5000)",
         "--max-i", "2", "--max-n", "2"],
        capture_output=True, text=True, timeout=5, env=env,
    )
    assert proc.returncode == 2
    assert "C(X1,5000) has degree 5000; degrees are capped at 64" in proc.stderr


def test_a_reader_that_leaves_early_leaves_nothing_on_stderr():
    # the JSON is about 128 KB, more than a pipe holds, so the child is
    # still writing when the reader closes its end, as `| head -1` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "betticount.cli", "conf-betti", "--rep", "1",
         "--max-i", "64", "--max-n", "64", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.wait(timeout=30) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_a_reader_gone_before_a_small_output_leaves_nothing_on_stderr():
    # the table fits the stdout buffer, so only the flush at exit meets the
    # closed pipe; it exited 120 with "Exception ignored ... BrokenPipeError"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "betticount.cli", "tori-betti", "--rep", "V1",
             "--max-i", "2", "--max-n", "3"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=30, env=_child_env(),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_conf_betti_stable_budget_at_a_high_degree():
    # the stable series of C(X1,48) is a rational function of degree 48
    # with large coefficients; its reduction must not blow up
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "betticount.cli", "conf-betti", "--rep", "C(X1,48)",
         "--max-i", "2", "--max-n", "2", "--stable"],
        capture_output=True, text=True, timeout=30, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - start < 10


def test_conf_betti_stable_budget_at_the_degree_cap():
    proc, elapsed = run_child(
        "conf-betti", "--rep", "C(X1,64)", "--max-i", "2", "--max-n", "2", "--stable",
        "--format", "json", timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["meta"]["recurrence"]["coefficients"]
    assert elapsed < 2


@pytest.mark.parametrize(
    "rep, token",
    [
        # printed "error: Fraction(2, 0)"
        ("2/0*X1", "2/0"),
        # these leaked int()'s 4300-digit limit
        ("9" * 5000 + "*X1", "9" * 5000),
        ("C(X1," + "1" * 5000 + ")", "1" * 5000),
        ("1/" + "3" * 5000 + "*X1", "1/" + "3" * 5000),
        # the longest order the parser reads; its degree 9m still prints
        ("C(X9," + "9" * (sys.get_int_max_str_digits() - 1) + ")",
         "9" * (sys.get_int_max_str_digits() - 1)),
    ],
    ids=["zero-denominator", "long-coefficient", "long-order", "long-denominator",
         "longest-order"],
)
def test_betti_names_a_bad_number_in_the_rep(capsys, rep, token):
    code, out, err = run(capsys, "conf-betti", "--rep", rep, "--max-i", "2", "--max-n", "2")
    assert code == 2
    assert out == ""
    assert token in err
    assert "Fraction(" not in err
    assert "set_int_max_str_digits" not in err


CONF_ARGS = ("conf-betti", "--max-i", "2", "--max-n", "2")
VERIFY_ARGS = ("verify", "--side", "tori", "--q", "3", "--max-n", "2")


@pytest.mark.parametrize("argv", [CONF_ARGS, VERIFY_ARGS], ids=["conf-betti", "verify"])
def test_deeply_nested_parentheses_are_refused_without_a_traceback(argv):
    # ran into Python's recursion limit: a traceback and exit 1, which on
    # verify means that a check failed
    proc, _ = run_child(*argv, "--rep", "(" * 400 + "1" + ")" * 400, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: parentheses are nested more than {MAX_NESTING} deep"]
    assert proc.stdout == ""


def test_a_long_run_of_unary_minus_signs_is_read_in_a_loop():
    # 1500 signs ran into Python's recursion limit; an even run cancels
    rep = "1+" + "-" * 1500 + "1"
    proc, _ = run_child(*CONF_ARGS, "--rep", rep, "--format", "json", timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["meta"]["rep_binomial"] == "2"
    proc, _ = run_child(*VERIFY_ARGS, "--rep", rep, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("rep, want", [("(1", "')'"), ("C(X1", "','"), ("C(", "more input")])
def test_a_rep_cut_short_names_the_end_of_the_expression(capsys, rep, want):
    # printed "expected ')', found None"
    code, out, err = run(capsys, *CONF_ARGS, "--rep", rep)
    assert code == 2
    assert err == f"error: expected {want}, found the end of the expression\n"


@pytest.mark.parametrize(
    "side, digest",
    [
        ("conf", "2e1e62c0a10ee9fdf4cfb3c0d897000af6e7350895ec4c73c123f7d9a973e4cd"),
        ("tori", "5094ac3e652fc726024da5aed7ebdeafa59fe3a061b475424ede041db5d64185"),
    ],
    ids=["conf", "tori"],
)
def test_betti_stable_budget_at_a_multi_variable_basis_element(side, digest):
    # parsing this one basis element took over 6 s when atoms were expanded
    proc, elapsed = run_child(
        f"{side}-betti", "--rep", "C(X1,16)*C(X2,8)*C(X3,5)*C(X4,4)",
        "--max-i", "2", "--max-n", "2", "--stable", timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest
    assert elapsed < 2


def test_conf_betti_names_an_unknown_variable(capsys):
    code, out, err = run(capsys, "conf-betti", "--rep", "X10", "--max-i", "2", "--max-n", "2")
    assert code == 2
    assert "unknown variable X10; variables are X1..X9" in err


# ---------------------------------------------------------------------------
# tori-betti


def test_tori_betti_trivial(capsys):
    code, doc = run_json(capsys, "tori-betti", "--rep", "1", "--max-i", "3", "--max-n", "6")
    assert code == 0
    cells = {(r["i"], r["n"]): r["value"] for r in doc["data"]}
    for n in range(7):
        assert cells[(0, n)] == "1"
    assert cells.get((1, 2)) == "0"
    assert (1, 1) not in cells  # beyond n(n-1)/2


def test_tori_betti_x1_rows(capsys):
    code, doc = run_json(capsys, "tori-betti", "--rep", "X1", "--max-i", "5", "--max-n", "6")
    assert code == 0
    cells = {(r["i"], r["n"]): r["value"] for r in doc["data"]}
    for n in range(1, 7):
        for i in range(min(5, n * (n - 1) // 2) + 1):
            assert cells[(i, n)] == ("1" if i <= n - 1 else "0")


def test_tori_betti_stable_recurrence_v11(capsys):
    # combined stable series is z^3/((1-z)^2 (1+z)): recurrence (1, 1, -1)
    code, doc = run_json(
        capsys, "tori-betti", "--rep", "V11", "--max-i", "4", "--max-n", "8", "--stable"
    )
    assert code == 0
    assert doc["meta"]["recurrence"]["coefficients"] == ["1", "1", "-1"]
    assert doc["meta"]["stable"] == ["0", "0", "0", "1", "1"]


@pytest.mark.parametrize("side, valid_from", [("conf", 2), ("tori", 1)])
def test_a_stable_series_without_a_denominator_recurs_to_zero(capsys, side, valid_from):
    # the stable series of 1 is a polynomial, D = 1: no term to print
    code, out, err = run(capsys, f"{side}-betti", "--rep", "1", "--max-i", "3", "--max-n", "3", "--stable")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"recurrence: a_i = 0 for i >= {valid_from}"
    code, doc = run_json(capsys, f"{side}-betti", "--rep", "1", "--max-i", "3", "--max-n", "3", "--stable")
    assert doc["meta"]["recurrence"] == {"coefficients": [], "valid_from": valid_from}


def test_tori_betti_budget_at_the_grid_cap(capsys):
    cap = str(MAX_DEGREE)
    start = time.monotonic()
    code, doc = run_json(
        capsys, "tori-betti", "--rep", "C(X1,3)", "--max-i", cap, "--max-n", cap
    )
    assert code == 0
    assert time.monotonic() - start < 10


def test_tori_betti_stable_budget_at_the_grid_cap():
    cap = str(MAX_DEGREE)
    proc, elapsed = run_child(
        "tori-betti", "--rep", "C(X1,64)", "--max-i", cap, "--max-n", cap, "--stable",
        "--format", "json", timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    # (1/64!) / (1 - z)^64: the stable values are binom(i + 63, 63) / 64!
    stable = json.loads(proc.stdout)["meta"]["stable"]
    assert stable[-1] == str(Fraction(math.comb(64 + 63, 63), math.factorial(64)))
    assert elapsed < 2


# (X1 + ... + X6 + 1)^6 expands to 924 binomial basis terms
MANY_TERM_REP = "*".join(["(X1+X2+X3+X4+X5+X6+1)"] * 6)


@pytest.mark.parametrize("command", ["tori-betti", "conf-betti"])
def test_betti_budget_for_a_many_term_rep_at_the_grid_cap(command):
    cap = str(MAX_DEGREE)
    proc, elapsed = run_child(command, "--rep", MANY_TERM_REP, "--max-i", cap, "--max-n", cap,
                              "--stable", timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 2.5


# ---------------------------------------------------------------------------
# count


def test_count_series(capsys):
    code, doc = run_json(
        capsys, "count", "--variety", "affine:1", "--q", "3", "--rep", "1", "--max-n", "5"
    )
    assert code == 0
    assert [r["value"] for r in doc["data"]] == ["1", "3", "6", "18", "54", "162"]


def test_count_limits(capsys):
    code, doc = run_json(
        capsys, "count", "--variety", "projective:1", "--q", "2", "--lambda", "1", "--limits"
    )
    assert code == 0
    row = doc["data"][0]
    assert row["normalized"] == "3/4"
    assert row["expectation"] == "1"


def test_count_affine_limits(capsys):
    code, doc = run_json(
        capsys, "count", "--variety", "affine:1", "--q", "3", "--lambda", "1", "--limits"
    )
    assert code == 0
    assert doc["data"][0]["normalized"] == "1/2"
    assert doc["data"][0]["expectation"] == "3/4"


def test_count_limits_builds_the_weight_factor_once(capsys, monkeypatch):
    calls = []
    build = conf_counts._weight_factor

    def counted(p, mk):
        calls.append(p)
        return build(p, mk)

    monkeypatch.setattr(conf_counts, "_weight_factor", counted)
    code, _, err = run(capsys, "count", "--variety", "affine:1", "--q", "5", "--rep", "V11", "--limits")
    assert code == 0 and err == ""
    assert len(calls) == 1


def test_count_variety_file(tmp_path, capsys):
    path = tmp_path / "v.zeta"
    path.write_text("q = 3\ndim = 1\nzeta_num = 1\nzeta_den = 1 -3\n")
    code, doc = run_json(
        capsys, "count", "--variety", f"file:{path}", "--rep", "1", "--max-n", "3"
    )
    assert code == 0
    assert [r["value"] for r in doc["data"]] == ["1", "3", "6", "18"]


def test_count_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.zeta"
    path.write_text("q = 3\ncounts = banana\n")
    code, out, err = run(capsys, "count", "--variety", f"file:{path}", "--rep", "1")
    assert code == 2
    assert "error" in err


def test_count_missing_file(capsys):
    code, out, err = run(capsys, "count", "--variety", "file:/does/not/exist", "--rep", "1")
    assert code == 2


@pytest.mark.parametrize(
    "text, message",
    [
        # int() read each of these as if its digits were ASCII
        ("q = \u0663\ndim = 1\ncounts = 3", "fields 'q' and 'dim' must be integers"),
        ("q = +3\ndim = 1\ncounts = 3", "fields 'q' and 'dim' must be integers"),
        ("q = 3\ndim = +1\ncounts = 3", "fields 'q' and 'dim' must be integers"),
        ("q = 3 5\ndim = 1\ncounts = 3", "fields 'q' and 'dim' must be integers"),
        ("q = 3\ndim = 1\nzeta_num = 1\nzeta_den = 1 -1_2", "field 'zeta_den' must be a list of integers"),
        ("q = 3\ndim = 1\ncounts = +3", "field 'counts' must be a list of integers"),
        # int() refuses these with its own message
        ("q = " + "9" * sys.get_int_max_str_digits() + "\ndim = 1\ncounts = 3",
         f"field 'q' has an entry of {sys.get_int_max_str_digits()} characters; "
         f"numbers have fewer than {sys.get_int_max_str_digits()} digits"),
        ("q = 3\ndim = 1\ncounts = 3 " + "9" * 5000,
         f"field 'counts' has an entry of 5000 characters; "
         f"numbers have fewer than {sys.get_int_max_str_digits()} digits"),
        # a misspelt field was ignored, or refused as if no data were given
        ("q = 2\ndim = 1\ncounts = 3 5\nzeta_dem = 1 -3", "line 4: unknown field 'zeta_dem'"),
        ("q = 2\ndim = 1\ncount = 3 5", "line 3: unknown field 'count'"),
    ],
    ids=["q-arabic-indic", "q-plus", "dim-plus", "two-qs", "zeta-den-underscore", "counts-plus",
         "q-at-the-limit", "long-count", "misspelt-zeta-den", "misspelt-counts"],
)
def test_a_variety_file_reads_integers_as_argv_does(tmp_path, capsys, text, message):
    path = tmp_path / "v.zeta"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "count", "--variety", f"file:{path}", "--rep", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("rep", ["1", "0", "C(X1,2) - X2 + 5/7"])
@pytest.mark.parametrize(
    "zeta, message",
    [
        ("1\nzeta_den = 1 3", "zeta function gives invalid count -3 at depth 1"),
        ("1\nzeta_den = 2 -3", "zeta function gives invalid count 3/2 at depth 1"),
        # (1 + t) / (1 - t): |V(F_(3^m))| = 2, 0, 2, 0, ... gives M_2 = -1
        ("1 1\nzeta_den = 1 -1",
         "Moebius inversion gives non-count M_2 = -1; point-count data is inconsistent"),
        # M_2 = -1/2 at depth 2 is refused before the point count 9/2 at depth 4 is read
        ("1\nzeta_den = 2 -4 3 -2",
         "Moebius inversion gives non-count M_2 = -1/2; point-count data is inconsistent"),
    ],
    ids=["negative", "non-integer", "negative-closed-points", "closed-points-in-depth-order"],
)
def test_count_checks_a_zeta_to_max_n_for_every_weight(tmp_path, capsys, zeta, message, rep):
    # the longest lambda of these weights is 0 or 2, below the bad depth
    path = tmp_path / "v.zeta"
    path.write_text(f"q = 3\ndim = 1\nzeta_num = {zeta}\n")
    code, out, err = run(capsys, "count", "--variety", f"file:{path}", "--rep", rep, "--max-n", "6")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_count_refuses_a_bad_closed_point_count_before_reading_deeper_counts(tmp_path):
    # Z = (1 + t)^3 / ((1 - t)^5 prod_(j=2..15) (1 - t^j) (1 - 10^4200 t^3)):
    # M_1 = 8 and M_2 = -2, while the point counts from depth 3 on grow by
    # 4200 digits a step.  Reading them all to depth 200 before refusing
    # M_2 took 8.6 s.
    den = [1]
    for j, c in [(1, 1)] * 5 + [(j, 1) for j in range(2, 16)] + [(3, 10**4200)]:
        # times 1 - c t^j
        den = [a - c * b for a, b in zip(den + [0] * j, [0] * j + den)]
    path = tmp_path / "v.zeta"
    path.write_text(f"q = 3\ndim = 1\nzeta_num = 1 3 3 1\nzeta_den = {' '.join(map(str, den))}\n")
    proc, elapsed = run_child("count", "--variety", f"file:{path}", "--rep", "V1",
                              "--max-n", "200", timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.strip() == ("error: Moebius inversion gives non-count M_2 = -2; "
                                   "point-count data is inconsistent")
    assert proc.stdout == ""
    assert elapsed < 1


def test_a_run_started_with_stdout_closed_exits_with_its_code():
    # Python sets sys.stdout to None then; the flush at exit must skip it
    proc = subprocess.run(
        [sys.executable, "-m", "betticount.cli", "verify", "--side", "conf", "--q", "3",
         "--max-n", "2"],
        stderr=subprocess.PIPE, timeout=30, env=_child_env(), preexec_fn=lambda: os.close(1),
    )
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize(
    "zeta, depth",
    [
        # N_9 = 10^9000 + 9/2
        ("2 0 0 0 0 0 0 0 0 1\nzeta_den = 1 -1" + "0" * 1000, 9),
        # Z = 1 + b t^3: N_3 = 3 b, and N_6 = -3 b^2 has 4,401 digits
        ("1 0 0 1" + "0" * 2200 + "\nzeta_den = 1", 6),
    ],
    ids=["non-integer", "negative"],
)
def test_a_bad_count_too_long_to_print_is_named_by_its_depth(tmp_path, capsys, zeta, depth):
    # the error text printed the value, so str() leaked its digit-limit message
    path = tmp_path / "v.zeta"
    path.write_text(f"q = 3\ndim = 1\nzeta_num = {zeta}\n")
    code, out, err = run(capsys, "count", "--variety", f"file:{path}", "--rep", f"X{depth}", "--limits")
    assert (code, out) == (2, "")
    assert err == f"error: zeta function gives invalid count (a value too long to print) at depth {depth}\n"


def test_an_undecodable_variety_file_is_named(tmp_path, capsys):
    path = tmp_path / "v.zeta"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, "count", "--variety", f"file:{path}", "--rep", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {path} is not UTF-8 text: invalid start byte at byte 0\n"


def test_count_budget_on_a_high_dimensional_projective_space():
    proc, elapsed = run_child(
        "count", "--variety", "projective:64", "--q", "2", "--max-n", "2", "--format", "json",
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    # Conf_2 of P^64 over F_2: pairs of the N_1 rational points, plus the
    # (N_2 - N_1)/2 closed points of degree 2, with N_m = |P^64(F_(2^m))|
    n1, n2 = 2**65 - 1, (4**65 - 1) // 3
    values = [row["value"] for row in json.loads(proc.stdout)["data"]]
    assert values[2] == str(math.comb(n1, 2) + (n2 - n1) // 2)
    assert elapsed < 2


@pytest.mark.parametrize(
    "argv, message",
    [
        # weight 20,000: ran 9 s, then leaked int()'s 4300-digit limit
        (["--variety", "affine:1", "--q", "3", "--lambda", "0,0,0,0,0,0,0,0,0,2000", "--limits"],
         "--lambda has weight 20000; degrees are capped at 64"),
        (["--variety", "affine:1", "--q", "3", "--lambda", "0,0,0,16,1"],
         "--lambda has weight 69; degrees are capped at 64"),
        # ran for more than 40 s
        (["--variety", "projective:3000", "--q", "2", "--max-n", "2"],
         "the dimension of projective space is capped at 64"),
        # leaked int()'s 4300-digit limit
        (["--variety", "affine:100000", "--q", "2", "--max-n", "2"],
         "the dimension of affine space is capped at 64"),
        (["--variety", "affine:65", "--q", "2", "--max-n", "2"],
         "the dimension of affine space is capped at 64"),
    ],
    ids=["lambda-weight-20000", "lambda-weight-69", "projective-3000", "affine-100000", "affine-65"],
)
def test_count_rejects_an_input_above_its_cap_at_once(argv, message):
    proc, elapsed = run_child("count", *argv, timeout=5)
    assert proc.returncode == 2
    assert proc.stderr.strip() == f"error: {message}"
    assert proc.stdout == ""


@pytest.mark.parametrize("dim", [65, 100_000, 10_000_000])
@pytest.mark.parametrize("mode", [["--limits"], ["--max-n", "3"]], ids=["limits", "series"])
def test_count_caps_the_dimension_of_a_variety_file_at_once(tmp_path, dim, mode):
    # --limits computes powers of q^dim: dim = 10^6 ran 2 s before the digit
    # limit refused it, and dim = 10^7 ran for more than a minute
    path = tmp_path / "v.zeta"
    path.write_text(f"q = 3\ndim = {dim}\nzeta_num = 1\nzeta_den = 1 -3\n")
    proc, elapsed = run_child("count", "--variety", f"file:{path}", "--rep", "V1", *mode,
                              timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.strip() == f"error: the dimension of the variety in {path} is capped at 64"
    assert proc.stdout == ""
    assert elapsed < 1


def test_count_accepts_a_variety_file_at_the_dimension_cap(tmp_path, capsys):
    path = tmp_path / "v.zeta"
    path.write_text(f"q = 3\ndim = 64\nzeta_num = 1\nzeta_den = 1 -{3**64}\n")
    code, out, err = run(capsys, "count", "--variety", f"file:{path}", "--limits")
    assert (code, err) == (0, "")
    assert out == ("rep=1: normalized limit = 3433683820292512484657849089280/"
                   "3433683820292512484657849089281, expectation = 1\n")


@pytest.mark.parametrize(
    "dim, zeta_den, pole",
    [
        ("2", "1 -3", "1/9"),  # the affine line, whose pole is at 1/3
        ("1", "1 -12 27", "1/3"),  # (1 - 3t)(1 - 9t): Z(t)/Z(t^2) is regular at 1/3
    ],
    ids=["affine-line-as-a-surface", "pole-cancelled"],
)
def test_count_limits_refuse_a_zeta_without_a_pole_at_q_to_the_minus_dim(tmp_path, dim,
                                                                         zeta_den, pole):
    # both printed normalized limit = 0 and a wrong expectation, and exited 0
    path = tmp_path / "v.zeta"
    path.write_text(f"q = 3\ndim = {dim}\nzeta_num = 1\nzeta_den = {zeta_den}\n")
    proc, elapsed = run_child("count", "--variety", f"file:{path}", "--limits", "--rep", "V1",
                              timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: Z(V,t)/Z(V,t^2) has no pole at t = {pole}: "
                           f"dim = {dim} does not match the zeta function\n")
    assert elapsed < 1


@pytest.mark.parametrize("dim", ["\u00b2", "\u0663"], ids=["superscript-two", "arabic-indic-three"])
def test_count_accepts_only_ascii_digits_as_a_dimension(capsys, dim):
    # isdigit() accepts both; int() refused the superscript with its own
    # message and read the Arabic-Indic digit as 3
    code, out, err = run(capsys, "count", "--variety", f"affine:{dim}", "--q", "3")
    assert code == 2
    assert err == f"error: expected affine:<dim>, got 'affine:{dim}'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["conf-betti", "--rep", "٣*X1"],
        ["conf-betti", "--rep", "C(X1,٢)"],
        ["conf-betti", "--rep", "V1", "--max-i", "٣"],
        ["conf-betti", "--rep", "V1", "--max-i", "1_0"],
        ["verify", "--side", "conf", "--q", "٣"],
        ["verify", "--side", "conf", "--q", "1_1"],
        ["count", "--variety", "affine:1", "--q", "3", "--lambda", "١"],
    ],
    ids=["rep-factor", "rep-binomial", "max-i-arabic-indic", "max-i-underscore",
         "q-arabic-indic", "q-underscore", "lambda-arabic-indic"],
)
def test_integers_in_argv_and_reps_take_only_ascii_digits(capsys, argv):
    # int() reads Arabic-Indic digits and "_" separators, and \d matches
    # every decimal digit: each of these ran as if its digits were ASCII
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith("\n")


def test_integers_in_argv_may_carry_surrounding_whitespace(capsys):
    assert parse_args(["conf-betti", "--rep", "V1", "--max-i", " 3 "]).max_i == 3
    code, doc = run_json(capsys, "verify", "--side", "conf", "--q", "3, 5", "--max-n", "1")
    assert code == 0 and doc["meta"]["q"] == [3, 5]
    code, doc = run_json(capsys, "count", "--variety", "affine:1", "--q", "3", "--lambda", " 1 ")
    assert code == 0 and doc["meta"]["weight"] == "lambda=( 1 )"


# 10^18 + 3 is prime, and 1000000016000000063 = (10^9 + 7)(10^9 + 9)


def test_count_accepts_a_large_prime_q():
    proc, _ = run_child("count", "--variety", "affine:1", "--q", "1000000000000000003",
                        "--max-n", "2", timeout=5)
    assert proc.returncode == 0, proc.stderr


def test_count_rejects_a_large_composite_q():
    proc, _ = run_child("count", "--variety", "affine:1", "--q", "1000000016000000063",
                        "--max-n", "2", timeout=5)
    assert proc.returncode == 2
    assert "not a prime power" in proc.stderr


def test_verify_bruteforce_guard_rejects_a_large_prime_q():
    proc, _ = run_child("verify", "--side", "conf", "--q", "1000000000000000003",
                        "--max-n", "1", "--bruteforce", timeout=5)
    assert proc.returncode == 2
    assert "exceeds the guard" in proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["count", "--variety", "affine:1", "--q", "3,5"], "count takes a single --q"),
        (["verify", "--side", "tori", "--q", "3", "--bruteforce"],
         "--bruteforce applies to the conf side only"),
        (["verify", "--side", "conf", "--q", "4,6"], "q = 6 is not a prime power"),
        (["verify", "--side", "conf", "--q", ","], "--q is empty"),
        (["verify", "--side", "tori", "--q", "1"], "q = 1 is not a prime power"),
        (["count", "--variety", "affine:1"], "builtin varieties need --q"),
        (["count", "--variety", "file:{F}", "--q", "5"], "--q 5 conflicts with q = 3 from {F}"),
        (["count", "--variety", "sphere:2", "--q", "3"],
         "unknown variety 'sphere:2'; use affine:d, projective:d or file:PATH"),
        (["tori-betti", "--rep", "X1 X2"], "trailing input at token 1"),
        # a strong pseudoprime to the first 12 Miller-Rabin bases
        (["verify", "--side", "tori", "--q", "318665857834031151167461", "--max-n", "2"],
         "q = 318665857834031151167461 is not a prime power"),
    ],
    ids=["count-two-qs", "bruteforce-on-tori", "composite-q", "empty-q", "q-one", "builtin-without-q",
         "file-q-conflict", "unknown-variety", "trailing-token", "pseudoprime-q"],
)
def test_cli_refusals_name_the_bad_input(tmp_path, capsys, argv, message):
    path = tmp_path / "v.zeta"
    path.write_text("q = 3\ndim = 1\nzeta_num = 1\nzeta_den = 1 -3\n")
    code, out, err = run(capsys, *[arg.replace("{F}", str(path)) for arg in argv])
    assert (code, out) == (2, "")
    assert err == f"error: {message.replace('{F}', str(path))}\n"


def test_count_refuses_a_q_too_large_to_decide(capsys):
    code, out, err = run(capsys, "count", "--variety", "affine:1", "--q",
                         str(PRIME_TEST_BOUND), "--max-n", "2")
    assert code == 2
    assert f"q must be below {PRIME_TEST_BOUND}" in err


def test_count_names_the_inputs_to_lower_when_a_value_is_too_long_to_print():
    # at q = 3^51 the count of 3 points in A^64 has about 4,900 digits
    proc, _ = run_child("count", "--variety", "affine:64", "--q", str(3**51),
                        "--max-n", "3", timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.strip() == (
        f"error: a value has more than {sys.get_int_max_str_digits()} digits; "
        "lower --q, --max-n or the dimension of the variety"
    )
    assert "set_int_max_str_digits" not in proc.stderr
    assert proc.stdout == ""


TOO_LONG = (f"error: a value has more than {sys.get_int_max_str_digits()} digits; "
            "lower --q, --max-n or the dimension of the variety")


def test_the_library_refuses_a_value_too_long_to_print_as_the_cli_does():
    # series.ratio owns the refusal: a numerator, a denominator and a rep's
    # coefficient past the limit each raise the text the CLI prints
    big = 10 ** sys.get_int_max_str_digits()
    for refused in (lambda: ratio(big, 1), lambda: ratio(1, big),
                    lambda: str(CharPoly({(): big}) * CharPoly.variable(1))):
        with pytest.raises(ValueError) as info:
            refused()
        assert f"error: {info.value}" == TOO_LONG
    assert shown(big) == shown(1, big) == "(a value too long to print)"


@pytest.mark.parametrize(
    "argv",
    [
        # each computed for 2-3 s before the digit limit refused to print it
        ("--variety", "projective:64", "--q", "3", "--max-n", "200"),
        ("--variety", "affine:64", "--q", "7", "--max-n", "200", "--format", "json"),
        ("--variety", "affine:64", "--q", "7", "--max-n", "80", "--rep", "2/3+X1"),
    ],
    ids=["projective", "affine-json", "affine-just-outside"],
)
def test_count_refuses_a_series_too_long_to_print_at_its_first_long_value(argv):
    # the series is read lazily, so the first value too long to print ends
    # the work before the rest of the series is computed
    proc, elapsed = run_child("count", *argv, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.strip() == TOO_LONG
    assert proc.stdout == ""
    assert elapsed < 1


@pytest.mark.parametrize(
    "rep, n",
    [
        # 7^(64 * 79) has 4,270 digits; at n = 80 the same weight is refused above
        ("2/3+X1", 79),
        # V11 cancels: its counts stay far below the unweighted ones, so it
        # prints at n = 80 and is not refused by their size
        ("V11", 80),
        ("0", 80),
    ],
    ids=["just-inside", "cancelling-weight", "zero-weight"],
)
def test_count_prints_what_fits_the_digit_limit(rep, n):
    proc, elapsed = run_child("count", "--variety", "affine:64", "--q", "7", "--max-n", str(n),
                              "--rep", rep, "--format", "json", timeout=30)
    assert proc.returncode == 0, proc.stderr
    values = [row["value"] for row in json.loads(proc.stdout)["data"]]
    assert len(values) == n + 1
    if rep == "2/3+X1":
        # the unweighted count 7^(64 n) - 7^(64 (n - 1)) times 2/3, plus the
        # count of rational points over all configurations
        assert Fraction(values[n]) >= Fraction(2, 3) * (7 ** (64 * n) - 7 ** (64 * (n - 1)))
    assert elapsed < 5


def _projective_zeta_file(path, d, q):
    """P^d over F_q as a variety file: Z = 1 / prod_(i<=d) (1 - q^i t)."""
    den = [1]
    for i in range(d + 1):
        den = [a - q**i * b for a, b in zip(den + [0], [0] + den)]
    path.write_text(f"q = {q}\ndim = {d}\nzeta_num = 1\nzeta_den = {' '.join(map(str, den))}\n")
    return f"file:{path}"


@pytest.mark.parametrize("variety", ["projective:64", "file"])
def test_count_refuses_at_the_first_value_too_long_to_print(tmp_path, variety):
    # V11 has a negative coefficient and a file is no builtin, so no bound
    # on the counts refuses these before the work: it ends at the first value
    # too long to print (n = 23 on P^64), not after the series to n = 200.
    # P^64 over F_997 does not fit a file: its top zeta coefficient has 6,237
    # digits, more than a number may have.  P^48's has 3,527.
    if variety == "file":
        variety = _projective_zeta_file(tmp_path / "p48.zeta", 48, 997)
    proc, elapsed = run_child("count", "--variety", variety, "--q", "997", "--max-n", "200",
                              "--rep", "V11", timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.strip() == TOO_LONG
    assert proc.stdout == ""
    assert elapsed < 1


def test_the_unweighted_count_is_at_least_half_of_q_to_the_d_n():
    # the count series of every builtin against a lower bound that shares
    # no code with it
    for kind, d, q in (("affine", 1, 2), ("affine", 3, 5), ("projective", 1, 2),
                       ("projective", 2, 3), ("projective", 4, 2)):
        nums, den = count_values(builtin_variety(kind, d, q), parse_rep("1"), 40)
        assert den == 1 and all(2 * c >= q ** (d * n) for n, c in enumerate(nums)), (kind, d, q)


@pytest.mark.parametrize(
    "argv",
    [
        ("conf-betti", "--max-i", "1", "--max-n", "1"),
        ("count", "--variety", "affine:1", "--q", "3", "--max-n", "2"),
    ],
    ids=["conf-betti", "count"],
)
def test_a_rep_too_long_to_print_gives_the_digit_message(capsys, argv):
    # each number has fewer digits than the limit, their product more
    nines = "9" * 3000
    code, out, err = run(capsys, *argv, "--rep", f"{nines}*{nines}*X1")
    assert code == 2
    assert out == ""
    assert err.strip() == (
        f"error: a value has more than {sys.get_int_max_str_digits()} digits; "
        "lower --q, --max-n or the dimension of the variety"
    )


def test_count_rejects_negative_max_n(capsys):
    code, out, err = run(
        capsys, "count", "--variety", "affine:1", "--q", "3", "--rep", "V11", "--max-n", "-1"
    )
    assert code == 2
    assert "--max-n must be nonnegative" in err


@pytest.mark.parametrize("lam", ["-1,1", "1,x"])
def test_count_names_a_bad_lambda(capsys, lam):
    code, out, err = run(capsys, "count", "--variety", "affine:1", "--q", "3", f"--lambda={lam}")
    assert code == 2
    assert err.strip() == f"error: --lambda expects nonnegative integers, got {lam!r}"


def test_count_lambda_zero_is_the_empty_weight(capsys):
    code, doc = run_json(capsys, "count", "--variety", "affine:1", "--q", "3", "--lambda", "0",
                         "--max-n", "3")
    assert code == 0 and doc["meta"]["weight"] == "lambda=(0)"
    assert [r["value"] for r in doc["data"]] == ["1", "3", "6", "18"]


def test_count_rejects_rep_and_lambda(capsys):
    code, out, err = run(
        capsys, "count", "--variety", "affine:1", "--q", "3", "--rep", "1", "--lambda", "1"
    )
    assert code == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_conf_passes(capsys):
    code, doc = run_json(
        capsys,
        "verify", "--side", "conf", "--q", "3", "--max-n", "4",
        "--rep", "1,V1,V11", "--bruteforce",
    )
    assert code == 0
    assert all(r["pass"] for r in doc["data"])
    assert all("brute" in r for r in doc["data"])
    assert len(doc["data"]) == 5 * 3


def test_verify_tori_passes(capsys):
    code, doc = run_json(
        capsys, "verify", "--side", "tori", "--q", "2,3,5", "--max-n", "4", "--rep", "1,V1"
    )
    assert code == 0
    rows = doc["data"]
    assert len(rows) == 3 * 5 * 2
    # deterministic (q, n, rep) ordering
    keys = [(r["q"], r["n"], r["rep"]) for r in rows]
    assert keys == sorted(keys, key=lambda k: (k[0], k[1], ["1", "V1"].index(k[2])))


@pytest.mark.parametrize("max_n", ["10000000", "100000000"])
def test_verify_checks_its_n_cap_before_the_bruteforce_guard(max_n):
    # the guard's 3^max_n ran for over 60 s at 10^8, and at 10^7 the
    # guard's message hid the cap
    proc, _ = run_child("verify", "--side", "conf", "--q", "3", "--max-n", max_n,
                        "--bruteforce", timeout=5)
    assert proc.returncode == 2
    assert proc.stderr.strip() == f"error: --max-n is capped at {MAX_VERIFY_N}"


def test_verify_default_guard_rejects_5_to_the_11(capsys):
    # checked first, so a guard that admits 5^11 (about 29 GB of polynomials)
    # never starts the enumeration
    assert 5**11 > GUARD
    code, out, err = run(
        capsys, "verify", "--side", "conf", "--q", "5", "--max-n", "11", "--rep", "1", "--bruteforce"
    )
    assert code == 2
    assert f"brute force at q=5, n=11 exceeds the guard {GUARD}" in err


def test_verify_even_q_note(capsys):
    code, doc = run_json(
        capsys, "verify", "--side", "conf", "--q", "2", "--max-n", "3", "--rep", "1"
    )
    assert code == 0
    assert any("odd" in note for note in doc["meta"]["notes"])


def test_verify_exit_code_nonzero_on_fail(capsys, monkeypatch):
    import betticount.cli as cli_mod

    def disagree(rep, qs, max_n):
        # against the count 1 of the trivial rep on T_0 and T_1:
        # 2/2 is equal, and 2 is not
        return {(q, n): (2, 2) if n else (2, 1) for q in qs for n in range(max_n + 1)}

    monkeypatch.setattr(cli_mod.SIDES["tori"], "gl_sums", disagree)
    code, out, err = run(
        capsys, "verify", "--side", "tori", "--q", "2", "--max-n", "1", "--rep", "1"
    )
    assert code == 1
    assert "q=2 n=0 rep=1: lhs=1 rhs=2 FAIL" in out
    # values compare by cross-multiplying: 2/2 prints as 1 and passes
    assert "q=2 n=1 rep=1: lhs=1 rhs=1 PASS" in out
    assert out.count("FAIL") == 1 and out.endswith("1/2 checks passed\n")


@pytest.mark.parametrize("side", ["conf", "tori"])
def test_verify_splits_reps_only_at_commas_outside_parentheses(capsys, side):
    args = ("verify", "--side", side, "--q", "3", "--max-n", "3")
    code, doc = run_json(capsys, *args, "--rep", "C(X1,2),V1")
    assert code == 0
    assert doc["meta"]["reps"] == ["C(X1,2)", "V1"]
    for rep in ("C(X1,2)", "V1"):
        code, single = run_json(capsys, *args, "--rep", rep)
        assert code == 0
        assert [row for row in doc["data"] if row["rep"] == rep] == single["data"]


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet="(),X1C2 -\u00e9", max_size=30))
def test_split_reps_matches_the_regex_it_replaced(text):
    assert _split_reps(text) == re.split(r",(?![^()]*\))", text)


@pytest.mark.parametrize("text, reps", [
    ("", [""]), (",", ["", ""]), ("1,V1,V11,V2", ["1", "V1", "V11", "V2"]),
    ("C(X1,2),V1", ["C(X1,2)", "V1"]), ("(X1,X2),(X3", ["(X1,X2)", "(X3"]),
    # the first parenthesis after the comma decides, not the depth
    ("a,b)", ["a,b)"]), ("(a),b)", ["(a),b)"]), ("a),b", ["a)", "b"]),
])
def test_split_reps_splits_where_the_next_parenthesis_is_not_a_closing_one(text, reps):
    assert _split_reps(text) == reps == re.split(r",(?![^()]*\))", text)


def test_verify_rejects_negative_max_n(capsys):
    code, out, err = run(capsys, "verify", "--side", "conf", "--q", "3", "--max-n", "-1")
    assert code == 2
    assert "--max-n must be nonnegative" in err
    assert "checks passed" not in out


def test_verify_tori_budget_at_the_n_cap(capsys):
    start = time.monotonic()
    code, doc = run_json(
        capsys, "verify", "--side", "tori", "--q", "2,3", "--max-n", str(MAX_VERIFY_N),
        "--rep", "1,V1,V11,V2",
    )
    assert time.monotonic() - start < 30
    assert code == 0
    assert len(doc["data"]) == 2 * (MAX_VERIFY_N + 1) * 4
    assert all(r["pass"] for r in doc["data"])


def test_verify_tori_at_the_n_cap_with_the_largest_q_ends_in_its_budget():
    # the largest prime below zeta.PRIME_TEST_BOUND: its values pass the digit
    # limit, which verify checks only after the work
    proc, elapsed = run_child("verify", "--side", "tori", "--q", "3317044064679887385961813",
                              "--max-n", str(MAX_VERIFY_N), timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: a value has more than ")
    assert elapsed < 5


def test_verify_bruteforce_budget_at_the_top_of_the_guard():
    # 3^12 is the largest power of 3 under GUARD; the child
    # reports its own peak RSS, so the bound covers the whole sieve
    assert 3**12 <= GUARD < 3**13
    env = _child_env()
    code = (
        "import resource, sys\n"
        "from betticount.cli import main\n"
        "rc = main(['verify', '--side', 'conf', '--q', '3', '--max-n', '12', '--rep', '1',"
        " '--bruteforce', '--format', 'json'])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)["data"]
    assert len(rows) == 13
    assert all(r["pass"] and "brute" in r for r in rows)
    assert elapsed < 30
    assert int(proc.stderr.split()[-1]) < 250 * 1024  # ru_maxrss is in KiB on Linux


def test_verify_rejects_a_non_prime_q_before_any_brute_force(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(
        conf_counts, "bruteforce_census", lambda *a, **k: calls.append(a) or []
    )
    code, out, err = run(
        capsys, "verify", "--side", "conf", "--q", "3,4", "--max-n", "6", "--bruteforce"
    )
    assert code == 2
    assert "q = 4 is not prime" in err
    assert calls == []


def test_verify_checks_the_guard_for_every_q_before_any_brute_force(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(
        conf_counts, "bruteforce_census", lambda *a, **k: calls.append(a) or []
    )
    assert 3**6 <= GUARD < 11**6
    code, out, err = run(
        capsys, "verify", "--side", "conf", "--q", "3,11", "--max-n", "6", "--bruteforce"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: brute force at q=11, n=6 exceeds the guard {GUARD}; lower --max-n\n"
    assert calls == []


def test_verify_builds_one_census_per_q(capsys, monkeypatch):
    census = conf_counts.bruteforce_census
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return census(*args, **kwargs)

    monkeypatch.setattr(conf_counts, "bruteforce_census", counted)
    code, doc = run_json(
        capsys, "verify", "--side", "conf", "--q", "3,5", "--max-n", "4",
        "--rep", "1,V1", "--bruteforce",
    )
    assert code == 0
    assert len(doc["data"]) == 2 * 5 * 2
    assert [a[:2] for a in calls] == [(3, 4), (5, 4)]


def test_verify_builds_one_table_per_rep_and_one_count_oracle_per_q(capsys, monkeypatch):
    import betticount.cli as cli_mod

    calls = {"betti_table": [], "closed_point_counts": []}
    for owner, name in ((cli_mod.SIDES["conf"], "betti_table"),
                        (conf_counts, "closed_point_counts")):
        def counted(*args, _fn=getattr(owner, name), _log=calls[name]):
            _log.append(args)
            return _fn(*args)

        monkeypatch.setattr(owner, name, counted)
    code, doc = run_json(
        capsys, "verify", "--side", "conf", "--q", "3,5,7", "--max-n", "5",
        "--rep", "1,V1,V11", "--bruteforce",
    )
    assert code == 0
    assert len(doc["data"]) == 3 * 6 * 3
    assert [a[1:] for a in calls["betti_table"]] == [(4, 5)] * 3
    assert [(v.q, depth) for v, depth in calls["closed_point_counts"]] == [(3, 5), (5, 5), (7, 5)]


def test_count_expands_the_product_once_for_a_multi_term_rep(capsys, monkeypatch):
    import betticount.cli as cli_mod

    counts = conf_counts.closed_point_series
    calls = []

    def counted(v, depth):
        calls.append(depth)
        return counts(v, depth)

    monkeypatch.setattr(conf_counts, "closed_point_series", counted)
    rep = "C(X1,2) - X2 + 1/2*C(X1,3) - 2/3*X2*X3 + 5/7"
    code, doc = run_json(
        capsys, "count", "--variety", "affine:1", "--q", "3", "--rep", rep, "--max-n", "12"
    )
    assert code == 0
    assert len(cli_mod.parse_rep(rep).items()) > 3
    # the closed-point counts are read once, one at a time, and checked to --max-n
    assert calls == [12]
    v = builtin_variety("affine", 1, 3)
    assert [Fraction(r["value"]) for r in doc["data"]] == [
        partition_weighted_count(v, cli_mod.parse_rep(rep), n) for n in range(13)
    ]


@pytest.mark.parametrize("side", ["conf", "tori"])
def test_stable_series_is_built_once_per_command(capsys, monkeypatch, side):
    import betticount.cli as cli_mod

    owner = cli_mod.SIDES[side]
    build = owner.stable_series
    calls = []

    def counted(rep):
        calls.append(rep)
        return build(rep)

    monkeypatch.setattr(owner, "stable_series", counted)
    code, doc = run_json(
        capsys, f"{side}-betti", "--rep", "V11", "--max-i", "4", "--max-n", "6", "--stable"
    )
    assert code == 0
    assert "recurrence" in doc["meta"]
    assert len(calls) == 1


@pytest.mark.parametrize("side", ["conf", "tori"])
def test_betti_stable_rejects_the_zero_rep(capsys, side):
    code, out, err = run(capsys, f"{side}-betti", "--rep", "0", "--stable")
    assert code == 2
    assert err == "error: zero character polynomial\n"
    assert out == ""


# ---------------------------------------------------------------------------
# command line grammar and help


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "no command given; the commands are conf-betti, tori-betti, count, verify"),
        (["betti"], "unknown command 'betti'; the commands are conf-betti, tori-betti, count, verify"),
        (["conf-betti", "--rep", "V1", "--colour", "red"], "conf-betti takes no argument '--colour'"),
        (["tori-betti", "--rep", "V1", "extra"], "tori-betti takes no argument 'extra'"),
        (["conf-betti", "--rep", "V1", "--brute"], "conf-betti takes no argument '--brute'"),
        (["verify", "--side", "conf", "--q", "3", "--brute"], "verify takes no argument '--brute'"),
        (["conf-betti", "--rep"], "--rep expects a value"),
        (["conf-betti", "--rep", "--max-n", "3"], "--rep expects a value"),
        (["conf-betti", "--rep", "V1", "--stable=yes"], "--stable takes no value"),
        (["conf-betti", "--rep", "V1", "--max-n", "x"], "--max-n expects an integer, got 'x'"),
        (["count", "--variety", "affine:1", "--max-n=1.5"], "--max-n expects an integer, got '1.5'"),
        (["verify", "--side", "conf", "--q", "3", "--max-n", "9" * 5000],
         f"--max-n expects an integer, got '{'9' * 5000}'"),
        (["tori-betti", "--rep", "V1", "--format", "xml"],
         "--format must be one of table, csv, json, got 'xml'"),
        (["verify", "--side", "both", "--q", "3"], "--side must be one of conf, tori, got 'both'"),
        (["conf-betti", "--max-n", "3"], "conf-betti needs --rep"),
        (["count", "--q", "3"], "count needs --variety"),
        (["verify"], "verify needs --side and --q"),
        (["verify", "--side", "conf", "--q", "3", "--guard", "10"],
         "verify takes no argument '--guard'"),
        # each printed the unweighted count as lambda=()
        (["count", "--variety", "affine:1", "--q", "3", "--lambda", ""], "--lambda is empty"),
        (["count", "--variety", "affine:1", "--q", "3", "--lambda= , "], "--lambda is empty"),
    ],
    ids=[
        "no-command", "unknown-command", "unknown-option", "stray-argument", "abbreviation",
        "abbreviated-flag", "missing-value-at-end", "option-for-value", "flag-with-value",
        "non-integer", "non-integer-after-equals", "integer-too-long", "bad-format",
        "bad-side", "missing-rep", "missing-variety", "missing-side-and-q", "removed-guard",
        "blank-lambda", "commas-only-lambda",
    ],
)
def test_a_bad_command_line_exits_2_with_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, flag, hi",
    [
        (["conf-betti", "--rep", "V1"], "--max-i", MAX_DEGREE),
        (["tori-betti", "--rep", "V1"], "--max-n", MAX_DEGREE),
        (["count", "--variety", "affine:1"], "--max-n", MAX_COUNT_N),
        (["verify", "--side", "conf", "--q", "3"], "--max-n", MAX_VERIFY_N),
    ],
    ids=["betti-max-i", "betti-max-n", "count-max-n", "verify-max-n"],
)
def test_an_integer_option_takes_exactly_its_range(capsys, argv, flag, hi):
    assert getattr(parse_args([*argv, flag, str(hi)]), flag[2:].replace("-", "_")) == hi
    for value, message in ((hi + 1, f"{flag} is capped at {hi}"), (-1, f"{flag} must be nonnegative")):
        code, out, err = run(capsys, *argv, flag, str(value))
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--side", "conf", "--q", "3", "--rep", ""],
        ["verify", "--side", "conf", "--q", "3", "--rep", ","],
        ["verify", "--side", "conf", "--q", "3", "--rep", "1,,V1"],
        ["conf-betti", "--rep="],
    ],
    ids=["verify-empty", "verify-comma", "verify-empty-entry", "betti-empty-after-equals"],
)
def test_an_empty_rep_is_refused_by_name(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert err.startswith("error: ") and "--rep" in err


def test_an_option_may_be_joined_to_its_value_with_equals(capsys):
    spaced = run(capsys, "tori-betti", "--rep", "C(X1,2)", "--max-i", "3", "--max-n", "4", "--stable")
    joined = run(capsys, "tori-betti", "--rep=C(X1,2)", "--max-i=3", "--max-n=4", "--stable")
    assert spaced == joined
    assert spaced[0] == 0 and spaced[2] == ""


def test_a_repeated_option_keeps_its_last_value(capsys):
    code, doc = run_json(capsys, "conf-betti", "--rep", "V2", "--max-n", "9", "--max-n", "3")
    assert code == 0
    assert doc["meta"]["max_n"] == 3


def test_help_lists_the_commands_and_each_option_with_its_default(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    for command in ("conf-betti", "tori-betti", "count", "verify"):
        assert f"\n  {command} " in out
    code, out, err = run(capsys, "verify", "-h")
    assert (code, err) == (0, "")
    lines = {line.split()[0]: line for line in out.splitlines() if line.startswith("  --")}
    assert list(lines) == ["--side", "--q", "--max-n", "--rep", "--bruteforce", "--format"]
    assert lines["--side"].startswith("  --side {conf,tori}") and lines["--side"].endswith("(required)")
    assert lines["--max-n"].startswith(f"  --max-n INT 0..{MAX_VERIFY_N} ")
    assert lines["--max-n"].endswith("(default 6)")
    assert lines["--format"].endswith("(default table)")
    assert "default" not in lines["--bruteforce"]


def test_the_module_without_arguments_exits_2_and_with_help_exits_0():
    proc, _ = run_child(timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: no command given") and proc.stderr.count("\n") == 1
    proc, _ = run_child("--help", timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: betticount COMMAND") and proc.stderr == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("tori-betti", "--rep", "V11", "--max-i", "4", "--max-n", "5"),
        ("conf-betti", "--rep", "V2", "--max-i", "4", "--max-n", "5", "--stable"),
        ("count", "--variety", "affine:2", "--q", "3", "--rep", "V1", "--max-n", "5"),
        ("count", "--variety", "projective:1", "--q", "5", "--rep", "V11", "--limits"),
        ("verify", "--side", "conf", "--q", "3", "--max-n", "3", "--bruteforce"),
        ("conf-betti", "--rep", "X1 +"),
        ("count", "--help"),
    ],
    ids=["tori-betti", "conf-betti-stable", "count", "count-limits", "verify-bruteforce",
         "parse-error", "help"],
)
def test_the_process_entry_prints_what_main_returns(capsys, argv):
    # run() ends the process without interpreter teardown: whatever is still
    # in the block-buffered stdout must be flushed first
    code, out, err = run(capsys, *argv)
    proc = subprocess.run([sys.executable, "-m", "betticount.cli", *argv],
                          capture_output=True, timeout=30, env=_child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())


def test_a_profiled_run_still_prints_its_stats():
    # under a profiler run() exits normally, so cProfile reports at exit
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "betticount.cli", "tori-betti", "--rep", "V11",
         "--max-i", "3", "--max-n", "3"],
        capture_output=True, text=True, timeout=30, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    table, _, stats = proc.stdout.partition("function calls")
    assert table.startswith("beta_i(n) for rep V11\n")
    assert "ncalls" in stats and "cli.py" in stats


def _sibling_interpreters():
    """The other interpreters of version 3.10.7 or later (requires-python)
    installed beside this one, in a pyenv-style tree of versions/X.Y.Z/bin."""
    here = Path(sys.executable).resolve()
    found = []
    for exe in sorted(here.parents[2].glob("*/bin/python3")):
        try:
            version = tuple(map(int, exe.parents[1].name.split(".")))
        except ValueError:
            continue
        if version >= (3, 10, 7) and exe.resolve() != here:
            found.append(pytest.param(exe, id=exe.parents[1].name))
    return found or [pytest.param(None, marks=pytest.mark.skip(
        reason=f"no interpreter of 3.10.7 or later beside {here}"))]


SIBLING_ARGV = [
    ("tori-betti", "--rep", "V11", "--max-i", "5", "--max-n", "6", "--stable", "--format", "json"),
    ("conf-betti", "--rep", "V2", "--stable", "--format", "csv"),
    ("count", "--variety", "projective:2", "--q", "3", "--rep", "V1", "--max-n", "8"),
    ("verify", "--side", "conf", "--q", "3", "--max-n", "3", "--bruteforce"),
    ("count", "--variety", "affine:1", "--rep", "V1"),  # exit 2: no --q
]


@cache
def _run_under(interpreter, *argv):
    """(exit code, stdout bytes, stderr bytes) of interpreter run on argv."""
    proc = subprocess.run([interpreter, *argv], capture_output=True, timeout=60, env=_child_env())
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("exe", _sibling_interpreters())
def test_every_supported_interpreter_prints_the_same_bytes(exe):
    # on 3.12+ cProfile registers as a sys.monitoring tool and leaves
    # sys.getprofile() unset, so only that check keeps its report
    for argv in SIBLING_ARGV:
        ours = _run_under(sys.executable, "-m", "betticount.cli", *argv)
        assert _run_under(exe, "-m", "betticount.cli", *argv) == ours, argv
    code, table, err = _run_under(sys.executable, "-m", "betticount.cli", *SIBLING_ARGV[2])
    profiled = _run_under(exe, "-m", "cProfile", "-m", "betticount.cli", *SIBLING_ARGV[2])
    assert (profiled[0], profiled[2]) == (code, err) == (0, b"")
    assert profiled[1].startswith(table) and b"ncalls" in profiled[1][len(table):]


# ---------------------------------------------------------------------------
# output formats


def test_json_round_trip_bytes(capsys):
    code, out, err = run(
        capsys, "conf-betti", "--rep", "V2", "--max-i", "4", "--max-n", "7",
        "--format", "json",
    )
    parsed = json.loads(out)
    redumped = json.dumps(parsed, indent=2) + "\n"
    assert redumped == out
    for row in parsed["data"]:
        v = Fraction(row["value"])
        assert str(v) == row["value"]


@pytest.mark.parametrize("side", ["conf", "tori"])
def test_betti_cells_print_each_entry_in_lowest_terms(capsys, side):
    import betticount.cli as cli_mod

    rep = "1/2*C(X1,2) - 5/3*X2 + 1/4*X1"
    code, doc = run_json(capsys, f"{side}-betti", "--rep", rep, "--max-i", "6", "--max-n", "7")
    assert code == 0
    sd = cli_mod.SIDES[side]
    table = betti_rows(sd, cli_mod.parse_rep(rep), 6, 7)
    expected = [(i, n, str(table[i][n]))
                for i in range(7) for n in range(8) if i <= sd.top(n)]
    assert [(r["i"], r["n"], r["value"]) for r in doc["data"]] == expected
    values = {r["value"] for r in doc["data"]}
    assert "0" in values and any("/" in v for v in values) and any(v[0] == "-" for v in values)


def test_csv_and_table_match_json_payload(capsys):
    args = ["conf-betti", "--rep", "V11", "--max-i", "5", "--max-n", "8"]
    _, doc = run_json(capsys, *args)
    code, csv_out, _ = run(capsys, *args, "--format", "csv")
    data_lines = [l for l in csv_out.splitlines() if not l.startswith("#")]
    header = data_lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in data_lines[1:]]
    json_rows = [
        {"i": str(r["i"]), "n": str(r["n"]), "value": r["value"]} for r in doc["data"]
    ]
    assert rows == json_rows
    code, table_out, _ = run(capsys, *args)
    for r in doc["data"]:
        assert r["value"] in table_out


def test_verify_table_prints_pass_lines(capsys):
    code, out, err = run(
        capsys, "verify", "--side", "tori", "--q", "2", "--max-n", "2", "--rep", "1"
    )
    assert code == 0
    assert out.count("PASS") == 3
    assert "3/3 checks passed" in out


def test_render_handles_empty_document():
    doc = OutputDocument(kind="table", meta={"x": 1}, data=[])
    assert render(doc, "csv") == '# x: 1'
    assert render_json(doc)
    assert render(doc, "table") == ""


def _json_equal(tree):
    """render_json of a document whose meta holds tree, against json.dumps(indent=2)."""
    doc = OutputDocument(kind="table", meta={"tree": tree})
    expected = json.dumps({"kind": "table", "meta": {"tree": tree}, "data": []}, indent=2)
    return render_json(doc) == expected


@pytest.mark.parametrize(
    "tree",
    [
        {"a": {"b": [1, [2, {"c": []}]], "d": {}}, "e": [{}, [], [[]]]},
        [],
        {},
        [True, False, {"t": True, "f": False}],
        [-1, 0, -(10**40), 10**300, {"neg": -7}],
        ['say "hi"', "back\\slash", "new\nline\ttab", "caf\u00e9 \u03b1 \U0001f600", "\x00\x1f"],
        {'key "q"\\\n\u00e9': "v", "": ""},
    ],
    ids=["nested", "empty-list", "empty-dict", "bools", "ints", "strings", "keys"],
)
def test_render_json_matches_json_dumps(tree):
    assert _json_equal(tree)


def test_json_writes_every_string_as_json_dumps_does():
    texts = [chr(c) for c in range(0x100)]
    texts += ["\U0001f600", "a\U00010000b\U0010ffff", "\ud800", "x\udfffy", "\udbff\udc00",
              "\u2028\u2029", "\ufeff", "".join(texts)]
    for text in texts:
        assert _json(text, "") == json.dumps(text), repr(text)


@pytest.mark.parametrize("column", [
    ["plain", 'a "quote"'], ["back\\slash", "plain"], ["del\x7f"], ["tab\t", "nl\n", "nul\x00"],
    ["caf\u00e9", "ok"], ["\ud800", "\U0001f600"], ["%s", "%d %%", "plain"],
])
def test_a_column_that_needs_escapes_renders_as_json_dumps_does(column):
    rows = [(n, text, "plain") for n, text in enumerate(column)]
    doc = OutputDocument("table", {}, rows, ("n", "text", "same"))
    dict_rows = [{"n": n, "text": text, "same": same} for n, text, same in rows]
    assert render_json(doc) == json.dumps({"kind": "table", "meta": {}, "data": dict_rows}, indent=2)


_json_scalars = st.one_of(st.booleans(), st.integers(), st.text())
_json_trees = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_json_trees)
def test_render_json_matches_json_dumps_on_any_tree(tree):
    assert _json_equal(tree)


_cells = st.one_of(st.integers(), st.booleans(), st.text())
# each column of one scalar kind, or mixed; rows are tuples under unique names
_column_kinds = st.sampled_from([st.integers(), st.booleans(), st.text(), _cells])


@st.composite
def _row_documents(draw):
    columns = draw(st.lists(st.text(), max_size=4, unique=True))
    kinds = [draw(_column_kinds) for _ in columns]
    rows = draw(st.lists(st.tuples(*kinds), max_size=5))
    meta = draw(st.dictionaries(st.text(), _cells, max_size=2))
    return columns, rows, meta


@settings(max_examples=300, deadline=None)
@given(_row_documents())
def test_render_json_writes_tuple_rows_as_json_dumps_writes_dict_rows(document):
    columns, rows, meta = document
    doc = OutputDocument("table", meta, rows, tuple(columns))
    dict_rows = [dict(zip(columns, row)) for row in rows]
    assert render_json(doc) == json.dumps(
        {"kind": "table", "meta": meta, "data": dict_rows}, indent=2
    )


@pytest.mark.parametrize(
    "columns, rows",
    [
        (("n", "value"), [(0, "1"), (10**40, "-1/2"), (-3, "0")]),
        (("q", "pass"), [(3, True), (5, False)]),
        (("s",), [('say "hi"',), ("caf\u00e9 \U0001f600",), ("new\nline\x00",)]),
        (("mixed", '%d "%s"'), [(1, True), ("x", 2), (False, "y")]),
        (("i",), []),
        ((), [(), ()]),
        (("list", "dict", "any"), [([1, ["x", []]], {"k": [True, {}]}, [2]),
                                   ([], {}, {"a": {"b": "c"}}),
                                   (["%s"], {"%d": [False]}, 3)]),
    ],
    ids=["int-and-str", "bool", "escapes", "mixed", "no-rows", "no-columns", "list-and-dict"],
)
def test_render_json_writes_each_kind_of_column(columns, rows):
    doc = OutputDocument("table", {"x": [1]}, rows, columns)
    dict_rows = [dict(zip(columns, row)) for row in rows]
    assert render_json(doc) == json.dumps(
        {"kind": "table", "meta": {"x": [1]}, "data": dict_rows}, indent=2
    )


@pytest.mark.parametrize("value", [Fraction(1, 2), 0.5, None])
def test_render_json_refuses_other_types(value):
    for doc in (OutputDocument("table", meta={"x": value}),
                OutputDocument("table", data=[(value,)], columns=("x",)),
                OutputDocument("table", data=[(1,), (value,)], columns=("x",))):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            render_json(doc)


# SHA-256 of the csv and table output, recorded before the rows became
# tuples; the pool digests cover the json output only
CSV_AND_TABLE_SHA256 = [
    (["conf-betti", "--rep", "1/2*C(X1,2)-5/3*X2+1/4*X1", "--max-i", "10", "--max-n", "12",
      "--stable"],
     "1c4a2b696f3dfc4cef70feda32d5eaf6f54657d13494518f881f270aab1d69e1",
     "dedda50c48a124c6a1017fd9c796c3951d4a95f43eadfc8fa17eacd96e4b862e"),
    (["tori-betti", "--rep", "V2", "--max-i", "6", "--max-n", "7", "--stable"],
     "4967b50c422753cc65ae0d00aea4d52bee06f5f30a40cd1a6b98f1f02921011d",
     "5f2a3630d8abd88288afcab3ddf694c7dd08eaced0c096aeadab3e37c418c9d2"),
    (["count", "--variety", "projective:1", "--q", "3", "--rep", "V11", "--max-n", "30"],
     "07bfdd0ca117730c14a0b4309317dcdb187204e90eb3a96fff327b418e0205b9",
     "bfa28f4e1036be5935fa83fadb1fe7d4c84ac036483ef90a149822584065fdc0"),
    (["count", "--variety", "affine:1", "--q", "5", "--rep", "V11", "--limits"],
     "b719587da326af7f1efdc496ff43e23970f2d16c02f8dc36acd39fdce12b7f42",
     "045978960de2427d7f32710e999b4b8e19fd5eefcf81e9cd2394ae3e18807160"),
    (["verify", "--side", "conf", "--q", "2,3", "--max-n", "4", "--rep", "1,V1,C(X1,2)",
      "--bruteforce"],
     "0f304c314c08c01b83515f9426e76c77c0883b7728e49cda1e8edf9b3a4925d8",
     "cf4b6522a80c2cf8682a15655b713718b523ee49363864ce3d2badabbd1846aa"),
]


@pytest.mark.parametrize("argv, csv_sha, table_sha", CSV_AND_TABLE_SHA256,
                         ids=["conf-betti", "tori-betti", "count", "count-limits", "verify"])
def test_csv_and_table_output_keep_their_recorded_bytes(capsys, argv, csv_sha, table_sha):
    for fmt, sha in (("csv", csv_sha), ("table", table_sha)):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == sha, fmt


def test_import_loads_only_what_the_commands_use():
    # compared with a bare interpreter, so modules that site preloads on
    # some hosts do not count
    show = "import sys; print(' '.join(sys.modules))"

    def modules(code):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=30, env=_child_env()
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    extra = modules("import betticount.cli; " + show) - modules(show)
    assert "betticount.cli" in extra
    assert not extra & {
        "dataclasses", "inspect", "ast", "dis", "tokenize", "csv", "typing",
        "argparse", "gettext", "json", "json.decoder", "json.encoder", "json.scanner",
        "fractions", "decimal", "_decimal", "numbers", "__future__", "_json",
    }


# per command family: the package modules it loads (None: not pinned) and
# those it must not load.  The child runs under -S, so site preloads
# nothing, and no family loads re, __future__ or _json.
_FAMILY_IMPORTS = {
    "tori-betti": (["tori-betti", "--rep", "V2", "--max-i", "5", "--max-n", "7", "--stable"],
                   {"cli", "chars", "series", "betti", "tori"}, set()),
    "conf-betti": (["conf-betti", "--rep", "V2", "--max-i", "5", "--max-n", "7", "--stable"],
                   None, {"tori", "conf_counts"}),
    "count": (["count", "--variety", "projective:2", "--q", "3", "--rep", "V11", "--max-n", "8"],
              None, {"tori", "conf_betti", "betti"}),
    "count-limits": (["count", "--variety", "affine:1", "--q", "5", "--rep", "V11", "--limits"],
                     None, {"tori", "conf_betti", "betti"}),
    "verify-tori": (["verify", "--side", "tori", "--q", "2,3", "--max-n", "4"],
                    None, {"conf_betti", "conf_counts"}),
    "verify-conf": (["verify", "--side", "conf", "--q", "3", "--max-n", "4", "--bruteforce"],
                    None, {"tori"}),
}


@pytest.mark.parametrize("family", _FAMILY_IMPORTS)
def test_each_command_family_imports_only_what_it_runs(family):
    argv, loads, never = _FAMILY_IMPORTS[family]
    code = f"""if True:
        import contextlib, io, sys
        before = set(sys.modules)
        from betticount.cli import main
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main({argv!r} + ["--format", "json"]) == 0
        assert out.getvalue()
        print(" ".join(sorted(set(sys.modules) - before)))
    """
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    package = {name.removeprefix("betticount.") for name in loaded if name.startswith("betticount.")}
    assert "betticount" in loaded and "cli" in package
    if loads is not None:
        assert package == loads
    assert not package & never
    assert not loaded & {"re", "__future__", "_json"}


def test_no_command_family_loads_fractions():
    # one op of each family in one child process, and then no fractions
    code = """if True:
        import contextlib, io, sys
        before = set(sys.modules)  # what site preloads on some hosts does not count
        from betticount.cli import main
        ops = [
            ["tori-betti", "--rep", "1/2*C(X1,2)-X2", "--max-i", "6", "--max-n", "6", "--stable"],
            ["conf-betti", "--rep", "1/2*C(X1,2)-X2", "--max-i", "6", "--max-n", "6", "--stable"],
            ["count", "--variety", "projective:2", "--q", "3", "--rep", "3/2*X1-1/6", "--max-n", "8"],
            ["count", "--variety", "affine:1", "--q", "5", "--rep", "V11", "--limits"],
            ["verify", "--side", "conf", "--q", "2,3", "--max-n", "4", "--bruteforce", "--rep", "V1,1/2"],
            ["verify", "--side", "tori", "--q", "2,4", "--max-n", "4", "--rep", "V2,X1-1/3"],
        ]
        for argv in ops:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(argv + ["--format", "json"]) == 0, argv
            assert out.getvalue(), argv
        loaded = set(sys.modules) - before
        print(sorted(loaded & {"fractions", "decimal", "_decimal", "numbers"}))
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
