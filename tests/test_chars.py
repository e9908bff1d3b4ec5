import math
import random
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticount.chars import (
    MAX_DEGREE,
    MAX_NESTING,
    CharPoly,
    _tokenize,
    active,
    binomial,
    centralizer_order,
    cycle_type,
    parse_rep,
    partitions,
    weight,
)

from helpers import coefficients, degree, evaluate, ref_add, ref_mul, ref_str


def all_cycle_types(max_n):
    for n in range(max_n + 1):
        yield from partitions(n)


# ---------------------------------------------------------------------------
# cycle types and partitions


def test_cycle_type_normalization():
    c = cycle_type((2, 0, 1, 0))
    assert c == (2, 0, 1) and type(c) is tuple
    assert cycle_type(iter([0, 0])) == ()
    assert weight(c) == 5 and weight(()) == 0
    assert active(c) == [(1, 2), (3, 1)]
    assert cycle_type((2, 0, 1)) in partitions(5)


def test_a_key_with_trailing_zeros_is_the_same_basis_element():
    assert CharPoly({(1, 0): 1}) == CharPoly.binom((1,))
    assert CharPoly({(1, 0): 1, (1,): 2, (0, 0): 3}).items() == [((), 3), ((1,), 3)]


@pytest.mark.parametrize(
    "build",
    [lambda: cycle_type((1, -1)), lambda: CharPoly({(1, -1): 1}), lambda: CharPoly.binom((-1,))],
    ids=["cycle_type", "constructor", "binom"],
)
def test_a_negative_count_is_refused(build):
    with pytest.raises(ValueError, match="nonnegative"):
        build()


def test_partitions_counts():
    assert partitions(0) == [cycle_type(())]
    assert len(partitions(4)) == 5
    assert len(partitions(10)) == 42
    for n in range(9):
        ps = partitions(n)
        assert len(set(ps)) == len(ps)
        assert all(weight(p) == n for p in ps)


def test_centralizer_orders_s3():
    assert centralizer_order(cycle_type((3,))) == 6
    assert centralizer_order(cycle_type((0, 0, 1))) == 3
    assert centralizer_order(cycle_type((1, 1))) == 2


def test_binomial_is_a_product_of_binomial_coefficients():
    assert binomial((3, 2), cycle_type((2, 1))) == 3 * 2
    assert binomial([], cycle_type(())) == 1
    # a_k past the end of a is 0
    assert binomial((4,), cycle_type((1, 1))) == 0
    assert binomial((1, 0, 2), cycle_type((2,))) == 0


def test_class_equation():
    for n in range(1, 9):
        total = sum(
            math.factorial(n) // centralizer_order(mu) for mu in partitions(n)
        )
        assert total == math.factorial(n)


# ---------------------------------------------------------------------------
# evaluation and degree


def test_v11_dimension_at_n4():
    # value on the identity of S_4 is the dimension 3 = (16 - 12 + 2)/2
    v11 = parse_rep("V11")
    assert evaluate(v11, cycle_type((4,))) == 3


def test_binomial_basis_vanishing():
    p = CharPoly.binom(cycle_type((2, 1)))
    assert evaluate(p, cycle_type((1, 0, 1))) == 0  # a_2 = 0 < 1


def test_v2_on_four_cycle():
    # the (2,2)-irreducible vanishes on the 4-cycle class of S_4
    v2 = parse_rep("V2")
    assert evaluate(v2, cycle_type((0, 0, 0, 1))) == 0


def test_degree():
    assert degree(parse_rep("V1")) == 1
    assert degree(CharPoly.binom(cycle_type((0, 1)))) == 2
    assert degree(parse_rep("V11")) == 2


@pytest.mark.parametrize("n", range(4, 13))
def test_builtin_dimensions(n):
    ident = cycle_type((n,))
    assert evaluate(parse_rep("V1"), ident) == n - 1
    assert evaluate(parse_rep("V11"), ident) == F(n * n - 3 * n + 2, 2)
    assert evaluate(parse_rep("V2"), ident) == F(n * n - 3 * n, 2)


# ---------------------------------------------------------------------------
# products in the binomial basis


def monomial_text(terms):
    """A sum of c * X1^e1 * X2^e2 * ... in the expression grammar."""
    chunks = []
    for mono, c in terms.items():
        factors = [f"X{k}" for k, e in enumerate(mono, start=1) for _ in range(e)]
        chunks.append("*".join([f"{c.numerator}/{c.denominator}", *factors]))
    return "+".join(chunks) or "0"


def monomial_value(terms, mu):
    return sum(
        (c * math.prod(a ** e for a, e in zip(mu + (0,) * len(mono), mono))
         for mono, c in terms.items()),
        F(0),
    )


def test_x1_converts_to_binom():
    assert parse_rep("X1") == CharPoly.binom(cycle_type((1,)))
    assert CharPoly.variable(1) == CharPoly.binom(cycle_type((1,)))


def test_x1_squared():
    expected = CharPoly(
        {cycle_type((1,)): 1, cycle_type((2,)): 2}
    )
    got = CharPoly.variable(1) * CharPoly.variable(1)
    assert got == expected
    assert parse_rep("X1*X1") == expected
    for a1 in range(4):
        c = cycle_type((a1,))
        assert evaluate(got, c) == a1 * a1


def test_distinct_variables_multiply_freely():
    got = CharPoly.variable(1) * CharPoly.variable(2)
    assert got == CharPoly.binom(cycle_type((1, 1)))
    assert parse_rep("X1*X2") == got


@settings(max_examples=40)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=4,
    )
)
def test_conversion_roundtrip_by_evaluation(terms):
    cp = parse_rep(monomial_text(terms))
    for c in all_cycle_types(8):
        assert evaluate(cp, c) == monomial_value(terms, c)


@settings(max_examples=25)
@given(
    st.dictionaries(st.tuples(st.integers(0, 2)), st.integers(-3, 3), min_size=1, max_size=3),
    st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)), st.integers(-3, 3), min_size=1, max_size=3),
)
def test_degree_submultiplicative(t1, t2):
    cp, cq = (parse_rep(monomial_text({m: F(c) for m, c in t.items()})) for t in (t1, t2))
    cpq = cp * cq
    if cp.is_zero() or cq.is_zero() or cpq.is_zero():
        return
    assert degree(cpq) <= degree(cp) + degree(cq)


# keys with trailing zeros: the constructor normalizes them
char_polys = st.dictionaries(
    st.lists(st.integers(0, 2), max_size=3).map(tuple),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    max_size=4,
).map(CharPoly)


@settings(max_examples=40)
@given(char_polys, char_polys)
def test_product_evaluates_to_the_product_of_values(p, q):
    pq = p * q
    for mu in all_cycle_types(8):
        assert evaluate(pq, mu) == evaluate(p, mu) * evaluate(q, mu)


@settings(max_examples=60)
@given(char_polys, char_polys)
def test_every_key_of_a_product_is_a_cycle_type(p, q):
    # _binomial_product builds its keys without cycle_type
    for lam, _ in (p * q).items():
        assert lam == cycle_type(lam)


rational_terms = st.dictionaries(
    st.lists(st.integers(0, 2), max_size=3).map(cycle_type),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    max_size=4,
)


@settings(max_examples=80)
@given(rational_terms, rational_terms, st.integers(1, 12))
def test_canonical_form_matches_a_fraction_dict_reference(a, b, k):
    ra, rb = ({lam: c for lam, c in t.items() if c} for t in (a, b))
    p, q = CharPoly(a), CharPoly(b)
    for got, want in ((p, ra), (q, rb), (p + q, ref_add(ra, rb)), (p - q, ref_add(ra, rb, -1)),
                      (p * q, ref_mul(ra, rb))):
        assert coefficients(got) == want
        assert got.den > 0 and math.gcd(got.den, *(m for _, m in got.items())) == 1
        assert str(got) == ref_str(want)
        assert parse_rep(str(got)) == got
    # the same values reached another way give the same form: equal, and
    # hashed alike
    for same in (CharPoly({lam: k * c for lam, c in a.items()}) * F(1, k), -(-p), p + q - q):
        assert same == p and hash(same) == hash(p)
    assert (p == q) == (ra == rb)
    assert p - p == CharPoly() and hash(p - p) == hash(CharPoly())


def test_canonical_form_of_a_rational_rep():
    p = parse_rep("3/2*X1-1/6")
    assert p.den == 6 and p.items() == [(cycle_type(()), -1), (cycle_type((1,)), 9)]
    assert str(p) == "-1/6 + 3/2*X1"
    assert p == CharPoly({cycle_type((1,)): F(3, 2), cycle_type(()): F(-1, 6)})
    assert p * 6 == parse_rep("9*X1-1") and (p * 6).den == 1
    assert p * F(2, 3) == parse_rep("X1-1/9")


def seeded_expression(rng, depth=3):
    """A random expression over X1..X4, C(Xk,m), rationals and parentheses;
    at most 2^depth atoms of degree at most 8, so within the degree cap."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            return f"X{rng.randint(1, 4)}"
        if kind == 1:
            return f"C(X{rng.randint(1, 4)},{rng.randint(0, 2)})"
        return rng.choice(("0", "1", "2", "7", "1/2", "3/4", "5/3"))
    left, right = seeded_expression(rng, depth - 1), seeded_expression(rng, depth - 1)
    op = rng.choice(("+", "-", "*", "*"))
    text = f"{left}{op}{right}"
    if rng.random() < 0.2:
        text = f"-{text}"
    return f"({text})" if rng.random() < 0.5 else text


def reference_value(text, mu):
    """The expression's value on a cycle type, by math.comb on the counts a_k."""
    text = re.sub(r"C\(X(\d),(\d+)\)", r"comb(a(\1),\2)", text)
    text = re.sub(r"(\d+)/(\d+)", r"F(\1,\2)", text)
    text = re.sub(r"X(\d)", r"a(\1)", text)
    a = dict(enumerate(mu, start=1))
    return eval(text, {"comb": math.comb, "F": F, "a": lambda k: a.get(k, 0)})


def test_parsed_expressions_match_a_reference_evaluator():
    rng = random.Random(1603)
    cycle_types = list(all_cycle_types(8))
    for _ in range(150):
        text = seeded_expression(rng)
        p = parse_rep(text)
        for mu in cycle_types:
            assert evaluate(p, mu) == reference_value(text, mu), (text, mu)


# ---------------------------------------------------------------------------
# builtins and the expression grammar


def test_builtin_rep_shapes():
    assert parse_rep("V1") == CharPoly({cycle_type((1,)): 1, cycle_type(()): -1})
    with pytest.raises(ValueError):
        parse_rep("V3")


def test_parse_simple():
    assert parse_rep("X1-1") == parse_rep("V1")
    assert parse_rep("C(X1,2)-X1-X2+1") == parse_rep("V11")
    assert parse_rep("C(X1,2)+X2-X1") == parse_rep("V2")
    assert parse_rep("1") == CharPoly({(): 1})
    assert parse_rep("X1 ") == CharPoly.variable(1)


def test_parse_rational_coefficients():
    p = parse_rep("3/2*X1 - 1/2")
    assert p == CharPoly({cycle_type((1,)): F(3, 2), cycle_type(()): F(-1, 2)})


def test_parse_products_and_parens():
    p = parse_rep("(X1-1)*(X1-1)")
    x1_minus_1 = CharPoly.variable(1) - CharPoly({(): 1})
    assert p == x1_minus_1 * x1_minus_1
    assert p == CharPoly({cycle_type((2,)): 2, cycle_type((1,)): -1, cycle_type(()): 1})


def test_parse_rejects_garbage():
    for bad in ("X0", "C(2,X1)", "X1 +", "1//2", "C(X1,1/2)", "(X1"):
        with pytest.raises(ValueError):
            parse_rep(bad)


def test_parse_reads_a_run_of_minus_signs_and_caps_the_nesting():
    assert parse_rep("-" * 1501 + "X1") == -CharPoly.variable(1)
    assert parse_rep("1+" + "-" * 1500 + "1") == CharPoly({(): 2})
    deepest = "(" * MAX_NESTING + "X1" + ")" * MAX_NESTING
    assert parse_rep(deepest) == CharPoly.variable(1)
    with pytest.raises(ValueError, match=f"parentheses are nested more than {MAX_NESTING} deep"):
        parse_rep("(" + deepest + ")")


@pytest.mark.parametrize("bad, token", [("X1+*X2", "*"), ("X1+,X2", ","), ("()", ")")])
def test_parse_names_a_misplaced_token(bad, token):
    with pytest.raises(ValueError, match=re.escape(f"expected a number, a variable or '(', found '{token}'")):
        parse_rep(bad)


def test_parse_names_unknown_variables():
    for bad, name in (("X10", "X10"), ("C(X10,2)", "X10"), ("X0", "X0"), ("X01", "X01")):
        with pytest.raises(ValueError, match=f"unknown variable {name}; variables are X1..X9"):
            parse_rep(bad)
    assert parse_rep("X9") == CharPoly.variable(9)


# The tokenizer that _tokenize replaced, kept as its oracle: the same
# tokens, or the same ValueError text.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<var>X[0-9]+)|(?P<name>C)|(?P<op>[+\-*(),]))"
)


def _regex_tokenize(text):
    limit = sys.get_int_max_str_digits()
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse {text[pos:]!r}")
        tok = m.group(m.lastgroup)
        if m.lastgroup == "var" and (len(tok) != 2 or tok[1] not in "123456789"):
            raise ValueError(f"unknown variable {tok}; variables are X1..X9")
        if m.lastgroup == "num" and 0 < limit <= len(tok):
            raise ValueError(f"the number {tok} is too long; numbers have fewer than {limit} digits")
        tokens.append(tok)
        pos = m.end()
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ValueError as exc:
        return str(exc)


# the grammar's characters, ASCII and other whitespace, other scripts' digits,
# stray letters, and digit runs at and around the int-to-text limit
_LIMIT = sys.get_int_max_str_digits()
_TOKEN_PIECES = [
    *"0123456789/XC+-*(),", " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
    "\u2003", "\u2028", "\u3000", "\u200b", *"acxX\u00e9\u0663\u00b2\u2460\uff11",
    "7" * (_LIMIT - 1), "7" * _LIMIT,
]


@settings(max_examples=3000, deadline=None)
@given(st.lists(st.sampled_from(_TOKEN_PIECES), max_size=24).map("".join))
def test_tokenize_matches_the_regex_it_replaced(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(_regex_tokenize, text)


@pytest.mark.parametrize("text", [
    "", " ", "X1 ", " X1", "1/", "1/x", "1//2", "/2", "X", "XX1", "X12", "X0", "CX1", "C(X1,2)",
    "\u00a03/4*X2", "1 / 2", "\u0663", "X\u0663", "12/34/5", "\t(\n-X9\r)",
])
def test_tokenize_matches_the_regex_it_replaced_on_edge_cases(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(_regex_tokenize, text)


def test_parse_caps_the_degree():
    assert MAX_DEGREE == 64
    assert degree(parse_rep("C(X2,32)")) == 64
    assert degree(parse_rep("C(X1,8)*C(X2,28)")) == 64
    for bad, deg in (("C(X1,65)", 65), ("C(X2,32)*X1", 65), ("(X1+X2)*C(X3,21)", 65)):
        with pytest.raises(ValueError, match=f"has degree {deg}; degrees are capped at 64"):
            parse_rep(bad)


def test_parse_rep_dispatch():
    assert parse_rep("V11") == parse_rep("C(X1,2)-X1-X2+1")
    assert parse_rep("1") == CharPoly({(): 1})
    assert parse_rep("X2") == CharPoly.binom(cycle_type((0, 1)))


def test_a_char_poly_never_equals_a_number():
    # CharPoly.__eq__ returns NotImplemented for a non-CharPoly, so the
    # comparison falls back to identity
    assert (parse_rep("1") == 1) is False


def test_str_roundtrips_through_parser():
    for rep in ("V1", "V11", "V2"):
        p = parse_rep(rep)
        assert parse_rep(str(p)) == p
    q = CharPoly({cycle_type((1, 1)): F(-3, 2), cycle_type((0, 2)): 1})
    assert parse_rep(str(q)) == q
