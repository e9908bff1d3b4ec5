"""Cycle types, character polynomials in the binomial basis, and their parser.

A character polynomial is a polynomial in the class functions X_k (number of
k-cycles of a permutation); it defines a class function on every symmetric
group at once.  Its one representation here is in the basis of products
C(X_1, l_1) * C(X_2, l_2) * ... of binomial coefficients, indexed by the
exponent sequence l = (l_1, ..., l_r), a cycle type: a plain tuple of
counts without trailing zeros.  X_k is assigned degree k.  Sums and
products stay in that basis, and the parser of user-entered expressions
maps each atom to one basis element.
"""

from math import comb, factorial, gcd, lcm
import sys
from collections.abc import Iterable, Mapping, Sequence
from itertools import zip_longest

from .series import _strip, ratio

__all__ = [
    "cycle_type",
    "weight",
    "active",
    "CharPoly",
    "binomial",
    "partitions",
    "centralizer_order",
    "parse_rep",
]


def cycle_type(counts: Iterable[int]) -> tuple[int, ...]:
    """counts as a cycle type: a tuple of nonnegative counts without
    trailing zeros, in two roles: the cycle type of a permutation, its
    (k-1)-th entry the number of k-cycles, and the exponent sequence
    l = (l_1, ..., l_r) of the binomial-basis element C(X, l)."""
    counts = tuple(_strip(counts))
    if any(c < 0 for c in counts):
        raise ValueError("cycle counts must be nonnegative")
    return counts


def weight(lam: tuple[int, ...]) -> int:
    """The degree |lam| = sum_k k lam_k of a cycle type."""
    return sum(k * c for k, c in enumerate(lam, start=1))


def active(lam: tuple[int, ...]) -> list[tuple[int, int]]:
    """The pairs (k, lam_k) with lam_k > 0."""
    return [(k, c) for k, c in enumerate(lam, start=1) if c]


def binomial(a: Sequence[int], lam: tuple[int, ...]) -> int:
    """prod_k C(a_k, lam_k), with a_k = a[k-1] (0 past the end of a): the
    value of C(X, lam) at the cycle type with counts a, and, when a_k counts
    the degree-k closed points of V, the number of configurations of V with
    Frobenius cycle type lam."""
    out = 1
    for k, lk in enumerate(lam):
        if lk:
            out *= comb(a[k], lk) if k < len(a) else 0
            if not out:
                return 0
    return out


class CharPoly:
    """A class function in the binomial basis: a finite rational combination
    of C(X, l) terms, held as integer numerators over one denominator den.
    The form is canonical: den > 0, no numerator is zero, and den and the
    numerators have no common factor, so equal polynomials hold equal data.

    The constructor and binom take any sequence of counts as an l and
    normalize it by cycle_type; every other key is built as a cycle type.
    The coefficients given to the constructor are ints or Fractions, read
    through .numerator and .denominator."""

    __slots__ = ("_nums", "den")

    def __init__(self, terms: Mapping[Sequence[int], int] = ()):
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        scale = lcm(*(c.denominator for _, c in items))
        nums: dict[tuple[int, ...], int] = {}
        for lam, c in items:
            lam = cycle_type(lam)
            nums[lam] = nums.get(lam, 0) + c.numerator * (scale // c.denominator)
        self._reduce(nums, scale)

    def _reduce(self, nums: dict[tuple[int, ...], int], den: int) -> None:
        """Hold nums / den, den > 0, in the canonical form."""
        nums = {lam: c for lam, c in nums.items() if c}
        g = gcd(den, *nums.values())
        self._nums = {lam: c // g for lam, c in nums.items()} if g != 1 else nums
        self.den = den // g

    @staticmethod
    def _of(nums: dict[tuple[int, ...], int], den: int) -> "CharPoly":
        out = CharPoly.__new__(CharPoly)
        out._reduce(nums, den)
        return out

    @staticmethod
    def binom(lam: Sequence[int]) -> "CharPoly":
        return CharPoly._of({cycle_type(lam): 1}, 1)

    @staticmethod
    def variable(k: int) -> "CharPoly":
        """X_k itself, i.e. C(X_k, 1)."""
        return CharPoly.binom([0] * (k - 1) + [1])

    def items(self) -> list[tuple[tuple[int, ...], int]]:
        """The pairs (l, numerator of the coefficient of C(X, l)), by
        degree and then by l; each coefficient is its numerator / den."""
        return sorted(self._nums.items(), key=lambda kv: (weight(kv[0]), kv[0]))

    def is_zero(self) -> bool:
        return not self._nums

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CharPoly):
            return NotImplemented
        return self.den == other.den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((frozenset(self._nums.items()), self.den))

    def __neg__(self) -> "CharPoly":
        return CharPoly._of({l: -c for l, c in self._nums.items()}, self.den)

    def __add__(self, other: "CharPoly") -> "CharPoly":
        den = lcm(self.den, other.den)
        nums = {l: c * (den // self.den) for l, c in self._nums.items()}
        s = den // other.den
        for l, c in other._nums.items():
            nums[l] = nums.get(l, 0) + c * s
        return CharPoly._of(nums, den)

    def __sub__(self, other: "CharPoly") -> "CharPoly":
        return self + (-other)

    def __mul__(self, other: "CharPoly | int") -> "CharPoly":
        """A scalar multiple (an int or a Fraction), or the product of two
        character polynomials.

        Per variable C(x,a) * C(x,b) = sum_{c=max(a,b)}^{a+b} C(c,a) *
        C(a,a+b-c) * C(x,c), with integer coefficients; distinct variables
        multiply freely.
        """
        if not isinstance(other, CharPoly):
            num = other.numerator
            return CharPoly._of({l: c * num for l, c in self._nums.items()},
                                self.den * other.denominator)
        nums: dict[tuple[int, ...], int] = {}
        table: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for l1, c1 in self._nums.items():
            for l2, c2 in other._nums.items():
                c = c1 * c2
                for lam, w in _binomial_product(l1, l2, table):
                    nums[lam] = nums.get(lam, 0) + c * w
        return CharPoly._of(nums, self.den * other.den)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        chunks: list[str] = []
        for lam, num in self.items():
            factors = []
            for k, lk in active(lam):
                factors.append(f"X{k}" if lk == 1 else f"C(X{k},{lk})")
            body = "*".join(factors) if factors else "1"
            coeff = ratio(num, self.den)
            if coeff == "1" and factors:
                term = body
            elif coeff == "-1" and factors:
                term = f"-{body}"
            else:
                term = coeff if not factors else f"{coeff}*{body}"
            chunks.append(term)
        out = chunks[0]
        for t in chunks[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self) -> str:
        return f"CharPoly({self})"


def _binomial_product(l1: tuple[int, ...], l2: tuple[int, ...],
                      table: dict) -> list[tuple[tuple[int, ...], int]]:
    """C(X, l1) * C(X, l2) as integer-weighted basis elements, with the
    expansions (c, w_c) of C(x,a) * C(x,b) kept in table by (a, b).  For
    cycle types l1 and l2 each l comes out a cycle type as built: at the
    last entry a or b is positive, and every c there is >= max(a, b)."""
    out: list[tuple[tuple[int, ...], int]] = [((), 1)]
    for a, b in zip_longest(l1, l2, fillvalue=0):
        terms = table.get((a, b))
        if terms is None:
            terms = table[a, b] = [(c, comb(c, a) * comb(a, a + b - c))
                                   for c in range(max(a, b), a + b + 1)]
        out = [(ent + (c,), v * w) for ent, v in out for c, w in terms]
    return out


# ---------------------------------------------------------------------------
# partitions and centralizers


def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as cycle types, each exactly once."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, largest: int, acc: list[int]):
        if remaining == 0:
            # acc descends, so its first part is the length of the counts
            counts = [0] * (acc[0] if acc else 0)
            for part in acc:
                counts[part - 1] += 1
            out.append(tuple(counts))
            return
        for part in range(min(remaining, largest), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def centralizer_order(c: tuple[int, ...]) -> int:
    """Order of the centralizer of the class in S_n: prod_k k^a_k * a_k!."""
    out = 1
    for k, a in enumerate(c, start=1):
        out *= k**a * factorial(a)
    return out


# ---------------------------------------------------------------------------
# built-in representations


_BUILTINS = {
    "V1": "X1-1",  # the standard representation
    "V11": "C(X1,2)-X1-X2+1",  # the exterior square of the standard one
    "V2": "C(X1,2)+X2-X1",  # the complement of the trivial in the symmetric square
}


# ---------------------------------------------------------------------------
# expression parser for user-entered character polynomials
#
# grammar: rational coefficients, variables X1..X9, operators + - *, and
# C(Xk, m) for binomial-coefficient atoms.  Each atom is one basis element
# and a product multiplies in the basis, so nothing is expanded.  The row
# kernels are sized to the grid, and C(X, l) vanishes on S_n for n below its
# degree, so atoms and products above MAX_DEGREE are rejected; it is also the
# cap of the betti commands' --max-i and --max-n.
# A level of parentheses costs four frames of the recursive descent, so
# nesting past MAX_NESTING is rejected well before Python's recursion limit.

MAX_DEGREE = 64
MAX_NESTING = 100

_SLASH_DIGIT = {f"/{d}" for d in range(10)}


def _digits_end(text: str, pos: int) -> int:
    """The end of the run of ASCII digits at pos."""
    while pos < len(text) and text[pos] in "0123456789":
        pos += 1
    return pos


def _tokenize(text: str) -> list[str]:
    """The tokens of text, each after optional whitespace: a number (digits,
    or digits/digits), X and digits, C, or one of + - * ( ) ,."""
    # the length first: int() refuses more digits than the limit, and the
    # degree k*m of C(Xk,m) must stay short enough to print in a message
    limit = sys.get_int_max_str_digits()  # 0: no limit
    tokens, pos = [], 0
    while pos < len(text):
        start = pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        head = text[pos:pos + 1]
        if head and head in "+-*(),C":
            end = pos + 1
        else:  # a variable, or a number with an optional denominator
            end = _digits_end(text, pos + (head == "X"))
            if head != "X" and end > pos and text[end:end + 2] in _SLASH_DIGIT:
                end = _digits_end(text, end + 2)
        if end == pos + (head == "X"):
            raise ValueError(f"cannot parse {text[start:]!r}")
        tok = text[pos:end]
        if head == "X" and (len(tok) != 2 or tok[1] not in "123456789"):
            raise ValueError(f"unknown variable {tok}; variables are X1..X9")
        if head in "0123456789" and 0 < limit <= len(tok):
            raise ValueError(f"the number {tok} is too long; numbers have fewer than {limit} digits")
        tokens.append(tok)
        pos = end
    return tokens


def _degree(p: CharPoly) -> int:
    return max(map(weight, p._nums), default=0)


def _check_degree(d: int, what: str) -> None:
    if d > MAX_DEGREE:
        raise ValueError(f"{what} has degree {d}; degrees are capped at {MAX_DEGREE}")


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            want = "more input" if expected is None else repr(expected)
            found = "the end of the expression" if tok is None else repr(tok)
            raise ValueError(f"expected {want}, found {found}")
        self.pos += 1
        return tok

    def parse_expr(self) -> CharPoly:
        out = self.parse_term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                out = out + self.parse_term()
            else:
                out = out - self.parse_term()
        return out

    def parse_term(self) -> CharPoly:
        out = self.parse_factor()
        while self.peek() == "*":
            self.take()
            factor = self.parse_factor()
            _check_degree(_degree(out) + _degree(factor), "a product")
            out = out * factor
        return out

    def parse_factor(self) -> CharPoly:
        minus = False
        while self.peek() == "-":
            self.take()
            minus = not minus
        return -self.parse_atom() if minus else self.parse_atom()

    def parse_atom(self) -> CharPoly:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise ValueError(f"parentheses are nested more than {MAX_NESTING} deep")
            self.take()
            self.depth += 1
            out = self.parse_expr()
            self.depth -= 1
            self.take(")")
            return out
        if tok == "C":
            self.take()
            self.take("(")
            var = self.take()
            if not var.startswith("X"):
                raise ValueError(f"C() expects a variable, found {var!r}")
            k = int(var[1:])
            self.take(",")
            m_tok = self.take()
            if "/" in m_tok or not m_tok.isdigit():
                raise ValueError("C() expects a nonnegative integer order")
            self.take(")")
            m = int(m_tok)
            _check_degree(k * m, f"C({var},{m})")
            return CharPoly.binom([0] * (k - 1) + [m])
        if not tok[0].isalnum():
            raise ValueError(f"expected a number, a variable or '(', found {tok!r}")
        self.take()
        if tok.startswith("X"):
            return CharPoly.variable(int(tok[1:]))
        num, _, den = tok.partition("/")
        if den and not den.strip("0"):
            raise ValueError(f"the number {tok} has a zero denominator")
        return CharPoly._of({(): int(num)}, int(den or 1))


def parse_rep(text: str) -> CharPoly:
    """The one parser: a builtin name, or an expression in the CLI grammar,
    into the binomial basis; whitespace around either is ignored."""
    name = text.strip()
    parser = _Parser(_tokenize(_BUILTINS.get(name, name)))
    out = parser.parse_expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing input at token {parser.pos}")
    return out
