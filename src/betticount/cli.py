"""Command-line surface: Betti tables, stable values and recurrences,
weighted point counts and their limits, and the verification suites.

Output is an OutputDocument rendered as a human-readable table, CSV, or
JSON.  Every numeric payload is an exact rational serialized as "p/q"
(plain "p" for integers); no decimals anywhere.  Verification rows are
emitted in deterministic (q, n, rep) order and the exit code is 0 exactly
when every row passes.  Each command imports the modules it runs as it runs.
"""

import os
import sys
from collections import namedtuple
from types import SimpleNamespace

from .chars import MAX_DEGREE, CharPoly, cycle_type, parse_rep, weight
from .series import _int, ratio, taylor_coeffs

MAX_COUNT_N = 200
MAX_VERIFY_N = 24
MAX_DIM = 64  # every variety: --limits computes powers of q^dim


class _Sides(dict):
    """A side's name: the betti.Side of its module, imported on first use."""

    def __getitem__(self, name: str):
        return __import__(super().__getitem__(name), globals(), None, ("SIDE",), 1).SIDE


SIDES = _Sides(conf="conf_betti", tori="tori")


# A command's output: its kind (table | verification | limits), a dict of
# metadata, and the rows of data, each a tuple with one cell per name in
# columns.  No code changes a document once it is built, so the shared empty
# defaults stay empty.
OutputDocument = namedtuple("OutputDocument", "kind meta data columns", defaults=({}, (), ()))


def _equal(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] * b[1] == b[0] * a[1]


# ---------------------------------------------------------------------------
# renderers


def _plain(text: str) -> bool:
    """Whether json writes text unchanged between quotes: it escapes '"',
    '\\' and every character outside " " to "~"."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _json_str(x: str) -> str:
    if _plain(x):
        return f'"{x}"'
    from _json import encode_basestring_ascii  # the C encoder that json.encoder re-exports

    return encode_basestring_ascii(x)


_JSON_SCALARS = {str: _json_str, int: int.__repr__, bool: {False: "false", True: "true"}.get}


def _json(x, pad: str) -> str:
    """json.dumps(x, indent=2) for a value at indent pad, written directly
    (json turns its C encoder off when an indent is set).  Values are str,
    int, bool, and lists and str-keyed dicts of them."""
    enc = _JSON_SCALARS.get(type(x))
    if enc is not None:
        return enc(x)
    inner = pad + "  "
    if type(x) is dict:
        if not x:
            return "{}"
        items = []
        for key, value in x.items():
            items.append(f"{inner}{_json_str(key)}: {_json(value, inner)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if type(x) is list:
        if not x:
            return "[]"
        return "[\n" + ",\n".join([inner + _json(value, inner) for value in x]) + f"\n{pad}]"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _json_rows(columns: tuple[str, ...], rows: list[tuple]) -> str:
    """_json of the rows as dicts over columns, at indent "  ", written one
    column at a time: an int column through %d, a str column of _plain text
    through "%s", any other str or bool column through its encoder, any other
    column cell by cell through _json at the indent of a cell, and then every
    row through one template."""
    if not rows:
        return "[]"
    if not columns:
        return "[\n" + ",\n".join(["    {}"] * len(rows)) + "\n  ]"
    fields, cols = [], []
    for name, col in zip(columns, zip(*rows)):
        kinds = set(map(type, col))
        key = _json_str(name).replace("%", "%%")
        if kinds == {int}:
            fields.append(f"      {key}: %d")
        elif kinds == {str} and _plain("".join(col)):
            fields.append(f'      {key}: "%s"')
        else:
            enc = _JSON_SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
            fields.append(f"      {key}: %s")
            col = map(enc, col) if enc else [_json(x, "      ") for x in col]
        cols.append(col)
    template = "    {\n" + ",\n".join(fields) + "\n    }"
    return "[\n" + ",\n".join(map(template.__mod__, zip(*cols))) + "\n  ]"


def render_json(doc: OutputDocument) -> str:
    return (f'{{\n  "kind": {_json(doc.kind, "  ")},\n  "meta": {_json(doc.meta, "  ")},\n'
            f'  "data": {_json_rows(doc.columns, doc.data)}\n}}')


def render_csv(doc: OutputDocument) -> str:
    # imported here: no other output needs them, and they cost start-up time
    import csv
    import io
    import json

    out = io.StringIO()
    for key, value in doc.meta.items():
        out.write(f"# {key}: {json.dumps(value)}\n")
    if doc.data:
        writer = csv.writer(out)
        writer.writerow(doc.columns)
        writer.writerows(doc.data)
    return out.getvalue().rstrip("\n")


def _render_grid(doc: OutputDocument) -> str:
    side = doc.meta["side"]
    max_i, max_n = doc.meta["max_i"], doc.meta["max_n"]
    cells = {(i, n): value for i, n, value in doc.data}
    name = "alpha" if side == "conf" else "beta"
    lines = [f"{name}_i(n) for rep {doc.meta['rep']}"]
    widths = [max(len(str(n)), *(len(cells.get((i, n), "")) for i in range(max_i + 1)))
              for n in range(max_n + 1)]
    header = "  i\\n |" + "".join(f" {str(n).rjust(widths[n])}" for n in range(max_n + 1))
    lines.append(header)
    lines.append("-" * len(header))
    for i in range(max_i + 1):
        row = [f"{i:5d} |"]
        for n in range(max_n + 1):
            row.append(" " + cells.get((i, n), "").rjust(widths[n]))
        lines.append("".join(row))
    if "stable" in doc.meta:
        lines.append(f"stable {name}_i, i = 0..{max_i}: " + " ".join(doc.meta["stable"]))
    if "recurrence" in doc.meta:
        rec = doc.meta["recurrence"]
        terms = " + ".join(f"({c})*a_(i-{k})" for k, c in enumerate(rec["coefficients"], start=1)) or 0
        lines.append(f"recurrence: a_i = {terms} for i >= {rec['valid_from']}")
    return "\n".join(lines)


def _render_verification(doc: OutputDocument) -> str:
    lines = []
    for note in doc.meta.get("notes", []):
        lines.append(f"note: {note}")
    for q, n, rep, lhs, rhs, *brute, ok in doc.data:  # brute: [] or [value]
        extra = f" brute={brute[0]}" if brute else ""
        status = "PASS" if ok else "FAIL"
        lines.append(f"q={q} n={n} rep={rep}: lhs={lhs} rhs={rhs}{extra} {status}")
    total = len(doc.data)
    passed = sum(1 for row in doc.data if row[-1])
    lines.append(f"{passed}/{total} checks passed")
    return "\n".join(lines)


def render_table(doc: OutputDocument) -> str:
    if doc.kind == "table" and doc.data and "i" in doc.columns:
        return _render_grid(doc)
    if doc.kind == "verification":
        return _render_verification(doc)
    if doc.kind == "limits":
        return "\n".join(
            f"{desc}: normalized limit = {normalized}, expectation = {expectation}"
            for desc, normalized, expectation in doc.data
        )
    # count series and anything else row-shaped
    return "\n".join("  ".join(f"{k}={v}" for k, v in zip(doc.columns, row)) for row in doc.data)


def render(doc: OutputDocument, fmt: str) -> str:
    if fmt == "json":
        return render_json(doc)
    if fmt == "csv":
        return render_csv(doc)
    return render_table(doc)


# ---------------------------------------------------------------------------
# shared argument handling


def _parse_q_list(text: str) -> list[int]:
    try:
        qs = [_int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--q expects integers, got {text!r}") from None
    if not qs:
        raise ValueError("--q is empty")
    return qs


def _parse_rep(text: str) -> CharPoly:
    if not text.strip():
        raise ValueError("--rep has an empty entry")
    return parse_rep(text)


def _parse_lambda(text: str) -> tuple[int, ...]:
    try:
        counts = [_int(tok) for tok in text.split(",") if tok.strip()]
        lam = cycle_type(counts)
    except ValueError:
        raise ValueError(f"--lambda expects nonnegative integers, got {text!r}") from None
    if not counts:
        raise ValueError("--lambda is empty")
    if weight(lam) > MAX_DEGREE:
        raise ValueError(f"--lambda has weight {weight(lam)}; degrees are capped at {MAX_DEGREE}")
    return lam


def _parse_variety(spec: str, q: int | None) -> "PointCountData":
    from .zeta import builtin_variety, load_variety_file

    kind, _, arg = spec.partition(":")
    if kind in ("affine", "projective"):
        if not (arg.isascii() and arg.isdigit()):
            raise ValueError(f"expected {kind}:<dim>, got {spec!r}")
        # the length first: int() refuses strings of more than 4300 digits
        if len(arg.lstrip("0")) > len(str(MAX_DIM)) or int(arg) > MAX_DIM:
            raise ValueError(f"the dimension of {kind} space is capped at {MAX_DIM}")
        if q is None:
            raise ValueError("builtin varieties need --q")
        return builtin_variety(kind, int(arg), q)
    if kind == "file":
        v = load_variety_file(arg)
        if v.dim > MAX_DIM:
            raise ValueError(f"the dimension of the variety in {arg} is capped at {MAX_DIM}")
        if q is not None and q != v.q:
            raise ValueError(f"--q {q} conflicts with q = {v.q} from {arg}")
        return v
    raise ValueError(f"unknown variety {spec!r}; use affine:d, projective:d or file:PATH")


# ---------------------------------------------------------------------------
# commands


def cmd_betti(args) -> tuple[OutputDocument, int]:
    rep = _parse_rep(args.rep)
    side = SIDES[args.side]
    cells, den = side.betti_table(rep, args.max_i, args.max_n)
    meta = {
        "side": args.side,
        "rep": args.rep,
        "rep_binomial": str(rep),
        "max_i": args.max_i,
        "max_n": args.max_n,
    }
    if args.stable:
        if rep.is_zero():
            raise ValueError("zero character polynomial")
        # a_i = -sum_k D_k a_(i-k) for i >= len(num): the recurrence is D
        num, D, d = side.stable_series(rep)
        meta["stable"] = [ratio(c, d) for c in taylor_coeffs(num, D, args.max_i)]
        meta["recurrence"] = {"coefficients": [ratio(-c, 1) for c in D[1:]],
                              "valid_from": len(num)}
    data = [(i, n, ratio(c, den)) for i, n, c in cells]
    return OutputDocument("table", meta, data, ("i", "n", "value")), 0


def cmd_count(args) -> tuple[OutputDocument, int]:
    lam_text = getattr(args, "lambda")  # a keyword, so not args.lambda
    if lam_text is not None and args.rep is not None:
        raise ValueError("give either --rep or --lambda, not both")
    q = None
    if args.q:
        q_list = _parse_q_list(args.q)
        if len(q_list) != 1:
            raise ValueError("count takes a single --q")
        q = q_list[0]
    v = _parse_variety(args.variety, q)
    if lam_text is not None:
        lam = _parse_lambda(lam_text)
        rep = CharPoly.binom(lam)
        weight_desc = f"lambda=({lam_text})"
    else:
        rep = _parse_rep(args.rep if args.rep is not None else "1")
        weight_desc = f"rep={rep}"
    meta = {
        "variety": args.variety,
        "q": v.q,
        "dim": v.dim,
        "weight": weight_desc,
        "max_n": args.max_n,
    }
    from . import conf_counts

    if args.limits:
        normalized, expectation = conf_counts.limits(v, rep)
        row = (weight_desc, ratio(*normalized), ratio(*expectation))
        return OutputDocument("limits", meta, [row], ("weight", "normalized", "expectation")), 0
    # read lazily: the first value too long to print ends the work
    values, d = conf_counts.count_values(v, rep, args.max_n)
    data = [(n, ratio(c, d)) for n, c in enumerate(values)]
    return OutputDocument("table", meta, data, ("n", "value")), 0


def _split_reps(text: str) -> list[str]:
    r"""text split at each comma whose next parenthesis is not ")", as
    re.split(r",(?![^()]*\))", text) splits it: C(X1,2) stays whole."""
    reps, end, closes = [], len(text), False  # closes: the next parenthesis is ")"
    for i in range(len(text) - 1, -1, -1):
        if text[i] in "()":
            closes = text[i] == ")"
        elif text[i] == "," and not closes:
            reps.append(text[i + 1:end])
            end = i
    reps.append(text[:end])
    return reps[::-1]


def cmd_verify(args) -> tuple[OutputDocument, int]:
    from .betti import ScaledValues, weighted_sum
    from .zeta import is_prime_power

    side = SIDES[args.side]
    if args.bruteforce and args.side != "conf":
        raise ValueError("--bruteforce applies to the conf side only")
    qs = sorted(set(_parse_q_list(args.q)))
    for q in qs:
        if not is_prime_power(q):
            raise ValueError(f"q = {q} is not a prime power")
    reps = [(tok.strip(), _parse_rep(tok)) for tok in _split_reps(args.rep)]
    if args.bruteforce:
        from . import conf_counts

        for q in qs:
            conf_counts.check_bruteforce(q, args.max_n)
    # each input is built once per command: per q one count oracle and, for
    # the brute column, one sieve; per rep one Betti table and one p(mu) per
    # cycle type.  lhs and brute are the same weighted sum over their counts.
    counts = [{q: side.count_oracle(q, args.max_n) for q in qs}]
    if args.bruteforce:
        counts.append({q: conf_counts.bruteforce_census(q, args.max_n) for q in qs})
    per_rep = [(name, ScaledValues(rep), side.gl_sums(rep, qs, args.max_n)) for name, rep in reps]
    rows = []
    for q in qs:
        for n in range(args.max_n + 1):
            for name, values, sums in per_rep:
                lhs, *brute = [weighted_sum(values, by_q[q][n]) for by_q in counts]
                rhs = sums[q, n]
                ok = all(_equal(lhs, value) for value in (rhs, *brute))
                rows.append((q, n, name, *(ratio(*value) for value in (lhs, rhs, *brute)), ok))
    meta = {
        "side": args.side,
        "q": qs,
        "max_n": args.max_n,
        "reps": [name for name, _ in reps],
        "bruteforce": bool(args.bruteforce),
    }
    if args.side == "conf" and any(q % 2 == 0 for q in qs):
        meta["notes"] = [
            "even q is outside the stated odd-characteristic hypothesis for "
            "weighted configuration counts; results are reported as exploratory"
        ]
    columns = ("q", "n", "rep", "lhs", "rhs", *(("brute",) if args.bruteforce else ()), "pass")
    # an empty verification checks nothing and must not pass
    all_pass = bool(rows) and all(row[-1] for row in rows)
    return OutputDocument("verification", meta, rows, columns), (0 if all_pass else 1)


# ---------------------------------------------------------------------------
# command table and argv parsing

REQUIRED = object()  # the default of an option that must be given
_FORMAT = (("table", "csv", "json"), "table", "output format")
_BETTI = {
    "--rep": (str, REQUIRED, "V1, V11, V2, or an expression like 'C(X1,2)-X2'"),
    "--max-i": (range(MAX_DEGREE + 1), 13, "last row"),
    "--max-n": (range(MAX_DEGREE + 1), 14, "last column"),
    "--stable": (bool, False, "also emit stable values and the recurrence"),
    "--format": _FORMAT,
}
# name: (handler, fixed args, help, {option: (type, default, help)}), where a
# type is str, bool (a flag without a value), a tuple of choices or an int range.
COMMANDS = {
    "conf-betti": (cmd_betti, {"side": "conf"}, "conf Betti table", _BETTI),
    "tori-betti": (cmd_betti, {"side": "tori"}, "tori Betti table", _BETTI),
    "count": (cmd_count, {}, "weighted point counts on configuration spaces", {
        "--variety": (str, REQUIRED, "affine:d, projective:d, or file:PATH"),
        "--q": (str, None, "prime power (builtin varieties)"),
        "--rep": (str, None, "character polynomial weight"),
        "--lambda": (str, None, "binomial weight, e.g. 1 or 0,1"),
        "--max-n": (range(MAX_COUNT_N + 1), 10, "last n"),
        "--limits": (bool, False, "emit the n->infinity limits instead of the series"),
        "--format": _FORMAT,
    }),
    "verify": (cmd_verify, {}, "cross-check point counts against Betti tables", {
        "--side": (tuple(SIDES), REQUIRED, "which Betti tables"),
        "--q": (str, REQUIRED, "comma-separated prime powers"),
        "--max-n": (range(MAX_VERIFY_N + 1), 6, "last n"),
        "--rep": (str, "1,V1,V11,V2", "comma-separated reps"),
        "--bruteforce": (bool, False, "also enumerate polynomials over F_q (conf side, prime q)"),
        "--format": _FORMAT,
    }),
}


def parse_args(argv: list[str]) -> SimpleNamespace:
    """argv read by COMMANDS into a namespace with the command's handler.
    Options are `--opt value` or `--opt=value`; bad input raises ValueError."""
    if not argv or argv[0] not in COMMANDS:
        got = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise ValueError(f"{got}; the commands are {', '.join(COMMANDS)}")
    command, tokens = argv[0], iter(argv[1:])
    handler, fixed, _, options = COMMANDS[command]
    values = {flag: default for flag, (_, default, _) in options.items()}
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in options:
            raise ValueError(f"{command} takes no argument {token!r}")
        kind = options[flag][0]
        if kind is bool:
            if eq:
                raise ValueError(f"{flag} takes no value")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ValueError(f"{flag} expects a value")
        if type(kind) is range:
            try:
                value = _int(value)
            except ValueError:
                raise ValueError(f"{flag} expects an integer, got {value!r}") from None
            if value not in kind:
                raise ValueError(f"{flag} must be nonnegative" if value < 0
                                 else f"{flag} is capped at {kind[-1]}")
        elif type(kind) is tuple and value not in kind:
            raise ValueError(f"{flag} must be one of {', '.join(kind)}, got {value!r}")
        values[flag] = value
    missing = [flag for flag, value in values.items() if value is REQUIRED]
    if missing:
        raise ValueError(f"{command} needs {' and '.join(missing)}")
    values = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    return SimpleNamespace(handler=handler, **fixed, **values)


def usage(command: str | None = None) -> str:
    """The -h/--help text: the commands, or the options of one command."""
    grammar = "[--option value | --option=value ...]"
    if command is None:
        lines = [f"usage: betticount COMMAND {grammar}", "", "commands:"]
        rows = [(name, text) for name, (_, _, text, _) in COMMANDS.items()]
    else:
        _, _, text, options = COMMANDS[command]
        lines = [f"usage: betticount {command} {grammar}", "", text, "", "options:"]
        rows = []
        for flag, (kind, default, about) in options.items():
            if kind is not bool:
                flag += (" {%s}" % ",".join(kind) if type(kind) is tuple
                         else f" INT 0..{kind[-1]}" if type(kind) is range else " STR")
                if default is not None:
                    about += " (required)" if default is REQUIRED else f" (default {default})"
            rows.append((flag, about))
    width = max(len(left) for left, _ in rows)
    return "\n".join(lines + [f"  {left.ljust(width)}  {right}" for left, right in rows])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(usage(argv[0] if argv[0] in COMMANDS else None))
        return 0
    try:
        args = parse_args(argv)
        doc, code = args.handler(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(render(doc, args.format))
    except BrokenPipeError:
        _reader_left()
    return code


def _reader_left() -> None:
    """Point stdout at /dev/null: its reader closed the pipe early, and the
    rest of the output, flushed later, must not fail again."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _observed() -> bool:
    """Whether a profiler, tracer or coverage tool watches this process (on
    3.12+ cProfile and coverage may use sys.monitoring); each writes its
    report at a normal exit."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.getprofile() is not None or sys.gettrace() is not None
            or (monitoring is not None and any(map(monitoring.get_tool, range(6)))))  # tool ids 0..5


def run() -> None:
    """The process entry (`betticount`, `python -m betticount.cli`): main(),
    then flush both streams and end the process at once.  Tearing down the
    interpreter (clearing modules, the last collections) costs more than a
    typical table.  A reader that left early does not change the exit code;
    a watched process exits normally so its tool can report."""
    code = main()
    # a stream is None when the process started with its descriptor closed
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            _reader_left()
    if sys.stderr is not None:
        sys.stderr.flush()
    if _observed():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
