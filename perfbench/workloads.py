"""The benchmark's workloads: a fixed, finite pool of `betticount` commands
per workload, and the seeded schedule that draws operations from it.

The pools never depend on the workload seed, so the output digests recorded
in expected.json stay valid for every seed.  The seed only orders each round:
a round runs every pool op once, in an order drawn from the seed, so every
complete round puts the same work on the machine.
"""

from __future__ import annotations

import random
import shlex
from typing import Iterator

# Fixed seed of the generated character polynomials in the pools.
POOL_SEED = 1603

# Binomial-basis elements C(X, lam) by degree (the weight of lam).
BASIS_DEG3 = (
    "C(X1,1)", "C(X1,2)", "C(X1,3)", "C(X2,1)", "C(X1,1)*C(X2,1)", "C(X3,1)",
)
BASIS_DEG4 = BASIS_DEG3 + (
    "C(X1,4)", "C(X2,2)", "C(X1,2)*C(X2,1)", "C(X1,1)*C(X3,1)", "C(X4,1)",
)


def seeded_poly(rng: random.Random, basis: tuple[str, ...]) -> str:
    """A small integer combination of two or three basis elements plus a
    constant, written in the CLI's expression grammar.  The first
    coefficient is positive, so the text never reads as a CLI option."""
    text = ""
    for elem in rng.sample(basis, rng.randint(2, 3)):
        c = rng.choice((-2, -1, 1, 2, 3) if text else (1, 2, 3))
        sign = "-" if c < 0 else ("+" if text else "")
        text += f"{sign}{abs(c)}*{elem}" if abs(c) != 1 else f"{sign}{elem}"
    const = rng.choice((-1, 0, 1, 2))
    if const:
        text += f"{'-' if const < 0 else '+'}{abs(const)}"
    return text


def _tori_tables(rng: random.Random) -> list[list[str]]:
    ops = [
        ("1", 10, 12, True),
        ("X1", 8, 8, True),
        ("X1", 6, 9, False),
        ("V1", 5, 8, True),
        ("V11", 5, 7, False),
        ("V11", 4, 7, True),
        ("V2", 5, 7, False),
        ("V2", 6, 7, True),
    ]
    for mi, mn, stable in ((5, 7, False), (5, 7, True), (4, 7, False)):
        ops.append((seeded_poly(rng, BASIS_DEG3), mi, mn, stable))
    return [
        ["tori-betti", "--rep", rep, "--max-i", str(mi), "--max-n", str(mn)]
        + (["--stable"] if stable else [])
        for rep, mi, mn, stable in ops
    ]


def _conf_tables(rng: random.Random) -> list[list[str]]:
    reps = ["V1", "V2", "V11"] + [seeded_poly(rng, BASIS_DEG4) for _ in range(3)]
    grids = [(64, 64), (64, 64), (64, 64), (64, 64), (56, 64), (48, 64)]
    ops = [
        ["conf-betti", "--rep", rep, "--max-i", str(mi), "--max-n", str(mn), "--stable"]
        for rep, (mi, mn) in zip(reps, grids)
    ]
    counts = [
        ("affine:1", 3, "V11", 200),
        ("affine:1", 2, "V2", 140),
        ("affine:2", 2, "V1", 200),
        ("projective:1", 7, "V2", 140),
        ("projective:1", 3, "V11", 120),
        ("projective:1", 5, reps[3], 120),
    ]
    ops += [
        ["count", "--variety", var, "--q", str(q), "--rep", rep, "--max-n", str(mn)]
        for var, q, rep, mn in counts
    ]
    ops += [
        ["count", "--variety", "affine:1", "--q", "5", "--rep", "V11", "--limits"],
        ["count", "--variety", "projective:1", "--q", "2", "--lambda", "1", "--limits"],
    ]
    return ops


def _verify(rng: random.Random) -> list[list[str]]:
    conf = [
        ("7", 6, "V1"),
        ("3", 9, "1"),
        ("3", 8, "1,V1,V11,V2"),
        ("5", 6, "1,V1,V11,V2"),
        ("3,5", 6, "1,V11"),
        ("3,5,7", 5, "1,V1,V11,V2"),
    ]
    tori = [
        ("2", 8, "1"),
        ("2", 6, "1,V1"),
        ("3", 5, "1,V1,V11,V2"),
        ("5", 6, "V1"),
        ("2,3", 7, "1"),
    ]
    ops = [
        ["verify", "--side", "conf", "--q", q, "--max-n", str(n), "--rep", reps, "--bruteforce"]
        for q, n, reps in conf
    ]
    ops += [
        ["verify", "--side", "tori", "--q", q, "--max-n", str(n), "--rep", reps]
        for q, n, reps in tori
    ]
    return ops


POOLS = {
    "tori-tables": _tori_tables,
    "conf-tables": _conf_tables,
    "verify": _verify,
}


def pool(workload: str) -> list[list[str]]:
    """The fixed op pool of a workload, as argv lists without --format."""
    return POOLS[workload](random.Random(POOL_SEED))


def op_key(argv: list[str]) -> str:
    """The key of an op in expected.json."""
    return shlex.join(argv)


def schedule(workload: str, seed: int) -> Iterator[int]:
    """Pool indices in run order, without end: each round is a permutation
    of the whole pool drawn from the seed."""
    size = len(pool(workload))
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield from rng.sample(range(size), size)
