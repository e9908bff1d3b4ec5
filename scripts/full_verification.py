#!/usr/bin/env python3
"""Run the complete cross-validation sweep: configuration-space counts
against Betti tables (with brute-force polynomial enumeration, up to the
largest runs the brute-force guard admits) and torus counts against torus
Betti tables.  Exits nonzero if any row fails."""

import sys
import time

from betticount.cli import main


def run(argv):
    print("$ betticount " + " ".join(argv))
    start = time.monotonic()
    code = main(argv)
    print(f"[{time.monotonic() - start:.1f}s]\n")
    return code


if __name__ == "__main__":
    rc = 0
    rc |= run([
        "verify", "--side", "conf", "--q", "3,5,7", "--max-n", "6",
        "--rep", "1,V1,V11,V2", "--bruteforce",
    ])
    # the two largest brute-force runs the guard admits
    rc |= run([
        "verify", "--side", "conf", "--q", "7", "--max-n", "7", "--rep", "1", "--bruteforce",
    ])
    rc |= run([
        "verify", "--side", "conf", "--q", "3", "--max-n", "12", "--rep", "1", "--bruteforce",
    ])
    rc |= run([
        "verify", "--side", "tori", "--q", "2,3,5", "--max-n", "6",
        "--rep", "1,V1,V11,V2",
    ])
    # a 924-term rep: the whole-rep Betti kernels against the partition sums
    many_terms = "*".join(["(X1+X2+X3+X4+X5+X6+1)"] * 6)
    for side in ("tori", "conf"):
        rc |= run(["verify", "--side", side, "--q", "2,3", "--max-n", "8", "--rep", many_terms])
    sys.exit(rc)
