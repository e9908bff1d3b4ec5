#!/usr/bin/env python3
"""Print one line `p n sha256` per prime p, the SHA-256 of the sorted
brute-force census of F_p up to degree n: every prime below 100 at the
largest n the guard admits, then 101 and 997.  Two versions of the sieve
give the same census iff they print the same lines.

    PYTHONPATH=src python scripts/census_digest.py
"""

import hashlib

from betticount.conf_counts import GUARD, bruteforce_census
from betticount.zeta import is_prime

if __name__ == "__main__":
    for p in [p for p in range(2, 100) if is_prime(p)] + [101, 997]:
        n = max(k for k in range(GUARD.bit_length()) if p**k <= GUARD)
        census = sorted((ct, cnt) for row in bruteforce_census(p, n) for ct, cnt in row)
        print(p, n, hashlib.sha256(repr(census).encode()).hexdigest(), flush=True)
