#!/usr/bin/env python3
"""Unpruned reference count of matroid isomorphism classes on tiny ground sets.

Enumerates every family of subsets of {0,...,n-1} (all 2^(2^n) of them),
keeps the ones that satisfy the independence axioms by direct testing, and
deduplicates by orbit under all n! relabelings.  Deliberately brute force:
the numbers printed here are frozen as golden values for the fast catalog
enumeration.  The counting itself is ``unpruned_counts`` in
``tests/oracles.py``, the oracle the test suite uses.

Usage: python scripts/enumerate_oracle.py [max_n]

``max_n`` is 0 to 4 (default 4); from n = 5 on the 2^(2^n) scan does not
finish, so larger or negative values exit with status 2.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import unpruned_counts  # noqa: E402


MAX_N = 4


def main():
    try:
        max_n = int(sys.argv[1]) if len(sys.argv) > 1 else MAX_N
    except ValueError:
        max_n = None
    if max_n not in range(MAX_N + 1):
        print("usage: python scripts/enumerate_oracle.py [max_n]", file=sys.stderr)
        sys.exit(2)
    for n in range(max_n + 1):
        labeled, classes = unpruned_counts(n)
        print(f"n={n}: labeled={labeled} classes={classes}")


if __name__ == "__main__":
    main()
