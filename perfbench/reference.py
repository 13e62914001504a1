"""A fixed reference program that gauges the host's speed at the moment.

    python3 perfbench/reference.py

It imports nothing from treepoly, so no change to the program under test
changes its time.  Its work resembles an iteration's: a fresh interpreter,
standard-library imports, big-integer polynomial products, and dicts keyed
by tuples.  run.py runs it between iterations and divides iteration times by
its median time in the same run (see README.md, "Host-relative metrics").
"""

import argparse  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import json  # noqa: F401
import random  # noqa: F401
import typing  # noqa: F401
from itertools import product

ROUNDS = 3


def tree_polynomial(depth: int) -> list[int]:
    """Independence polynomial of the complete binary tree of the given
    depth, by the leaf-to-root (with root, without root) recursion."""
    with_root, without = [0, 1], [1]
    for _ in range(depth):
        total = _add(with_root, without)
        square = _mul(total, total)
        with_root, without = [0] + _mul(without, without), square
    return _add(with_root, without)


def _add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def signature_counts(width: int) -> int:
    """Count the tuples of {0,1,2}^width by their sorted signature."""
    counts: dict[tuple, int] = {}
    for word in product(range(3), repeat=width):
        key = tuple(sorted(word))
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def main() -> int:
    checksum = 0
    for _ in range(ROUNDS):
        checksum += sum(tree_polynomial(8)) % 1_000_003
        checksum += signature_counts(9)
    print(checksum)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
