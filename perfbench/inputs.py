"""Benchmark inputs: the fixed reference cube and the seeded solve-check sample.

expodio never sees the seed; it only receives the triples made here.
"""

from __future__ import annotations

import math
import random

# a, c in [2, 30], b in [1, 30]: the reference cube of the scans.
SCAN_CUBE = 30

# solve-check draws a, c from [2, SOLVE_TOP] and b from [1, SOLVE_TOP].
SOLVE_TOP = 200
# Triples per fresh interpreter.  Near this size the order cache behind
# multiplicative_order (16,384 entries) is close to full, so a caching
# change meets a realistic working set instead of a toy one.
SOLVE_SAMPLE = 6000


def cube_triples(n: int) -> list[tuple[int, int, int]]:
    """Every (a, b, c) with a, c in [2, n] and b in [1, n], in scan order."""
    return [
        (a, b, c)
        for a in range(2, n + 1)
        for b in range(1, n + 1)
        for c in range(2, n + 1)
    ]


def pairwise_coprime(a: int, b: int, c: int) -> bool:
    return math.gcd(a, b) == 1 and math.gcd(a, c) == 1 and math.gcd(b, c) == 1


def solve_check_triples(
    seed: int, count: int = SOLVE_SAMPLE, top: int = SOLVE_TOP
) -> list[tuple[int, int, int]]:
    """`count` distinct pairwise-coprime triples drawn with `seed`, in draw order."""
    rng = random.Random(seed)
    seen: set[tuple[int, int, int]] = set()
    triples: list[tuple[int, int, int]] = []
    while len(triples) < count:
        triple = (rng.randint(2, top), rng.randint(1, top), rng.randint(2, top))
        if triple not in seen and pairwise_coprime(*triple):
            seen.add(triple)
            triples.append(triple)
    return triples
