"""The golden suite and the digests over solver output that tests/golden pins.

Plain standard library, so that `regen_golden.py` and `smoke.py` run on an
interpreter without pytest; `conftest.py` imports it too.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

from expodio import EquationInstance, emit_lean, emit_text, serialize_certificate, solve
from expodio.cli import iter_cube

# One sha256 over the 12-cube's output bytes; see `cube_output_digests`.
CUBE12_DIGEST = Path(__file__).parent / "golden" / "cube12.sha256"
# The same over 400 seeded pairwise-coprime triples; see `coprime_triples`.
COPRIME200_DIGEST = Path(__file__).parent / "golden" / "coprime200.sha256"
# The same two over the .lean and .txt bytes alone, which a format change leaves alone.
CUBE12_PROOFS_DIGEST = Path(__file__).parent / "golden" / "cube12-proofs.sha256"
COPRIME200_PROOFS_DIGEST = Path(__file__).parent / "golden" / "coprime200-proofs.sha256"

# The golden instance suite with its exact solution sets.
GOLDEN_SUITE: dict[tuple[int, int, int], list[tuple[int, int]]] = {
    (5, 3, 2): [(1, 3), (3, 7)],
    (2, 6, 9): [],
    (3, 6, 8): [],
    (2, 4, 7): [],
    (3, 6, 11): [],
    (2, 4, 6): [(1, 1), (5, 2)],
    (3, 1, 9): [],
    (7, 3, 10): [(1, 1)],
    (17, 3, 20): [(1, 1)],
    (2, 1, 3): [(1, 1), (3, 2)],
    (2, 89, 91): [(1, 1), (13, 2)],
    (2, 5, 11): [],
    (3, 5, 7): [],
    (3, 7, 2): [(2, 4)],
    (3, 10, 13): [(1, 1), (7, 3)],
}


def output_digests(triples) -> tuple[str, str]:
    """Two sha256 digests over the triples' outputs, in the given order.

    The first covers each triple's certificate, .lean and .txt bytes; the
    second the .lean and .txt bytes alone, the proofs, so it survives a
    change of the certificate format.
    """
    output, proofs = hashlib.sha256(), hashlib.sha256()
    for triple in triples:
        cert = solve(EquationInstance(*triple)).certificate
        output.update(serialize_certificate(cert).encode("utf-8"))
        for text in (emit_lean(cert), emit_text(cert)):
            output.update(text.encode("utf-8"))
            proofs.update(text.encode("utf-8"))
    return output.hexdigest(), proofs.hexdigest()


def cube_output_digests(n: int) -> tuple[str, str]:
    """The output digests of every n-cube instance, in cube order.

    The 12-cube reaches every certificate shape in both modes and every
    wrap rule of the emitters, so its digests pin the output bytes far
    past the golden suite.
    """
    return output_digests(iter_cube(n, n, n))


def coprime_triples() -> list[tuple[int, int, int]]:
    """400 distinct seeded pairwise-coprime triples, a, c in [2, 200] and b in [1, 200], sorted.

    These are all Class II and reach what the 12-cube does not: magic
    primes above 41^2 = 1,681, where the verifier's primality test runs
    its Miller-Rabin rounds, and lifts long enough to wrap the emitters'
    value lists.
    """
    rng = random.Random(2)
    seen: set[tuple[int, int, int]] = set()
    while len(seen) < 400:
        a, b, c = rng.randint(2, 200), rng.randint(1, 200), rng.randint(2, 200)
        if math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1:
            seen.add((a, b, c))
    return sorted(seen)
