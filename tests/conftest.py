from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

import pytest

from expodio import (
    EquationInstance,
    SolveStatus,
    emit_lean,
    emit_text,
    serialize_certificate,
    solve,
)
from expodio.cli import iter_cube, iter_records

# Two short JSON texts json cannot load: nesting 10,000 deep raises
# RecursionError on every supported Python (3.12 and later load 1,000
# levels), and an integer of 5,000 digits the int-string-limit ValueError.
HOSTILE_DEEP = "[" * 10_000 + "]" * 10_000
HOSTILE_DIGITS = "1" * 5000

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

# All ten two-solution equations with parameters a, b, c <= 250.
TWO_SOLUTION_TABLE: dict[tuple[int, int, int], list[tuple[int, int]]] = {
    (2, 1, 3): [(1, 1), (3, 2)],
    (2, 4, 6): [(1, 1), (5, 2)],
    (2, 89, 91): [(1, 1), (13, 2)],
    (3, 5, 2): [(1, 3), (3, 5)],
    (3, 10, 13): [(1, 1), (7, 3)],
    (3, 13, 2): [(1, 4), (5, 8)],
    (3, 13, 4): [(1, 2), (5, 4)],
    (3, 13, 16): [(1, 1), (5, 2)],
    (5, 3, 2): [(1, 3), (3, 7)],
    (6, 9, 15): [(1, 1), (3, 2)],
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


def read_rows(path) -> tuple[list, int]:
    """The well-formed rows of a results file, and its malformed line count."""
    rows = list(iter_records(path))
    return [r for r in rows if r is not None], rows.count(None)


@pytest.fixture(scope="session")
def golden_results():
    """Solve the golden suite once per test session."""
    results = {}
    for triple in GOLDEN_SUITE:
        results[triple] = solve(EquationInstance(*triple))
    return results


@pytest.fixture(scope="session")
def golden_certificates(golden_results):
    certs = {}
    for triple, result in golden_results.items():
        assert result.status is SolveStatus.SOLVED, f"golden instance {triple} unresolved"
        assert result.certificate is not None
        certs[triple] = result.certificate
    return certs
