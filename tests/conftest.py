from __future__ import annotations

import hashlib
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

# Two short JSON texts json cannot load: nesting 1,000 deep raises
# RecursionError, and an integer of 5,000 digits the int-string-limit ValueError.
HOSTILE_DEEP = "[" * 1000 + "]" * 1000
HOSTILE_DIGITS = "1" * 5000

# One sha256 over the 12-cube's output bytes; see `cube_output_digest`.
CUBE12_DIGEST = Path(__file__).parent / "golden" / "cube12.sha256"

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


def cube_output_digest(n: int) -> str:
    """sha256 over every n-cube instance's certificate, .lean and .txt bytes, in cube order.

    The 12-cube reaches every certificate shape in both modes and every
    wrap rule of the emitters, so its digest pins the output bytes far
    past the golden suite.
    """
    digest = hashlib.sha256()
    for triple in iter_cube(n, n, n):
        cert = solve(EquationInstance(*triple)).certificate
        for text in (serialize_certificate(cert), emit_lean(cert), emit_text(cert)):
            digest.update(text.encode("utf-8"))
    return digest.hexdigest()


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
