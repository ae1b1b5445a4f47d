from __future__ import annotations

import pytest
from goldens import GOLDEN_SUITE

from expodio import EquationInstance, SolveStatus, solve
from expodio.cli import iter_records

# Two short JSON texts json cannot load: nesting 10,000 deep raises
# RecursionError on every supported Python (3.12 and later load 1,000
# levels), and an integer of 5,000 digits the int-string-limit ValueError.
HOSTILE_DEEP = "[" * 10_000 + "]" * 10_000
HOSTILE_DIGITS = "1" * 5000

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
