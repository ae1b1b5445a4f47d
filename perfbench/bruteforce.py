"""Correctness gate that shares no code with expodio.

Plain big-integer search: every solution of a^x + b = c^y with
c^y <= POWER_BOUND is found by walking the powers of c and looking the
difference up among the powers of a.  The bound lies far above the
solver's own initial-search ceiling (2^64), so solutions the solver only
reaches through its exclusion proof are checked as well.
"""

from __future__ import annotations

POWER_BOUND = 1 << 100

# Reported solutions beyond POWER_BOUND are checked exactly, but only up
# to this exponent; a larger one is itself treated as a wrong answer.
MAX_CHECKED_EXPONENT = 4096

# The published table of equations with two solutions.  No equation in
# the benchmark's cubes has more than two.
TWO_SOLUTION_TABLE: dict[tuple[int, int, int], tuple[tuple[int, int], ...]] = {
    (2, 1, 3): ((1, 1), (3, 2)),
    (2, 4, 6): ((1, 1), (5, 2)),
    (2, 89, 91): ((1, 1), (13, 2)),
    (3, 5, 2): ((1, 3), (3, 5)),
    (3, 10, 13): ((1, 1), (7, 3)),
    (3, 13, 2): ((1, 4), (5, 8)),
    (3, 13, 4): ((1, 2), (5, 4)),
    (3, 13, 16): ((1, 1), (5, 2)),
    (5, 3, 2): ((1, 3), (3, 7)),
    (6, 9, 15): ((1, 1), (3, 2)),
}


class Oracle:
    """Brute-force solution lists, with the powers of each base kept between calls."""

    def __init__(self, bound: int = POWER_BOUND) -> None:
        self.bound = bound
        self._powers: dict[int, dict[int, int]] = {}

    def _exponents(self, a: int) -> dict[int, int]:
        table = self._powers.get(a)
        if table is None:
            table = {}
            value, x = a, 1
            while value <= self.bound:
                table[value] = x
                value *= a
                x += 1
            self._powers[a] = table
        return table

    def solutions(self, a: int, b: int, c: int) -> tuple[tuple[int, int], ...]:
        """All (x, y), x, y >= 1, with a^x + b = c^y and c^y <= bound, ascending."""
        exponents = self._exponents(a)
        found = []
        power, y = c, 1
        while power <= self.bound:
            x = exponents.get(power - b)
            if x is not None:
                found.append((x, y))
            power *= c
            y += 1
        return tuple(sorted(found))

    def mismatch(self, a: int, b: int, c: int, reported) -> str | None:
        """None when `reported` is exactly the solution list, else what is wrong."""
        try:
            pairs = [(int(x), int(y)) for x, y in reported]
        except (TypeError, ValueError):
            return f"({a}, {b}, {c}): solutions are not integer pairs: {reported!r}"
        if pairs != sorted(set(pairs)):
            return f"({a}, {b}, {c}): solutions not sorted and distinct: {pairs}"
        low = []
        for x, y in pairs:
            if not (1 <= x <= MAX_CHECKED_EXPONENT and 1 <= y <= MAX_CHECKED_EXPONENT):
                return f"({a}, {b}, {c}): exponent out of range in {(x, y)}"
            if c**y <= self.bound:
                low.append((x, y))
            elif a**x + b != c**y:
                return f"({a}, {b}, {c}): {(x, y)} is not a solution"
        expected = self.solutions(a, b, c)
        if tuple(low) != expected:
            return f"({a}, {b}, {c}): reported {low}, brute force finds {list(expected)}"
        return None


def two_solution_mismatch(
    rows: dict[tuple[int, int, int], tuple[tuple[int, int], ...]], top: int
) -> str | None:
    """Compare the rows with two or more solutions against the published table."""
    found = {t: tuple(s) for t, s in rows.items() if len(s) >= 2}
    expected = {t: s for t, s in TWO_SOLUTION_TABLE.items() if max(t) <= top}
    if found != expected:
        return f"multi-solution equations {sorted(found)} differ from the table {sorted(expected)}"
    return None
