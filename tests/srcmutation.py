"""Source-mutation probe of the trusted module, src/expodio/certificate.py.

Makes one mutant of certificate.py per site anywhere in it: the format,
the claim layout, the serializer, the parser and the verifier with its
primality test:

- each comparison operator flipped (`<` and `<=`, `>` and `>=`, `==`
  and `!=`, `is` and `is not`, `in` and `not in`);
- each `and` turned into `or`, and each `or` into `and`;
- each integer constant moved by +1 and by -1.

A mutant is spliced into the source text, so every other line keeps its
place.  Each one replaces certificate.py in a private copy of the package
and runs the module's tests against it (test_certificate.py,
test_verifier_hardening.py, test_emit.py, the primality tests of
test_arith.py, acceptance criteria 1, 4 and 6, and test_engine.py's
large-range sample).  A mutant is killed when a test fails, and hangs
when the tests outrun TIMEOUT; it survives when they pass.  A survivor
listed in EQUIVALENT is reported with the reason it cannot change a
verdict; the script exits 1 when any other survives.

Not part of tier-1: a full run takes several minutes.

    python tests/srcmutation.py [--jobs N]
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "expodio"
TESTS = [
    "tests/test_certificate.py",
    "tests/test_verifier_hardening.py",
    "tests/test_emit.py",
    "tests/test_arith.py::TestIsPrime",
    "tests/test_acceptance.py::test_criterion_1_golden_suite",
    "tests/test_acceptance.py::test_criterion_4_certificate_soundness",
    "tests/test_acceptance.py::test_criterion_6_magic_prime_fidelity",
    "tests/test_engine.py::TestSolve::test_large_range_sample_matches_oracle",
]
TIMEOUT = 120.0  # seconds per mutant

# operator -> (pattern that finds it between its operands, replacement)
_COMPARE_FLIPS = {
    ast.Lt: (r"<(?!=)", "<="),
    ast.LtE: (r"<=", "<"),
    ast.Gt: (r">(?!=)", ">="),
    ast.GtE: (r">=", ">"),
    ast.Eq: (r"==", "!="),
    ast.NotEq: (r"!=", "=="),
    ast.IsNot: (r"\bis\s+not\b", "is"),
    ast.Is: (r"\bis\b", "is not"),
    ast.NotIn: (r"\bnot\s+in\b", "in"),
    ast.In: (r"\bin\b", "not in"),
}
_BOOL_SWAPS = {ast.And: (r"\band\b", "or"), ast.Or: (r"\bor\b", "and")}

_CHEAP_POWER = (
    "the bit-length test only keeps p**k cheap for a huge stated k; the MODULUS_CAP test "
    "beside it gives the same verdict and reason, and a test telling them apart would "
    "compute p**k"
)

_UNIT = "n = 1 is no multiple of a base >= 2, so the loop stops there either way"

# Survivors that cannot change a verdict, keyed by their description.
EQUIVALENT: dict[str, str] = {
    "_is_order: if order >= modulus:  ->  if order > modulus:":
        "an order Pratt's test proves divides the group exponent, which is below the modulus, "
        "so an order equal to the modulus fails that test with the same reason",
    "_is_order: rest, last = order, 1  ->  rest, last = order, 0":
        "a listed 1 then passes the ascent test, but _is_prime(1) is false: the same verdict",
    "_is_order: if q <= last or rest % q or not _is_prime(q) or pow(base, order // q, modulus) "
    "== 1:  ->  if q < last or rest % q or not _is_prime(q) or pow(base, order // q, modulus) "
    "== 1:":
        "a repeated prime was divided out of rest, so rest % q rejects it: the same verdict",
    "_outside_cycle: if p == 2 and k >= 3:  ->  if p == 2 and k >= 2:":
        "the 2^k split is exact modulo 4 as well",
    "_enumerate_solutions: for y in range(1, bound + 1):  ->  for y in range(0, bound + 1):":
        "y = 0 leaves c^0 - b = 1 - b <= 0, for which _exponent returns None",
    "_exponent: while n > 1 and n % base == 0:  ->  while n >= 1 and n % base == 0:": _UNIT,
    "_exponent: while n > 1 and n % base == 0:  ->  while n > 0 and n % base == 0:": _UNIT,
    "_is_prime: if n < 1681:  # 41^2: a composite below it has a prime factor below 41  ->  "
    "if n < 1680:  # 41^2: a composite below it has a prime factor below 41":
        "1680 is even, so the trial division has already returned False for it",
    "_is_prime: for _ in range(r - 1):  ->  for _ in range(r - 0):":
        "the extra squaring only asks whether a^(n-1) = -1 (mod n), with n - 1 = 2^r d and d "
        "odd; then 2^(r+1) divides the order of a mod each prime p | n, so each p, and so n, "
        "is 1 mod 2^(r+1), against d odd: no n passes it",
    "_verify_class_two: if p > MODULUS_CAP or k * (p.bit_length() - 1) > 62 or p**k > MODULUS_CAP:"
    "  ->  if p > MODULUS_CAP or k * (p.bit_length() - 1) > 63 or p**k > MODULUS_CAP:":
        _CHEAP_POWER,
    "_verify_class_two: if P > MODULUS_CAP or not _is_prime(P):  ->  "
    "if P >= MODULUS_CAP or not _is_prime(P):":
        "MODULUS_CAP is 2^62, which is not prime, so _is_prime rejects it with the same reason",
}


@dataclass(frozen=True)
class Mutant:
    line: int
    start: int  # byte offsets of the replaced text in the source
    end: int
    replacement: bytes
    description: str


def _offsets(source: bytes) -> list[int]:
    """Byte offset of the start of each line, 1-based by index."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def mutants(source: bytes) -> list[Mutant]:
    """Every mutant of the module, in source order."""
    starts = _offsets(source)

    def begin(node: ast.AST) -> int:
        return starts[node.lineno] + node.col_offset

    def finish(node: ast.AST) -> int:
        return starts[node.end_lineno] + node.end_col_offset

    def splice(function: str, line: int, lo: int, hi: int, new: bytes) -> Mutant:
        text = source[starts[line] : starts[line + 1]].decode("utf-8").strip()
        mutated = (source[starts[line] : lo] + new + source[hi : starts[line + 1]]).decode("utf-8")
        return Mutant(line, lo, hi, new, f"{function}: {text}  ->  {mutated.strip()}")

    def gap_site(function: str, left: ast.AST, right: ast.AST, pattern: str, new: str):
        lo, hi = finish(left), begin(right)
        match = re.search(pattern.encode(), source[lo:hi])
        if match is None:
            raise ValueError(f"no operator between lines {left.lineno} and {right.lineno}")
        at = lo + match.start()
        line = source.count(b"\n", 0, at) + 1
        return splice(function, line, at, lo + match.end(), new.encode())

    found: list[Mutant] = []
    tree = ast.parse(source)
    for top in tree.body:
        function = getattr(top, "name", f"line {top.lineno}")
        for node in ast.walk(top):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for i, op in enumerate(node.ops):
                    pattern, new = _COMPARE_FLIPS[type(op)]
                    found.append(gap_site(function, operands[i], operands[i + 1], pattern, new))
            elif isinstance(node, ast.BoolOp):
                pattern, new = _BOOL_SWAPS[type(node.op)]
                for left, right in zip(node.values, node.values[1:]):
                    found.append(gap_site(function, left, right, pattern, new))
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                for delta in (1, -1):
                    new = str(node.value + delta).encode()
                    found.append(splice(function, node.lineno, begin(node), finish(node), new))
    found.sort(key=lambda m: (m.start, m.description))
    return found


def run_mutant(source: bytes, mutant: Mutant) -> str:
    """'killed', 'hung', 'survived' or 'invalid' for one mutant."""
    text = source[: mutant.start] + mutant.replacement + source[mutant.end :]
    try:
        compile(text, "certificate.py", "exec")
    except SyntaxError:
        return "invalid"
    with tempfile.TemporaryDirectory(prefix="srcmutation-") as scratch:
        copy = Path(scratch) / "expodio"
        shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        (copy / "certificate.py").write_bytes(text)
        # the ini's pythonpath would put the real src first; point it at the copy
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        command += ["-o", f"pythonpath={scratch}", *TESTS]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "hung"
    return "survived" if done.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=1, help="mutants run at once (default 1)")
    args = parser.parse_args(argv)

    source = (PACKAGE / "certificate.py").read_bytes()
    found = mutants(source)
    unmutated = Mutant(0, 0, 0, b"", "the unmutated source")
    if run_mutant(source, unmutated) != "survived":
        print("the tests fail on the unmutated source; no mutant was run")
        return 2
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        outcomes = list(pool.map(lambda m: run_mutant(source, m), found))
    counts = {name: outcomes.count(name) for name in ("killed", "hung", "survived", "invalid")}
    untriaged = 0
    for mutant, outcome in zip(found, outcomes):
        if outcome == "survived":
            reason = EQUIVALENT.get(mutant.description)
            untriaged += reason is None
            print(f"survived  {mutant.line}: {mutant.description}")
            print(f"          {'equivalent: ' + reason if reason else 'UNTRIAGED'}")
        elif outcome != "killed":
            print(f"{outcome:<9} {mutant.line}: {mutant.description}")
    summary = ", ".join(f"{n} {outcome}" for outcome, n in counts.items())
    print(f"{len(found)} mutants: {summary}; {untriaged} survivors untriaged")
    return 1 if untriaged else 0


if __name__ == "__main__":
    sys.exit(main())
