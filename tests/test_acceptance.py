"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

from conftest import GOLDEN_SUITE, TWO_SOLUTION_TABLE, read_rows
from independence import certificate_import_violations
from mutation import mutated_certificate_is_rejected
from oracle import brute_force_solutions, sieve_primes

from expodio import (
    Constraint,
    EquationInstance,
    SolveStatus,
    arith,
    emit_lean,
    emit_text,
    solve,
    verify_certificate,
    witness_for_prime,
)
from expodio.certificate import CertShape, Mode, _lift, certificate_to_dict
from expodio.cli import main as cli_main

GOLDEN_DIR = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance criterion {number}] FAIL - {description}")
        raise
    print(f"[acceptance criterion {number}] PASS - {description}")


def test_criterion_1_golden_suite(golden_results):
    with criterion(1, "golden instance suite solved with exact solution sets"):
        for triple, expected in GOLDEN_SUITE.items():
            result = golden_results[triple]
            assert result.status is SolveStatus.SOLVED, triple
            assert list(result.solutions) == expected, triple
            assert result.elapsed_ms <= 60_000, triple


def test_criterion_2_two_solution_table(tmp_path):
    with criterion(2, "a,c in [2,50], b in [1,50] scan reproduces the two-solution table"):
        out_file = tmp_path / "scan50.jsonl"
        start = time.perf_counter()
        code = cli_main(
            ["scan", "--a-max", "50", "--b-max", "50", "--c-max", "50",
             "--out", str(out_file)]
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed <= 1800, f"scan took {elapsed:.0f}s, target is 30 minutes"

        records, malformed = read_rows(out_file)
        assert malformed == 0
        assert len(records) == 49 * 50 * 49
        assert all(r.status == "Solved" for r in records), "unresolved instances remain"

        max_count = max(r.solution_count for r in records)
        assert max_count == 2
        attained = {
            (r.a, r.b, r.c): r.solutions for r in records if r.solution_count == 2
        }
        expected = {
            triple: tuple(sols)
            for triple, sols in TWO_SOLUTION_TABLE.items()
            if max(triple) <= 50
        }
        assert len(expected) == 9
        assert attained == expected


def test_criterion_3_oracle_equivalence():
    with criterion(3, "solved 12-cube instances match the brute-force oracle"):
        disagreements = []
        for a in range(2, 13):
            for b in range(1, 13):
                for c in range(2, 13):
                    result = solve(EquationInstance(a, b, c))
                    if result.status is not SolveStatus.SOLVED:
                        continue
                    oracle = brute_force_solutions(a, b, c, ceiling=10**9)
                    mine = [s for s in result.solutions if c ** s[1] <= 10**9]
                    if mine != oracle:
                        disagreements.append((a, b, c, mine, oracle))
                    for x, y in result.solutions:
                        assert a**x + b == c**y
        assert disagreements == []


def test_criterion_4_certificate_soundness(golden_certificates):
    with criterion(4, "golden certificates accepted; 1000 mutations each rejected; verifier independent"):
        for triple, cert in golden_certificates.items():
            verdict = verify_certificate(cert)
            assert verdict.accepted, (triple, verdict.reason)
        rng = random.Random(424242)
        for triple, cert in golden_certificates.items():
            doc = certificate_to_dict(cert)
            for _ in range(1000):
                rejected, reason = mutated_certificate_is_rejected(doc, rng)
                assert rejected, (triple, reason)
        assert certificate_import_violations() == []


def test_criterion_5_arithmetic_properties():
    with criterion(5, "order/dlog exhaustive to 1e4, progression sieve to 1e6, power oracle"):
        # order and discrete-log invariants, every modulus up to 10^4
        for m in range(2, 10_001):
            base = next(b for b in (2, 3, 5, 7, 11, 13) if math.gcd(b, m) == 1)
            values = {}
            v = 1
            j = 0
            while True:
                v = v * base % m
                j += 1
                if v == 1:
                    break
                values[v] = j
            order = j
            assert arith.multiplicative_order(base, m) == order, m
            probes = {0, 1, order - 1, order // 2}
            for e in probes:
                target = pow(base, e, m)
                assert arith.cycle_discrete_log(base, target, m) == e % order, (base, m, e)
            outside = next((t for t in range(m) if t != 1 and t not in values), None)
            if outside is not None:
                assert arith.cycle_discrete_log(base, outside, m) is None, (base, m, outside)

        # primes in progression against a sieve
        limit = 1_000_000
        primes = sieve_primes(limit)
        prime_set = set(primes)
        for k in (1, 18, 64, 147, 2187):
            expected = [p for p in primes if p > k and p % k == 1 % k]
            got = []
            for p in arith.primes_in_progression(k):
                if p > limit:
                    break
                got.append(p)
            assert got == expected, k
            assert all(p in prime_set for p in got)

        # exact power decomposition against repeated multiplication
        for a in range(2, 21):
            value = 1
            for x in range(1, 41):
                value *= a
                assert arith.exact_power_decompose(value, a) == x
                assert arith.exact_power_decompose(value + 1, a) is None
                assert arith.exact_power_decompose(value - 1, a) is None or value - 1 == 1


def test_criterion_6_magic_prime_fidelity(golden_results):
    with criterion(6, "witnesses at P=257 and P=17497 reproduce the published value sets"):
        # the default search picks the published primes
        result = golden_results[(5, 3, 2)]
        utilize, compute = (c.params for c in result.certificate.claims[2:4])
        assert utilize["prime"] == 257
        assert compute["output_values"] == (17, 227, 246, 36)
        assert verify_certificate(result.certificate).accepted

        result = golden_results[(3, 10, 13)]
        utilize = result.certificate.claims[2].params
        assert utilize["prime"] == 17497
        assert utilize["values"] == (11616, 6486, 5881, 11011)
        assert verify_certificate(result.certificate).accepted

        # each published prime checked directly
        inst = EquationInstance(5, 3, 2)
        lift = witness_for_prime(inst, Constraint(variable="x", residue=35, period=64), 257)
        assert lift is not None
        lifted, values, shifted = _lift(inst, Mode.FORWARD, 35, 64, 257, lift)
        assert lifted == (35, 99, 163, 227)
        assert values == (14, 224, 243, 33)
        assert shifted == (17, 227, 246, 36)

        inst = EquationInstance(3, 10, 13)
        lift = witness_for_prime(inst, Constraint(variable="y", residue=1461, period=2187), 17497)
        assert lift is not None
        lifted, values, _ = _lift(inst, Mode.BACKWARD, 1461, 2187, 17497, lift)
        assert lifted == (1461, 3648, 5835, 8022)
        assert values == (11616, 6486, 5881, 11011)


def test_criterion_7_emitter_determinism(golden_certificates):
    with criterion(7, "emitters byte-stable and claim kinds match the per-type templates"):
        sequences = {
            CertShape.DIVISIBILITY_NO_SOLUTION: ["pow_mod_eq_zero", "observe_mod_cycle"],
            CertShape.COMMON_FACTOR_BOUND: [
                "pow_mod_eq_zero", "pow_mod_eq_zero", "diophantine1_enumeration",
            ],
            CertShape.DIRECT_MODULAR_EXCLUSION: [
                "pow_mod_eq_zero", "observe_mod_cycle", "diophantine1_enumeration",
            ],
        }
        import re

        for triple, cert in golden_certificates.items():
            rendered_a = emit_lean(cert)
            rendered_b = emit_lean(cert)
            assert rendered_a == rendered_b, triple
            assert emit_text(cert) == emit_text(cert), triple

            quoted = re.findall(r'\] "([a-z0-9_]+)"', rendered_a)
            if cert.shape in sequences:
                assert quoted == sequences[cert.shape], triple
            else:
                shift = "compute_mod_add" if cert.mode is Mode.FORWARD else "compute_mod_sub"
                assert quoted == [
                    "pow_mod_eq_zero", "observe_mod_cycle", "utilize_mod_cycle",
                    shift, "exhaust_mod_cycle", "diophantine1_enumeration",
                ], triple

            # stability across sessions, against frozen snapshots that must exist
            name = f"diophantine1_{triple[0]}_{triple[1]}_{triple[2]}"
            for suffix in (".cert.json", ".lean", ".txt"):
                assert (GOLDEN_DIR / f"{name}{suffix}").is_file(), (triple, suffix)
            assert rendered_a == (GOLDEN_DIR / f"{name}.lean").read_text(encoding="utf-8"), triple
            frozen_text = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
            assert emit_text(cert) == frozen_text, triple
