from __future__ import annotations

import copy
import dataclasses
import gc
import json
import math
import pickle
import random
import re
import weakref
from pathlib import Path

import pytest

from conftest import GOLDEN_SUITE, HOSTILE_DEEP, HOSTILE_DIGITS
from independence import certificate_import_violations, trusted_lines
from mutation import mutated_certificate_is_rejected
from oracle import brute_force_cycle, brute_force_order, brute_force_solutions, sieve_primes

from expodio import (
    CertShape,
    EquationInstance,
    Mode,
    SolveStatus,
    certificate_digest,
    emit_lean,
    emit_text,
    parse_certificate,
    serialize_certificate,
    solve,
    verify_certificate,
)
from expodio import arith
from expodio import certificate as certificate_module
from expodio.certificate import MalformedCertificateError, certificate_to_dict
from expodio.cli import iter_cube
from expodio.engine import (
    CertificateBuildError,
    ModulusCandidate,
    build_direct_exclusion_certificate,
    build_divisibility_certificate,
    build_magic_prime_certificate,
    exclusion_step,
    witness_for_prime,
)

# The witness each shape states after the eight common fields, in document order.
_WITNESS_KEYS = {
    CertShape.DIVISIBILITY_NO_SOLUTION: [],
    CertShape.COMMON_FACTOR_BOUND: [],
    CertShape.DIRECT_MODULAR_EXCLUSION: ["order"],
    CertShape.MAGIC_PRIME_EXCLUSION: ["order", "residue", "prime", "lifted_period", "prime_order"],
}

# The claim chain of each shape, as its Lean outline states it.
_EXPECTED_KINDS = {
    CertShape.DIVISIBILITY_NO_SOLUTION: ["pow_mod_eq_zero", "observe_mod_cycle"],
    CertShape.COMMON_FACTOR_BOUND: [
        "pow_mod_eq_zero",
        "pow_mod_eq_zero",
        "diophantine1_enumeration",
    ],
    CertShape.DIRECT_MODULAR_EXCLUSION: [
        "pow_mod_eq_zero",
        "observe_mod_cycle",
        "diophantine1_enumeration",
    ],
}


def _expected_kinds(cert):
    if cert.shape in _EXPECTED_KINDS:
        return _EXPECTED_KINDS[cert.shape]
    shift = "compute_mod_add" if cert.mode is Mode.FORWARD else "compute_mod_sub"
    return [
        "pow_mod_eq_zero",
        "observe_mod_cycle",
        "utilize_mod_cycle",
        shift,
        "exhaust_mod_cycle",
        "diophantine1_enumeration",
    ]


def _claim_kinds(cert):
    """The revalidators of the certificate's Lean outline, in order: its claim chain."""
    return re.findall(r'\] "([a-z0-9_]+)"', emit_lean(cert))


def _witness_keys(cert):
    """The document's keys after the eight every certificate states."""
    return list(certificate_to_dict(cert))[8:]


# These two come first in the module: under `tests/srcmutation.py`, which
# stops at the first failure, a mutant that would send a later test into an
# endless loop fails here at once instead.


def test_trusted_primality_refuses_one_zero_and_negatives():
    # a stated witness prime of 1 would never leave _valuation's division loop
    for n in (1, 0, -1):
        assert certificate_module._is_prime(n) is False, n


class _Unpowerable(int):
    """An int whose power raises: a modulus past the cap must be refused before p**k."""

    def __pow__(self, exponent, modulus=None):
        raise AssertionError("p**k was computed for a modulus past the cap")


def test_a_huge_modulus_exponent_is_refused_before_any_power(golden_certificates):
    # p = 2 has bit length 2, so the size test bounds k by 62 without computing 2**k
    cert = golden_certificates[(7, 3, 10)]
    assert cert.shape is CertShape.MAGIC_PRIME_EXCLUSION
    huge = dataclasses.replace(cert, witness_prime=_Unpowerable(2), modulus_exponent=10**9)
    verdict = verify_certificate(huge)
    assert not verdict.accepted
    assert verdict.reason == "modulus exceeds the supported cap"


class TestBuildCertificate:
    def test_direct_exclusion_claim_sequence(self):
        # built at the first threshold where the residue leaves the cycle
        inst = EquationInstance(7, 3, 10)
        cert = build_direct_exclusion_certificate(inst, Mode.FORWARD, 2, 3, 3, [(1, 1)])
        assert _claim_kinds(cert) == [
            "pow_mod_eq_zero",
            "observe_mod_cycle",
            "diophantine1_enumeration",
        ]
        assert _witness_keys(cert) == ["order"]
        assert cert.order == (2, (2,))  # 7 has order 2 mod 8
        assert verify_certificate(cert).accepted

    def test_magic_prime_claim_sequence(self, golden_certificates):
        cert = golden_certificates[(2, 89, 91)]
        assert cert.shape is CertShape.MAGIC_PRIME_EXCLUSION
        assert _claim_kinds(cert) == [
            "pow_mod_eq_zero",
            "observe_mod_cycle",
            "utilize_mod_cycle",
            "compute_mod_add",
            "exhaust_mod_cycle",
            "diophantine1_enumeration",
        ]
        assert (cert.order, cert.residue, cert.prime) == ((147, (3, 7)), 76, 2647)
        assert (cert.lifted_period, cert.prime_order) == (1323, (147, (3, 7)))

    def test_backward_uses_subtraction(self, golden_certificates):
        cert = golden_certificates[(3, 7, 2)]
        assert cert.mode is Mode.BACKWARD
        assert "compute_mod_sub" in _claim_kinds(cert)

    def test_all_golden_sequences(self, golden_certificates):
        for triple, cert in golden_certificates.items():
            assert _claim_kinds(cert) == _expected_kinds(cert), triple
            assert _witness_keys(cert) == _WITNESS_KEYS[cert.shape], triple

    def test_inconsistent_inputs_rejected(self):
        inst = EquationInstance(7, 3, 10)
        with pytest.raises(CertificateBuildError):
            # (1, 1) is a real solution, so claiming y < 1 must be refused
            build_direct_exclusion_certificate(inst, Mode.FORWARD, 2, 1, 1, [(1, 1)])
        with pytest.raises(CertificateBuildError):
            # a non-solution in the list must be refused
            build_direct_exclusion_certificate(inst, Mode.FORWARD, 2, 3, 3, [(1, 2)])
        with pytest.raises(CertificateBuildError):
            # p does not divide b
            build_divisibility_certificate(inst, Mode.FORWARD, 5)


class TestVerifyCertificate:
    def test_accepts_all_goldens(self, golden_certificates):
        for triple, cert in golden_certificates.items():
            verdict = verify_certificate(cert)
            assert verdict.accepted, (triple, verdict.reason)

    def test_rejects_wrong_solution_list(self, golden_certificates):
        # each is rejected at its enumeration claim, the last of its chain
        for triple, index in (((5, 3, 2), 5), ((17, 3, 20), 2), ((2, 4, 6), 2)):
            doc = certificate_to_dict(golden_certificates[triple])
            doc["solutions"] = doc["solutions"][1:]
            verdict = verify_certificate(parse_certificate(json.dumps(doc)))
            assert not verdict.accepted
            assert verdict.reason == "re-enumeration does not reproduce the claimed solutions"
            assert verdict.claim_index == index, triple

    def test_rejects_swapped_magic_prime(self, golden_certificates):
        doc = certificate_to_dict(golden_certificates[(5, 3, 2)])
        doc["prime"] = 19
        verdict = verify_certificate(parse_certificate(json.dumps(doc)))
        assert not verdict.accepted
        assert verdict.claim_index in (2, 3, 4)

    def test_rejects_dropped_claim(self, golden_certificates):
        # each step's witness is required: without it the document is malformed
        doc = certificate_to_dict(golden_certificates[(2, 1, 3)])
        for key in _WITNESS_KEYS[CertShape.MAGIC_PRIME_EXCLUSION]:
            dropped = {k: v for k, v in doc.items() if k != key}
            with pytest.raises(MalformedCertificateError, match="missing certificate fields"):
                parse_certificate(json.dumps(dropped))

    def test_rejects_unknown_claim_kind(self, golden_certificates):
        # a field outside the shape's witness, another shape's or a new one, is malformed
        doc = certificate_to_dict(golden_certificates[(2, 6, 9)])
        for key, value in (("order", [2, [2]]), ("novel_revalidator", 1)):
            with pytest.raises(MalformedCertificateError, match="unexpected"):
                parse_certificate(json.dumps({**doc, key: value}))

    def test_rejects_loosened_bound(self, golden_certificates):
        doc = certificate_to_dict(golden_certificates[(3, 7, 2)])
        doc["bound_threshold"] = 4
        verdict = verify_certificate(parse_certificate(json.dumps(doc)))
        assert not verdict.accepted

    @pytest.mark.parametrize("shift", ["period", "minus_one"])
    def test_rejects_residue_outside_the_period(self, golden_certificates, shift):
        # residue + period and -1 both map to the same or no target, but
        # only the residue in [0, period) is the discrete log
        doc = certificate_to_dict(golden_certificates[(2, 89, 91)])
        doc["residue"] = doc["residue"] + doc["order"][0] if shift == "period" else -1
        verdict = verify_certificate(parse_certificate(json.dumps(doc)))
        assert not verdict.accepted
        assert verdict.claim_index == 1

    def test_rejects_residue_equal_to_the_period(self):
        # backward (2, 1, 3) at x >= 4 constrains y = 0 (mod 4), magic prime 5;
        # residue 4 = period states zero exponent classes, so the lift would
        # exclude nothing, yet pow(3, 4, 16) still meets the target 1
        inst = EquationInstance(2, 1, 3)
        con = exclusion_step(inst, ModulusCandidate(Mode.BACKWARD, 2, 4, 4)).constraint
        assert (con.residue, con.period) == (0, 4)
        lift = witness_for_prime(inst, con, 5)
        cert = build_magic_prime_certificate(
            inst, Mode.BACKWARD, 2, 4, 4, con.residue, 5, lift, [(1, 1), (3, 2)]
        )
        assert verify_certificate(cert).accepted
        doc = certificate_to_dict(cert)
        doc["residue"] = 4
        verdict = verify_certificate(parse_certificate(json.dumps(doc)))
        assert not verdict.accepted
        assert verdict.claim_index == 1

    def test_fuzz_mutations_rejected(self, golden_certificates):
        rng = random.Random(20250810)
        for triple, cert in golden_certificates.items():
            doc = certificate_to_dict(cert)
            for _ in range(120):
                rejected, reason = mutated_certificate_is_rejected(doc, rng)
                assert rejected, (triple, reason)


# Non-strings in the shape and mode fields.  The ids number the unhashable
# values from 6, as they did when a claim's kind was the first such field.
_ENUM_CASES = [
    pytest.param(field, bad, id=f"{field}-{bad if bad in (7, None) else f'bad{i}'}")
    for i, (field, bad) in enumerate(
        [
            (field, bad)
            for field in ("shape", "mode")
            for bad in (["Forward"], [], {"Forward": 1}, {}, 7, None)
            # a null mode is well formed: it means "no mode"
            if not (field == "mode" and bad is None)
        ],
        start=6,
    )
]


class TestSerialization:
    def test_round_trip_preserves_verdict(self, golden_certificates):
        for triple, cert in golden_certificates.items():
            text = serialize_certificate(cert)
            clone = parse_certificate(text)
            assert clone == cert
            assert serialize_certificate(clone) == text
            assert verify_certificate(clone).accepted

    def test_byte_stable(self, golden_certificates):
        cert = golden_certificates[(2, 89, 91)]
        assert serialize_certificate(cert) == serialize_certificate(cert)
        assert certificate_digest(cert) == certificate_digest(cert)

    def test_round_trip_preserves_rejection(self, golden_certificates):
        # a tampered certificate is rejected identically before and
        # after a trip through the wire format
        doc = certificate_to_dict(golden_certificates[(3, 7, 2)])
        doc["prime_order"][0] += 1
        text = json.dumps(doc)
        first = verify_certificate(parse_certificate(text))
        second = verify_certificate(parse_certificate(serialize_certificate(parse_certificate(text))))
        assert not first.accepted and not second.accepted
        assert (first.reason, first.claim_index) == (second.reason, second.claim_index)

    def test_digest_changes_with_content(self, golden_certificates):
        a = certificate_digest(golden_certificates[(2, 89, 91)])
        b = certificate_digest(golden_certificates[(5, 3, 2)])
        assert a != b

    def test_mutating_the_dict_leaves_the_certificate_alone(self, golden_certificates):
        for triple, cert in golden_certificates.items():
            text, digest = serialize_certificate(cert), certificate_digest(cert)
            doc = certificate_to_dict(cert)
            for key, value in doc.items():
                if isinstance(value, list):
                    value.append(7)
                elif isinstance(value, dict):
                    value["extra"] = 1
                else:
                    doc[key] = 7
            assert serialize_certificate(cert) == text, triple
            assert certificate_digest(cert) == digest, triple

    def test_to_dict_shares_no_list_between_claims(self, golden_certificates):
        # changing one list of a magic-prime document, the two orders'
        # primes among them, leaves every other value as it was
        cert = golden_certificates[(2, 89, 91)]
        assert cert.order == cert.prime_order  # equal values, one list each
        doc = certificate_to_dict(cert)
        before = copy.deepcopy(doc)
        doc["order"][1][0] += 1
        doc["solutions"][0][0] += 1
        assert doc["prime_order"] == before["prime_order"]
        assert doc["solutions"][1] == before["solutions"][1]
        lists = [doc["order"], doc["order"][1], doc["prime_order"], doc["prime_order"][1]]
        lists += [doc["solutions"], *doc["solutions"]]
        assert len(set(map(id, lists))) == len(lists)

    @pytest.mark.parametrize("bad", [True, False, 1.0, 0.0])
    def test_non_integers_in_integer_lists_are_malformed(self, golden_certificates, bad):
        base = certificate_to_dict(golden_certificates[(2, 89, 91)])
        for field in ("order", "prime_order"):
            for index in ((0,), (1, 0)):
                doc = json.loads(json.dumps(base))
                parent = doc[field] if index == (0,) else doc[field][1]
                parent[index[-1]] = bad
                with pytest.raises(MalformedCertificateError):
                    parse_certificate(json.dumps(doc))
        doc = json.loads(json.dumps(base))
        doc["solutions"][0] = [bad, 1]
        with pytest.raises(MalformedCertificateError):
            parse_certificate(json.dumps(doc))

    def test_params_hold_exact_integers(self, golden_certificates):
        # each edit of a witness field compares equal to the integer it
        # replaces, so only the parser can tell it apart from the canonical
        # certificate
        edited = []
        for key in ("residue", "prime", "lifted_period"):
            doc = certificate_to_dict(golden_certificates[(2, 89, 91)])
            doc[key] = float(doc[key])
            edited.append(doc)
        doc = certificate_to_dict(golden_certificates[(2, 89, 91)])
        doc["prime_order"][1][0] = float(doc["prime_order"][1][0])
        edited.append(doc)
        doc = certificate_to_dict(golden_certificates[(2, 6, 9)])
        doc["bound_threshold"] = True
        edited.append(doc)
        for doc in edited:
            with pytest.raises(MalformedCertificateError):
                parse_certificate(json.dumps(doc))

    @pytest.mark.parametrize("field, bad", _ENUM_CASES)
    def test_enum_fields_must_be_strings(self, golden_certificates, field, bad):
        # a list or a dict is unhashable, so it must be refused before any lookup
        doc = certificate_to_dict(golden_certificates[(2, 89, 91)])
        doc[field] = bad
        with pytest.raises(MalformedCertificateError, match="must be a string"):
            parse_certificate(json.dumps(doc))

    @pytest.mark.parametrize(
        "bad", [[2, 89, 91], "2 89 91", {"a": 2, "b": 89}, {"a": 2, "b": 89, "c": 91, "d": 1}]
    )
    def test_instance_must_be_an_object_of_a_b_c(self, golden_certificates, bad):
        doc = certificate_to_dict(golden_certificates[(2, 89, 91)])
        doc["instance"] = bad
        with pytest.raises(MalformedCertificateError, match="bad instance field"):
            parse_certificate(json.dumps(doc))

    def test_retired_format_is_malformed(self, golden_certificates):
        # /2 stated no orders, which the verifier no longer computes, and /3
        # a claim list that restated what the verifier re-derives
        doc = certificate_to_dict(golden_certificates[(2, 89, 91)])
        for retired in ("/1", "/2", "/3"):
            retired = "diophantine1-certificate" + retired
            doc["format"] = retired
            with pytest.raises(MalformedCertificateError, match="unknown format"):
                parse_certificate(json.dumps(doc))

    def test_malformed_inputs(self):
        with pytest.raises(MalformedCertificateError):
            parse_certificate("")
        with pytest.raises(MalformedCertificateError):
            parse_certificate("{}")
        with pytest.raises(MalformedCertificateError):
            parse_certificate('{"format": "something else"}')
        for hostile in (HOSTILE_DEEP, '{"format": %s}' % HOSTILE_DIGITS):
            with pytest.raises(MalformedCertificateError, match="not valid JSON"):
                parse_certificate(hostile)
        # 1,000 levels load on Python 3.12 and later, where the parser
        # refuses the list instead; either way the text is malformed
        with pytest.raises(MalformedCertificateError):
            parse_certificate("[" * 1000 + "]" * 1000)

    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("a", 1, "parameter a must be >= 2, got 1"),
            ("b", 0, "parameter b must be >= 1, got 0"),
            ("c", 1, "parameter c must be >= 2, got 1"),
        ],
    )
    def test_instance_outside_the_domain_is_malformed(
        self, golden_certificates, field, value, reason
    ):
        # the other two parameters stay in the domain, so each bound is tested alone
        doc = certificate_to_dict(golden_certificates[(2, 89, 91)])
        doc["instance"][field] = value
        with pytest.raises(MalformedCertificateError, match=f"^{re.escape(reason)}$"):
            parse_certificate(json.dumps(doc))

    def test_frozen_goldens_still_verify_and_reserialize(self):
        golden_dir = Path(__file__).parent / "golden"
        frozen = sorted(golden_dir.glob("*.cert.json"))
        assert frozen, "golden certificates missing; run tests/regen_golden.py"
        for path in frozen:
            text = path.read_text(encoding="utf-8")
            cert = parse_certificate(text)
            assert verify_certificate(cert).accepted, path.name
            assert serialize_certificate(cert) == text, path.name

    def test_frozen_goldens_match_current_solver(self, golden_certificates):
        golden_dir = Path(__file__).parent / "golden"
        for triple, cert in golden_certificates.items():
            a, b, c = triple
            path = golden_dir / f"diophantine1_{a}_{b}_{c}.cert.json"
            assert path.exists(), path.name
            assert serialize_certificate(cert) == path.read_text(encoding="utf-8"), triple


class TestImmutability:
    def test_params_are_read_only(self, golden_certificates):
        # the witness fields, like every field, cannot be reassigned
        cert = parse_certificate(serialize_certificate(golden_certificates[(2, 89, 91)]))
        for key in _WITNESS_KEYS[cert.shape]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cert, key, 7)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(cert, key)
        assert verify_certificate(cert).accepted

    def test_integer_lists_are_tuples(self, golden_certificates):
        for cert in golden_certificates.values():
            parsed = parse_certificate(serialize_certificate(cert))
            for built in (cert, parsed):
                lists = [built.solutions, *built.solutions]
                for order in (built.order, built.prime_order):
                    if order is not None:
                        lists += [order, order[1]]
                assert all(type(value) is tuple for value in lists)
            assert parsed == cert

    def test_collected_certificate_leaves_the_memo_empty(self, golden_certificates):
        # the memo holds the last acceptance by weak reference only
        cert = parse_certificate(serialize_certificate(golden_certificates[(2, 89, 91)]))
        twin = parse_certificate(serialize_certificate(cert))
        assert not certificate_module.was_accepted(cert)
        assert verify_certificate(cert).accepted
        assert certificate_module.was_accepted(cert)
        assert not certificate_module.was_accepted(twin)
        alive = weakref.ref(cert)
        del cert
        gc.collect()
        assert alive() is None
        assert not certificate_module.was_accepted(twin)

    def test_mutable_hand_built_certificate_is_not_remembered(self, golden_certificates):
        # a list in a field could change after the acceptance, so the memo
        # skips it; the verifier reads it all the same
        cert = golden_certificates[(2, 89, 91)]
        (K, primes), (K2, primes2) = cert.order, cert.prime_order
        for twin in (
            dataclasses.replace(cert, order=[K, primes]),
            dataclasses.replace(cert, prime_order=(K2, list(primes2))),
        ):
            assert verify_certificate(twin).accepted
            assert not certificate_module.was_accepted(twin)

    @pytest.mark.parametrize(
        "clone",
        [lambda c: pickle.loads(pickle.dumps(c)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_pickle_and_copy_round_trip(self, golden_certificates, clone):
        for cert in golden_certificates.values():
            twin = clone(cert)
            assert twin == cert
            assert serialize_certificate(twin) == serialize_certificate(cert)
            assert verify_certificate(twin).accepted


def _coprime_sample(seed: int, count: int, top: int = 200) -> list[tuple[int, int, int]]:
    """`count` distinct pairwise-coprime triples, a, c in [2, top] and b in [1, top]."""
    rng = random.Random(seed)
    seen: set[tuple[int, int, int]] = set()
    while len(seen) < count:
        a, b, c = rng.randint(2, top), rng.randint(1, top), rng.randint(2, top)
        if math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1:
            seen.add((a, b, c))
    return sorted(seen)


def test_round_trip_is_the_identity_on_sampled_triples():
    # the single-solve path: what parse reads back serializes to the same
    # bytes, verifies, and renders the same proofs as the solved certificate
    for triple in _coprime_sample(4217, 300):
        result = solve(EquationInstance(*triple))
        assert result.status is SolveStatus.SOLVED, triple
        text = serialize_certificate(result.certificate)
        parsed = parse_certificate(text)
        assert serialize_certificate(parsed) == text, triple
        assert verify_certificate(parsed).accepted, triple
        assert emit_lean(parsed) == emit_lean(result.certificate), triple
        assert emit_text(parsed) == emit_text(result.certificate), triple


def test_enumeration_matches_the_oracle_on_the_twelve_cube():
    # a solution with x <= 6 or y <= 6 has c^y <= 12^6 + 12, below the ceiling
    enumerate_solutions = certificate_module._enumerate_solutions
    found = 0
    for a in range(2, 13):
        for b in range(1, 13):
            for c in range(2, 13):
                oracle = brute_force_solutions(a, b, c, ceiling=10**7)
                for bound in range(1, 7):
                    expected = {
                        "x": [(x, y) for x, y in oracle if x <= bound],
                        "y": [(x, y) for x, y in oracle if y <= bound],
                        "either": [(x, y) for x, y in oracle if min(x, y) <= bound],
                    }
                    for variable, solutions in expected.items():
                        got = enumerate_solutions(EquationInstance(a, b, c), variable, bound)
                        assert got == tuple(sorted(solutions)), (a, b, c, variable, bound)
                        found += len(got)
    assert found > 0


def test_exponent_finds_exact_powers_only():
    exponent = certificate_module._exponent
    assert [exponent(n, 2) for n in (-4, 0, 1)] == [None, None, None]
    assert exponent(2, 2) == 1
    assert exponent(32, 4) is None
    assert exponent(64, 4) == 3


def test_cycle_walk_agrees_with_the_order_test():
    # every prime power M <= 128 with every base, multiples of p among
    # them, and every target, against the powers base^1 .. base^M listed
    # one by one; and random bases modulo larger primes.  Of the orders
    # 1 .. M, each stated with its prime factors, Pratt's test proves the
    # walked order of a unit base and nothing else, and nothing for a
    # multiple of p, which has no order.  At the proved order the subgroup
    # test agrees with the listed powers; modulo 8 to 128 the unit bases
    # go through the 2^k split.
    top = 2647
    primes_of = [()] * (top + 1)
    for q in sieve_primes(top):
        for n in range(q, top + 1, q):
            primes_of[n] += (q,)
    is_order = certificate_module._is_order
    cases = []

    def add(base, p, k, checks):
        """Prove the order of base mod p^k, then queue (targets, outside) checks at it."""
        m = p**k
        proved = [n for n in range(1, m + 1) if is_order(base, m, n, primes_of[n])]
        if base % p == 0:
            assert proved == [], (base, m)
            return
        assert proved == [brute_force_order(base, m)], (base, m)
        cases.extend(((base, p, k, proved[0], targets), outside) for targets, outside in checks)

    for p in sieve_primes(128):
        for k in range(1, 8):
            m = p**k
            if m > 128:
                break
            for base in range(m):
                powers = {pow(base, j, m) for j in range(1, m + 1)}
                add(base, p, k, [([t], t not in powers) for t in range(m)])
    rng = random.Random(7)
    for prime in (3, 5, 7, 11, 13, 73, 257, top):
        for _ in range(12):
            base = rng.randrange(1, 3 * prime)
            targets = [rng.randrange(prime) for _ in range(rng.randrange(1, 6))]
            outside = not set(targets) & set(brute_force_cycle(base, prime))
            add(base, prime, 1, [(targets, outside)])
    outside_cycle = certificate_module._outside_cycle
    expected = [outside for _, outside in cases]
    assert [outside_cycle(*args) for args, _ in cases] == expected
    assert True in expected and False in expected


class TestVerifierIndependence:
    def test_certificate_module_avoids_solver_code(self):
        # the trusted module imports the standard library and .instance
        # only, and names no arith
        assert certificate_import_violations() == []

    def test_trusted_module_line_count(self):
        # the trusted base is certificate.py, every line of it: the format,
        # the parser and the verifier; the bound only ever goes down
        assert trusted_lines() <= 620

    def test_parse_and_verify_run_with_the_kernel_gone(self, monkeypatch):
        # the verifier shares no arithmetic with the solver: every
        # certificate parses and verifies with each callable of the
        # kernel raising, the goldens and the 12-cube's alike
        frozen = sorted((Path(__file__).parent / "golden").glob("*.cert.json"))
        texts = [path.read_text(encoding="utf-8") for path in frozen]
        assert len(texts) == len(GOLDEN_SUITE)
        for triple in iter_cube(12, 12, 12):
            texts.append(serialize_certificate(solve(EquationInstance(*triple)).certificate))
        assert len(texts) == len(GOLDEN_SUITE) + 1452

        def boom(*args, **kwargs):  # pragma: no cover - should never run
            raise AssertionError("the verifier called the arithmetic kernel")

        kernel = [name for name, value in vars(arith).items() if callable(value)]
        assert {"is_prime", "multiplicative_order", "factorize"} <= set(kernel)
        for name in kernel:
            monkeypatch.setattr(arith, name, boom)
        for text in texts:
            cert = parse_certificate(text)
            assert verify_certificate(cert).accepted, cert.instance

    def test_verify_does_not_touch_engine(self, golden_certificates, monkeypatch):
        import expodio.engine as engine_module

        def boom(*args, **kwargs):  # pragma: no cover - should never run
            raise AssertionError("verifier called into the engine")

        for name in ("solve", "exclusion_step", "magic_prime_search", "witness_for_prime"):
            monkeypatch.setattr(engine_module, name, boom)
        for cert in golden_certificates.values():
            assert verify_certificate(cert).accepted
