"""Systematic tamper-resistance: every single field of a certificate matters.

The random fuzzer samples the mutation space; these tests walk it
exhaustively.  For one golden certificate of each shape, every integer
leaf is nudged, every boolean flipped, every string swapped, every list
element dropped, and each variant must fail verification (or fail to
parse).  A certificate field that could absorb a change without the
verifier noticing would show up here as an accepted mutant.
"""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest

from expodio import EquationInstance, solve
from expodio.certificate import (
    Certificate,
    CertShape,
    ClaimKind,
    ClaimRecord,
    Constraint,
    MagicPrimeWitness,
    MalformedCertificateError,
    Mode,
    Params,
    build_magic_prime_certificate,
    certificate_to_dict,
    parse_certificate,
    verify_certificate,
)

_REPRESENTATIVES = {
    "DivisibilityNoSolution": (2, 6, 9),
    "CommonFactorBound": (2, 4, 6),
    "DirectModularExclusion": (17, 3, 20),
    "MagicPrimeExclusion": (3, 7, 2),
}


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        yield path, node
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path, node


def _with_mutation(doc, path, value):
    mutated = copy.deepcopy(doc)
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return mutated


def _with_dropped(doc, path, index):
    mutated = copy.deepcopy(doc)
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]][index]
    return mutated


def _assert_rejected(mutated, what):
    try:
        cert = parse_certificate(json.dumps(mutated))
    except MalformedCertificateError:
        return
    verdict = verify_certificate(cert)
    assert not verdict.accepted, f"mutation of {what} was accepted"


@pytest.mark.parametrize("shape,triple", sorted(_REPRESENTATIVES.items()))
def test_every_field_is_load_bearing(shape, triple, golden_certificates):
    cert = golden_certificates[triple]
    assert cert.shape.value == shape
    doc = certificate_to_dict(cert)

    checked = 0
    for path, value in _leaf_paths(doc):
        if path[0] == "instance":
            continue  # changing the instance changes the theorem, not the proof
        if isinstance(value, bool):
            variants = [not value]
        elif isinstance(value, int):
            variants = [value + 1, value - 1, value + 97]
        elif isinstance(value, str):
            if path[0] == "format":
                variants = ["diophantine1-certificate/999"]
            else:
                variants = [v for v in ("x", "y", "either", "Forward", "Backward",
                                        "impossible", "constrains", "pow_mod_eq_zero",
                                        "exhaust_mod_cycle") if v != value][:2]
        elif isinstance(value, list):
            for i in range(len(value)):
                _assert_rejected(_with_dropped(doc, path, i), f"{path} drop [{i}]")
                checked += 1
            continue
        elif value is None:
            continue
        else:  # pragma: no cover - schema holds only the above
            raise AssertionError(f"unexpected leaf type at {path}: {value!r}")
        for variant in variants:
            _assert_rejected(_with_mutation(doc, path, variant), f"{path} -> {variant!r}")
            checked += 1

    # each shape exposes a meaningful number of attack points
    assert checked > 20, (shape, checked)


@pytest.mark.parametrize("shape,triple", sorted(_REPRESENTATIVES.items()))
def test_a_wrong_claim_kind_is_rejected_at_that_claim(shape, triple, golden_certificates):
    doc = certificate_to_dict(golden_certificates[triple])
    for index, claim in enumerate(doc["claims"]):
        for kind in ClaimKind:
            if kind.value == claim["kind"]:
                continue
            mutated = _with_mutation(doc, ("claims", index, "kind"), kind.value)
            verdict = verify_certificate(parse_certificate(json.dumps(mutated)))
            assert not verdict.accepted, (index, kind)
            assert verdict.claim_index == index, (index, kind, verdict.reason)



def _hand_built(triple, shape, mode, p, k, t, solutions=()):
    return Certificate(EquationInstance(*triple), shape, mode, p, k, t, solutions, ())


def _magic_prime_5_for_2_1_5():
    """The (2, 1, 5) certificate with claim 2 naming 5, which divides c, as its magic prime."""
    cert = solve(EquationInstance(2, 1, 5)).certificate
    claims = list(cert.claims)
    claims[2] = ClaimRecord(claims[2].kind, Params(claims[2].params, prime=5), claims[2].premises)
    return dataclasses.replace(cert, claims=tuple(claims))


def _magic_prime_193_for_5_3_2():
    """(5, 3, 2) built from a witness at P = 193, where a shifted value lies in <2>."""
    lifted = (35, 99, 163)  # x = 35 (mod 64), lifted to lcm(64, ord_193(5)) = 192
    values = tuple(pow(5, r, 193) for r in lifted)
    shifted = tuple((v + 3) % 193 for v in values)
    witness = MagicPrimeWitness(193, 192, lifted, values, shifted, 96)
    constraint = Constraint("x", 35, 64, 256, 253)
    return build_magic_prime_certificate(
        EquationInstance(5, 3, 2), Mode.FORWARD, 2, 8, 8, constraint, witness, ((1, 3), (3, 7))
    )


_DIRECT, _DIVISIBILITY = CertShape.DIRECT_MODULAR_EXCLUSION, CertShape.DIVISIBILITY_NO_SOLUTION
_COMMON, _FORWARD = CertShape.COMMON_FACTOR_BOUND, Mode.FORWARD

# The rejections that no golden mutation reaches, each on a certificate
# built to reach it: (name, factory, reason, claim index).
_REJECTIONS = [
    ("bit-length cap", lambda: _hand_built((3, 1, 2), _DIRECT, _FORWARD, 2, 100, 100),
     "modulus exceeds the supported cap", None),
    ("modulus cap", lambda: _hand_built((2, 1, 3), _DIRECT, _FORWARD, 3, 40, 40),
     "modulus exceeds the supported cap", None),
    ("constrained base", lambda: _hand_built((6, 1, 2), _DIRECT, _FORWARD, 2, 3, 3),
     "constrained base shares a factor with the modulus", None),
    ("zero power", lambda: _hand_built((3, 1, 2), _DIRECT, _FORWARD, 3, 0, 1),
     "pow_mod_eq_zero needs threshold >= 1 and modulus >= 2", 0),
    ("magic prime divides c", _magic_prime_5_for_2_1_5,
     "magic prime divides one of the parameters", 2),
    ("magic prime 193", _magic_prime_193_for_5_3_2,
     "shifted values intersect the other power cycle", 4),
    ("divisibility with solutions",
     lambda: _hand_built((2, 6, 9), _DIVISIBILITY, _FORWARD, 3, 1, 1, ((1, 1),)),
     "divisibility certificates prove there are no solutions", None),
    ("divisibility target in cycle",
     lambda: _hand_built((2, 1, 3), _DIVISIBILITY, _FORWARD, 3, 1, 1),
     "target actually lies in the power cycle", 1),
    ("common factor exponent", lambda: _hand_built((2, 1, 4), _COMMON, None, 2, 5, 5),
     "bound exponent is too large to stem from b", None),
    ("common factor divides b", lambda: _hand_built((2, 4, 6), _COMMON, None, 2, 2, 2),
     "4 divides b, so no contradiction arises", None),
    ("missing instance",
     lambda: dataclasses.replace(_hand_built((2, 1, 3), _DIRECT, _FORWARD, 3, 1, 1), instance=None),
     "missing instance", None),
    ("unknown shape", lambda: _hand_built((2, 1, 3), "Bogus", _FORWARD, 3, 1, 1),
     "unknown certificate shape 'Bogus'", None),
]


@pytest.mark.parametrize(
    "build, reason, claim_index",
    [case[1:] for case in _REJECTIONS],
    ids=[case[0] for case in _REJECTIONS],
)
def test_each_rejection_fires(build, reason, claim_index):
    verdict = verify_certificate(build())
    assert verdict.accepted is False
    assert verdict.reason == reason
    assert verdict.claim_index == claim_index
