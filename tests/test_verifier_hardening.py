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
import json

import pytest

from expodio.certificate import (
    ClaimKind,
    MalformedCertificateError,
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
