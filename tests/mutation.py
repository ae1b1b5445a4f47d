"""Random single-field mutations of serialized certificates.

A mutation changes exactly one thing: an integer, a string, a boolean,
a list element, or the presence of a list element.  The instance triple
is left alone (changing it asks about a different equation rather than
tampering with the proof of this one).
"""

from __future__ import annotations

import copy
import json
import random
from typing import Any

from expodio.certificate import (
    MalformedCertificateError,
    parse_certificate,
    verify_certificate,
)

_STRING_POOLS = {
    "mode": ["Forward", "Backward"],
    "shape": [
        "DivisibilityNoSolution",
        "CommonFactorBound",
        "DirectModularExclusion",
        "MagicPrimeExclusion",
    ],
    "format": [
        "diophantine1-certificate/0",
        "diophantine1-certificate/1",
        "diophantine1-certificate/2",
        "diophantine1-certificate/3",
        "garbage",
    ],
}


def _collect(doc: Any, path: tuple, out: list[tuple[tuple, Any]]) -> None:
    if isinstance(doc, dict):
        for key, value in doc.items():
            _collect(value, path + (key,), out)
    elif isinstance(doc, list):
        out.append((path, doc))
        for i, value in enumerate(doc):
            _collect(value, path + (i,), out)
    else:
        out.append((path, doc))


def _get_parent(doc: Any, path: tuple) -> Any:
    node = doc
    for key in path[:-1]:
        node = node[key]
    return node


def mutate_certificate_doc(doc: dict, rng: random.Random) -> dict:
    """Return a deep copy of `doc` with one randomly chosen field changed."""
    mutated = copy.deepcopy(doc)
    leaves: list[tuple[tuple, Any]] = []
    _collect(mutated, (), leaves)
    candidates = [
        (path, value)
        for path, value in leaves
        if path and not (path[0] == "instance")
    ]
    while True:
        path, value = rng.choice(candidates)
        parent = _get_parent(mutated, path)
        key = path[-1]
        if isinstance(value, bool):
            parent[key] = not value
            return mutated
        if isinstance(value, int):
            delta = rng.choice([-1, 1, 7, rng.randrange(2, 10_000)])
            parent[key] = value + delta
            return mutated
        if isinstance(value, str):
            # every string of the document is a value of a top-level field
            options = [s for s in _STRING_POOLS.get(key, ["mutated"]) if s != value]
            parent[key] = rng.choice(options)
            return mutated
        if isinstance(value, list):
            ops = []
            if value:
                ops.extend(["drop", "dup"])
            ops.append("append")
            op = rng.choice(ops)
            if op == "drop":
                del parent[key][rng.randrange(len(value))]
            elif op == "dup":
                i = rng.randrange(len(value))
                parent[key].insert(i, copy.deepcopy(value[i]))
            else:
                parent[key].append(rng.randrange(1, 10_000))
            return mutated
        if value is None:
            # replace a missing payload with junk
            parent[key] = rng.randrange(1, 10_000)
            return mutated


def mutated_certificate_is_rejected(doc: dict, rng: random.Random) -> tuple[bool, str]:
    """Mutate once; report (rejected, description of what happened)."""
    mutated = mutate_certificate_doc(doc, rng)
    text = json.dumps(mutated)
    try:
        cert = parse_certificate(text)
    except MalformedCertificateError:
        return True, "malformed"
    verdict = verify_certificate(cert)
    if verdict.accepted:
        return False, f"accepted after mutation: {json.dumps(mutated)[:400]}"
    return True, verdict.reason or "rejected"
