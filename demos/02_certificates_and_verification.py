"""Certificates are self-contained and survive an adversarial referee.

A certificate is a plain JSON document that states only the witness of
the proof: for a magic-prime proof, the orders with their prime factors,
the residue, the magic prime and the lift.  The verifier re-derives every
step from the (a, b, c) parameters and that witness, proving each order
with pow and its listed primes; it shares no code with the solver.
Tampering with any field of the proof gets caught.
"""

import json

from expodio import (
    EquationInstance,
    certificate_digest,
    parse_certificate,
    serialize_certificate,
    solve,
    verify_certificate,
)

result = solve(EquationInstance(2, 89, 91))
cert = result.certificate

text = serialize_certificate(cert)
print(f"certificate is {len(text)} bytes, digest {certificate_digest(cert)[:16]}...")
print(text)

# round-trip through the wire format and re-verify
clone = parse_certificate(text)
print(f"verdict on the round-tripped certificate: {verify_certificate(clone)}")
print()

# now play referee against a tampered copy: claim one solution fewer
doc = json.loads(text)
doc["solutions"] = [[1, 1]]
verdict = verify_certificate(parse_certificate(json.dumps(doc)))
print(f"dropping a real solution: accepted={verdict.accepted}")
print(f"  reason: {verdict.reason} (claim {verdict.claim_index})")
print()

# or swap the magic prime for one that proves nothing
doc = json.loads(text)
doc["prime"] = 883
verdict = verify_certificate(parse_certificate(json.dumps(doc)))
print(f"swapping the magic prime:  accepted={verdict.accepted}")
print(f"  reason: {verdict.reason} (claim {verdict.claim_index})")
