"""Solve a classic two-solution equation and read the generated proof.

The equation 5^x + 3 = 2^y has exactly two solutions in positive
integers, (1, 3) and (3, 7).  Checking that they work is easy; proving
that nothing else works is the interesting part.  The solver does it by
assuming a larger solution exists and deriving a contradiction from
modular arithmetic, then hands back a certificate of the whole argument.
"""

from expodio import EquationInstance, emit_lean, emit_text, solve

instance = EquationInstance(a=5, b=3, c=2)
result = solve(instance)

print(f"status:    {result.status.value}")
print(f"solutions: {result.solutions}")
print()

# the certificate states the witness of the exclusion argument; the
# verifier re-derives every other step from it
cert = result.certificate
print(f"proof shape:   {cert.shape.value}")
print(f"attacked side: {cert.mode.value} (bound y < {cert.bound_threshold}"
      f" modulo {cert.witness_prime}^{cert.modulus_exponent})")
print(f"witness:       x = {cert.residue} (mod {cert.order[0]}),"
      f" magic prime {cert.prime}, lifted to {cert.lifted_period}")
print()

# the human-readable narrative of the argument
print("--- prose proof " + "-" * 50)
print(emit_text(cert))

# the same argument as a Lean proof script, one Claim per step
print("--- Lean script " + "-" * 50)
print(emit_lean(cert))
