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

# the certificate records the full exclusion argument
cert = result.certificate
print(f"proof shape:   {cert.shape.value}")
enumeration = cert.claims[-1].params
print(f"attacked side: {cert.mode.value} (bound {enumeration['variable']}"
      f" < {cert.bound_threshold})")
print(f"claims:        {[c.kind.value for c in cert.claims]}")
print()

# the human-readable narrative of the argument
print("--- prose proof " + "-" * 50)
print(emit_text(cert))

# the same argument as a Lean proof script, one Claim per step
print("--- Lean script " + "-" * 50)
print(emit_lean(cert))
