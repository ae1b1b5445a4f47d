"""Walk the exclusion engine by hand, step by step.

For 5^x + 3 = 2^y the machinery goes like this: a bounded initial
search finds (1, 3) and (3, 7).  To rule out y >= 8, reduce the
equation modulo 2^8 = 256; that forces 5^x = 253 (mod 256), which pins
x to a single residue class mod 64.  No contradiction yet, so hunt for
a prime P = 64n + 1 where the finitely many possible values of
5^x + 3 mod P all miss the powers of 2.  P = 257 works, closing the
proof, and y < 8 leaves a seven-case enumeration.
"""

from expodio import EquationInstance, Mode, final_enumeration, initial_search, magic_prime_search
from expodio.arith import multiplicative_order
from expodio.certificate import _expected_target, _lift
from expodio.engine import ModulusCandidate, build_magic_prime_certificate, exclusion_step

instance = EquationInstance(5, 3, 2)

found = initial_search(instance)  # c^y up to max(2^64, b*c)
print(f"initial search below 2^64: {found}")

# attack y >= 8 with the prime factor 2 of c = 2; v_2(c) = 1, so k = 8 * 1
candidate = ModulusCandidate(Mode.FORWARD, p=2, t=8, k=8)
print(f"queue entry: modulus {candidate.p}^{candidate.k} = {candidate.key}")

step = exclusion_step(instance, candidate)
con = step.constraint
target = _expected_target(instance, candidate.mode, candidate.key)
print(f"exclusion step: {step.kind.value}")
print(f"  forced congruence: 5^x = {target} (mod {candidate.key})")
print(f"  hence {con.variable} = {con.residue} (mod {con.period})")

prime, lift = magic_prime_search(instance, con)
print(f"magic prime found: {prime}")
# the certificate states (residue, period, prime, lift); the lists follow from them
cert = build_magic_prime_certificate(
    instance, Mode.FORWARD, 2, 8, 8, con.residue, prime, lift, final_enumeration(instance, "y", 8)
)
print(f"  witness: residue {cert.residue}, order {cert.order}, prime {cert.prime}, lift {lift}")
lifted, values, shifted = _lift(instance, Mode.FORWARD, cert.residue, con.period, prime, lift)
print(f"  exponent classes lift to {lifted} (mod {lift})")
print(f"  5^x mod {prime} is one of   {values}")
print(f"  so 2^y mod {prime} would be {shifted}")
print(f"  powers of 2 mod {prime} form a cycle of length {multiplicative_order(2, prime)},")
print("  and none of those values are in it")

# the contradiction proves y < 8; enumerate the rest exactly
print(f"enumerating y < 8: {final_enumeration(instance, 'y', 8)}")
