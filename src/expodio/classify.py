"""Trivial-case analysis for non-coprime parameter triples.

A triple (a, b, c) with a shared factor somewhere is decidable by
elementary divisibility: either one side of a^x + b = c^y would have to
be divisible by a prime that cannot divide it, or a common factor of a
and c bounds min(x, y) and the remaining candidates can be enumerated.
Triples that survive all three checks are pairwise coprime and go to
the modular-exclusion engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import arith
from .instance import EquationInstance


class ClassTag(str, Enum):
    TYPE_I_I = "TypeI_i"
    TYPE_I_II = "TypeI_ii"
    TYPE_I_III_BOUNDED = "TypeI_iii_Bounded"
    CLASS_II = "ClassII"


@dataclass(frozen=True)
class Classification:
    """Outcome of the divisibility analysis, with witnesses.

    tag selects the case.  For TypeI_i / TypeI_ii, witness_prime is the
    smallest prime dividing gcd(b, c) resp. gcd(a, b).  For the
    common-factor case, witness_prime p is the smallest prime dividing
    gcd(a, c) > 1 and modulus_exponent k the smallest power with p^k not
    dividing b, so min(x, y) < k.
    """

    tag: ClassTag
    witness_prime: int | None = None
    modulus_exponent: int | None = None


def classify(instance: EquationInstance) -> Classification:
    """Decide the trivial cases of (a, b, c), or certify pairwise coprimality.

    Checked in priority order: a common factor of a and c first (it
    subsumes overlaps with the other two cases), then a prime shared by
    b and c, then one shared by a and b.  Witness primes are always the
    smallest qualifying prime, so results are deterministic.
    """
    a, b, c = instance.a, instance.b, instance.c
    d_ac = math.gcd(a, c)
    if d_ac > 1:
        p = arith.factorize(d_ac)[0][0]
        k = arith.p_adic_valuation(b, p) + 1
        return Classification(
            tag=ClassTag.TYPE_I_III_BOUNDED,
            witness_prime=p,
            modulus_exponent=k,
        )
    d_bc = math.gcd(b, c)
    if d_bc > 1:
        return Classification(tag=ClassTag.TYPE_I_I, witness_prime=arith.factorize(d_bc)[0][0])
    d_ab = math.gcd(a, b)
    if d_ab > 1:
        return Classification(tag=ClassTag.TYPE_I_II, witness_prime=arith.factorize(d_ab)[0][0])
    return Classification(tag=ClassTag.CLASS_II)


def final_enumeration(
    instance: EquationInstance, variable: str, strict_bound: int
) -> tuple[tuple[int, int], ...]:
    """Complete solution list once `variable < strict_bound` is proved.

    variable is "x", "y", or "either" when only min(x, y) is bounded;
    each bounded exponent is enumerated, its powers built by repeated
    multiplication, with an exact big-integer power test on the other
    side.  The initial search is this enumeration over y.
    """
    if variable not in ("x", "y", "either"):
        raise ValueError(f"variable must be 'x', 'y' or 'either', got {variable!r}")
    a, b, c = instance.a, instance.b, instance.c
    found: set[tuple[int, int]] = set()
    # a power with a positive exponent is a multiple of its base
    if variable != "y":
        power = 1
        for x in range(1, strict_bound):
            power *= a
            rest = power + b
            if rest % c == 0:
                y = arith.exact_power_decompose(rest, c)
                if y is not None:
                    found.add((x, y))
    if variable != "x":
        power = 1
        for y in range(1, strict_bound):
            power *= c
            rest = power - b
            if rest >= 2 and rest % a == 0:
                x = arith.exact_power_decompose(rest, a)
                if x is not None:
                    found.add((x, y))
    return tuple(sorted(found))


def bounded_case_solutions(
    instance: EquationInstance, classification: Classification
) -> tuple[tuple[int, int], ...]:
    """All solutions of a common-factor instance, by exhausting min(x, y) < k."""
    if classification.tag is not ClassTag.TYPE_I_III_BOUNDED:
        raise ValueError(f"expected a bounded common-factor classification, got {classification.tag}")
    return final_enumeration(instance, "either", classification.modulus_exponent)
