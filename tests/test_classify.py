from __future__ import annotations

import math

import pytest

from oracle import brute_force_solutions

from expodio import EquationInstance, bounded_case_solutions, classify
from expodio.classify import ClassTag


class TestClassifyExamples:
    def test_shared_factor_of_b_and_c(self):
        result = classify(EquationInstance(2, 6, 9))
        assert result.tag is ClassTag.TYPE_I_I
        assert result.witness_prime == 3

    def test_shared_factor_of_a_and_b(self):
        result = classify(EquationInstance(2, 4, 7))
        assert result.tag is ClassTag.TYPE_I_II
        assert result.witness_prime == 2

    def test_shared_factor_of_a_and_c(self):
        result = classify(EquationInstance(2, 4, 6))
        assert result.tag is ClassTag.TYPE_I_III_BOUNDED
        assert result.witness_prime == 2
        assert result.modulus_exponent == 3

    def test_shared_factor_not_dividing_b(self):
        # gcd(a, c) = 3 does not divide b = 1: the same prime-power bound
        # applies with k = 1, forcing min(x, y) < 1, i.e. no solutions.
        result = classify(EquationInstance(3, 1, 9))
        assert result.tag is ClassTag.TYPE_I_III_BOUNDED
        assert result.witness_prime == 3
        assert result.modulus_exponent == 1

    def test_pairwise_coprime(self):
        result = classify(EquationInstance(5, 3, 2))
        assert result.tag is ClassTag.CLASS_II
        assert result.witness_prime is None

    def test_common_factor_takes_priority(self):
        # every pair shares a factor here; gcd(a, c) wins
        result = classify(EquationInstance(6, 9, 15))
        assert result.tag is ClassTag.TYPE_I_III_BOUNDED
        assert result.witness_prime == 3
        assert result.modulus_exponent == 3


class TestClassifyProperties:
    def test_exhaustive_exclusivity(self):
        for a in range(2, 31):
            for b in range(1, 31):
                for c in range(2, 31):
                    result = classify(EquationInstance(a, b, c))
                    coprime = (
                        math.gcd(a, b) == 1 and math.gcd(b, c) == 1 and math.gcd(a, c) == 1
                    )
                    assert (result.tag is ClassTag.CLASS_II) == coprime, (a, b, c)
                    if result.tag is ClassTag.TYPE_I_I:
                        p = result.witness_prime
                        assert b % p == 0 and c % p == 0 and a % p != 0
                    elif result.tag is ClassTag.TYPE_I_II:
                        p = result.witness_prime
                        assert a % p == 0 and b % p == 0 and c % p != 0
                    elif result.tag is ClassTag.TYPE_I_III_BOUNDED:
                        p, k = result.witness_prime, result.modulus_exponent
                        # p is the smallest prime factor of gcd(a, c) > 1
                        assert math.gcd(a, c) % p == 0
                        assert all(math.gcd(a, c) % q for q in range(2, p))
                        # k is the smallest exponent with p^k not dividing b
                        assert b % p ** (k - 1) == 0 and b % p**k != 0

    def test_bound_soundness(self):
        for a in range(2, 31):
            for b in range(1, 31):
                for c in range(2, 31):
                    result = classify(EquationInstance(a, b, c))
                    if result.tag is not ClassTag.TYPE_I_III_BOUNDED:
                        continue
                    p, k = result.witness_prime, result.modulus_exponent
                    # p^k divides both power sides for exponents >= k, never b
                    assert a**k % p**k == 0 and c**k % p**k == 0
                    assert b % p**k != 0


class TestBoundedCaseSolutions:
    def test_examples(self):
        inst = EquationInstance(2, 4, 6)
        assert bounded_case_solutions(inst, classify(inst)) == ((1, 1), (5, 2))
        inst = EquationInstance(3, 1, 9)
        assert bounded_case_solutions(inst, classify(inst)) == ()
        inst = EquationInstance(6, 9, 15)
        assert bounded_case_solutions(inst, classify(inst)) == ((1, 1), (3, 2))

    def test_rejects_wrong_classification(self):
        inst = EquationInstance(5, 3, 2)
        with pytest.raises(ValueError):
            bounded_case_solutions(inst, classify(inst))

    def test_matches_oracle_on_small_cube(self):
        for a in range(2, 31):
            for b in range(1, 31):
                for c in range(2, 31):
                    inst = EquationInstance(a, b, c)
                    result = classify(inst)
                    if result.tag is not ClassTag.TYPE_I_III_BOUNDED:
                        continue
                    expected = sorted(brute_force_solutions(a, b, c, ceiling=10**9))
                    assert list(bounded_case_solutions(inst, result)) == expected, (a, b, c)
