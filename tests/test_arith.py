from __future__ import annotations

import math
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympy
from oracle import brute_force_cycle, brute_force_order, is_strong_probable_prime, sieve_primes

from expodio import arith
from expodio import certificate as certificate_module


# The package's primality test and the verifier's own copy, which shares no code with it
PRIMALITY_TESTS = (arith.is_prime, certificate_module._is_prime)

# OEIS A014233 below 2^63: the least composite that is a strong probable
# prime to each of the first 1, 2, ..., 11 prime bases
_A014233 = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051,
)

# For each base q from 3 to 31, three primes whose product is a strong
# probable prime to every other one of the first 12 primes: each p_i is 3
# (mod 4), p_i - 1 divides n - 1, and each base but q has one Legendre
# symbol modulo all three.  A test that drops or alters base q accepts it.
_ALL_BASES_BUT_ONE = {
    3: (372604429645211, 3353439866806891, 4843857585387731),
    5: (559624368636282643, 2798121843181413211, 29660091537722980027),
    7: (8682605644136371, 43413028220681851, 78143450797227331),
    11: (13512044185608571, 67560220928042851, 121608397670477131),
    13: (33050942647765351, 165254713238826751, 297458483829888151),
    17: (23723461821273271, 118617309106366351, 213511156391459431),
    19: (6930480014213911, 34652400071069551, 62374320127925191),
    23: (43905180318229231, 219525901591146151, 395146622864063071),
    29: (6906568570391491, 34532842851957451, 62159117133523411),
    31: (24264354650772391, 121321773253861951, 218379191856951511),
}


class TestIsPrime:
    def test_examples(self):
        for is_prime in PRIMALITY_TESTS:
            assert is_prime(257), is_prime
            assert not is_prime(1), is_prime
            assert is_prime(2647), is_prime

    def test_small_exhaustive(self):
        primes = sieve_primes(10**6)
        for is_prime in PRIMALITY_TESTS:
            assert [n for n in range(10**6 + 1) if is_prime(n)] == primes, is_prime

    def test_strong_pseudoprimes(self):
        # composites that fool Miller-Rabin tests on fewer or other bases
        bases = sieve_primes(37)
        for q, factors in _ALL_BASES_BUT_ONE.items():
            n = math.prod(factors)
            assert [a for a in bases if not is_strong_probable_prime(n, a)] == [q]
        composites = (*_A014233, *map(math.prod, _ALL_BASES_BUT_ONE.values()))
        for is_prime in PRIMALITY_TESTS:
            assert [n for n in composites if is_prime(n)] == [], is_prime
            assert is_prime(2**61 - 1), is_prime

    @given(st.integers(2, 2**62 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_sympy(self, n):
        for is_prime in PRIMALITY_TESTS:
            assert is_prime(n) == sympy.isprime(n), is_prime


class TestFactorize:
    def test_examples(self):
        assert arith.factorize(91) == ((7, 1), (13, 1))
        assert arith.factorize(256) == ((2, 8),)
        assert arith.factorize(17496) == ((2, 3), (3, 7))

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            arith.factorize(1)

    @given(st.integers(2, 2**48))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_and_primality(self, n):
        fact = arith.factorize(n)
        assert math.prod(p**e for p, e in fact) == n
        primes = tuple(p for p, _ in fact)
        assert list(primes) == sorted(primes)
        assert len(set(primes)) == len(primes)
        for p, e in fact:
            assert arith.is_prime(p)
            assert e >= 1


class TestPAdicValuation:
    def test_examples(self):
        assert arith.p_adic_valuation(8, 2) == 3
        assert arith.p_adic_valuation(91, 7) == 1
        assert arith.p_adic_valuation(17496, 3) == 7

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            arith.p_adic_valuation(8, 4)


class TestMultiplicativeOrder:
    def test_examples(self):
        assert arith.multiplicative_order(2, 27) == 18
        assert arith.multiplicative_order(5, 256) == 64
        assert arith.multiplicative_order(1, 97) == 1

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            arith.multiplicative_order(6, 27)

    @given(st.integers(2, 5000), st.integers(2, 5000))
    @settings(max_examples=200, deadline=None)
    def test_against_brute_force(self, base, m):
        if math.gcd(base, m) != 1:
            return
        assert arith.multiplicative_order(base, m) == brute_force_order(base, m)


class TestCycleDiscreteLog:
    def test_worked_examples(self):
        assert arith.cycle_discrete_log(5, 253, 256) == 35
        assert arith.cycle_discrete_log(2, 7, 27) == 16
        assert arith.cycle_discrete_log(7, 5, 8) is None

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            arith.cycle_discrete_log(6, 1, 27)

    @given(st.integers(2, 2000), st.integers(2, 2000), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_soundness_and_completeness(self, base, m, seed):
        if math.gcd(base, m) != 1:
            return
        target = seed % m
        result = arith.cycle_discrete_log(base, target, m)
        cycle = set(brute_force_cycle(base, m))
        if result is None:
            assert target not in cycle
        else:
            order = brute_force_order(base, m)
            assert 0 <= result < order
            assert pow(base, result, m) == target

    def test_enumeration_vs_bsgs_on_overlap(self):
        # both strategies must agree wherever either is applicable
        cases = [(3, 65537), (5, 3**9), (2, 104729), (7, 2**16 + 1)]
        for base, m in cases:
            order = arith.multiplicative_order(base, m)
            for exp in (0, 1, 2, order // 2, order - 1):
                target = pow(base, exp, m)
                enum = arith._dlog_enumerate(base, target, m, order)
                bsgs = arith._dlog_bsgs(base, target, m, order)
                assert enum == bsgs == exp % order
            for bad in (0, 12345 % m):
                if pow(bad, order, m) != 1 or bad == 0:
                    assert arith._dlog_bsgs(base, bad, m, order) is None
                    assert arith._dlog_enumerate(base, bad, m, order) is None

    def test_pohlig_hellman_matches_bsgs(self):
        m = 3**13  # order of 2 is large enough to exercise the decomposition
        order = arith.multiplicative_order(2, m)
        for exp in (1, 17, 12345, order - 3):
            target = pow(2, exp, m)
            assert arith._dlog_pohlig_hellman(2, target, m, order) == exp % order
            assert arith._dlog_bsgs(2, target, m, order) == exp % order

    def test_pohlig_hellman_target_outside_the_cycle(self):
        # 4 has order (p - 1) / 2 = 3 * 166,667 mod the prime p = 1,000,003,
        # the quadratic residues, so the non-residue 2 is outside its cycle:
        # the digit of the prime 166,667, found by baby-step/giant-step, fails
        m = 1_000_003
        assert arith.multiplicative_order(4, m) == 500_001
        assert arith._dlog_pohlig_hellman(4, 2, m, 500_001) is None
        assert arith.cycle_discrete_log(4, 2, m) is None

    def test_pohlig_hellman_recheck_refuses_a_wrong_answer(self):
        # with the base's true order every digit that succeeds pins the log,
        # so only an order that is not the base's reaches the final recheck:
        # 2 has order 12 mod 13, and the digits for the order 6 give x = 2
        # for the target 2^8 = 9, which the recheck refuses
        assert arith._dlog_pohlig_hellman(2, 9, 13, 6) is None
        assert arith._dlog_pohlig_hellman(2, 9, 13, 12) == 8

    def test_huge_prime_power_modulus(self):
        m = 5**26  # just below the 2^62 cap
        order = arith.multiplicative_order(2, m)
        exp = 123_456_789
        target = pow(2, exp, m)
        assert arith.cycle_discrete_log(2, target, m) == exp % order


class TestPrimesInProgression:
    def test_known_progressions(self):
        assert list(islice(arith.primes_in_progression(18), 3)) == [19, 37, 73]
        assert list(islice(arith.primes_in_progression(147), 3)) == [883, 1471, 2647]
        assert list(islice(arith.primes_in_progression(1), 4)) == [2, 3, 5, 7]

    def test_yields_only_matching_primes(self):
        for k in (4, 18, 64, 147):
            for p in islice(arith.primes_in_progression(k), 10):
                assert arith.is_prime(p)
                assert p % k == 1

    def test_rejects_a_step_below_one(self):
        # a generator: it checks the step on the first draw
        with pytest.raises(ValueError):
            next(arith.primes_in_progression(0))


class TestExactPowerDecompose:
    def test_examples(self):
        assert arith.exact_power_decompose(125, 5) == 3
        assert arith.exact_power_decompose(128, 2) == 7
        assert arith.exact_power_decompose(8280, 2) is None

    def test_one_is_never_a_positive_power(self):
        assert arith.exact_power_decompose(1, 2) is None

    def test_oracle_sweep(self):
        for a in range(2, 21):
            value = 1
            for x in range(1, 41):
                value *= a
                assert arith.exact_power_decompose(value, a) == x
                assert arith.exact_power_decompose(value + 1, a) is None
                if value - 1 >= 1:
                    assert arith.exact_power_decompose(value - 1, a) is None


@pytest.mark.parametrize(
    "call, args",
    [
        (arith.multiplicative_order, (1, 1)),
        (arith.cycle_discrete_log, (1, 0, 1)),
        (arith.cycle_discrete_log, (2, 27, 27)),
        (arith.cycle_discrete_log, (2, -1, 27)),
        (arith.exact_power_decompose, (0, 2)),
        (arith.exact_power_decompose, (8, 1)),
        (arith.p_adic_valuation, (0, 2)),
        (arith.p_adic_valuation, (8, 1)),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_documented_value_errors(call, args):
    with pytest.raises(ValueError):
        call(*args)
