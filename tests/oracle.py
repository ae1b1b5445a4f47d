"""Brute-force reference implementations, independent of the package.

Everything here recomputes results with plain loops and big integers so
tests can compare the solver against an implementation that shares no
code with it.
"""

from __future__ import annotations


def brute_force_solutions(a: int, b: int, c: int, ceiling: int = 10**9) -> list[tuple[int, int]]:
    """All (x, y) with a^x + b = c^y and c^y <= ceiling, by exhaustive search."""
    solutions = []
    power_c = c
    y = 1
    while power_c <= ceiling:
        target = power_c - b
        if target >= a:
            power_a = a
            x = 1
            while power_a < target:
                power_a *= a
                x += 1
            if power_a == target:
                solutions.append((x, y))
        power_c *= c
        y += 1
    return solutions


def brute_force_order(base: int, m: int) -> int:
    """Multiplicative order by walking the cycle."""
    v = base % m
    order = 1
    while v != 1:
        v = v * base % m
        order += 1
    return order


def brute_force_cycle(base: int, m: int) -> list[int]:
    """[base^1 mod m, base^2 mod m, ...] over one full period."""
    values = []
    v = base % m
    while True:
        values.append(v)
        v = v * base % m
        if v == values[0]:
            return values


def sieve_primes(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        p += 1
    return [i for i in range(limit + 1) if flags[i]]


def is_strong_probable_prime(n: int, base: int) -> bool:
    """Whether odd n > 2 passes one Miller-Rabin round to `base`, as every odd prime does."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, n)
    return x == 1 or any(pow(x, 2**i, n) == n - 1 for i in range(r))
