"""Exact and modular integer arithmetic kernel.

Everything here is a pure function of its inputs: modular powers,
deterministic 64-bit primality, factorization, multiplicative orders
(multiplicative_order returns the order itself, as an int), discrete
logs inside a single power cycle, primes in arithmetic progressions,
and exact perfect-power decomposition.  The solver keeps its moduli
below the verifier's cap, certificate.MODULUS_CAP (2^62); only the
searches that compare raw power values use arbitrary precision.  A
discrete log takes a perf_counter deadline and raises TimeoutError once
it is past it, checked every _DEADLINE_STRIDE baby or giant steps.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache
from itertools import count

# Full-cycle enumeration is used for discrete logs below this order;
# baby-step/giant-step (inside a Pohlig-Hellman decomposition for
# composite orders) above it.
_DLOG_ENUM_LIMIT = 1 << 16
# Baby or giant steps between two deadline checks.
_DEADLINE_STRIDE = 1 << 12

# The first 12 primes are a deterministic Miller-Rabin witness set for
# n < 318,665,857,834,031,151,167,461 (about 3.19 * 10^24; OEIS A014233),
# which covers every 64-bit input this package produces.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _small_prime_sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(flags[p * p :: p]))
    return tuple(i for i, f in enumerate(flags) if f)


_SMALL_PRIMES = _small_prime_sieve(1 << 12)


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all n < 2^63."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle finding)."""
    for c in count(1):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # unlucky polynomial; retry with the next increment


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of 2 <= n < 2^62 as (prime, exponent) pairs, primes ascending."""
    if n < 2:
        raise ValueError(f"cannot factorize {n}: need n >= 2")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return tuple(sorted(factors.items()))


def p_adic_valuation(n: int, p: int) -> int:
    """Largest v with p^v dividing n, for prime p and n >= 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if p < 2 or not is_prime(p):
        raise ValueError(f"{p} is not prime")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _group_exponent_factors(m: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of the Carmichael function lambda(m)."""
    lam = 1
    for p, e in factorize(m):
        if p == 2 and e >= 3:
            lam_pe = 1 << (e - 2)
        else:
            lam_pe = (p - 1) * p ** (e - 1)
        lam = lam * lam_pe // math.gcd(lam, lam_pe)
    if lam == 1:
        return ()
    return factorize(lam)


@lru_cache(maxsize=1 << 14)
def _order(base: int, m: int) -> int:
    if math.gcd(base, m) != 1:
        raise ValueError(f"{base} is not a unit modulo {m}")
    lam_factors = _group_exponent_factors(m)
    order = 1
    for q, e in lam_factors:
        order *= q**e
    for q, _ in lam_factors:
        while order % q == 0 and pow(base, order // q, m) == 1:
            order //= q
    return order


def multiplicative_order(base: int, m: int) -> int:
    """Exact order of base in (Z/mZ)*; base must be coprime to m >= 2."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    return _order(base, m)


def _dlog_enumerate(base: int, target: int, m: int, order: int) -> int | None:
    v = 1
    for j in range(order):
        if v == target:
            return j
        v = v * base % m
    return None


def _check_deadline(deadline: float) -> None:
    if time.perf_counter() > deadline:
        raise TimeoutError("wall limit reached inside a discrete log")


def _dlog_bsgs(
    base: int, target: int, m: int, order: int, deadline: float = math.inf
) -> int | None:
    step = math.isqrt(order) + 1
    table: dict[int, int] = {}
    v = 1
    for j in range(step):
        if not j % _DEADLINE_STRIDE:
            _check_deadline(deadline)
        table.setdefault(v, j)
        v = v * base % m
    giant = pow(base, -step, m)
    gamma = target % m
    for i in range(step + 1):
        if not i % _DEADLINE_STRIDE:
            _check_deadline(deadline)
        j = table.get(gamma)
        if j is not None:
            x = (i * step + j) % order
            if pow(base, x, m) == target % m:
                return x
        gamma = gamma * giant % m
    return None


def _dlog_pohlig_hellman(
    base: int, target: int, m: int, order: int, deadline: float = math.inf
) -> int | None:
    """Discrete log in the cycle of `base` via prime-power subgroups and CRT."""
    residues: list[tuple[int, int]] = []
    for q, e in factorize(order):
        qe = q**e
        g_i = pow(base, order // qe, m)
        h_i = pow(target, order // qe, m)
        # digit-by-digit in the order-q subgroup generated by g_i^(q^(e-1))
        gq = pow(g_i, qe // q, m)
        x_i = 0
        for j in range(e):
            exp = qe // (q ** (j + 1))
            h_j = pow(h_i * pow(g_i, -x_i, m) % m, exp, m)
            if q < _DLOG_ENUM_LIMIT:
                d = _dlog_enumerate(gq, h_j, m, q)
            else:
                d = _dlog_bsgs(gq, h_j, m, q, deadline)
            if d is None:
                return None
            x_i += d * q**j
        residues.append((x_i, qe))
    x, mod = 0, 1
    for r, qe in residues:
        inv = pow(mod, -1, qe)
        x = x + mod * ((r - x) * inv % qe)
        mod *= qe
    x %= order
    if pow(base, x, m) == target % m:
        return x
    return None


def cycle_discrete_log(
    base: int, target: int, m: int, deadline: float = math.inf
) -> int | None:
    """Unique x_r in [0, K) with base^x_r = target (mod m), or None.

    K is the order of base mod m.  None means the target is provably
    outside the cycle generated by base: the small-order path exhausts
    the whole cycle, the large-order paths cover it via baby-step/
    giant-step and Pohlig-Hellman with a final recheck.  Raises
    TimeoutError when baby-step/giant-step runs past `deadline`
    (a time.perf_counter value).
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if math.gcd(base, m) != 1:
        raise ValueError(f"{base} is not a unit modulo {m}")
    if not 0 <= target < m:
        raise ValueError(f"target {target} out of range [0, {m})")
    order = _order(base, m)
    if order <= _DLOG_ENUM_LIMIT:
        return _dlog_enumerate(base, target, m, order)
    return _dlog_pohlig_hellman(base, target, m, order, deadline)


def primes_in_progression(k: int):
    """Yield the primes of the form n*k + 1 with n >= 1, ascending."""
    if k < 1:
        raise ValueError(f"progression step must be >= 1, got {k}")
    for n in count(1):
        p = n * k + 1
        if is_prime(p):
            yield p


def exact_power_decompose(n: int, a: int) -> int | None:
    """The x >= 1 with a^x == n exactly, or None if no such power exists."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if a < 2:
        raise ValueError(f"base must be >= 2, got {a}")
    if n < a:
        return None
    # Start near the bit-length estimate and finish with exact multiplies.
    x = max(1, (n.bit_length() - 1) // a.bit_length())
    v = a**x
    while v < n:
        v *= a
        x += 1
    while v > n and x > 1:
        v //= a
        x -= 1
    return x if v == n else None
