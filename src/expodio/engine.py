"""Core solver for pairwise-coprime instances of a^x + b = c^y.

The strategy is proof by contradiction against a bound: assume the
equation has a solution with y >= t (Forward mode, working modulo a
prime power dividing c) or x >= t (Backward mode, modulo a prime power
dividing a).  The assumption forces the other side into a single
residue class modulo M = p^k.  Either the residue is outside the power
cycle (direct exclusion), or it pins the exponent to a congruence class
and a "magic prime" P = nK + 1 is sought whose two value sets are
disjoint.  A success yields a strict bound on one variable and a finite
enumeration closes the proof.

Candidate moduli live in a priority queue keyed by M, smallest first,
so cheap contradictions are found before expensive ones.  Termination
is conjectural; the solver gives up cleanly (status Unresolved) when
its budgets are exhausted.

The engine also builds the certificates: it computes each order a proof
states with the arithmetic kernel and lays out the claims with the claims
functions of `certificate`, whose verifier shares no code with the solver.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

from . import arith
from .certificate import (
    MODULUS_CAP,
    Certificate,
    CertShape,
    Mode,
    _common_factor_claims,
    _direct_exclusion_claims,
    _expected_target,
    _lift,
    _magic_prime_claims,
    _sides,
)
from .classify import (
    Classification,
    ClassTag,
    bounded_case_solutions,
    classify,
    final_enumeration,
)
from .instance import EquationInstance

EventCallback = Callable[[str, dict], None]


class SolveStatus(str, Enum):
    SOLVED = "Solved"
    UNRESOLVED = "Unresolved"


@dataclass(frozen=True)
class SolverConfig:
    """Budgets for the search; defaults solve every tabulated instance.

    Each congruence constraint may try at most prime_budget_count
    magic-prime candidates P = nK + 1, taken in ascending order, none
    larger than prime_budget_cap, which is at most 2^62 (the verifier
    rejects a larger magic prime).  The whole run stops after wall_limit
    seconds (None: no limit; NaN is rejected, like any limit that is not
    positive).  The initial search derives its ceiling from the instance,
    and the queue is finite: it drops a modulus above
    certificate.MODULUS_CAP, the verifier's limit, so each prime factor
    of a or c adds at most 62 moduli.
    """

    prime_budget_count: int = 64
    prime_budget_cap: int = 1 << 40
    wall_limit: float | None = None

    def __post_init__(self) -> None:
        if self.prime_budget_count < 0 or not 2 <= self.prime_budget_cap <= MODULUS_CAP:
            raise ValueError("prime budget needs a count >= 0 and a cap in [2, 2^62]")
        if self.wall_limit is not None and not self.wall_limit > 0:
            raise ValueError("wall limit must be positive")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class ModulusCandidate:
    """One queue entry: disprove `variable of mode` >= t modulo p^k, where k = t * v_p(base)."""

    mode: Mode
    p: int
    t: int
    k: int

    @property
    def key(self) -> int:
        return self.p**self.k


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    solutions: tuple[tuple[int, int], ...]
    classification: Classification
    certificate: Certificate | None
    elapsed_ms: float


@dataclass(frozen=True)
class Constraint:
    """A congruence var = residue (mod period) forced by a source modulus."""

    variable: str  # "x" or "y"
    residue: int
    period: int


class ExclusionKind(str, Enum):
    DIRECT = "DirectExclusion"
    CONDITIONAL = "Conditional"


@dataclass(frozen=True)
class ExclusionStep:
    kind: ExclusionKind
    constraint: Constraint | None = None


def initial_search(instance: EquationInstance) -> tuple[tuple[int, int], ...]:
    """All solutions with c^y <= max(2^64, b*c): the closing enumeration over those y.

    Each solution has c^y > b, and the first power of c above b is at most b*c.
    """
    ceiling = max(1 << 64, instance.b * instance.c)
    top, power = 0, instance.c
    while power <= ceiling:
        power *= instance.c
        top += 1
    return final_enumeration(instance, "y", top + 1)


def _in_cycle(unit: int, target: int, modulus: int, order: int) -> bool:
    """Whether target is a power of `unit`, of the given order mod a prime power: one pow."""
    if modulus % 8 == 0:
        # (Z/2^k)* for k >= 3 is not cyclic, but its classes 1 (mod 4) are;
        # a unit 3 (mod 4) alternates between the classes, its even powers
        # forming the cycle of unit^2, so test target or target / unit
        if unit % 4 == 3:
            order //= 2
            if target % 4 == 3:
                target = target * pow(unit, -1, modulus) % modulus
        return target % 4 == 1 and pow(target, order, modulus) == 1
    # otherwise (Z/p^k)* is cyclic: the cycle is its one subgroup of that order
    return pow(target, order, modulus) == 1


def exclusion_step(
    instance: EquationInstance,
    candidate: ModulusCandidate,
    prime_cap: int = MODULUS_CAP,
    deadline: float = math.inf,
) -> ExclusionStep:
    """Try to refute `var >= t` modulo p^k: a contradiction or a congruence.

    Forward mode forces a^x = -b (mod M); Backward forces c^y = b (mod M).
    If the target is outside the cycle of the base the bound is disproved
    outright; otherwise the unique discrete log becomes a constraint.
    When the period K leaves no magic prime nK + 1 up to prime_cap, the
    log is not computed: a target in the cycle gives a conditional step
    with no constraint.  The log raises TimeoutError past `deadline`.
    """
    modulus = candidate.key
    _, _, base, variable = _sides(instance, candidate.mode)
    unit = base % modulus
    target = _expected_target(instance, candidate.mode, modulus)
    # the period is below the modulus, so only a modulus above the cap can reach it
    if modulus > prime_cap:
        period = arith.multiplicative_order(unit, modulus)
        if period >= prime_cap:
            in_cycle = _in_cycle(unit, target, modulus, period)
            return ExclusionStep(ExclusionKind.CONDITIONAL if in_cycle else ExclusionKind.DIRECT)
    residue = arith.cycle_discrete_log(unit, target, modulus, deadline)
    if residue is None:
        return ExclusionStep(kind=ExclusionKind.DIRECT)
    period = arith.multiplicative_order(unit, modulus)
    return ExclusionStep(
        kind=ExclusionKind.CONDITIONAL,
        constraint=Constraint(variable=variable, residue=residue, period=period),
    )


def witness_for_prime(
    instance: EquationInstance, constraint: Constraint, prime: int
) -> int | None:
    """Decide whether `prime` is a magic prime for a congruence constraint.

    Lifts the constraint to L = lcm(K, ord_P(base)), takes the shifted
    values of the constrained side from `certificate._lift`, and tests
    their disjointness from the other side's power cycle (membership in
    the unique subgroup of that order).  Returns the lift L, or None.
    """
    if instance.a % prime == 0 or instance.b % prime == 0 or instance.c % prime == 0:
        return None
    # Forward mode constrains x, Backward mode constrains y
    mode = Mode.FORWARD if constraint.variable == "x" else Mode.BACKWARD
    other, _, base, _ = _sides(instance, mode)
    lift = math.lcm(constraint.period, arith.multiplicative_order(base % prime, prime))
    _, _, shifted = _lift(instance, mode, constraint.residue, constraint.period, prime, lift)
    other_order = arith.multiplicative_order(other % prime, prime)
    for s in shifted:
        if s != 0 and pow(s, other_order, prime) == 1:
            return None
    return lift


def magic_prime_search(
    instance: EquationInstance,
    constraint: Constraint,
    config: SolverConfig = DEFAULT_CONFIG,
    on_event: EventCallback | None = None,
) -> tuple[int, int] | None:
    """First magic prime P = nK + 1 within budget and its lift, (P, L), or None.

    The candidates are the primes nK + 1 up to prime_budget_cap that
    divide none of a, b, c, ascending, and at most prime_budget_count
    of them: the count is checked before a prime is drawn.
    """
    primes = arith.primes_in_progression(constraint.period)
    tried = 0
    while tried < config.prime_budget_count:
        prime = next(primes)
        if prime > config.prime_budget_cap:
            return None
        if instance.a % prime and instance.b % prime and instance.c % prime:
            tried += 1
            if on_event is not None:
                on_event("try_prime", {"prime": prime})
            lift = witness_for_prime(instance, constraint, prime)
            if lift is not None:
                return prime, lift
    return None


class CertificateBuildError(Exception):
    """Raised when solver outputs handed to a builder are inconsistent."""


def _check_solutions(instance: EquationInstance, solutions) -> tuple[tuple[int, int], ...]:
    solutions = tuple(sorted(set(map(tuple, solutions))))
    for x, y in solutions:
        if not instance.is_solution(x, y):
            raise CertificateBuildError(f"({x}, {y}) does not solve {instance.equation_text()}")
    return solutions


def _check_bound(solutions, zero_var: str, t: int) -> None:
    bounded = 0 if zero_var == "x" else 1
    for sol in solutions:
        if sol[bounded] >= t:
            raise CertificateBuildError(f"solution {sol} contradicts {zero_var} < {t}")


def _order_of(base: int, modulus: int) -> dict[str, Any]:
    """The order params of a unit base mod modulus: its order and that order's primes."""
    order = arith.multiplicative_order(base % modulus, modulus)
    primes = tuple(q for q, _ in arith.factorize(order)) if order > 1 else ()
    return {"order": order, "order_factors": primes}


def build_divisibility_certificate(instance: EquationInstance, mode: Mode, p: int) -> Certificate:
    """Type i / ii certificate: one side is 0 mod p, the other never is."""
    sides = _sides(instance, mode)
    zero_base, _, other_base, _ = sides
    if zero_base % p != 0 or instance.b % p != 0:
        raise CertificateBuildError(f"prime {p} does not divide both b and {zero_base}")
    if other_base % p == 0:
        raise CertificateBuildError(f"prime {p} divides both sides of {instance.equation_text()}")
    shape = CertShape.DIVISIBILITY_NO_SOLUTION
    target = _expected_target(instance, mode, p)
    return Certificate(
        instance=instance,
        shape=shape,
        mode=mode,
        witness_prime=p,
        modulus_exponent=1,
        bound_threshold=1,
        solutions=(),
        claims=_direct_exclusion_claims(shape, sides, target, p, 1, _order_of(other_base, p)),
    )


def build_common_factor_certificate(
    instance: EquationInstance, p: int, k: int, solutions
) -> Certificate:
    """Type iii certificate: p | gcd(a, c) and p^k does not divide b."""
    modulus = p**k
    if instance.a % p != 0 or instance.c % p != 0:
        raise CertificateBuildError(f"prime {p} does not divide both a and c")
    if instance.b % modulus == 0:
        raise CertificateBuildError(f"{modulus} divides b; bound exponent {k} is unsound")
    solutions = _check_solutions(instance, solutions)
    for x, y in solutions:
        if x >= k and y >= k:
            raise CertificateBuildError(f"solution ({x}, {y}) contradicts min(x, y) < {k}")
    return Certificate(
        instance=instance,
        shape=CertShape.COMMON_FACTOR_BOUND,
        mode=None,
        witness_prime=p,
        modulus_exponent=k,
        bound_threshold=k,
        solutions=solutions,
        claims=_common_factor_claims(instance, p, k),
    )


def build_direct_exclusion_certificate(
    instance: EquationInstance, mode: Mode, p: int, k: int, t: int, solutions
) -> Certificate:
    """Type iv / vi certificate: the forced residue is outside the power cycle."""
    sides = _sides(instance, mode)
    _, zero_var, con_base, _ = sides
    solutions = _check_solutions(instance, solutions)
    _check_bound(solutions, zero_var, t)
    shape = CertShape.DIRECT_MODULAR_EXCLUSION
    modulus = p**k
    target = _expected_target(instance, mode, modulus)
    order = _order_of(con_base, modulus)
    return Certificate(
        instance=instance,
        shape=shape,
        mode=mode,
        witness_prime=p,
        modulus_exponent=k,
        bound_threshold=t,
        solutions=solutions,
        claims=_direct_exclusion_claims(shape, sides, target, modulus, t, order),
    )


def build_magic_prime_certificate(
    instance: EquationInstance,
    mode: Mode,
    p: int,
    k: int,
    t: int,
    residue: int,
    prime: int,
    lift: int,
    solutions,
) -> Certificate:
    """Type v / vii certificate: at `prime`, var = residue lifted to `lift` separates the sides."""
    sides = _sides(instance, mode)
    zero_base, zero_var, con_base, _ = sides
    solutions = _check_solutions(instance, solutions)
    _check_bound(solutions, zero_var, t)
    modulus = p**k
    order, zero_order = _order_of(con_base, modulus), _order_of(zero_base, prime)
    return Certificate(
        instance=instance,
        shape=CertShape.MAGIC_PRIME_EXCLUSION,
        mode=mode,
        witness_prime=p,
        modulus_exponent=k,
        bound_threshold=t,
        solutions=solutions,
        claims=_magic_prime_claims(
            instance, mode, sides, modulus, t, residue, order, prime, lift, zero_order
        ),
    )


def _solve_class_one(
    instance: EquationInstance, classification: Classification
) -> tuple[tuple[tuple[int, int], ...], Certificate]:
    # classify sets the witness prime, and for the bounded case the exponent
    p, k = classification.witness_prime, classification.modulus_exponent
    if classification.tag is ClassTag.TYPE_I_III_BOUNDED:
        solutions = bounded_case_solutions(instance, classification)
        return solutions, build_common_factor_certificate(instance, p, k, solutions)
    mode = Mode.FORWARD if classification.tag is ClassTag.TYPE_I_I else Mode.BACKWARD
    return (), build_divisibility_certificate(instance, mode, p)


def _conclude(
    instance: EquationInstance,
    candidate: ModulusCandidate,
    known: tuple[tuple[int, int], ...],
    constraint: Constraint | None,
    found: tuple[int, int] | None,
) -> tuple[tuple[tuple[int, int], ...], Certificate]:
    """Run the closing enumeration and build the certificate: magic-prime given (P, L)."""
    mode, p, k, t = candidate.mode, candidate.p, candidate.k, candidate.t
    _, variable, _, _ = _sides(instance, mode)
    solutions = final_enumeration(instance, variable, t)
    # a known solution with variable >= t, which the exclusion would
    # contradict, is missing from the enumeration and fails this check
    if not set(known) <= set(solutions):
        raise CertificateBuildError("final enumeration lost an initial-search solution")
    if found is None:
        return solutions, build_direct_exclusion_certificate(instance, mode, p, k, t, solutions)
    return solutions, build_magic_prime_certificate(
        instance, mode, p, k, t, constraint.residue, *found, solutions
    )


def solve(
    instance: EquationInstance,
    config: SolverConfig = DEFAULT_CONFIG,
    on_event: EventCallback | None = None,
) -> SolveResult:
    """Solve one instance end to end, producing a certificate when it can.

    Class I instances are settled by divisibility.  For Class II the
    queue is seeded with (Forward, p, y_max + 1) for every p | c and
    (Backward, q, x_max + 1) for every q | a, where x_max, y_max come
    from the initial search.  Failure to exclude at t re-queues t + 1.
    All budget exhaustion folds into status Unresolved.
    """
    start = time.perf_counter()
    classification = classify(instance)

    def finish(solutions: tuple[tuple[int, int], ...], cert: Certificate | None) -> SolveResult:
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        status = SolveStatus.UNRESOLVED if cert is None else SolveStatus.SOLVED
        return SolveResult(status, solutions, classification, cert, elapsed_ms)

    if classification.tag is not ClassTag.CLASS_II:
        return finish(*_solve_class_one(instance, classification))

    known = initial_search(instance)
    x_max = max((x for x, _ in known), default=0)
    y_max = max((y for _, y in known), default=0)

    heap: list[tuple[int, int, int, ModulusCandidate]] = []

    def push(mode: Mode, p: int, v: int, t: int) -> None:
        # v = v_p(base), read once from the factorization, so k = t * v
        # needs no valuation (and no primality test) per push
        cand = ModulusCandidate(mode=mode, p=p, t=t, k=t * v)
        key = cand.key
        if key <= MODULUS_CAP:
            mode_rank = 0 if mode is Mode.FORWARD else 1
            heapq.heappush(heap, (key, mode_rank, p, cand))

    for p, v in arith.factorize(instance.c):
        push(Mode.FORWARD, p, v, y_max + 1)
    for p, v in arith.factorize(instance.a):
        push(Mode.BACKWARD, p, v, x_max + 1)

    deadline = math.inf if config.wall_limit is None else start + config.wall_limit
    while heap and time.perf_counter() <= deadline:
        _, _, _, candidate = heapq.heappop(heap)
        if on_event is not None:
            base, variable, _, _ = _sides(instance, candidate.mode)
            on_event(
                "attempt",
                {
                    "mode": candidate.mode,
                    "variable": variable,
                    "t": candidate.t,
                    "p": candidate.p,
                    "base": base,
                    "modulus": candidate.key,
                },
            )
        try:
            step = exclusion_step(instance, candidate, config.prime_budget_cap, deadline)
        except TimeoutError:
            break
        found = None
        if step.kind is ExclusionKind.CONDITIONAL:
            if step.constraint is not None:
                found = magic_prime_search(instance, step.constraint, config, on_event)
            if found is None:
                push(candidate.mode, candidate.p, candidate.k // candidate.t, candidate.t + 1)
                continue
        solutions, cert = _conclude(instance, candidate, known, step.constraint, found)
        if on_event is not None:
            on_event("succeeded", {})
        return finish(solutions, cert)

    return finish(known, None)

