"""The certificate format, its reader and its independent verifier: the trusted module.

A certificate records one complete exclusion argument for a^x + b = c^y
as an ordered list of claims, each tagged with the revalidator that can
re-establish it by direct computation:

    pow_mod_eq_zero            var >= t  =>  base^var = 0 (mod M)
    observe_mod_cycle          base^var = R (mod M) is impossible, or
                               forces var = r (mod K); K is base's order
    utilize_mod_cycle          var = r (mod K)  =>  base^var mod P is in a list
    compute_mod_add / _sub     shifts that list across the equation
    exhaust_mod_cycle          the shifted list misses the other power cycle
    diophantine1_enumeration   bounded exhaustive search of the leftover range

Each value is stored once, in the claim that asserts it: the lifted
residues and power values in utilize_mod_cycle, the shifted values in
compute_mod_*, the solution list at the top level of the document.
The canonical text is that document as one line of compact JSON.

Certificates are immutable: a frozen dataclass whose claims are
ClaimRecord tuples with read-only params, whose integer lists are tuples.

verify_certificate works from the (a, b, c) triple alone and shares no
code with the solver: this module imports only the standard library and
`instance`, has its own primality test, _is_prime, and its enumeration
tests exact powers with its own division loop.  A stated residue is
checked with one pow; each order a proof uses is stated with its prime
factors and proved exact by Pratt's test (pow and _is_prime); a value
outside a power cycle is shown by a subgroup test at that order, never by
a discrete-log search or an order computation.  It checks each claim
against the claim the engine's builders write for those facts (one claims
function per shape states its layout) and re-runs the bounded enumeration
at the enumeration claim.  The lists a magic-prime certificate states
follow from (residue, period, prime, lift); _lift computes them, for the
verifier and the builder alike, and the engine's per-prime decision
calls it too.  The work is bounded by the certificate: a modulus or
magic prime above MODULUS_CAP (2^62) is rejected before any pow or
primality test, a Class I witness prime that does not divide the
numbers it must before its primality test, and a lift unless it has as
many residues as the certificate lists, before any list of them is
built.  No rejection reason writes a number above MODULUS_CAP in full.
It remembers, by weak reference, the last certificate it accepted;
was_accepted lets a renderer that follows the verification reuse that
acceptance instead of verifying it again.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Any, Callable, NamedTuple

from .instance import EquationInstance

FORMAT_TAG = "diophantine1-certificate/3"

# The largest modulus p^k or magic prime the verifier accepts; _is_prime
# is exact below 2^63.  The solver keeps every modulus and prime below it.
MODULUS_CAP = 1 << 62

# json.dumps(doc, separators=(",", ":")) without building an encoder per call;
# _document builds a fresh tree each time, so no reference cycle can occur
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)

class Mode(str, Enum):
    """Which side of the equation the modulus attacks.

    Forward zeroes c^y modulo a prime power dividing c and constrains x;
    Backward zeroes a^x and constrains y.  (Generated proofs label these
    "Front Mode" and "Back Mode".)
    """

    FORWARD = "Forward"
    BACKWARD = "Backward"


class CertShape(str, Enum):
    DIVISIBILITY_NO_SOLUTION = "DivisibilityNoSolution"
    COMMON_FACTOR_BOUND = "CommonFactorBound"
    DIRECT_MODULAR_EXCLUSION = "DirectModularExclusion"
    MAGIC_PRIME_EXCLUSION = "MagicPrimeExclusion"


class ClaimKind(str, Enum):
    POW_MOD_EQ_ZERO = "pow_mod_eq_zero"
    OBSERVE_MOD_CYCLE = "observe_mod_cycle"
    UTILIZE_MOD_CYCLE = "utilize_mod_cycle"
    COMPUTE_MOD_ADD = "compute_mod_add"
    COMPUTE_MOD_SUB = "compute_mod_sub"
    EXHAUST_MOD_CYCLE = "exhaust_mod_cycle"
    DIOPHANTINE1_ENUMERATION = "diophantine1_enumeration"


# The members as module names, in declaration order: Python 3.11 resolves
# `Mode.FORWARD` through EnumType.__getattr__, about 0.15 us a lookup.
_FORWARD = Mode.FORWARD
_DIVISIBILITY, _COMMON_FACTOR, _DIRECT, _MAGIC_PRIME = CertShape
_POW, _OBSERVE, _UTILIZE, _ADD, _SUB, _EXHAUST, _ENUMERATION = ClaimKind


class Params(dict):
    """Read-only claim parameters: integers, strings and tuples of integers.

    A dict subclass, so json encodes it as an object; every mutator raises
    TypeError.  Its values are immutable, so a copy may be the object itself.
    """

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("claim params are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return (Params, (dict(self),))

    def __copy__(self) -> Params:
        return self

    def __deepcopy__(self, memo) -> Params:
        return self


class ClaimRecord(NamedTuple):
    kind: ClaimKind
    params: Params
    premises: tuple[int, ...]


@dataclass(frozen=True)
class Certificate:
    instance: EquationInstance
    shape: CertShape
    mode: Mode | None
    witness_prime: int
    modulus_exponent: int
    bound_threshold: int
    solutions: tuple[tuple[int, int], ...]
    claims: tuple[ClaimRecord, ...]


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: str | None = None
    claim_index: int | None = None


ACCEPT = Verdict(accepted=True)


class MalformedCertificateError(Exception):
    """Raised when serialized certificate text cannot be parsed."""


def _reject(reason: str, claim_index: int | None = None) -> Verdict:
    return Verdict(accepted=False, reason=reason, claim_index=claim_index)


class _Rejected(Exception):
    """A rejection raised from a helper with its reason and claim index; _verify returns it."""


# ---------------------------------------------------------------------------
# claim layout

def _sides(instance: EquationInstance, mode: Mode) -> tuple[int, str, int, str]:
    """(zeroed base, zeroed var, constrained base, constrained var) for a mode."""
    if mode is _FORWARD:
        return instance.c, "y", instance.a, "x"
    return instance.a, "x", instance.c, "y"


def _expected_target(instance: EquationInstance, mode: Mode, modulus: int) -> int:
    """Residue forced on the constrained side once the other side is 0 mod M."""
    if mode is _FORWARD:
        return (-instance.b) % modulus
    return instance.b % modulus


# The claims functions below are the one statement of each shape's claim
# layout.  The engine's builders store the ClaimRecords they return; the verifier
# compares a certificate's claims with the records they give for the
# facts it has re-derived or checked.


def _pow_claim(base: int, variable: str, threshold: int, modulus: int) -> ClaimRecord:
    return ClaimRecord(
        _POW, Params(base=base, variable=variable, threshold=threshold, modulus=modulus), ()
    )


def _enumeration_claim(variable: str, bound: int, premises: tuple[int, ...]) -> ClaimRecord:
    return ClaimRecord(_ENUMERATION, Params(variable=variable, bound=bound), premises)


def _common_factor_claims(instance: EquationInstance, p: int, k: int) -> tuple[ClaimRecord, ...]:
    modulus = p**k
    return (
        _pow_claim(instance.a, "x", k, modulus),
        _pow_claim(instance.c, "y", k, modulus),
        _enumeration_claim("either", k - 1, (0, 1)),
    )


def _direct_exclusion_claims(
    shape: CertShape,
    sides: tuple[int, str, int, str],
    target: int,
    modulus: int,
    t: int,
    order: dict[str, Any],
) -> tuple[ClaimRecord, ...]:
    """The direct-exclusion claims for `sides`; a divisibility certificate has the first two."""
    zero_base, zero_var, other_base, other_var = sides
    zero = _pow_claim(zero_base, zero_var, t, modulus)
    observe = ClaimRecord(
        _OBSERVE,
        Params(
            base=other_base,
            variable=other_var,
            target=target,
            modulus=modulus,
            **order,
            outcome="impossible",
        ),
        (0,),
    )
    if shape is _DIVISIBILITY:
        return zero, observe
    return zero, observe, _enumeration_claim(zero_var, t - 1, (1,))


def _lift(
    instance: EquationInstance, mode: Mode, residue: int, period: int, prime: int, lift: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The lift of var = residue (mod period) to var mod lift, read modulo prime.

    Returns the lifted residues, the constrained base's powers at them and
    those powers shifted across the equation: the values the zeroed side
    would take mod prime.
    """
    _, _, base, _ = _sides(instance, mode)
    target = _expected_target(instance, mode, prime)
    lifted = tuple(range(residue, lift, period))
    values = tuple(pow(base, r, prime) for r in lifted)
    return lifted, values, tuple((v - target) % prime for v in values)


def _magic_prime_claims(
    instance: EquationInstance,
    mode: Mode,
    sides: tuple[int, str, int, str],
    modulus: int,
    t: int,
    residue: int,
    order: dict[str, Any],
    prime: int,
    lift: int,
    zero_order: dict[str, Any],
) -> tuple[ClaimRecord, ...]:
    """The magic-prime claims: var = residue (mod the order) lifted to `lift` at `prime`."""
    zero_base, zero_var, con_base, con_var = sides
    shift_kind = _ADD if mode is _FORWARD else _SUB
    period = order["order"]
    lifted, values, shifted = _lift(instance, mode, residue, period, prime, lift)
    return (
        _pow_claim(zero_base, zero_var, t, modulus),
        ClaimRecord(
            _OBSERVE,
            Params(
                base=con_base,
                variable=con_var,
                target=_expected_target(instance, mode, modulus),
                modulus=modulus,
                **order,
                outcome="constrains",
                residue=residue,
                period=period,
            ),
            (0,),
        ),
        ClaimRecord(
            _UTILIZE,
            Params(
                base=con_base,
                variable=con_var,
                residue=residue,
                period=period,
                prime=prime,
                lifted_period=lift,
                lifted_residues=lifted,
                values=values,
            ),
            (1,),
        ),
        ClaimRecord(
            shift_kind,
            Params(
                prime=prime,
                input_base=con_base,
                input_variable=con_var,
                shift=instance.b,
                output_base=zero_base,
                output_variable=zero_var,
                output_values=shifted,
            ),
            (2,),
        ),
        ClaimRecord(
            _EXHAUST, Params(base=zero_base, variable=zero_var, prime=prime, **zero_order), (3,)
        ),
        _enumeration_claim(zero_var, t - 1, (4,)),
    )


# ---------------------------------------------------------------------------
# canonical serialization

def _document(cert: Certificate) -> dict[str, Any]:
    """The canonical document of a certificate; it shares the claims' params and tuples.

    json's encoder writes a str-enum member as its value and a tuple as an
    array, so both go in as they are.
    """
    inst = cert.instance
    return {
        "format": FORMAT_TAG,
        "instance": {"a": inst.a, "b": inst.b, "c": inst.c},
        "shape": cert.shape,
        "mode": cert.mode,
        "witness_prime": cert.witness_prime,
        "modulus_exponent": cert.modulus_exponent,
        "bound_threshold": cert.bound_threshold,
        "solutions": cert.solutions,
        "claims": [
            {"kind": claim.kind, "params": claim.params, "premises": claim.premises}
            for claim in cert.claims
        ],
    }


def certificate_to_dict(cert: Certificate) -> dict[str, Any]:
    """The canonical document as a private copy, with lists, that callers may mutate."""
    return json.loads(serialize_certificate(cert))


def serialize_certificate(cert: Certificate) -> str:
    """Canonical text form: the document as one line of compact JSON.

    Field order is fixed, so the bytes are reproducible.
    """
    return _ENCODER.encode(_document(cert)) + "\n"


def certificate_digest(cert: Certificate) -> str:
    import hashlib  # here, so a process that never digests does not load OpenSSL

    return hashlib.sha256(serialize_certificate(cert).encode("utf-8")).hexdigest()


# The helpers below raise directly so that a valid field costs no message formatting.
# Types are matched exactly: a bool is an int subclass, and a float or a
# bool can compare equal to the integer the verifier expects.

_INT = frozenset({int})


def _as_int(value: Any, what: str) -> int:
    if type(value) is not int:
        raise MalformedCertificateError(f"{what} must be an integer")
    return value


def _as_params(value: Any, ints: list) -> Params:
    """Read-only claim params: integers, strings, and lists made tuples, whose items join `ints`."""
    if not isinstance(value, dict):
        raise MalformedCertificateError("claim params must be an object")
    params = Params(value)
    for key, item in value.items():
        kind = type(item)
        if kind is list:
            ints += item
            # no one holds params yet: swap the list for a tuple past the guard
            dict.__setitem__(params, key, tuple(item))
        elif kind is not int and kind is not str:
            raise MalformedCertificateError("claim params hold only integers, strings and lists")
    return params


def _member(table: dict[str, Enum], value: Any, what: str) -> Enum:
    """The member that `value` names in `table`; raises MalformedCertificateError if none."""
    # only a JSON string is looked up; anything else is never hashed (a list would raise)
    if type(value) is not str:
        raise MalformedCertificateError(f"{what} must be a string")
    member = table.get(value)
    if member is None:
        raise MalformedCertificateError(f"unknown {what} {value!r}")
    return member


_SHAPES = {member.value: member for member in CertShape}
_MODES = {member.value: member for member in Mode}
_KINDS = {member.value: member for member in ClaimKind}

_DOCUMENT_KEYS = frozenset(
    {
        "format",
        "instance",
        "shape",
        "mode",
        "witness_prime",
        "modulus_exponent",
        "bound_threshold",
        "solutions",
        "claims",
    }
)
_INSTANCE_KEYS = frozenset({"a", "b", "c"})
_CLAIM_KEYS = frozenset({"kind", "params", "premises"})


def certificate_from_dict(doc: Any) -> Certificate:
    if not isinstance(doc, dict):
        raise MalformedCertificateError("certificate must be a JSON object")
    if doc.get("format") != FORMAT_TAG:
        raise MalformedCertificateError(f"unknown format {doc.get('format')!r}")
    if doc.keys() != _DOCUMENT_KEYS:
        raise MalformedCertificateError("unexpected or missing certificate fields")

    inst = doc["instance"]
    if not isinstance(inst, dict) or inst.keys() != _INSTANCE_KEYS:
        raise MalformedCertificateError("bad instance field")
    try:
        instance = EquationInstance(
            _as_int(inst["a"], "a"), _as_int(inst["b"], "b"), _as_int(inst["c"], "c")
        )
    except ValueError as exc:
        raise MalformedCertificateError(str(exc)) from exc

    shape = _member(_SHAPES, doc["shape"], "shape")
    mode = None if doc["mode"] is None else _member(_MODES, doc["mode"], "mode")

    if not isinstance(doc["solutions"], list):
        raise MalformedCertificateError("solutions must be a list")
    solutions = []
    for pair in doc["solutions"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise MalformedCertificateError("each solution must be a pair")
        solutions.append((_as_int(pair[0], "solution x"), _as_int(pair[1], "solution y")))

    if not isinstance(doc["claims"], list):
        raise MalformedCertificateError("claims must be a list")
    claims, ints = [], []  # ints: the items of every list, type-checked at once
    for entry in doc["claims"]:
        if not isinstance(entry, dict) or entry.keys() != _CLAIM_KEYS:
            raise MalformedCertificateError("bad claim record")
        kind, premises = _member(_KINDS, entry["kind"], "claim kind"), entry["premises"]
        if type(premises) is not list:
            raise MalformedCertificateError("claim premises must be a list")
        ints += premises
        claims.append(ClaimRecord(kind, _as_params(entry["params"], ints), tuple(premises)))
    if not set(map(type, ints)) <= _INT:
        raise MalformedCertificateError("claim params and premises list only integers")

    return Certificate(
        instance,
        shape,
        mode,
        _as_int(doc["witness_prime"], "witness_prime"),
        _as_int(doc["modulus_exponent"], "modulus_exponent"),
        _as_int(doc["bound_threshold"], "bound_threshold"),
        tuple(solutions),
        tuple(claims),
    )


def parse_certificate(text: str) -> Certificate:
    # bad syntax and over-long integers raise ValueError, deep nesting RecursionError
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedCertificateError(f"not valid JSON: {exc}") from exc
    return certificate_from_dict(doc)


# ---------------------------------------------------------------------------
# verification

# The first 12 primes: Miller-Rabin with these bases is deterministic for
# every n below 3.18 * 10^23 (OEIS A014233), far past MODULUS_CAP.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for every n < 2^63."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < 1681:  # 41^2: a composite below it has a prime factor below 41
        return True
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


def _valuation(n: int, p: int) -> int:
    """Largest v with p^v dividing n >= 1, for a p the caller has proved prime."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _is_order(base: int, modulus: int, order: int, order_factors: tuple[int, ...]) -> bool:
    """True when order is the order of base mod modulus and order_factors its primes.

    Pratt's test: base^order = 1 and base^(order/q) != 1 for each listed q; the primes
    ascend, divide order (below the modulus) before _is_prime sees one, and leave nothing of it.
    """
    if order >= modulus:
        return False
    rest, last = order, 1
    for q in order_factors:
        if q <= last or rest % q or not _is_prime(q) or pow(base, order // q, modulus) == 1:
            return False
        last = q
        while rest % q == 0:
            rest //= q
    return rest == 1 and pow(base, order, modulus) == 1


def _stated_order(cert: Certificate, index: int, base: int, modulus: int) -> dict[str, Any]:
    """The order params claim `index` states for base mod modulus, once _is_order proves them."""
    order, factors = _stated(cert, index, "order"), _stated(cert, index, "order_factors")
    if not _is_order(base, modulus, order, factors):
        raise _Rejected("stated order is not the order of the base", index)
    return {"order": order, "order_factors": factors}


def _outside_cycle(base: int, p: int, k: int, order: int, targets) -> bool:
    """True when no target lies in {base^j mod p^k : j >= 1}, for a proved prime p and order."""
    modulus = p**k
    if p == 2 and k >= 3:
        # (Z/2^k)* is not cyclic, but {1 mod 4} is.  It holds <b> if
        # b = 1 (mod 4); if b = 3, it holds <b^2>, of half the order,
        # and <b> is <b^2> with b<b^2>: test t or t/b, whichever is 1 mod 4
        if base % 4 == 3:
            inverse, order = pow(base, -1, modulus), order // 2
            targets = [t if t % 4 == 1 else t * inverse % modulus for t in targets]
        return all(t % 4 != 1 or pow(t, order, modulus) != 1 for t in targets)
    # (Z/p^k)* is cyclic, so <b> is its one subgroup of that order,
    # and t is in it exactly when t^order = 1
    return 1 not in map(pow, targets, repeat(order), repeat(modulus))


def _exponent(n: int, base: int) -> int | None:
    """The x >= 1 with base^x = n, for a base >= 2, or None (always for n <= 1)."""
    x = 0
    while n > 1 and n % base == 0:
        n //= base
        x += 1
    return x if n == 1 and x else None


def _enumerate_solutions(
    instance: EquationInstance, variable: str, bound: int
) -> tuple[tuple[int, int], ...]:
    """All solutions with the named variable (or either, for 'either') <= bound."""
    a, b, c = instance.a, instance.b, instance.c
    found: set[tuple[int, int]] = set()
    if variable in ("x", "either"):
        for x in range(1, bound + 1):
            y = _exponent(a**x + b, c)
            if y is not None:
                found.add((x, y))
    if variable in ("y", "either"):
        for y in range(1, bound + 1):
            x = _exponent(c**y - b, a)
            if x is not None:
                found.add((x, y))
    return tuple(sorted(found))


def _shown(n: int) -> str:
    """A stated number as a rejection reason writes it: its size alone above MODULUS_CAP."""
    return str(n) if abs(n) <= MODULUS_CAP else f"<{n.bit_length()}-bit number>"


def _stated(cert: Certificate, index: int, key: str) -> Any:
    """The value claim `index` gives `key`; raises _Rejected if it gives none."""
    try:
        return cert.claims[index].params[key]
    except (IndexError, KeyError):
        raise _Rejected(f"claim {index} states no {key}", index) from None


_ABSENT = object()


def _difference(claim: ClaimRecord, expected: ClaimRecord) -> str:
    """How a claim differs from the expected one; built only on rejection."""
    kind, params, premises = expected
    if claim.kind != kind:
        return f"the shape needs {kind.value} here"
    if claim.premises != premises:
        return f"{kind.value} premises break the dependency chain"
    stated = dict(claim.params)
    key = next(
        (k for k in [*params, *stated] if stated.get(k, _ABSENT) != params.get(k, _ABSENT)),
        None,
    )
    return f"{kind.value} param {key!r} does not match the re-derived facts"


def _check_claims(cert: Certificate, expected: tuple[ClaimRecord, ...]) -> Verdict:
    """Accept when the claims are exactly `expected`, the layout of the re-derived facts.

    At the enumeration claim the solution list must equal a fresh
    enumeration up to that claim's bound.
    """
    claims = cert.claims
    for i, (want, claim) in enumerate(zip(expected, claims)):
        # a plain tuple can equal a record; _difference then fails to read it
        if claim != want or not isinstance(claim, ClaimRecord):
            return _reject(_difference(claim, want), claim_index=i)
        if want.kind is _ENUMERATION and cert.solutions != _enumerate_solutions(
            cert.instance, want.params["variable"], want.params["bound"]
        ):
            return _reject("re-enumeration does not reproduce the claimed solutions", claim_index=i)
    if len(claims) != len(expected):
        # the common prefix matches: the first claim that differs is missing or extra
        return _reject("claim count does not fit the shape", min(len(claims), len(expected)))
    return ACCEPT


def _verify_class_two(cert: Certificate) -> Verdict:
    instance = cert.instance
    mode = cert.mode
    if mode is None:
        return _reject("modular exclusion certificates need a mode")
    p, k, t = cert.witness_prime, cert.modulus_exponent, cert.bound_threshold
    # the size tests come first, so a huge stated p costs no primality test
    if p > MODULUS_CAP or k * (p.bit_length() - 1) > 62 or p**k > MODULUS_CAP:
        return _reject("modulus exceeds the supported cap")
    if not _is_prime(p):
        return _reject(f"{_shown(p)} is not prime")
    sides = _sides(instance, mode)
    zero_base, _, con_base, _ = sides
    # k = t * v_p(zero_base), so var >= t makes zero_base^var = 0 (mod p^k)
    if t < 1 or k != t * _valuation(zero_base, p):
        return _reject("modulus exponent does not match the attacked bound")
    modulus = p**k
    if math.gcd(con_base, modulus) != 1:
        return _reject("constrained base shares a factor with the modulus")
    if k < 1:
        return _reject("pow_mod_eq_zero needs threshold >= 1 and modulus >= 2", 0)
    target = _expected_target(instance, mode, modulus)
    order = _stated_order(cert, 1, con_base, modulus)
    period = order["order"]

    if cert.shape is _DIRECT:
        if not _outside_cycle(con_base, p, k, period, [target]):
            return _reject("target actually lies in the power cycle", claim_index=1)
        claims = _direct_exclusion_claims(cert.shape, sides, target, modulus, t, order)
        return _check_claims(cert, claims)

    # magic prime shape
    residue = _stated(cert, 1, "residue")
    # period is the exact order, so a residue in [0, period) that maps to
    # the target is the unique discrete log
    if not 0 <= residue < period or pow(con_base, residue, modulus) != target:
        return _reject("congruence is not the discrete log of the target", claim_index=1)

    P = _stated(cert, 2, "prime")
    if P > MODULUS_CAP or not _is_prime(P):
        return _reject(f"magic prime {_shown(P)} is not a prime below 2^62", claim_index=2)
    if P % period != 1 % period:
        return _reject("magic prime is not 1 mod the constraint period", claim_index=2)
    if instance.a * instance.b * instance.c % P == 0:
        return _reject("magic prime divides one of the parameters", claim_index=2)
    # a lift L that the period divides and with con_base^L = 1 (mod P) covers
    # every class of con_var mod the order mod P, in L / period listed residues
    L = _stated(cert, 2, "lifted_period")
    count = len(cert.claims[2].params.get("lifted_residues", ()))
    if count < 1 or L != count * period or pow(con_base, L, P) != 1:
        return _reject("lifted residues do not fill the lifted period", claim_index=2)
    zero_order = _stated_order(cert, 4, zero_base, P)
    claims = _magic_prime_claims(instance, mode, sides, modulus, t, residue, order, P, L, zero_order)
    if not _outside_cycle(zero_base, P, 1, zero_order["order"], claims[3].params["output_values"]):
        return _reject("shifted values intersect the other power cycle", claim_index=4)
    return _check_claims(cert, claims)


# The certificate verify_certificate accepted last, by weak reference, so
# the memo keeps nothing alive; a renderer asks about the one just verified.
_last_accepted: Callable[[], Certificate | None] = lambda: None


def was_accepted(cert: Certificate) -> bool:
    """True when verify_certificate's last acceptance was of this very object."""
    return _last_accepted() is cert


def verify_certificate(cert: Certificate) -> Verdict:
    """Re-validate every claim from the instance alone; Accept or Reject.

    Acceptance means the claim chain proves that the certificate's
    solution list is the complete solution set of a^x + b = c^y.  Every
    call re-validates.  An accepted certificate is also remembered for
    was_accepted, because it cannot change afterwards.  One assembled by
    hand from a list of claims or plain dict params could, so it is not.
    """
    global _last_accepted
    verdict = _verify(cert)
    if (
        verdict.accepted
        and type(cert.claims) is tuple
        and all(type(claim.params) is Params for claim in cert.claims)
    ):
        _last_accepted = weakref.ref(cert)
    return verdict


def _verify(cert: Certificate) -> Verdict:
    try:
        instance = cert.instance
        if not isinstance(instance, EquationInstance):
            return _reject("missing instance")
        # completeness and exactness of the solution list are settled by
        # re-running the bounded enumeration at the enumeration claim; the
        # claimed pairs are only ever compared, never exponentiated
        if cert.solutions != tuple(sorted(set(cert.solutions))):
            return _reject("solution list is not sorted and duplicate-free")
        shape = cert.shape
        if shape is _DIVISIBILITY:
            return _verify_divisibility(cert)
        if shape is _COMMON_FACTOR:
            return _verify_common_factor(cert)
        if shape is _DIRECT or shape is _MAGIC_PRIME:
            return _verify_class_two(cert)
        return _reject(f"unknown certificate shape {shape!r}")
    except _Rejected as exc:
        return _reject(*exc.args)
    except (AttributeError, ValueError, OverflowError, KeyError, TypeError, ZeroDivisionError) as exc:
        return _reject(f"malformed certificate: {exc}")


def _verify_divisibility(cert: Certificate) -> Verdict:
    instance = cert.instance
    mode = cert.mode
    if mode is None:
        return _reject("divisibility certificates need a mode")
    if cert.modulus_exponent != 1 or cert.bound_threshold != 1:
        return _reject("divisibility certificates work modulo a single prime")
    if cert.solutions != ():
        return _reject("divisibility certificates prove there are no solutions")
    p = cert.witness_prime
    sides = _sides(instance, mode)
    zero_base, _, other_base, _ = sides
    # p divides the zeroed base and b, so it is no larger than b: the
    # divisions go before the primality test
    if zero_base % p:
        return _reject(f"{_shown(p)} does not divide {_shown(zero_base)}^1", 0)
    if instance.b % p:
        return _reject(f"{_shown(p)} does not divide b")
    if not _is_prime(p):
        return _reject(f"{_shown(p)} is not prime")
    # the stated order proves other_base a unit mod p, and p divides b:
    # the target is 0, which no power of a unit reaches
    order = _stated_order(cert, 1, other_base, p)
    return _check_claims(cert, _direct_exclusion_claims(cert.shape, sides, 0, p, 1, order))


def _verify_common_factor(cert: Certificate) -> Verdict:
    instance = cert.instance
    if cert.mode is not None:
        return _reject("common-factor certificates are symmetric; no mode applies")
    p, k = cert.witness_prime, cert.modulus_exponent
    # p divides a, so it is no larger: the divisions go before the primality
    # test, and for k >= 1 they make a^x and c^y 0 mod p^k once x, y >= k
    if instance.a % p or instance.c % p:
        return _reject(f"{_shown(p)} does not divide both a and c")
    if not _is_prime(p):
        return _reject(f"{_shown(p)} is not prime")
    if k < 1 or cert.bound_threshold != k:
        return _reject("bound threshold must equal the modulus exponent")
    # Honest exponents satisfy p^(k-1) <= b, so k is small relative to b.
    if k > instance.b.bit_length() + 1:
        return _reject("bound exponent is too large to stem from b")
    modulus = p**k
    if instance.b % modulus == 0:
        return _reject(f"{_shown(modulus)} divides b, so no contradiction arises")
    return _check_claims(cert, _common_factor_claims(instance, p, k))
