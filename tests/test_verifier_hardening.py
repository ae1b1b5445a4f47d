"""Systematic tamper-resistance: every single field of a certificate matters.

The random fuzzer samples the mutation space; these tests walk it
exhaustively.  For one golden certificate of each shape, every integer
leaf is nudged, every boolean flipped, every string swapped, every list
element dropped and every list extended, and each variant must fail
verification (or fail to parse).  A certificate field that could absorb a
change without the verifier noticing would show up here as an accepted
mutant.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import time

import pytest

from expodio import EquationInstance, arith, final_enumeration, solve
from expodio.certificate import (
    LIFT_CAP,
    Certificate,
    CertShape,
    MalformedCertificateError,
    Mode,
    _lift,
    _sides,
    certificate_from_dict,
    certificate_to_dict,
    parse_certificate,
    verify_certificate,
    was_accepted,
)
from expodio.cli import iter_cube
from expodio.emit import EmitRefusedError, emit_lean
from expodio.engine import (
    Constraint,
    build_common_factor_certificate,
    build_direct_exclusion_certificate,
    build_magic_prime_certificate,
    witness_for_prime,
)

_REPRESENTATIVES = {
    "DivisibilityNoSolution": (2, 6, 9),
    "CommonFactorBound": (2, 4, 6),
    "DirectModularExclusion": (17, 3, 20),
    "MagicPrimeExclusion": (3, 7, 2),
}


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        yield path, node
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path, node


def _with_mutation(doc, path, value):
    mutated = copy.deepcopy(doc)
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return mutated


def _with_dropped(doc, path, index):
    mutated = copy.deepcopy(doc)
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]][index]
    return mutated


def _with_appended(doc, path):
    """`doc` with a copy of the list's last item, or [1, 1] if it is empty, appended."""
    mutated = copy.deepcopy(doc)
    parent = mutated
    for key in path:
        parent = parent[key]
    parent.append(copy.deepcopy(parent[-1]) if parent else [1, 1])
    return mutated


def _assert_rejected(mutated, what):
    try:
        cert = parse_certificate(json.dumps(mutated))
    except MalformedCertificateError:
        return
    verdict = verify_certificate(cert)
    assert not verdict.accepted, f"mutation of {what} was accepted"


@pytest.mark.parametrize("shape,triple", sorted(_REPRESENTATIVES.items()))
def test_every_field_is_load_bearing(shape, triple, golden_certificates):
    cert = golden_certificates[triple]
    assert cert.shape.value == shape
    doc = certificate_to_dict(cert)

    checked, attacked = 0, set()
    for path, value in _leaf_paths(doc):
        if path[0] == "instance":
            continue  # changing the instance changes the theorem, not the proof
        attacked.add(path[0])
        if isinstance(value, bool):
            variants = [not value]
        elif isinstance(value, int):
            variants = [value + 1, value - 1, value + 97]
        elif isinstance(value, str):
            if path[0] == "format":
                variants = ["diophantine1-certificate/999"]
            else:
                variants = [v for v in ("Forward", "Backward", "DivisibilityNoSolution",
                                        "CommonFactorBound", "DirectModularExclusion",
                                        "MagicPrimeExclusion") if v != value][:2]
        elif isinstance(value, list):
            for i in range(len(value)):
                _assert_rejected(_with_dropped(doc, path, i), f"{path} drop [{i}]")
                checked += 1
            _assert_rejected(_with_appended(doc, path), f"{path} append")
            checked += 1
            continue
        elif value is None:
            continue
        else:  # pragma: no cover - schema holds only the above
            raise AssertionError(f"unexpected leaf type at {path}: {value!r}")
        for variant in variants:
            _assert_rejected(_with_mutation(doc, path, variant), f"{path} -> {variant!r}")
            checked += 1

    # every field but the instance was attacked, on average at least two ways
    assert attacked == set(doc) - {"instance"}, (shape, attacked)
    assert checked >= 2 * len(attacked), (shape, checked)


# A stated order the verifier cannot read, built by hand as a flat tuple
# (K, q, ...) or as a dict of the same fields: a malformed certificate, not a crash.
@pytest.mark.parametrize(
    "as_plain",
    [lambda order: (order[0], *order[1]), lambda order: {"order": order[0], "primes": order[1]}],
    ids=["tuple", "dict"],
)
@pytest.mark.parametrize(
    "triple",
    [_REPRESENTATIVES["MagicPrimeExclusion"], _REPRESENTATIVES["DirectModularExclusion"]],
    ids=["magic prime", "direct exclusion"],
)
def test_claims_it_cannot_read_are_rejected(triple, as_plain, golden_certificates):
    cert = golden_certificates[triple]
    plain = dataclasses.replace(cert, order=as_plain(cert.order))
    verdict = verify_certificate(plain)
    assert not verdict.accepted
    assert verdict.reason.startswith("malformed certificate"), verdict.reason
    assert not was_accepted(plain)
    with pytest.raises(EmitRefusedError):
        emit_lean(plain)


def _hand_built(triple, shape, mode, p, k, t, solutions=()):
    return Certificate(EquationInstance(*triple), shape, mode, p, k, t, solutions)


def _lists(cert):
    """The lifted residues, powers and shifted values a magic-prime certificate implies."""
    return _lift(
        cert.instance, cert.mode, cert.residue, cert.order[0], cert.prime, cert.lifted_period
    )


def _magic_prime_193_for_5_3_2():
    """(5, 3, 2) built at P = 193, where a shifted value lies in <2>."""
    # x = 35 (mod 64), lifted to lcm(64, ord_193(5)) = 192
    cert = build_magic_prime_certificate(
        EquationInstance(5, 3, 2), Mode.FORWARD, 2, 8, 8, 35, 193, 192, ((1, 3), (3, 7))
    )
    assert _lists(cert)[0] == (35, 99, 163)
    return cert


def _magic_prime_11_for_10_5_3():
    """(10, 5, 3) built at P = 11, where the shifted value 4 lies in <3>.

    3^5 = 1 (mod 121), so 4 is outside <3> modulo 121: the check must work mod P.
    """
    cert = build_magic_prime_certificate(
        EquationInstance(10, 5, 3), Mode.FORWARD, 3, 1, 1, 0, 11, 2, ()
    )
    assert _lists(cert)[2] == (6, 4)
    return cert


def _residue_minus_one_for_2_7_3():
    """(2, 7, 3) with y = 1 (mod 2) stated as y = -1: the same class, lifted from -1."""
    cert = build_magic_prime_certificate(
        EquationInstance(2, 7, 3), Mode.BACKWARD, 2, 2, 2, -1, 73, 12, ((1, 2),)
    )
    assert _lists(cert)[0] == tuple(range(-1, 12, 2))
    return cert


def _edited(triple, **changes):
    """The solved certificate of `triple` with the given fields changed."""
    return dataclasses.replace(solve(EquationInstance(*triple)).certificate, **changes)


def _lift_times(factor):
    """(2, 1, 3) stating `factor` times its lift, which still returns 3 to 1 mod P."""
    lift = solve(EquationInstance(2, 1, 3)).certificate.lifted_period
    return _edited((2, 1, 3), lifted_period=lift * factor)


_DIRECT, _DIVISIBILITY = CertShape.DIRECT_MODULAR_EXCLUSION, CertShape.DIVISIBILITY_NO_SOLUTION
_COMMON, _FORWARD = CertShape.COMMON_FACTOR_BOUND, Mode.FORWARD

# The rejections that no golden mutation reaches, each on a certificate
# built to reach it: (name, factory, reason, claim index).
_REJECTIONS = [
    ("bit-length cap", lambda: _hand_built((3, 1, 2), _DIRECT, _FORWARD, 2, 100, 100),
     "modulus exceeds the supported cap", None),
    ("modulus cap", lambda: _hand_built((2, 1, 3), _DIRECT, _FORWARD, 3, 40, 40),
     "modulus exceeds the supported cap", None),
    ("constrained base", lambda: _hand_built((6, 1, 2), _DIRECT, _FORWARD, 2, 3, 3),
     "constrained base shares a factor with the modulus", None),
    ("zero power", lambda: _hand_built((3, 1, 2), _DIRECT, _FORWARD, 3, 0, 1),
     "pow_mod_eq_zero needs threshold >= 1 and modulus >= 2", 0),
    ("magic prime divides c", lambda: _edited((2, 1, 5), prime=5),
     "magic prime divides one of the parameters", 2),
    ("magic prime 193", _magic_prime_193_for_5_3_2,
     "shifted values intersect the other power cycle", 4),
    ("divisibility with solutions",
     lambda: _hand_built((2, 6, 9), _DIVISIBILITY, _FORWARD, 3, 1, 1, ((1, 1),)),
     "divisibility certificates prove there are no solutions", None),
    ("divisibility prime not dividing b",
     lambda: _hand_built((2, 1, 3), _DIVISIBILITY, _FORWARD, 3, 1, 1),
     "3 does not divide b", None),
    # 2 divides 4, 2 and 2: 2^x = 0 (mod 2) does not refute 2^1 + 2 = 4^1
    ("divisibility prime dividing both bases",
     lambda: _hand_built((2, 2, 4), _DIVISIBILITY, _FORWARD, 2, 1, 1),
     "2 divides 2 as well", 1),
    ("common factor exponent", lambda: _hand_built((2, 1, 4), _COMMON, None, 2, 5, 5),
     "bound exponent is too large to stem from b", None),
    ("common factor divides b", lambda: _hand_built((2, 4, 6), _COMMON, None, 2, 2, 2),
     "4 divides b, so no contradiction arises", None),
    # 2 divides a but not c; the proof would hide the solutions (1, 1) and (3, 2)
    ("common factor prime not dividing c", lambda: _hand_built((2, 1, 3), _COMMON, None, 2, 1, 1),
     "2 does not divide both a and c", None),
    ("missing instance",
     lambda: dataclasses.replace(_hand_built((2, 1, 3), _DIRECT, _FORWARD, 3, 1, 1), instance=None),
     "missing instance", None),
    ("unknown shape", lambda: _hand_built((2, 1, 3), "Bogus", _FORWARD, 3, 1, 1),
     "unknown certificate shape 'Bogus'", None),
    # a sound proof whose exponent is not t * v_p(c): 2^y = 0 (mod 16) for y >= 5
    ("exponent below t*v", lambda: build_direct_exclusion_certificate(
        EquationInstance(17, 3, 2), _FORWARD, 2, 4, 5, ()),
     "modulus exponent does not match the attacked bound", None),
    ("zero bound", lambda: _hand_built((3, 1, 2), _DIRECT, _FORWARD, 2, 0, 0),
     "modulus exponent does not match the attacked bound", None),
    ("common factor zero exponent", lambda: _hand_built((2, 1, 4), _COMMON, None, 2, 0, 0),
     "bound threshold must equal the modulus exponent", None),
    ("divisibility zero power", lambda: _hand_built((2, 6, 9), _DIVISIBILITY, _FORWARD, 2, 1, 1),
     "2 does not divide 9^1", 0),
    ("magic prime 11", _magic_prime_11_for_10_5_3,
     "shifted values intersect the other power cycle", 4),
    ("residue -1", _residue_minus_one_for_2_7_3,
     "congruence is not the discrete log of the target", 1),
    # hand-built certificates missing a witness field the shape needs
    ("no claim 1", lambda: _edited((5, 3, 2), order=None),
     "malformed certificate: cannot unpack non-iterable NoneType object", None),
    ("no order factors", lambda: _edited((5, 3, 2), order=(64,)),
     "malformed certificate: not enough values to unpack (expected 2, got 1)", None),
    ("no claim 4", lambda: _edited((5, 3, 2), prime_order=None),
     "malformed certificate: cannot unpack non-iterable NoneType object", None),
    ("no claim 2", lambda: _edited((5, 3, 2), prime=None),
     "malformed certificate: '>' not supported between instances of 'NoneType' and 'int'", None),
    ("no residue", lambda: _edited((5, 3, 2), residue=None),
     "malformed certificate: '<=' not supported between instances of 'int' and 'NoneType'",
     None),
    ("wrong residue", lambda: _edited((5, 3, 2), residue=34),
     "congruence is not the discrete log of the target", 1),
    ("composite magic prime", lambda: _edited((5, 3, 2), prime=255),
     "magic prime 255 is not a prime below 2^62", 2),
    # 2^62 + 135 is prime, but above certificate.MODULUS_CAP, which bounds
    # every modulus and magic prime; a reason writes no number above it in full
    ("magic prime above 2^62", lambda: _edited((2, 1, 3), prime=2**62 + 135),
     "magic prime <63-bit number> is not a prime below 2^62", 2),
    # 2^62 itself passes the size tests and is written in full
    ("witness prime 2^62", lambda: _hand_built((3, 1, 2), _DIRECT, _FORWARD, 2**62, 1, 1),
     "4611686018427387904 is not prime", None),
    # the stated lift 4 of y = 0 (mod 4) does not return 3 to 1 at these
    # primes, where a true lift would have about 2^24 and 2^30 residues:
    # none is built
    ("lift longer than listed", lambda: _edited((2, 1, 3), prime=67_108_913),
     "lifted residues do not fill the lifted period", 2),
    ("lift past memory", lambda: _edited((2, 1, 3), prime=4_294_967_357),
     "lifted residues do not fill the lifted period", 2),
    # a stated lift 2^30 times too long still returns 3 to 1; it is
    # rejected by its length before any residue is built
    ("stated lift past memory", lambda: _lift_times(2**30),
     "lift is empty or has more than 65536 residues", 2),
    # twice the lift is a lift too, but its powers repeat: only the shortest is accepted
    ("lift twice too long", lambda: _lift_times(2),
     "lifted residues repeat a power mod the magic prime", 2),
    # 2^16 residues are within the cap, so this lift is built before it is refused
    ("lift at the cap", lambda: _lift_times(LIFT_CAP),
     "lifted residues repeat a power mod the magic prime", 2),
    ("empty lift", lambda: _edited((2, 1, 3), lifted_period=0),
     "lift is empty or has more than 65536 residues", 2),
    ("lift not a multiple of the period", lambda: _edited((2, 1, 3), lifted_period=6),
     "lifted residues do not fill the lifted period", 2),
    ("no lifted residues", lambda: _edited((2, 1, 3), lifted_period=None),
     "malformed certificate: '<' not supported between instances of 'int' and 'NoneType'", None),
    ("lifted residues not a list", lambda: _edited((2, 1, 3), lifted_period=[4]),
     "malformed certificate: '<' not supported between instances of 'int' and 'list'", None),
    ("magic prime off the progression", lambda: _edited((5, 3, 2), prime=131),
     "magic prime is not 1 mod the constraint period", 2),
]


@pytest.mark.parametrize(
    "build, reason, claim_index",
    [case[1:] for case in _REJECTIONS],
    ids=[case[0] for case in _REJECTIONS],
)
def test_each_rejection_fires(build, reason, claim_index):
    cert = build()
    start = time.process_time()
    verdict = verify_certificate(cert)
    # each is decided from the stated facts, none by building a long list
    assert time.process_time() - start < 1.0
    assert verdict.accepted is False
    assert verdict.reason == reason
    assert verdict.claim_index == claim_index


# (2, 1, 3) at x >= 4 constrains y = 0 (mod 4).  At P = 20 * 65537 + 1
# the order of 3 is 4 * 65537, so the lift has 2^16 + 1 residues, one more
# than certificate.LIFT_CAP: a true lift, too long to state or to build.
_LONG_LIFT_PRIME, _LONG_LIFT = 1_310_741, 4 * (LIFT_CAP + 1)


def test_a_lift_past_the_cap_is_rejected_before_any_list(monkeypatch):
    import expodio.certificate as certificate_module
    import expodio.engine as engine_module

    def boom(*args, **kwargs):  # pragma: no cover - should never run
        raise AssertionError("a lift past the cap was built")

    instance = EquationInstance(2, 1, 3)
    assert pow(3, _LONG_LIFT, _LONG_LIFT_PRIME) == 1
    cert = _edited((2, 1, 3), prime=_LONG_LIFT_PRIME, lifted_period=_LONG_LIFT)
    monkeypatch.setattr(certificate_module, "_lift", boom)
    monkeypatch.setattr(engine_module, "_lift", boom)
    start = time.process_time()
    verdict = verify_certificate(cert)
    assert (time.process_time() - start) * 1000 < 10
    assert verdict.reason == "lift is empty or has more than 65536 residues"
    assert verdict.claim_index == 2
    assert witness_for_prime(instance, Constraint("y", 0, 4), _LONG_LIFT_PRIME) is None


# Mersenne primes of 4,423 and 11,213 bits: a primality test on either
# takes seconds, and either written out runs to thousands of digits.
_HUGE_PRIMES = {"2^4423 - 1": 2**4423 - 1, "2^11213 - 1": 2**11213 - 1}


def _forged_primes(golden_certificates):
    """Each golden below with a huge stated prime: its witness prime, or claim 2's magic prime."""
    for name, huge in _HUGE_PRIMES.items():
        for triple in ((2, 6, 9), (17, 3, 20), (2, 4, 6)):
            cert = golden_certificates[triple]
            yield f"{triple} {name}", dataclasses.replace(cert, witness_prime=huge)
        # no power of p bounds a zero exponent; the size of p itself must
        cert = golden_certificates[(17, 3, 20)]
        yield f"(17, 3, 20) {name} k=0", dataclasses.replace(
            cert, witness_prime=huge, modulus_exponent=0
        )
        yield f"(3, 7, 2) {name} magic", _edited((3, 7, 2), prime=huge)


def test_a_huge_stated_prime_is_rejected_cheaply(golden_certificates):
    for what, cert in _forged_primes(golden_certificates):
        start = time.process_time()
        verdict = verify_certificate(cert)
        elapsed = time.process_time() - start
        assert not verdict.accepted, what
        assert elapsed < 0.05, (what, elapsed)
        assert len(verdict.reason) < 200, (what, verdict.reason)


# Hostile values for every field: each integer in turn (top level, instance,
# witness, list elements) and each list in turn.  Parsing a
# list reads the type of each element, about 30 ms for 10^6 of them here.
_HOSTILE_INTS = {"2^4423 - 1": 2**4423 - 1, "4,300 digits": 10**4299 + 1, "0": 0, "-1": -1}
_HOSTILE_LIST = list(range(2, 10**6 + 2))
_INT_CPU_MS, _LIST_CPU_MS = 10, 100


def _hostile_cases(doc):
    """(path, name, value) for each hostile value of each field of `doc` that changes it."""
    for path, value in _leaf_paths(doc):
        if type(value) is int:
            for name, hostile in _HOSTILE_INTS.items():
                if hostile != value:
                    yield path, name, hostile
        elif type(value) is list:
            yield path, "10^6 integers", _HOSTILE_LIST


@pytest.mark.parametrize("shape,triple", sorted(_REPRESENTATIVES.items()))
def test_hostile_values_in_every_field_are_rejected_cheaply(shape, triple, golden_certificates):
    doc = certificate_to_dict(golden_certificates[triple])
    checked, attacked = 0, set()
    for path, name, hostile in _hostile_cases(doc):
        attacked.add(path[0])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        original, parent[path[-1]] = parent[path[-1]], hostile
        start = time.process_time()
        try:
            verdict = verify_certificate(certificate_from_dict(doc))
            accepted, reason = verdict.accepted, verdict.reason
        except MalformedCertificateError as exc:
            accepted, reason = False, str(exc)
        elapsed_ms = (time.process_time() - start) * 1000
        parent[path[-1]] = original
        what = f"{path} = {name}"
        if accepted and path == ("instance", "a") and shape == "DivisibilityNoSolution":
            # another theorem, (a', 6, 9), and the same proof: 3 divides 9
            # and 6, but not a', so a' ^ x + 6 = 9 ^ y has no solution mod 3
            assert hostile % doc["witness_prime"] != 0, what
        else:
            assert not accepted, what
        assert len(reason or "") < 200, (what, reason)
        bound = _LIST_CPU_MS if hostile is _HOSTILE_LIST else _INT_CPU_MS
        assert elapsed_ms < bound, (what, elapsed_ms)
        checked += 1
    assert verify_certificate(certificate_from_dict(doc)).accepted
    # every field that holds an integer or a list, each with every hostile value
    assert attacked == set(doc) - {"format", "shape", "mode"}, attacked
    assert checked > 20, checked


def test_common_factor_exponent_bound():
    # p^(k-1) divides b for an honest k, so k <= bit_length(b); the verifier
    # allows one more, a sound proof with a wasted step, and no further
    instance = EquationInstance(2, 1, 4)
    assert verify_certificate(build_common_factor_certificate(instance, 2, 2, ())).accepted
    verdict = verify_certificate(build_common_factor_certificate(instance, 2, 3, ()))
    assert verdict.reason == "bound exponent is too large to stem from b"


# Direct exclusions modulo 2^62, the largest supported modulus.  The order
# of 17 is 2^58 and that of 3 is 2^60, so the 2^k subgroup test decides,
# once for a base 1 (mod 4) and once for a base 3 (mod 4); one exponent
# more crosses the cap.
_AT_THE_CAP = [
    ((17, 3, 2), None),  # -3 = 13 (mod 16), and <17> = {1 mod 16}
    ((3, 1, 2), None),  # -1 = 7 (mod 8), and <3> = {1, 3 mod 8}
    ((17, 15, 2), "target actually lies in the power cycle"),
    ((3, 5, 2), "target actually lies in the power cycle"),
]


@pytest.mark.parametrize("triple, reason", _AT_THE_CAP, ids=[str(c[0]) for c in _AT_THE_CAP])
def test_direct_exclusion_at_the_modulus_cap(triple, reason):
    instance = EquationInstance(*triple)
    for k, want, index in ((62, reason, 1), (63, "modulus exceeds the supported cap", None)):
        cert = build_direct_exclusion_certificate(
            instance, Mode.FORWARD, 2, k, k, final_enumeration(instance, "y", k)
        )
        verdict = verify_certificate(cert)
        assert verdict.accepted is (want is None), (k, verdict)
        assert verdict.reason == want, k
        assert verdict.claim_index == (index if want else None), k


# Direct exclusions whose target does lie in the cycle: -15 in <17> modulo
# 2^62, and -1 = 2^3 modulo 9.  A certificate stating order 5 would make
# each target t look outside, as t^5 != 1; base^5 != 1 exposes the wrong
# order first.
@pytest.mark.parametrize(
    "triple, p, k", [((17, 15, 2), 2, 62), ((2, 1, 3), 3, 2)], ids=["mod 2^62", "mod 9"]
)
def test_a_wrong_order_cannot_hide_a_cycle_member(triple, p, k):
    instance = EquationInstance(*triple)
    cert = build_direct_exclusion_certificate(
        instance, Mode.FORWARD, p, k, k, final_enumeration(instance, "y", k)
    )
    verdict = verify_certificate(cert)
    assert (verdict.reason, verdict.claim_index) == ("target actually lies in the power cycle", 1)
    verdict = verify_certificate(dataclasses.replace(cert, order=(5, (5,))))
    assert not verdict.accepted
    assert verdict.reason == "stated order is not the order of the base"
    assert verdict.claim_index == 1


# Ways to misstate an order K with prime factors ps (ascending, at least
# two) modulo M, each as the (order, order_factors) a claim would state.
_WRONG_ORDERS = {
    "proper multiple": lambda K, ps, M: (K * ps[0], ps),
    "proper divisor": lambda K, ps, M: (
        K // ps[-1], tuple(q for q in ps if K // ps[-1] % q == 0)
    ),
    "missing prime": lambda K, ps, M: (K, ps[1:]),
    "composite factor": lambda K, ps, M: (K, (ps[0] * ps[1], *ps[2:])),
    # a prime above ps[-1] divides no K whose primes ps lists in full
    "non-divisor": lambda K, ps, M: (K, (*ps, next(r for r in (5, 11) if r > ps[-1]))),
    "unsorted": lambda K, ps, M: (K, ps[::-1]),
    "duplicated": lambda K, ps, M: (K, (ps[0], *ps)),
    "not below the modulus": lambda K, ps, M: (M, ps),
}

# (triple, field, claim index): order 6 = 2 * 3 modulo 13 for a direct
# exclusion, and the golden magic prime's 147 = 3 * 7 modulo 7^3 in claim
# 1 and modulo P = 2647 in claim 4
_STATED_ORDERS = {
    "direct exclusion": ((13, 2, 17), "order", 1),
    "magic prime K": ((2, 89, 91), "order", 1),
    "magic prime D": ((2, 89, 91), "prime_order", 4),
}


@pytest.mark.parametrize("wrong", sorted(_WRONG_ORDERS))
@pytest.mark.parametrize("case", sorted(_STATED_ORDERS))
def test_a_wrong_order_is_rejected_at_its_claim(case, wrong):
    triple, field, index = _STATED_ORDERS[case]
    cert = solve(EquationInstance(*triple)).certificate
    K, ps = getattr(cert, field)
    modulus = cert.prime if field == "prime_order" else cert.witness_prime**cert.modulus_exponent
    assert len(ps) >= 2
    order, primes = _WRONG_ORDERS[wrong](K, ps, modulus)
    assert (order, primes) != (K, ps)
    verdict = verify_certificate(_edited(triple, **{field: (order, primes)}))
    assert not verdict.accepted
    assert verdict.reason == "stated order is not the order of the base"
    assert verdict.claim_index == index


def test_a_kernel_fault_shared_with_the_solver_is_caught(monkeypatch):
    # a common-mode fault: arith.multiplicative_order returns twice the
    # order for the solver, the builders and the verifier alike.  The
    # verifier must accept no certificate that it rejects with the kernel
    # intact, and none that states a doubled order.
    true_order = arith.multiplicative_order
    with monkeypatch.context() as patched:
        patched.setattr(arith, "multiplicative_order", lambda base, m: 2 * true_order(base, m))
        solved = [solve(EquationInstance(*triple)).certificate for triple in iter_cube(12, 12, 12)]
        faulty = [verify_certificate(cert).accepted for cert in solved]
    assert len(solved) == 1452
    wrongly_accepted = [
        cert.instance for cert, accepted in zip(solved, faulty)
        if accepted and not verify_certificate(cert).accepted
    ]
    assert wrongly_accepted == []
    for cert, accepted in zip(solved, faulty):
        if not accepted or cert.order is None:
            continue
        zero_base, _, con_base, _ = _sides(cert.instance, cert.mode)
        modulus = cert.witness_prime**cert.modulus_exponent
        assert cert.order[0] == true_order(con_base % modulus, modulus)
        if cert.prime_order is not None:
            assert cert.prime_order[0] == true_order(zero_base % cert.prime, cert.prime)
