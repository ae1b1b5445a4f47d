"""Render verified certificates as prose proofs and Lean proof scripts.

Each script states the instance hypotheses (h1: x >= 1, h2: y >= 1,
h3: the equation), splits on the excluded bound where one exists, and
discharges every computational fact through the `Claim` axiom, naming
the revalidator that can re-check it.  A shared prelude file declares
the `VerifiedFact` structure and the `Claim` axiom.  The scripts are
outlines, not kernel-checked proofs: `Claim` accepts any `Prop`, so
`Claim False [] ""` proves `False`.  Each step rests on the verifier's
acceptance of the certificate, and no Lean kernel checks the scripts.
Direct and magic-prime proofs share one template, prose and Lean alike:
the magic prime only adds its three claims about the prime P.

The templates are the one statement of each shape's claim chain; the
verifier's claim indices number its steps as they do.  A certificate
states only its witness, so a render derives the rest with the trusted
module's `_sides`, `_expected_target` and `_lift`.  Each fact and list is
computed once per render, by `_facts`, and both the prose builder and the
script builder read it from there: one `_lift` per `emit_lean` or
`emit_text`.  Every line that never depends on the certificate is
literal text in the module.

Rendering is deterministic: the same certificate always produces the
same bytes.  Only certificates accepted by the independent verifier are
rendered at all.  Certificates are immutable, so a renderer reuses the
verifier's latest acceptance when it was of the same object and runs the
verifier otherwise: verifying and then rendering, or rendering both
outputs, verifies once.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from . import arith
from .certificate import (
    _COMMON_FACTOR,
    _DIRECT,
    _DIVISIBILITY,
    _FORWARD,
    _MAGIC_PRIME,
    Certificate,
    _expected_target,
    _lift,
    _sides,
    verify_certificate,
    was_accepted,
)

_WRAP_COLUMN = 80

PRELUDE_FILENAME = "prelude.lean"

PRELUDE = """\
-- Shared declarations for generated diophantine1 proof scripts.

structure VerifiedFact where
  prop : Prop
  proof : prop

axiom Claim (prop_to_claim : Prop)
  (verified_facts : List VerifiedFact)
  (revalidator : String)
  : prop_to_claim
"""


class EmitRefusedError(Exception):
    """Raised when asked to render a certificate the verifier rejects."""


def theorem_name(cert: Certificate) -> str:
    inst = cert.instance
    return f"diophantine1_{inst.a}_{inst.b}_{inst.c}"


def _require_verified(cert: Certificate) -> None:
    if was_accepted(cert):
        return
    verdict = verify_certificate(cert)
    if not verdict.accepted:
        raise EmitRefusedError(f"refusing to render a rejected certificate: {verdict.reason}")


def _int_list(values) -> str:
    return ", ".join(map(str, values))


def _pair_list(solutions) -> str:
    return ", ".join(f"({x}, {y})" for x, y in solutions)


class _Facts(NamedTuple):
    """The facts a render's prose and script state, numbers as text.

    The modulus is p^k.  A certificate with a mode adds the target forced
    mod p^k and its two sides: the zeroed side's power and variable and the
    constrained side's, as `2 ^ x` and `x`.  A magic prime adds P, the
    order of the constrained base mod P, and from `_lift` the lifted
    residues and the text of the powers and the shifted values.
    """

    equation: str
    modulus: str
    target: str | None = None
    zero_power: str | None = None
    zero_var: str | None = None
    con_power: str | None = None
    con_var: str | None = None
    prime: str | None = None
    order: int | None = None
    lifted: list[int] | None = None
    values: str | None = None
    shifted: str | None = None


def _facts(cert: Certificate) -> _Facts:
    """Each fact of a render, computed once: one `_lift` for a magic prime."""
    inst, mode = cert.instance, cert.mode
    equation = inst.equation_text()
    modulus = cert.witness_prime**cert.modulus_exponent
    if mode is None:
        return _Facts(equation, str(modulus))
    zero_base, zero_var, con_base, con_var = _sides(inst, mode)
    sides = (
        str(_expected_target(inst, mode, modulus)),
        f"{zero_base} ^ {zero_var}",
        zero_var,
        f"{con_base} ^ {con_var}",
        con_var,
    )
    if cert.shape is not _MAGIC_PRIME:
        return _Facts(equation, str(modulus), *sides)
    prime = cert.prime
    lifted, values, shifted = _lift(
        inst, mode, cert.residue, cert.order[0], prime, cert.lifted_period
    )
    order = arith.multiplicative_order(con_base % prime, prime)
    magic = str(prime), order, lifted, _int_list(values), _int_list(shifted)
    return _Facts(equation, str(modulus), *sides, *magic)


# ---------------------------------------------------------------------------
# The prose, one sentence per line, as placed in the comment block: each
# shape's builder returns it whole.


def _opening(header: str, equation: str) -> str:
    return f"{header}   {equation}\nFor positive integers x, y satisfying {equation},\n"


def _conclusion(cert: Certificate, equation: str) -> str:
    if cert.bound_threshold <= 1:
        return f"So {equation} is impossible."
    if not cert.solutions:
        return f"Further examination shows that {equation} is impossible."
    return f"Further examination shows that (x, y) = {_pair_list(cert.solutions)}."


def _narrative_divisibility(cert: Certificate, facts: _Facts) -> str:
    case = "Type i" if cert.mode is _FORWARD else "Type ii"
    power, p = facts.con_power, facts.modulus
    return (
        f"{_opening(f'(Class I, {case})', facts.equation)}"
        f"this is impossible, because it implies that {power} = 0 (mod {p})."
    )


def _narrative_common_factor(cert: Certificate, facts: _Facts) -> str:
    equation = facts.equation
    k = cert.modulus_exponent
    return (
        f"{_opening('(Class I, Type iii)', equation)}"
        f"if x >= {k} and y >= {k},\n"
        f"{cert.instance.b} = 0 (mod {facts.modulus}), which is impossible.\n"
        f"Therefore, x < {k} or y < {k}.\n"
        f"{_conclusion(cert, equation)}"
    )


# A magic prime's last sentence keeps this on its line within the wrap column.
_IMPOSSIBLE = "but this is impossible."


def _narrative_exclusion(cert: Certificate, facts: _Facts) -> str:
    equation = facts.equation
    bound_var, con_power, con_var = facts.zero_var, facts.con_power, facts.con_var
    side = "Front Mode" if cert.mode is _FORWARD else "Back Mode"
    t = cert.bound_threshold
    if facts.prime is None:
        header = f"(Class II, {side}, no magic prime)"
        refutation = "However, this is impossible."
    else:
        prime, order = facts.prime, facts.order
        header = f"(Class II, {side}, with magic prime {prime})"
        residue, period = cert.residue, cert.order[0]
        # Power values mod P only depend on the exponent mod ord_P(base);
        # report the residues modulo that order when it differs from K.
        if order == period:
            congruence = f"So {con_var} = {residue} (mod {period})."
        else:
            reduced = _int_list([r % order for r in facts.lifted])
            congruence = (
                f"So {con_var} = {residue} (mod {period}),\n"
                f"which implies {con_var} = {reduced} (mod {order})."
            )
        impossible = f"So {facts.zero_power} = {facts.shifted} (mod {prime}),"
        wrap = "\n" if len(impossible) + 1 + len(_IMPOSSIBLE) > _WRAP_COLUMN else " "
        refutation = (
            f"{congruence}\n"
            f"Therefore, {con_power} = {facts.values} (mod {prime}).\n"
            f"{impossible}{wrap}{_IMPOSSIBLE}"
        )
    return (
        f"{_opening(header, equation)}"
        f"if {bound_var} >= {t}, {con_power} = {facts.target} (mod {facts.modulus}).\n"
        f"{refutation}\n"
        f"Therefore, {bound_var} < {t}.\n"
        f"{_conclusion(cert, equation)}"
    )


# ---------------------------------------------------------------------------
# The Lean script: each builder returns the script's lines after the
# prologue, as one text.  A claim block is its `have ... := Claim` head,
# one line per premise and a `] "revalidator"` line; only a premise, or a
# head whose statement holds a list, can pass the wrap column.


def _premise(prop: str, proof: str) -> str:
    """One premise of a claim; past the wrap column, its proof goes on a line of its own."""
    line = f"    {{prop := {prop}, proof := {proof}}},"
    if len(line) > _WRAP_COLUMN:
        return f"    {{prop := {prop},\n    proof := {proof}}},"
    return line


# The premises each claim about an exponent starts from, proved by the
# hypotheses of the prologue: var % 1 = 0 alone, and with var >= 1.
_MOD_ONE = {
    "x": "    {prop := x % 1 = 0, proof := h4},",
    "y": "    {prop := y % 1 = 0, proof := h5},",
}
_EXPONENT = {
    "x": _MOD_ONE["x"] + "\n    {prop := x >= 1, proof := h1},",
    "y": _MOD_ONE["y"] + "\n    {prop := y >= 1, proof := h2},",
}


def _listing_head(handle: str, statement: str) -> str:
    """The head of a claim whose statement may end in a list, which breaks past the wrap column."""
    if statement == "False":
        return f"  have {handle} := Claim False ["
    head = f"  have {handle} := Claim ({statement}) ["
    if len(head) > _WRAP_COLUMN:
        stem, _, values = statement.partition(" [")
        return f"  have {handle} := Claim ({stem}\n  [{values}) ["
    return head


def _goal(cert: Certificate) -> str:
    if not cert.solutions:
        return "False"
    return f"List.Mem (x, y) [{_pair_list(cert.solutions)}]"


def _enumeration(goal: str, equation_premise: str, bound_prop: str) -> str:
    """The closing lines: the bound, the enumeration claim under it, and the proof's end."""
    return (
        f"  have h7 : {bound_prop} := by omega\n"
        f"{_listing_head('h8', goal)}\n"
        f"{_EXPONENT['x']}\n"
        f"{_EXPONENT['y']}\n"
        f"{equation_premise}\n"
        f"{_premise(bound_prop, 'h7')}\n"
        '  ] "diophantine1_enumeration"\n'
        "  exact h8"
    )


def _script_divisibility(cert: Certificate, facts: _Facts, goal: str) -> str:
    p = facts.modulus
    congruence = f"{facts.con_power} % {p} = {facts.target}"
    return (
        f"  have h6 := Claim ({facts.zero_power} % {p} = 0) [\n"
        f"{_EXPONENT[facts.zero_var]}\n"
        '  ] "pow_mod_eq_zero"\n'
        f"  have h7 : {congruence} := by omega\n"
        "  have h8 := Claim False [\n"
        f"{_EXPONENT[facts.con_var]}\n"
        f"{_premise(congruence, 'h7')}\n"
        '  ] "observe_mod_cycle"\n'
        "  exact h8"
    )


def _script_common_factor(cert: Certificate, facts: _Facts, goal: str) -> str:
    modulus = facts.modulus
    inst = cert.instance
    k = cert.modulus_exponent
    bound_prop = f"Or (x <= {k - 1}) (y <= {k - 1})"
    return (
        f"  by_cases h6 : And (x >= {k}) (y >= {k})\n"
        f"  have h7 := Claim ({inst.a} ^ x % {modulus} = 0) [\n"
        f"{_MOD_ONE['x']}\n"
        f"{_premise(f'x >= {k}', 'h6.left')}\n"
        '  ] "pow_mod_eq_zero"\n'
        f"  have h8 := Claim ({inst.c} ^ y % {modulus} = 0) [\n"
        f"{_MOD_ONE['y']}\n"
        f"{_premise(f'y >= {k}', 'h6.right')}\n"
        '  ] "pow_mod_eq_zero"\n'
        "  omega\n"
        f"{_enumeration(goal, _premise(facts.equation, 'h3'), bound_prop)}"
    )


def _script_exclusion(cert: Certificate, facts: _Facts, goal: str) -> str:
    """Direct and magic-prime proofs share one template.

    A magic prime adds claims 2-4 (utilize, compute, exhaust), and claim 1
    then states the residue congruence instead of False.
    """
    modulus, bound_power = facts.modulus, facts.zero_power
    bound_var, con_power, con_var = facts.zero_var, facts.con_power, facts.con_var
    t = cert.bound_threshold
    congruence = f"{con_power} % {modulus} = {facts.target}"
    equation_premise = _premise(facts.equation, "h3")
    if facts.prime is None:
        refutation = (
            "  have h9 := Claim False [\n"
            f"{_EXPONENT[con_var]}\n"
            f"{_premise(congruence, 'h8')}\n"
            '  ] "observe_mod_cycle"\n'
            "  apply False.elim h9"
        )
    else:
        prime = facts.prime
        statement = f"{con_var} % {cert.order[0]} = {cert.residue}"
        values = f"List.Mem ({con_power} % {prime}) [{facts.values}]"
        shifted = f"List.Mem ({bound_power} % {prime}) [{facts.shifted}]"
        shift_kind = "compute_mod_add" if cert.mode is _FORWARD else "compute_mod_sub"
        refutation = (
            f"  have h9 := Claim ({statement}) [\n"
            f"{_EXPONENT[con_var]}\n"
            f"{_premise(congruence, 'h8')}\n"
            '  ] "observe_mod_cycle"\n'
            f"{_listing_head('h10', values)}\n"
            f"{_EXPONENT[con_var]}\n"
            f"{_premise(statement, 'h9')}\n"
            '  ] "utilize_mod_cycle"\n'
            f"{_listing_head('h11', shifted)}\n"
            f"{_premise(values, 'h10')}\n"
            f"{equation_premise}\n"
            f'  ] "{shift_kind}"\n'
            "  have h12 := Claim False [\n"
            f"{_EXPONENT[bound_var]}\n"
            f"{_premise(shifted, 'h11')}\n"
            '  ] "exhaust_mod_cycle"\n'
            "  apply False.elim h12"
        )
    return (
        f"  by_cases h6 : {bound_var} >= {t}\n"
        f"  have h7 := Claim ({bound_power} % {modulus} = 0) [\n"
        f"{_MOD_ONE[bound_var]}\n"
        f"{_premise(f'{bound_var} >= {t}', 'h6')}\n"
        '  ] "pow_mod_eq_zero"\n'
        f"  have h8 : {congruence} := by omega\n"
        f"{refutation}\n"
        f"{_enumeration(goal, equation_premise, f'{bound_var} <= {t - 1}')}"
    )


# Each shape's (prose builder, script builder).
_BUILDERS = {
    _DIVISIBILITY: (_narrative_divisibility, _script_divisibility),
    _COMMON_FACTOR: (_narrative_common_factor, _script_common_factor),
    _DIRECT: (_narrative_exclusion, _script_exclusion),
    _MAGIC_PRIME: (_narrative_exclusion, _script_exclusion),
}


def emit_text(cert: Certificate) -> str:
    """Deterministic prose proof for a verified certificate."""
    _require_verified(cert)
    narrative = _BUILDERS[cert.shape][0]
    return narrative(cert, _facts(cert)) + "\n"


def emit_lean(cert: Certificate) -> str:
    """Deterministic Lean proof script for a verified certificate, led by the prose as a comment."""
    _require_verified(cert)
    narrative, script = _BUILDERS[cert.shape]
    facts = _facts(cert)
    goal = _goal(cert)
    return (
        f"/-\n{narrative(cert, facts)}\n-/\n"
        f"theorem {theorem_name(cert)} (x : Nat) (y : Nat) (h1 : x >= 1) (h2 : y >= 1)\n"
        f"(h3 : {facts.equation}) :\n"
        f"  {goal}\n"
        "  := by\n"
        "  have h4 : x % 1 = 0 := Nat.mod_one x\n"
        "  have h5 : y % 1 = 0 := Nat.mod_one y\n"
        f"{script(cert, facts, goal)}\n"
    )


def write_proof_files(
    cert: Certificate,
    directory: str | Path,
    lean: bool = True,
    text: bool = True,
) -> list[Path]:
    """Write <theorem>.lean / <theorem>.txt (and the prelude) into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    name = theorem_name(cert)
    if lean:
        prelude_path = directory / PRELUDE_FILENAME
        prelude_path.write_text(PRELUDE, encoding="utf-8", newline="\n")
        path = directory / f"{name}.lean"
        path.write_text(emit_lean(cert), encoding="utf-8", newline="\n")
        written.extend([prelude_path, path])
    if text:
        path = directory / f"{name}.txt"
        path.write_text(emit_text(cert), encoding="utf-8", newline="\n")
        written.append(path)
    return written
