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
module's `_sides`, `_expected_target` and `_lift`.  Each shape has one
builder, which states each fact once, as a local, and returns the prose
and the script together: a render makes one `_lift` call, whichever of
`emit_lean`, `emit_text` or `write_proof_files` asked for it.  Every line
that never depends on the certificate is literal text in the module.

Rendering is deterministic: the same certificate always produces the
same bytes.  Only certificates accepted by the independent verifier are
rendered at all.  Certificates are immutable, so a renderer reuses the
verifier's latest acceptance when it was of the same object and runs the
verifier otherwise: verifying and then rendering verifies once.
"""

from __future__ import annotations

from pathlib import Path

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


# ---------------------------------------------------------------------------
# The prose, one sentence per line, as placed in the comment block.


def _opening(header: str, equation: str) -> str:
    return f"{header}   {equation}\nFor positive integers x, y satisfying {equation},\n"


def _conclusion(cert: Certificate, equation: str) -> str:
    if cert.bound_threshold <= 1:
        return f"So {equation} is impossible."
    if not cert.solutions:
        return f"Further examination shows that {equation} is impossible."
    return f"Further examination shows that (x, y) = {_pair_list(cert.solutions)}."


# A magic prime's last sentence keeps this on its line within the wrap column.
_IMPOSSIBLE = "but this is impossible."


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


# ---------------------------------------------------------------------------
# One builder per shape: (cert, equation text, goal) -> (prose, script).


def _divisibility(cert: Certificate, equation: str, goal: str) -> tuple[str, str]:
    inst, mode = cert.instance, cert.mode
    p = cert.witness_prime**cert.modulus_exponent
    zero_base, zero_var, con_base, con_var = _sides(inst, mode)
    con_power = f"{con_base} ^ {con_var}"
    congruence = f"{con_power} % {p} = {_expected_target(inst, mode, p)}"
    case = "Type i" if mode is _FORWARD else "Type ii"
    prose = (
        f"{_opening(f'(Class I, {case})', equation)}"
        f"this is impossible, because it implies that {con_power} = 0 (mod {p})."
    )
    script = (
        f"  have h6 := Claim ({zero_base} ^ {zero_var} % {p} = 0) [\n"
        f"{_EXPONENT[zero_var]}\n"
        '  ] "pow_mod_eq_zero"\n'
        f"  have h7 : {congruence} := by omega\n"
        "  have h8 := Claim False [\n"
        f"{_EXPONENT[con_var]}\n"
        f"{_premise(congruence, 'h7')}\n"
        '  ] "observe_mod_cycle"\n'
        "  exact h8"
    )
    return prose, script


def _common_factor(cert: Certificate, equation: str, goal: str) -> tuple[str, str]:
    inst, k = cert.instance, cert.modulus_exponent
    modulus = cert.witness_prime**k
    prose = (
        f"{_opening('(Class I, Type iii)', equation)}"
        f"if x >= {k} and y >= {k},\n"
        f"{inst.b} = 0 (mod {modulus}), which is impossible.\n"
        f"Therefore, x < {k} or y < {k}.\n"
        f"{_conclusion(cert, equation)}"
    )
    bound_prop = f"Or (x <= {k - 1}) (y <= {k - 1})"
    script = (
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
        f"{_enumeration(goal, _premise(equation, 'h3'), bound_prop)}"
    )
    return prose, script


def _exclusion(cert: Certificate, equation: str, goal: str) -> tuple[str, str]:
    """Direct and magic-prime proofs share one template.

    A magic prime adds claims 2-4 (utilize, compute, exhaust), and claim 1
    then states the residue congruence instead of False.
    """
    inst, mode, t = cert.instance, cert.mode, cert.bound_threshold
    modulus = cert.witness_prime**cert.modulus_exponent
    zero_base, bound_var, con_base, con_var = _sides(inst, mode)
    bound_power, con_power = f"{zero_base} ^ {bound_var}", f"{con_base} ^ {con_var}"
    target = _expected_target(inst, mode, modulus)
    congruence = f"{con_power} % {modulus} = {target}"
    equation_premise = _premise(equation, "h3")
    side = "Front Mode" if mode is _FORWARD else "Back Mode"
    if cert.shape is _DIRECT:
        header = f"(Class II, {side}, no magic prime)"
        refutation = "However, this is impossible."
        script_refutation = (
            "  have h9 := Claim False [\n"
            f"{_EXPONENT[con_var]}\n"
            f"{_premise(congruence, 'h8')}\n"
            '  ] "observe_mod_cycle"\n'
            "  apply False.elim h9"
        )
    else:
        prime, residue, period = cert.prime, cert.residue, cert.order[0]
        lifted, powers, shifts = _lift(inst, mode, residue, period, prime, cert.lifted_period)
        values, shifted = _int_list(powers), _int_list(shifts)
        order = arith.multiplicative_order(con_base % prime, prime)
        header = f"(Class II, {side}, with magic prime {prime})"
        # Power values mod P only depend on the exponent mod ord_P(base);
        # report the residues modulo that order when it differs from K.
        if order == period:
            cycle = f"So {con_var} = {residue} (mod {period})."
        else:
            reduced = _int_list([r % order for r in lifted])
            cycle = (
                f"So {con_var} = {residue} (mod {period}),\n"
                f"which implies {con_var} = {reduced} (mod {order})."
            )
        impossible = f"So {bound_power} = {shifted} (mod {prime}),"
        wrap = "\n" if len(impossible) + 1 + len(_IMPOSSIBLE) > _WRAP_COLUMN else " "
        refutation = (
            f"{cycle}\n"
            f"Therefore, {con_power} = {values} (mod {prime}).\n"
            f"{impossible}{wrap}{_IMPOSSIBLE}"
        )
        statement = f"{con_var} % {period} = {residue}"
        value_mem = f"List.Mem ({con_power} % {prime}) [{values}]"
        shift_mem = f"List.Mem ({bound_power} % {prime}) [{shifted}]"
        shift_kind = "compute_mod_add" if mode is _FORWARD else "compute_mod_sub"
        script_refutation = (
            f"  have h9 := Claim ({statement}) [\n"
            f"{_EXPONENT[con_var]}\n"
            f"{_premise(congruence, 'h8')}\n"
            '  ] "observe_mod_cycle"\n'
            f"{_listing_head('h10', value_mem)}\n"
            f"{_EXPONENT[con_var]}\n"
            f"{_premise(statement, 'h9')}\n"
            '  ] "utilize_mod_cycle"\n'
            f"{_listing_head('h11', shift_mem)}\n"
            f"{_premise(value_mem, 'h10')}\n"
            f"{equation_premise}\n"
            f'  ] "{shift_kind}"\n'
            "  have h12 := Claim False [\n"
            f"{_EXPONENT[bound_var]}\n"
            f"{_premise(shift_mem, 'h11')}\n"
            '  ] "exhaust_mod_cycle"\n'
            "  apply False.elim h12"
        )
    prose = (
        f"{_opening(header, equation)}"
        f"if {bound_var} >= {t}, {con_power} = {target} (mod {modulus}).\n"
        f"{refutation}\n"
        f"Therefore, {bound_var} < {t}.\n"
        f"{_conclusion(cert, equation)}"
    )
    script = (
        f"  by_cases h6 : {bound_var} >= {t}\n"
        f"  have h7 := Claim ({bound_power} % {modulus} = 0) [\n"
        f"{_MOD_ONE[bound_var]}\n"
        f"{_premise(f'{bound_var} >= {t}', 'h6')}\n"
        '  ] "pow_mod_eq_zero"\n'
        f"  have h8 : {congruence} := by omega\n"
        f"{script_refutation}\n"
        f"{_enumeration(goal, equation_premise, f'{bound_var} <= {t - 1}')}"
    )
    return prose, script


_BUILDERS = {
    _DIVISIBILITY: _divisibility,
    _COMMON_FACTOR: _common_factor,
    _DIRECT: _exclusion,
    _MAGIC_PRIME: _exclusion,
}


def _render(cert: Certificate) -> tuple[str, str]:
    """The prose proof and the Lean script of a certificate the verifier accepts."""
    _require_verified(cert)
    equation = cert.instance.equation_text()
    goal = _goal(cert)
    prose, script = _BUILDERS[cert.shape](cert, equation, goal)
    lean = (
        f"/-\n{prose}\n-/\n"
        f"theorem {theorem_name(cert)} (x : Nat) (y : Nat) (h1 : x >= 1) (h2 : y >= 1)\n"
        f"(h3 : {equation}) :\n"
        f"  {goal}\n"
        "  := by\n"
        "  have h4 : x % 1 = 0 := Nat.mod_one x\n"
        "  have h5 : y % 1 = 0 := Nat.mod_one y\n"
        f"{script}\n"
    )
    return prose + "\n", lean


def emit_text(cert: Certificate) -> str:
    """Deterministic prose proof for a verified certificate."""
    return _render(cert)[0]


def emit_lean(cert: Certificate) -> str:
    """Deterministic Lean proof script for a verified certificate, led by the prose as a comment."""
    return _render(cert)[1]


def write_proof_files(cert: Certificate, directory: str | Path) -> list[Path]:
    """Write the prelude, <theorem>.lean and <theorem>.txt from one render; none if rejected."""
    text, lean = _render(cert)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = theorem_name(cert)
    written = [directory / PRELUDE_FILENAME, directory / f"{name}.lean", directory / f"{name}.txt"]
    for path, content in zip(written, (PRELUDE, lean, text)):
        path.write_text(content, encoding="utf-8", newline="\n")
    return written
