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
states only its witness, so the templates compute the forced target with
`_expected_target` and a magic prime's lifted residues, powers and
shifted values with `_lift`, both from the trusted module.

Rendering is deterministic: the same certificate always produces the
same bytes.  Only certificates accepted by the independent verifier are
rendered at all.  Certificates are immutable, so a renderer reuses the
verifier's latest acceptance when it was of the same object and runs the
verifier otherwise: verifying and then rendering, or rendering both
outputs, verifies once.
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


def _case_header(cert: Certificate) -> str:
    if cert.shape is _DIVISIBILITY:
        case = "Type i" if cert.mode is _FORWARD else "Type ii"
        return f"(Class I, {case})"
    if cert.shape is _COMMON_FACTOR:
        return "(Class I, Type iii)"
    side = "Front Mode" if cert.mode is _FORWARD else "Back Mode"
    if cert.shape is _DIRECT:
        return f"(Class II, {side}, no magic prime)"
    return f"(Class II, {side}, with magic prime {cert.prime})"


def _conclusion_lines(cert: Certificate, equation: str) -> list[str]:
    if cert.bound_threshold <= 1:
        return [f"So {equation} is impossible."]
    if not cert.solutions:
        return [f"Further examination shows that {equation} is impossible."]
    return [f"Further examination shows that (x, y) = {_pair_list(cert.solutions)}."]


def _magic_lists(cert: Certificate):
    """The lifted residues, powers and shifted values of a magic-prime certificate."""
    return _lift(
        cert.instance, cert.mode, cert.residue, cert.order[0], cert.prime, cert.lifted_period
    )


def _narrative(cert: Certificate, equation: str) -> list[str]:
    """The prose proof, one sentence per line, as placed in the comment block."""
    inst = cert.instance
    lines = [
        f"{_case_header(cert)}   {equation}",
        f"For positive integers x, y satisfying {equation},",
    ]
    if cert.shape is _DIVISIBILITY:
        side = f"{inst.a} ^ x" if cert.mode is _FORWARD else f"{inst.c} ^ y"
        lines.append(
            f"this is impossible, because it implies that {side} = 0 (mod {cert.witness_prime})."
        )
        return lines

    if cert.shape is _COMMON_FACTOR:
        k = cert.modulus_exponent
        modulus = cert.witness_prime**k
        lines.append(f"if x >= {k} and y >= {k},")
        lines.append(f"{inst.b} = 0 (mod {modulus}), which is impossible.")
        lines.append(f"Therefore, x < {k} or y < {k}.")
        lines.extend(_conclusion_lines(cert, equation))
        return lines

    t = cert.bound_threshold
    modulus = cert.witness_prime**cert.modulus_exponent
    bound_base, bound_var, con_base, con_var = _sides(cert.instance, cert.mode)
    target = _expected_target(cert.instance, cert.mode, modulus)
    lines.append(f"if {bound_var} >= {t}, {con_base} ^ {con_var} = {target} (mod {modulus}).")
    if cert.shape is _DIRECT:
        lines.append("However, this is impossible.")
    else:
        lifted, values, shifted = _magic_lists(cert)
        residue, period, prime = cert.residue, cert.order[0], cert.prime
        # Power values mod P only depend on the exponent mod ord_P(base);
        # report the residues modulo that order when it differs from K.
        order = arith.multiplicative_order(con_base % prime, prime)
        if order == period:
            lines.append(f"So {con_var} = {residue} (mod {period}).")
        else:
            reduced = [r % order for r in lifted]
            lines.append(f"So {con_var} = {residue} (mod {period}),")
            lines.append(f"which implies {con_var} = {_int_list(reduced)} (mod {order}).")
        lines.append(f"Therefore, {con_base} ^ {con_var} = {_int_list(values)} (mod {prime}).")
        impossible = (
            f"So {bound_base} ^ {bound_var} = "
            f"{_int_list(shifted)} (mod {prime}), but this is impossible."
        )
        if len(impossible) > _WRAP_COLUMN:
            head = impossible[: -len(" but this is impossible.")]
            lines.append(head)
            lines.append("but this is impossible.")
        else:
            lines.append(impossible)
    lines.append(f"Therefore, {bound_var} < {t}.")
    lines.extend(_conclusion_lines(cert, equation))
    return lines


# ---------------------------------------------------------------------------
# Lean script assembly: each builder returns the script's lines after the
# prologue, written out as they read.  A claim block is its `have ... :=
# Claim` head, one line per premise and a `] "revalidator"` line; only a
# premise, or a head whose statement holds a list, can pass the wrap column.


def _premise(prop: str, proof: str) -> str:
    """One premise of a claim; past the wrap column, its proof goes on a line of its own."""
    line = f"    {{prop := {prop}, proof := {proof}}},"
    if len(line) > _WRAP_COLUMN:
        return f"    {{prop := {prop},\n    proof := {proof}}},"
    return line


# The premises each claim about an exponent starts from, with the
# hypotheses of the prologue that prove them, rendered once.
_EXPONENT = {
    var: (_premise(f"{var} % 1 = 0", mod_one), _premise(f"{var} >= 1", positive))
    for var, mod_one, positive in (("x", "h4", "h1"), ("y", "h5", "h2"))
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


def _prologue(cert: Certificate, equation: str) -> str:
    return (
        f"theorem {theorem_name(cert)} (x : Nat) (y : Nat) (h1 : x >= 1) (h2 : y >= 1)\n"
        f"(h3 : {equation}) :\n"
        f"  {_goal(cert)}\n"
        "  := by\n"
        "  have h4 : x % 1 = 0 := Nat.mod_one x\n"
        "  have h5 : y % 1 = 0 := Nat.mod_one y"
    )


def _enumeration(cert: Certificate, equation: str, bound_prop: str) -> tuple[str, ...]:
    """The closing lines: the bound, the enumeration claim under it, and the proof's end."""
    return (
        f"  have h7 : {bound_prop} := by omega",
        _listing_head("h8", _goal(cert)),
        *_EXPONENT["x"],
        *_EXPONENT["y"],
        _premise(equation, "h3"),
        _premise(bound_prop, "h7"),
        '  ] "diophantine1_enumeration"',
        "  exact h8",
    )


def _script_divisibility(cert: Certificate, equation: str) -> list[str]:
    p = cert.witness_prime
    zero_base, zero_var, other_base, other_var = _sides(cert.instance, cert.mode)
    target = _expected_target(cert.instance, cert.mode, p)
    congruence = f"{other_base} ^ {other_var} % {p} = {target}"
    return [
        f"  have h6 := Claim ({zero_base} ^ {zero_var} % {p} = 0) [",
        *_EXPONENT[zero_var],
        '  ] "pow_mod_eq_zero"',
        f"  have h7 : {congruence} := by omega",
        "  have h8 := Claim False [",
        *_EXPONENT[other_var],
        _premise(congruence, "h7"),
        '  ] "observe_mod_cycle"',
        "  exact h8",
    ]


def _script_common_factor(cert: Certificate, equation: str) -> list[str]:
    inst = cert.instance
    k = cert.modulus_exponent
    modulus = cert.witness_prime**k
    return [
        f"  by_cases h6 : And (x >= {k}) (y >= {k})",
        f"  have h7 := Claim ({inst.a} ^ x % {modulus} = 0) [",
        _EXPONENT["x"][0],
        _premise(f"x >= {k}", "h6.left"),
        '  ] "pow_mod_eq_zero"',
        f"  have h8 := Claim ({inst.c} ^ y % {modulus} = 0) [",
        _EXPONENT["y"][0],
        _premise(f"y >= {k}", "h6.right"),
        '  ] "pow_mod_eq_zero"',
        "  omega",
        *_enumeration(cert, equation, f"Or (x <= {k - 1}) (y <= {k - 1})"),
    ]


def _script_exclusion(cert: Certificate, equation: str) -> list[str]:
    """Direct and magic-prime proofs share one template.

    A magic prime adds claims 2-4 (utilize, compute, exhaust), and claim 1
    then states the residue congruence instead of False.
    """
    t = cert.bound_threshold
    modulus = cert.witness_prime**cert.modulus_exponent
    bound_base, bound_var, con_base, con_var = _sides(cert.instance, cert.mode)
    target = _expected_target(cert.instance, cert.mode, modulus)
    congruence = f"{con_base} ^ {con_var} % {modulus} = {target}"
    lines = [
        f"  by_cases h6 : {bound_var} >= {t}",
        f"  have h7 := Claim ({bound_base} ^ {bound_var} % {modulus} = 0) [",
        _EXPONENT[bound_var][0],
        _premise(f"{bound_var} >= {t}", "h6"),
        '  ] "pow_mod_eq_zero"',
        f"  have h8 : {congruence} := by omega",
    ]
    if cert.shape is _DIRECT:
        lines += (
            "  have h9 := Claim False [",
            *_EXPONENT[con_var],
            _premise(congruence, "h8"),
            '  ] "observe_mod_cycle"',
            "  apply False.elim h9",
        )
    else:
        _, powers, shifted_values = _magic_lists(cert)
        prime = cert.prime
        statement = f"{con_var} % {cert.order[0]} = {cert.residue}"
        values = f"List.Mem ({con_base} ^ {con_var} % {prime}) [{_int_list(powers)}]"
        shifted = f"List.Mem ({bound_base} ^ {bound_var} % {prime}) [{_int_list(shifted_values)}]"
        shift_kind = "compute_mod_add" if cert.mode is _FORWARD else "compute_mod_sub"
        lines += (
            f"  have h9 := Claim ({statement}) [",
            *_EXPONENT[con_var],
            _premise(congruence, "h8"),
            '  ] "observe_mod_cycle"',
            _listing_head("h10", values),
            *_EXPONENT[con_var],
            _premise(statement, "h9"),
            '  ] "utilize_mod_cycle"',
            _listing_head("h11", shifted),
            _premise(values, "h10"),
            _premise(equation, "h3"),
            f'  ] "{shift_kind}"',
            "  have h12 := Claim False [",
            *_EXPONENT[bound_var],
            _premise(shifted, "h11"),
            '  ] "exhaust_mod_cycle"',
            "  apply False.elim h12",
        )
    lines += _enumeration(cert, equation, f"{bound_var} <= {t - 1}")
    return lines


_SCRIPT_BUILDERS = {
    _DIVISIBILITY: _script_divisibility,
    _COMMON_FACTOR: _script_common_factor,
    _DIRECT: _script_exclusion,
    _MAGIC_PRIME: _script_exclusion,
}


def emit_text(cert: Certificate) -> str:
    """Deterministic prose proof for a verified certificate."""
    _require_verified(cert)
    return "\n".join(_narrative(cert, cert.instance.equation_text())) + "\n"


def emit_lean(cert: Certificate) -> str:
    """Deterministic Lean proof script for a verified certificate, led by the prose as a comment."""
    _require_verified(cert)
    equation = cert.instance.equation_text()
    script = _SCRIPT_BUILDERS[cert.shape](cert, equation)
    return "\n".join(("/-", *_narrative(cert, equation), "-/", _prologue(cert, equation), *script, ""))


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
