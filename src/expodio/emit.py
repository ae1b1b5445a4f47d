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

Rendering is deterministic: the same certificate always produces the
same bytes.  Only certificates accepted by the independent verifier are
rendered at all, so a renderer reads each fact from its claim by the
claim's position in the shape's template.  Certificates are immutable,
so a renderer reuses an acceptance the verifier already gave to the same
object and runs the verifier only when it has not: verifying and then
rendering, or rendering both outputs, verifies once.
"""

from __future__ import annotations

from pathlib import Path

from . import arith
from .certificate import (
    Certificate,
    CertShape,
    Mode,
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
    if cert.shape is CertShape.DIVISIBILITY_NO_SOLUTION:
        case = "Type i" if cert.mode is Mode.FORWARD else "Type ii"
        return f"(Class I, {case})"
    if cert.shape is CertShape.COMMON_FACTOR_BOUND:
        return "(Class I, Type iii)"
    side = "Front Mode" if cert.mode is Mode.FORWARD else "Back Mode"
    if cert.shape is CertShape.DIRECT_MODULAR_EXCLUSION:
        return f"(Class II, {side}, no magic prime)"
    return f"(Class II, {side}, with magic prime {cert.claims[2].params['prime']})"


def _conclusion_lines(cert: Certificate, equation: str) -> list[str]:
    if cert.bound_threshold <= 1:
        return [f"So {equation} is impossible."]
    if not cert.solutions:
        return [f"Further examination shows that {equation} is impossible."]
    return [f"Further examination shows that (x, y) = {_pair_list(cert.solutions)}."]


def _narrative(cert: Certificate, equation: str) -> list[str]:
    """The prose proof, one sentence per line, as placed in the comment block."""
    inst = cert.instance
    lines = [
        f"{_case_header(cert)}   {equation}",
        f"For positive integers x, y satisfying {equation},",
    ]
    if cert.shape is CertShape.DIVISIBILITY_NO_SOLUTION:
        side = f"{inst.a} ^ x" if cert.mode is Mode.FORWARD else f"{inst.c} ^ y"
        lines.append(
            f"this is impossible, because it implies that {side} = 0 (mod {cert.witness_prime})."
        )
        return lines

    if cert.shape is CertShape.COMMON_FACTOR_BOUND:
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
    observe = cert.claims[1].params
    lines.append(
        f"if {bound_var} >= {t}, {con_base} ^ {con_var} = {observe['target']} (mod {modulus})."
    )
    if cert.shape is CertShape.DIRECT_MODULAR_EXCLUSION:
        lines.append("However, this is impossible.")
    else:
        utilize, compute = cert.claims[2].params, cert.claims[3].params
        residue, period, prime = observe["residue"], observe["period"], utilize["prime"]
        # Power values mod P only depend on the exponent mod ord_P(base);
        # report the residues modulo that order when it differs from K.
        order = arith.multiplicative_order(con_base % prime, prime)
        if order == period:
            lines.append(f"So {con_var} = {residue} (mod {period}).")
        else:
            reduced = [r % order for r in utilize["lifted_residues"]]
            lines.append(f"So {con_var} = {residue} (mod {period}),")
            lines.append(f"which implies {con_var} = {_int_list(reduced)} (mod {order}).")
        lines.append(
            f"Therefore, {con_base} ^ {con_var} = {_int_list(utilize['values'])} (mod {prime})."
        )
        impossible = (
            f"So {bound_base} ^ {bound_var} = "
            f"{_int_list(compute['output_values'])} (mod {prime}), but this is impossible."
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
# Lean script assembly

# The premises each claim about an exponent starts from, with the
# hypotheses of the prologue that prove them.
_EXPONENT = {
    "x": (("x % 1 = 0", "h4"), ("x >= 1", "h1")),
    "y": (("y % 1 = 0", "h5"), ("y >= 1", "h2")),
}


def _goal(cert: Certificate) -> str:
    if not cert.solutions:
        return "False"
    return f"List.Mem (x, y) [{_pair_list(cert.solutions)}]"


class _Script:
    """Line accumulator with the deterministic wrap rules of the templates."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.add = self.lines.append

    def claim(self, handle: str, statement: str, premises: list[tuple[str, str]], kind: str) -> None:
        add = self.add
        wrapped = statement if statement == "False" else f"({statement})"
        head = f"  have {handle} := Claim {wrapped} ["
        if len(head) > _WRAP_COLUMN and "[" in statement:
            stem, _, values = statement.partition(" [")
            add(f"  have {handle} := Claim ({stem}")
            add(f"  [{values}) [")
        else:
            add(head)
        for prop, proof in premises:
            line = f"    {{prop := {prop}, proof := {proof}}},"
            if len(line) > _WRAP_COLUMN:
                add(f"    {{prop := {prop},")
                add(f"    proof := {proof}}},")
            else:
                add(line)
        add(f'  ] "{kind}"')

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _prologue(script: _Script, cert: Certificate, equation: str) -> None:
    script.add(
        f"theorem {theorem_name(cert)} (x : Nat) (y : Nat) (h1 : x >= 1) (h2 : y >= 1)"
    )
    script.add(f"(h3 : {equation}) :")
    script.add(f"  {_goal(cert)}")
    script.add("  := by")
    script.add("  have h4 : x % 1 = 0 := Nat.mod_one x")
    script.add("  have h5 : y % 1 = 0 := Nat.mod_one y")


def _enumeration_premises(equation: str, bound_prop: str) -> list[tuple[str, str]]:
    return [
        *_EXPONENT["x"],
        *_EXPONENT["y"],
        (equation, "h3"),
        (bound_prop, "h7"),
    ]


def _script_divisibility(cert: Certificate, equation: str) -> _Script:
    inst = cert.instance
    p = cert.witness_prime
    zero_base, zero_var, other_base, other_var = _sides(inst, cert.mode)
    target = cert.claims[1].params["target"]
    script = _Script()
    _prologue(script, cert, equation)
    script.claim(
        "h6",
        f"{zero_base} ^ {zero_var} % {p} = 0",
        _EXPONENT[zero_var],
        "pow_mod_eq_zero",
    )
    congruence = f"{other_base} ^ {other_var} % {p} = {target}"
    script.add(f"  have h7 : {congruence} := by omega")
    script.claim(
        "h8",
        "False",
        [*_EXPONENT[other_var], (congruence, "h7")],
        "observe_mod_cycle",
    )
    script.add("  exact h8")
    return script


def _script_common_factor(cert: Certificate, equation: str) -> _Script:
    inst = cert.instance
    k = cert.modulus_exponent
    modulus = cert.witness_prime**k
    script = _Script()
    _prologue(script, cert, equation)
    script.add(f"  by_cases h6 : And (x >= {k}) (y >= {k})")
    script.claim(
        "h7",
        f"{inst.a} ^ x % {modulus} = 0",
        [("x % 1 = 0", "h4"), (f"x >= {k}", "h6.left")],
        "pow_mod_eq_zero",
    )
    script.claim(
        "h8",
        f"{inst.c} ^ y % {modulus} = 0",
        [("y % 1 = 0", "h5"), (f"y >= {k}", "h6.right")],
        "pow_mod_eq_zero",
    )
    script.add("  omega")
    bound_prop = f"Or (x <= {k - 1}) (y <= {k - 1})"
    script.add(f"  have h7 : {bound_prop} := by omega")
    script.claim("h8", _goal(cert), _enumeration_premises(equation, bound_prop), "diophantine1_enumeration")
    script.add("  exact h8")
    return script


def _script_exclusion(cert: Certificate, equation: str) -> _Script:
    """Direct and magic-prime proofs share one template.

    A magic prime adds claims 2-4 (utilize, compute, exhaust), and claim 1
    then states the residue congruence instead of False.
    """
    t = cert.bound_threshold
    modulus = cert.witness_prime**cert.modulus_exponent
    bound_base, bound_var, con_base, con_var = _sides(cert.instance, cert.mode)
    observe = cert.claims[1].params
    script = _Script()
    _prologue(script, cert, equation)
    script.add(f"  by_cases h6 : {bound_var} >= {t}")
    script.claim(
        "h7",
        f"{bound_base} ^ {bound_var} % {modulus} = 0",
        [_EXPONENT[bound_var][0], (f"{bound_var} >= {t}", "h6")],
        "pow_mod_eq_zero",
    )
    congruence = f"{con_base} ^ {con_var} % {modulus} = {observe['target']}"
    script.add(f"  have h8 : {congruence} := by omega")
    statement, magic_claims = "False", []
    if cert.shape is CertShape.MAGIC_PRIME_EXCLUSION:
        utilize, compute = cert.claims[2].params, cert.claims[3].params
        prime = utilize["prime"]
        statement = f"{con_var} % {observe['period']} = {observe['residue']}"
        values = f"List.Mem ({con_base} ^ {con_var} % {prime}) [{_int_list(utilize['values'])}]"
        shifted = (
            f"List.Mem ({bound_base} ^ {bound_var} % {prime}) "
            f"[{_int_list(compute['output_values'])}]"
        )
        shift_kind = "compute_mod_add" if cert.mode is Mode.FORWARD else "compute_mod_sub"
        magic_claims = [
            ("h10", values, [*_EXPONENT[con_var], (statement, "h9")], "utilize_mod_cycle"),
            ("h11", shifted, [(values, "h10"), (equation, "h3")], shift_kind),
            ("h12", "False", [*_EXPONENT[bound_var], (shifted, "h11")], "exhaust_mod_cycle"),
        ]
    script.claim("h9", statement, [*_EXPONENT[con_var], (congruence, "h8")], "observe_mod_cycle")
    for claim in magic_claims:
        script.claim(*claim)
    script.add(f"  apply False.elim h{9 + len(magic_claims)}")
    bound_prop = f"{bound_var} <= {t - 1}"
    script.add(f"  have h7 : {bound_prop} := by omega")
    script.claim("h8", _goal(cert), _enumeration_premises(equation, bound_prop), "diophantine1_enumeration")
    script.add("  exact h8")
    return script


_SCRIPT_BUILDERS = {
    CertShape.DIVISIBILITY_NO_SOLUTION: _script_divisibility,
    CertShape.COMMON_FACTOR_BOUND: _script_common_factor,
    CertShape.DIRECT_MODULAR_EXCLUSION: _script_exclusion,
    CertShape.MAGIC_PRIME_EXCLUSION: _script_exclusion,
}


def emit_text(cert: Certificate) -> str:
    """Deterministic prose proof for a verified certificate."""
    _require_verified(cert)
    return "\n".join(_narrative(cert, cert.instance.equation_text())) + "\n"


def emit_lean(cert: Certificate) -> str:
    """Deterministic Lean proof script for a verified certificate, led by the prose as a comment."""
    _require_verified(cert)
    equation = cert.instance.equation_text()
    comment = "/-\n" + "\n".join(_narrative(cert, equation)) + "\n-/"
    return comment + "\n" + _SCRIPT_BUILDERS[cert.shape](cert, equation).text()


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
