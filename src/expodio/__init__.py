"""Solver, proof-certificate generator, and verifier for a^x + b = c^y.

The public API mirrors the pipeline: classify an instance, solve it,
inspect or serialize the resulting certificate, verify it independently,
and render it as a prose proof or a Lean script.
"""

from .certificate import (
    CertShape,
    Mode,
    certificate_digest,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from .classify import bounded_case_solutions, classify, final_enumeration
from .emit import emit_lean, emit_text
from .engine import (
    Constraint,
    SolverConfig,
    SolveStatus,
    initial_search,
    magic_prime_search,
    solve,
    witness_for_prime,
)
from .instance import EquationInstance

__all__ = [
    "CertShape",
    "Constraint",
    "EquationInstance",
    "Mode",
    "SolveStatus",
    "SolverConfig",
    "bounded_case_solutions",
    "certificate_digest",
    "classify",
    "emit_lean",
    "emit_text",
    "final_enumeration",
    "initial_search",
    "magic_prime_search",
    "parse_certificate",
    "serialize_certificate",
    "solve",
    "verify_certificate",
    "witness_for_prime",
]
