"""Trust-boundary check: certificate.py, the trusted module, shares no code with the solver.

The verifier, its parser and the certificate format live in that one
file.  It may import the standard library and the sibling `instance`
module, nothing else, and it names no `arith`.  Its size is its line count.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

# the only package modules certificate.py may import, relatively
ALLOWED_RELATIVE = {"instance"}


def _certificate_source() -> str:
    import expodio.certificate as certificate_module

    return Path(certificate_module.__file__).read_text(encoding="utf-8")


def certificate_import_violations() -> list[str]:
    """Each import of certificate.py outside the allowlist, and each `arith` name it uses."""
    violations = []
    for node in ast.walk(ast.parse(_certificate_source())):
        if isinstance(node, ast.Import):
            violations += [
                alias.name for alias in node.names
                if alias.name.split(".")[0] not in sys.stdlib_module_names
            ]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            allowed = (
                module.split(".")[0] in sys.stdlib_module_names
                if node.level == 0
                else node.level == 1 and module in ALLOWED_RELATIVE
            )
            if not allowed:
                violations.append("." * node.level + module)
        elif isinstance(node, ast.Name) and node.id == "arith":
            violations.append("arith")
        elif isinstance(node, ast.Attribute) and node.attr == "arith":
            violations.append(ast.unparse(node))
    return violations


def trusted_lines() -> int:
    """The trusted base: every line of certificate.py."""
    return len(_certificate_source().splitlines())
