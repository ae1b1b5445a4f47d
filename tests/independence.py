"""Module-dependency check: the certificate verifier must not share solver code."""

from __future__ import annotations

import ast
from pathlib import Path

FORBIDDEN_MODULES = {"engine", "classify", "emit", "cli"}


def certificate_import_violations() -> list[str]:
    import expodio.certificate as certificate_module

    source = Path(certificate_module.__file__).read_text(encoding="utf-8")
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    violations = []
    for name in imported:
        parts = set(name.replace("expodio.", "").split("."))
        if parts & FORBIDDEN_MODULES:
            violations.append(name)
    return violations


def trusted_base() -> dict[str, int]:
    """Line span of each function verify_certificate can reach, by name.

    Walks the AST call graph from certificate.verify_certificate through
    certificate.py and arith.py.  An edge is a bare name of a function
    defined in the same module, or an `arith.<name>` attribute.  Keys
    read "certificate.<name>" or "arith.<name>".
    """
    import expodio.arith as arith_module
    import expodio.certificate as certificate_module

    functions: dict[str, ast.FunctionDef] = {}
    for module in (certificate_module, arith_module):
        prefix = module.__name__.rsplit(".", 1)[-1]
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[f"{prefix}.{node.name}"] = node

    reached: dict[str, int] = {}
    stack = ["certificate.verify_certificate"]
    while stack:
        name = stack.pop()
        if name in reached:
            continue
        node = functions[name]
        reached[name] = node.end_lineno - node.lineno + 1
        prefix = name.split(".")[0]
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and f"{prefix}.{sub.id}" in functions:
                stack.append(f"{prefix}.{sub.id}")
            elif (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "arith"
                and f"arith.{sub.attr}" in functions
            ):
                stack.append(f"arith.{sub.attr}")
    return reached
