"""Regenerate the frozen golden files under tests/golden/.

Run from the repository root after an intentional format change:

    python tests/regen_golden.py

The frozen .cert.json / .lean / .txt files pin byte-level stability of
the certificate serialization and the emitters across sessions, and
cube12.sha256 pins the same bytes for every instance of the 12-cube, and
coprime200.sha256 for 400 seeded pairwise-coprime triples up to 200.
cube12-proofs.sha256 and coprime200-proofs.sha256 pin the .lean and .txt
bytes alone, so they stay put when the certificate format changes.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from goldens import (  # noqa: E402
    COPRIME200_DIGEST,
    COPRIME200_PROOFS_DIGEST,
    CUBE12_DIGEST,
    CUBE12_PROOFS_DIGEST,
    GOLDEN_SUITE,
    coprime_triples,
    cube_output_digests,
    output_digests,
)

from expodio import EquationInstance, serialize_certificate, solve  # noqa: E402
from expodio.emit import emit_lean, emit_text, theorem_name  # noqa: E402

GOLDEN_DIR = Path(__file__).parent / "golden"


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for triple in sorted(GOLDEN_SUITE):
        result = solve(EquationInstance(*triple))
        cert = result.certificate
        name = theorem_name(cert)
        (GOLDEN_DIR / f"{name}.cert.json").write_text(
            serialize_certificate(cert), encoding="utf-8", newline="\n"
        )
        (GOLDEN_DIR / f"{name}.lean").write_text(
            emit_lean(cert), encoding="utf-8", newline="\n"
        )
        (GOLDEN_DIR / f"{name}.txt").write_text(emit_text(cert), encoding="utf-8", newline="\n")
        print(f"froze {name} ({cert.shape.value})")
    digests = {
        (CUBE12_DIGEST, CUBE12_PROOFS_DIGEST): cube_output_digests(12),
        (COPRIME200_DIGEST, COPRIME200_PROOFS_DIGEST): output_digests(coprime_triples()),
    }
    for paths, values in digests.items():
        for path, value in zip(paths, values):
            path.write_text(value + "\n", encoding="utf-8", newline="\n")
            print(f"froze {path.name}")


if __name__ == "__main__":
    main()
