"""Standard-library smoke check, for an interpreter that cannot run pytest.

Run from the repository root, with no install:

    python tests/smoke.py

It checks the 12-cube's output and proof digests against
tests/golden/cube12.sha256 and cube12-proofs.sha256, verifies every golden
certificate and re-renders its .lean and .txt byte for byte, and runs each
demo script in a temporary directory that it must leave empty.  It prints
one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from goldens import CUBE12_DIGEST, CUBE12_PROOFS_DIGEST, cube_output_digests  # noqa: E402

from expodio import emit_lean, emit_text, parse_certificate, verify_certificate  # noqa: E402

GOLDEN_DIR = Path(__file__).parent / "golden"


def check_cube12() -> list[str]:
    failures = []
    for path, value in zip((CUBE12_DIGEST, CUBE12_PROOFS_DIGEST), cube_output_digests(12)):
        if value != path.read_text(encoding="utf-8").strip():
            failures.append(f"{path.name}: the 12-cube now hashes to {value}")
    return failures


def check_goldens() -> list[str]:
    failures = []
    certificates = sorted(GOLDEN_DIR.glob("*.cert.json"))
    if not certificates:
        return [f"no golden certificate in {GOLDEN_DIR}"]
    for path in certificates:
        cert = parse_certificate(path.read_text(encoding="utf-8"))
        verdict = verify_certificate(cert)
        if not verdict.accepted:
            failures.append(f"{path.name}: rejected ({verdict.reason})")
            continue
        stem = path.name.removesuffix(".cert.json")
        for suffix, render in ((".lean", emit_lean), (".txt", emit_text)):
            if render(cert).encode("utf-8") != (GOLDEN_DIR / (stem + suffix)).read_bytes():
                failures.append(f"{stem}{suffix}: re-rendered bytes differ")
    return failures


def check_demos() -> list[str]:
    failures = []
    demos = sorted((ROOT / "demos").glob("*.py"))
    if len(demos) < 4:
        return [f"expected at least 4 demos, found {len(demos)}"]
    for demo in demos:
        with tempfile.TemporaryDirectory() as scratch:
            env = dict(os.environ, TMPDIR=scratch)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=120,
            )
            if done.returncode != 0:
                failures.append(f"{demo.name} exited {done.returncode}: {done.stderr[-500:]}")
            elif os.listdir(scratch):
                failures.append(f"{demo.name} left {sorted(os.listdir(scratch))} behind")
    return failures


def main() -> int:
    print(f"expodio smoke check, Python {sys.version.split()[0]}")
    failed = 0
    for check in (check_cube12, check_goldens, check_demos):
        failures = check()
        failed += bool(failures)
        print(f"{'FAIL' if failures else 'PASS'} {check.__name__}")
        for failure in failures:
            print(f"  {failure}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
