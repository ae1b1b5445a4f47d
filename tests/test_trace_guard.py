"""The benchmark's traced units still find the names they wrap.

perfbench/spans.py patches expodio's functions by name (for instance
engine.exclusion_step, the certificate builders and the cli's record
and digest calls).  A rename in src would leave a traced layer silently
empty, so this runs one traced solve unit and one traced scan unit, in
a subprocess as the benchmark does, and asserts that each wrapped layer
was reached.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# divisibility, common factor, direct exclusion, two magic-prime triples
TRIPLES = [[2, 6, 9], [2, 4, 6], [17, 3, 20], [2, 89, 91], [3, 7, 2]]


def _traced_unit(*args: str) -> dict:
    """Run perfbench/child.py with --trace; its closing JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), *args, "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_traced_solve_unit_reaches_every_wrapped_layer(tmp_path):
    triples = tmp_path / "triples.json"
    triples.write_text(json.dumps(TRIPLES), encoding="utf-8")
    unit = _traced_unit("solve", "--triples", str(triples))
    assert [row[:3] for row in unit["rows"]] == TRIPLES
    assert all(row[5] for row in unit["rows"]), "every certificate verifies"
    layers = unit["layers"]
    for name in ("engine.exclusion_step.calls", "certificate.build.calls",
                 "certificate.verify.calls"):
        assert layers[name] > 0, name
    assert layers["certificate.build.calls"] == len(TRIPLES)
    assert layers["certificate.verify.calls"] == len(TRIPLES)


def test_traced_scan_unit_reaches_the_cli_layers(tmp_path):
    # the 3-cube holds 12 triples, each solved with one certificate, whose
    # record and digest the scanner builds in this process at --jobs 1
    unit = _traced_unit("scan", "--cube", "3", "--jobs", "1", "--out", str(tmp_path / "scan.jsonl"))
    assert unit["exit_code"] == 0
    layers = unit["layers"]
    assert layers["certificate.build.calls"] == 12
    for name in ("cli.record.self_s", "certificate.digest.self_s", "engine.solve.self_s"):
        assert layers[name] > 0, name
