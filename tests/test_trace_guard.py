"""The benchmark's traced solve unit still finds the names it wraps.

perfbench/spans.py patches expodio's functions by name (for instance
engine.exclusion_step and the certificate builders).  A rename in src
would leave a traced layer silently empty, so this runs one traced
solve unit, in a subprocess as the benchmark does, on Class I and
Class II triples and asserts that each wrapped layer was called.
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


def test_traced_solve_unit_reaches_every_wrapped_layer(tmp_path):
    triples = tmp_path / "triples.json"
    triples.write_text(json.dumps(TRIPLES), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "solve",
         "--triples", str(triples), "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    unit = json.loads(done.stdout.splitlines()[-1])
    assert [row[:3] for row in unit["rows"]] == TRIPLES
    assert all(row[5] for row in unit["rows"]), "every certificate verifies"
    layers = unit["layers"]
    for name in ("engine.exclusion_step.calls", "certificate.build.calls",
                 "certificate.verify.calls"):
        assert layers[name] > 0, name
    assert layers["certificate.build.calls"] == len(TRIPLES)
    assert layers["certificate.verify.calls"] == len(TRIPLES)
