"""One measured unit of the benchmark, in a fresh interpreter.

    python3 child.py ready
    python3 child.py scan --cube N --jobs J --out FILE [--trace]
    python3 child.py solve --triples FILE [--trace]

run.py starts this with the repository's `src` on PYTHONPATH, so every
unit begins with expodio's module-level caches empty, as a user's
`expodio scan` or `expodio solve` does.  The last line of standard
output is one JSON object with the unit's measurements.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_expodio():
    import expodio
    import expodio.cli

    where = Path(expodio.__file__).resolve().parent
    if where != (SRC / "expodio").resolve():
        raise SystemExit(f"expodio was imported from {where}, not from {SRC}")
    return expodio


def _cpu_seconds() -> float:
    """CPU time of this process and of its children that have been waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak resident set of the largest process: this one or a finished child (KiB on Linux)."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


def run_scan(args, recorder) -> dict:
    expodio = _import_expodio()
    main = expodio.cli.main
    if recorder is not None:
        from spans import instrument

        instrument(recorder)
        main = recorder.wrap("cli.scan", main)
    n = str(args.cube)
    argv = ["scan", "--a-max", n, "--b-max", n, "--c-max", n,
            "--jobs", str(args.jobs), "--out", args.out]
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    code = main(argv)
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    return {"exit_code": code, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": _peak_rss_mb()}


def run_solve(args, recorder) -> dict:
    """The single-solve user path, one triple at a time.

    solve -> serialize_certificate -> parse_certificate ->
    verify_certificate -> emit_lean: what `expodio solve --cert
    --emit-lean` followed by `expodio verify` does, without the file I/O.
    """
    expodio = _import_expodio()
    triples = json.loads(Path(args.triples).read_text(encoding="utf-8"))
    if recorder is not None:
        from spans import instrument

        api = instrument(recorder)
    else:
        api = {name: getattr(expodio, name) for name in (
            "solve", "serialize_certificate", "parse_certificate",
            "verify_certificate", "emit_lean")}
    solve = api["solve"]
    serialize = api["serialize_certificate"]
    parse = api["parse_certificate"]
    verify = api["verify_certificate"]
    emit_lean = api["emit_lean"]
    make = expodio.EquationInstance
    clock = time.perf_counter

    latencies = []
    rows = []
    cpu0 = _cpu_seconds()
    start = clock()
    for a, b, c in triples:
        t0 = clock()
        try:
            result = solve(make(a, b, c))
            status = result.status.value
            accepted = False
            if result.certificate is not None:
                cert = parse(serialize(result.certificate))
                accepted = verify(cert).accepted
                if accepted:
                    emit_lean(cert)
            error = None
        except Exception as exc:  # noqa: BLE001 - a failing instance is a row, not a crash
            status, accepted, error = "Error", False, f"{type(exc).__name__}: {exc}"
            result = None
        latencies.append((clock() - t0) * 1000.0)
        solutions = [list(s) for s in result.solutions] if result is not None else []
        rows.append([a, b, c, status, solutions, accepted, error])
    wall = clock() - start
    cpu = _cpu_seconds() - cpu0
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": _peak_rss_mb(),
            "latencies_ms": latencies, "rows": rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("ready")
    scan = sub.add_parser("scan")
    scan.add_argument("--cube", type=int, required=True)
    scan.add_argument("--jobs", type=int, required=True)
    scan.add_argument("--out", required=True)
    scan.add_argument("--trace", action="store_true")
    solve = sub.add_parser("solve")
    solve.add_argument("--triples", required=True)
    solve.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    if args.mode == "ready":
        _import_expodio()
        print(json.dumps({"ready": True}))
        return 0

    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
    out = run_scan(args, recorder) if args.mode == "scan" else run_solve(args, recorder)
    if recorder is not None:
        from spans import layer_metrics

        out["layers"] = layer_metrics(recorder)
        out["spans"] = len(recorder.start)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
