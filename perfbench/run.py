#!/usr/bin/env python3
"""Benchmark of expodio through its public entry points.

    python3 perfbench/run.py --workload scan-serial --seed 1 --seconds 30 --trace 0

Workloads (all closed loop: one caller, or one pool that pulls work when
a worker is free):

  scan-serial    `expodio scan` of the 30-cube with --jobs 1, via cli.main
  scan-parallel  the same cube with --jobs set to the usable CPU count
  solve-check    a seeded sample of pairwise-coprime triples, a, c in [2, 200],
                 b in [1, 200], each through solve -> serialize_certificate
                 -> parse_certificate -> verify_certificate -> emit_lean

Each measured unit runs in a fresh interpreter (child.py), so expodio's
module-level caches start empty, as they do for a user; garbage
collection stays on.  Units repeat until --seconds is used up and the
reported values are medians over units.  Every answer is checked
against a brute-force oracle that shares no code with expodio; a wrong
answer makes the run fail (exit code 1).

--trace 0 reports the end-to-end metrics; --trace 1 instead runs one
untraced and one traced unit (plus, for scan-parallel, one untraced
parallel scan) and reports the per-layer metrics from the spans that
spans.py records around expodio's layer boundaries.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from bruteforce import Oracle, two_solution_mismatch
from inputs import SCAN_CUBE, SOLVE_SAMPLE, cube_triples, solve_check_triples
from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

WORKLOADS = ("scan-serial", "scan-parallel", "solve-check")

# name, unit; the end-to-end metrics of a --trace 0 run
END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_per_instance_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("solved_ratio", "ratio"),
    ("setup_s", "s"),
)

SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170
# A traced scan's layer self times must add up to its wall time within this share.
ACCOUNTING_TOLERANCE = 0.01

SMOKE_CUBE = 8
SMOKE_SAMPLE = 300


class BenchError(Exception):
    """The benchmark could not run: missing sources or a unit that crashed."""


def run_child(args: list[str], workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"unit {args[0]} exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"unit {args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def host_reference_ms() -> float:
    """Time of a fixed pure-Python loop: printed next to each unit so host speed drift shows."""
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.perf_counter() - t0) * 1000.0


def repeat_units(seconds: float, unit) -> list:
    """Run `unit` at least once, then again while the expected overshoot stays under half a unit."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reference = host_reference_ms()
        results.append(unit())
        results[-1]["host_ref_ms"] = reference
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + 0.5 * statistics.median(durations) >= seconds:
            return results


def measure_setup(workdir: Path) -> list[float]:
    """Wall time for a fresh interpreter to import expodio, after one warm-up (bytecode cache)."""
    run_child(["ready"], workdir)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        run_child(["ready"], workdir)
        samples.append(time.perf_counter() - t0)
    return samples


# ---------------------------------------------------------------------------
# scans


def scan_unit(cube: int, jobs: int, workdir: Path, trace: bool = False) -> dict:
    out = Path(tempfile.mkstemp(suffix=".jsonl", dir=workdir)[1])
    try:
        args = ["scan", "--cube", str(cube), "--jobs", str(jobs), "--out", str(out)]
        unit = run_child(args + (["--trace"] if trace else []), workdir)
        unit["output_bytes"] = out.stat().st_size
        rows = []
        with open(out, encoding="utf-8") as handle:
            for line in handle:
                doc = json.loads(line)
                rows.append((
                    (doc["a"], doc["b"], doc["c"]),
                    doc["status"],
                    doc["class_tag"],
                    tuple(tuple(s) for s in doc["solutions"]),
                    doc["certificate_digest"],
                    doc["elapsed_ms"],
                ))
    finally:
        out.unlink()
    unit["rows"] = rows
    unit["instances"] = len(rows)
    return unit


def check_scans(units: list[dict], cube: int, oracle: Oracle) -> tuple[list[str], int, int]:
    """Oracle and table checks on every scan; returns (mismatches, attempted, failed)."""
    expected = cube_triples(cube)
    mismatches: list[str] = []
    attempted = failed = 0
    reference = None
    for unit in units:
        rows = unit["rows"]
        attempted += len(expected)
        if unit["exit_code"] != 0:
            mismatches.append(f"scan exited with {unit['exit_code']}")
        if sorted(r[0] for r in rows) != expected:
            mismatches.append("scan rows do not cover the cube exactly once")
        failed += sum(1 for r in rows if r[1] != "Solved" or r[4] is None)
        failed += max(0, len(expected) - len(rows))
        answers = {r[0]: r[1:5] for r in rows}
        if reference is None:
            reference = answers
            for triple, (_status, _tag, sols, _digest) in answers.items():
                wrong = oracle.mismatch(*triple, sols)
                if wrong:
                    mismatches.append(wrong)
            table = two_solution_mismatch({t: a[2] for t, a in answers.items()}, cube)
            if table:
                mismatches.append(table)
        elif answers != reference:
            mismatches.append("scan answers or certificate digests differ between runs")
    return mismatches, attempted, failed


def scan_latencies(units: list[dict]) -> list[float]:
    """The program's own per-instance elapsed_ms of the Class II rows.

    Class I rows take about 0.02 ms and the rows round to 0.001 ms, so
    their median would read the same on every run; Class II rows are
    the instances that reach the exclusion engine.
    """
    return [r[5] for unit in units for r in unit["rows"] if r[2] == "ClassII"]


# ---------------------------------------------------------------------------
# solve-check


def solve_unit(triples_file: Path, workdir: Path, trace: bool = False) -> dict:
    unit = run_child(["solve", "--triples", str(triples_file)] + (["--trace"] if trace else []),
                     workdir)
    unit["instances"] = len(unit["rows"])
    return unit


def check_solves(units: list[dict], triples: list, oracle: Oracle) -> tuple[list[str], int, int]:
    mismatches: list[str] = []
    attempted = failed = 0
    reference = None
    for unit in units:
        rows = unit["rows"]
        attempted += len(triples)
        if [tuple(r[:3]) for r in rows] != [tuple(t) for t in triples]:
            mismatches.append("solve-check rows do not match the sample")
        failed += sum(1 for r in rows if r[3] != "Solved" or not r[5])
        failed += max(0, len(triples) - len(rows))
        mismatches.extend(
            f"({r[0]}, {r[1]}, {r[2]}): {r[6]}" for r in rows if r[6] is not None
        )
        answers = [(tuple(r[:3]), tuple(tuple(s) for s in r[4])) for r in rows]
        if reference is None:
            reference = answers
            for triple, sols in answers:
                wrong = oracle.mismatch(*triple, sols)
                if wrong:
                    mismatches.append(wrong)
        elif answers != reference:
            mismatches.append("solve-check answers differ between runs")
    return mismatches, attempted, failed


# ---------------------------------------------------------------------------
# reporting


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def git_revision() -> str:
    """HEAD's commit id, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_average() -> list[float]:
    try:
        return [round(v, 2) for v in os.getloadavg()]
    except OSError:
        return []


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fmt(values: list[float]) -> str:
    return "[" + ", ".join(f"{v:.4g}" for v in values) + "]"


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Outcome:
    metrics: dict
    mismatches: list
    attempted: int
    failed: int
    samples: dict


def solve_sample(args, workdir: Path) -> tuple[list, Path]:
    """The seeded solve-check triples, also written to a file for the child."""
    triples = solve_check_triples(args.seed, SMOKE_SAMPLE if args.smoke else SOLVE_SAMPLE)
    path = workdir / "triples.json"
    path.write_text(json.dumps(triples), encoding="utf-8")
    return triples, path


def end_to_end(args, workdir: Path, oracle: Oracle, out: list[str]) -> Outcome:
    setup = measure_setup(workdir)
    if args.workload == "solve-check":
        triples, triples_file = solve_sample(args, workdir)
        units = repeat_units(args.seconds, lambda: solve_unit(triples_file, workdir))
        mismatches, attempted, failed = check_solves(units, triples, oracle)
        latencies = [v for unit in units for v in unit["latencies_ms"]]
        latency_what = "per-triple pipeline latency"
    else:
        cube = SMOKE_CUBE if args.smoke else SCAN_CUBE
        jobs = 1 if args.workload == "scan-serial" else usable_cpus()
        units = repeat_units(args.seconds, lambda: scan_unit(cube, jobs, workdir))
        mismatches, attempted, failed = check_scans(units, cube, oracle)
        latencies = scan_latencies(units)
        latency_what = "elapsed_ms of Class II scan rows"
        out.append(f"scan: {cube}-cube, --jobs {jobs}")

    for i, unit in enumerate(units, 1):
        out.append(
            f"unit {i}: {unit['instances']} instances in {unit['wall_s']:.3f} s, "
            f"cpu {unit['cpu_s']:.3f} s, peak rss {unit['peak_rss_mb']:.1f} MB, "
            f"host reference loop {unit['host_ref_ms']:.2f} ms"
        )
    throughputs = [u["instances"] / u["wall_s"] for u in units]
    cpu_ms = [u["cpu_s"] * 1000.0 / u["instances"] for u in units]
    rss = [u["peak_rss_mb"] for u in units]
    beyond = len(latencies) - int(0.99 * len(latencies))
    metrics = {
        "throughput_per_s": statistics.median(throughputs),
        "latency_p50_ms": quantile(latencies, 50),
        "latency_p99_ms": quantile(latencies, 99),
        "cpu_per_instance_ms": statistics.median(cpu_ms),
        "peak_rss_mb": statistics.median(rss),
        "solved_ratio": 1.0 - failed / attempted,
        "setup_s": statistics.median(setup),
    }
    notes = {
        "throughput_per_s": f"median of {len(units)} units {fmt(throughputs)}",
        "latency_p50_ms": f"{latency_what}, n={len(latencies)}",
        "latency_p99_ms": f"n={len(latencies)}, {beyond} samples beyond p99",
        "cpu_per_instance_ms": f"process and children, median of {len(units)} units {fmt(cpu_ms)}",
        "peak_rss_mb": f"largest process, median of {len(units)} units {fmt(rss)}",
        "solved_ratio": f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} "
                        f"not Solved with an accepted certificate)",
        "setup_s": f"import expodio in a fresh interpreter, median of {len(setup)} {fmt(setup)}",
    }
    for name, unit in END_TO_END:
        out.append(f"{name} = {metrics[name]:.6g} {unit}   ({notes[name]})")
    samples = {"units": len(units), "instances_per_unit": units[0]["instances"],
               "latency_samples": len(latencies), "setup_samples": len(setup)}
    return Outcome(metrics, mismatches, attempted, failed, samples)


def traced(args, workdir: Path, oracle: Oracle, out: list[str]) -> Outcome:
    if args.workload == "solve-check":
        triples, triples_file = solve_sample(args, workdir)
        plain = solve_unit(triples_file, workdir)
        traced_unit = solve_unit(triples_file, workdir, trace=True)
        units = [plain, traced_unit]
        mismatches, attempted, failed = check_solves(units, triples, oracle)
        run_metrics = {"cli.output_bytes": 0, "cli.parallel_efficiency": 0.0}
    else:
        cube = SMOKE_CUBE if args.smoke else SCAN_CUBE
        plain = scan_unit(cube, 1, workdir)
        units = [plain]
        efficiency = 0.0
        if args.workload == "scan-parallel":
            jobs = usable_cpus()
            parallel = scan_unit(cube, jobs, workdir)
            units.append(parallel)
            efficiency = plain["wall_s"] / (jobs * parallel["wall_s"])
            out.append(
                f"parallel efficiency {efficiency:.4f}: jobs-1 scan {plain['wall_s']:.3f} s "
                f"over {jobs} x jobs-{jobs} scan {parallel['wall_s']:.3f} s"
            )
        traced_unit = scan_unit(cube, 1, workdir, trace=True)
        units.append(traced_unit)
        mismatches, attempted, failed = check_scans(units, cube, oracle)
        run_metrics = {"cli.output_bytes": traced_unit["output_bytes"],
                       "cli.parallel_efficiency": efficiency}
        layers = traced_unit["layers"]
        covered = sum(v for k, v in layers.items() if k.endswith("self_s")) + layers["cli.scan.other_s"]
        wall = traced_unit["wall_s"]
        out.append(
            f"accounting: layer self times + cli.scan.other_s = {covered:.4f} s, "
            f"traced scan wall = {wall:.4f} s"
        )
        if abs(covered - wall) > ACCOUNTING_TOLERANCE * wall:
            raise BenchError("layer self times do not account for the traced scan's wall time")

    overhead = traced_unit["wall_s"] / plain["wall_s"]
    out.append(
        f"tracing overhead: traced {traced_unit['instances'] / traced_unit['wall_s']:.1f}/s vs "
        f"untraced {plain['instances'] / plain['wall_s']:.1f}/s throughput "
        f"(x{overhead:.3f} wall, {traced_unit['spans']} spans)"
    )
    metrics = dict(traced_unit["layers"])
    metrics.update(run_metrics)
    metrics["trace.overhead_ratio"] = overhead
    for name, unit, _better in LAYER_METRICS:
        out.append(f"{name} = {metrics[name]:.6g} {unit}")
    samples = {"units": len(units), "instances_per_unit": traced_unit["instances"],
               "spans": traced_unit["spans"]}
    return Outcome(metrics, mismatches, attempted, failed, samples)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="expodio benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (8-cube, 300 triples) for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "expodio" / "__init__.py").is_file():
        print(f"error: expodio sources not found under {SRC}", file=sys.stderr)
        return 2

    out: list[str] = []
    oracle = Oracle()
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    load_before = load_average()
    try:
        run = traced if args.trace else end_to_end
        outcome = run(args, workdir, oracle, out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": usable_cpus(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "load_average_before": load_before,
        "load_average_after": load_average(),
        **outcome.samples,
    }
    mismatches = outcome.mismatches
    correct = not mismatches and outcome.failed == 0
    print(f"expodio benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    print("provenance " + json.dumps(provenance))
    for line in out:
        print(line)
    for wrong in mismatches[:20]:
        print(f"WRONG: {wrong}")
    if len(mismatches) > 20:
        print(f"WRONG: ... {len(mismatches) - 20} more")
    print(f"correct: {correct}")
    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in LAYER_METRICS}
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
