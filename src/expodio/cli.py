"""Command-line surface: solve, scan, verify, stats.

    expodio solve A B C [--emit-lean DIR] [--emit-text DIR] [--cert FILE] [--json]
    expodio scan --a-max N --b-max N --c-max N --out FILE [--jobs N] [--retry-unresolved]
    expodio verify FILE
    expodio stats FILE

Scans write one JSON object per line (appended as each worker result
arrives) and skip the instances the file already holds, so an interrupted
run picks up where it stopped.  Exit codes: 0 ok, 1 usage or I/O error
(a closed stdout too), 2 unresolved, 3 certificate rejected.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from . import emit
from .certificate import (
    MODULUS_CAP,
    MalformedCertificateError,
    certificate_digest,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from .engine import DEFAULT_CONFIG, SolveResult, SolverConfig, SolveStatus, solve
from .instance import EquationInstance

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNRESOLVED = 2
EXIT_REJECTED = 3

# Each solver budget flag: the SolverConfig field it sets (its dest),
# its value type and its help text.
_CONFIG_FLAGS = (
    ("--prime-count", "prime_budget_count", int, "magic prime candidates per constraint"),
    ("--prime-cap", "prime_budget_cap", int, "largest magic prime candidate"),
    ("--time-limit", "wall_limit", float, "wall-clock limit per instance (seconds)"),
)


class CliError(Exception):
    """Usage or I/O problem; maps to exit code 1."""


@dataclass(frozen=True)
class ScanRecord:
    """One persisted scan row."""

    a: int
    b: int
    c: int
    status: str
    class_tag: str
    solution_count: int
    solutions: tuple[tuple[int, int], ...]
    certificate_digest: str | None
    elapsed_ms: float

    def to_json(self) -> str:
        # the fields in declaration order; json writes the solution pairs as arrays
        doc = dict(vars(self), elapsed_ms=round(self.elapsed_ms, 3))
        return json.dumps(doc, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "ScanRecord":
        """One row; raises ValueError unless each field has the type to_json writes (3.5 is not 3)."""
        doc = json.loads(line)
        solutions = tuple((_typed(x, int), _typed(y, int)) for x, y in doc["solutions"])
        instance = EquationInstance(doc["a"], doc["b"], doc["c"])
        return cls(
            a=instance.a,
            b=instance.b,
            c=instance.c,
            status=_typed(doc["status"], str),
            class_tag=_typed(doc["class_tag"], str),
            solution_count=_typed(doc["solution_count"], int),
            solutions=solutions,
            certificate_digest=_typed(doc["certificate_digest"], str, type(None)),
            elapsed_ms=float(_typed(doc["elapsed_ms"], int, float)),
        )


def _typed(value, *kinds: type):
    """`value` when its exact type is one of `kinds` (so a bool is no int); else ValueError."""
    if type(value) not in kinds:
        raise ValueError(f"unexpected value {value!r} in a scan row")
    return value


def record_from_result(instance: EquationInstance, result: SolveResult) -> ScanRecord:
    digest = None
    if result.certificate is not None:
        digest = certificate_digest(result.certificate)
    return ScanRecord(
        a=instance.a,
        b=instance.b,
        c=instance.c,
        status=result.status.value,
        class_tag=result.classification.tag.value,
        solution_count=len(result.solutions),
        solutions=result.solutions,
        certificate_digest=digest,
        elapsed_ms=result.elapsed_ms,
    )


# ---------------------------------------------------------------------------
# configuration plumbing

def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for flag, dest, kind, text in _CONFIG_FLAGS:
        parser.add_argument(flag, dest=dest, type=kind, help=text, default=getattr(DEFAULT_CONFIG, dest))


def build_config(args: argparse.Namespace) -> SolverConfig:
    """The solver config the budget flags set (each flag's default is the field's)."""
    try:
        return SolverConfig(**{dest: getattr(args, dest) for _, dest, _, _ in _CONFIG_FLAGS})
    except ValueError as exc:
        raise CliError(f"invalid solver configuration: {exc}") from exc


def _parse_instance(a: int, b: int, c: int) -> EquationInstance:
    try:
        return EquationInstance(a, b, c)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


# ---------------------------------------------------------------------------
# solve

def _verbose_printer(out: TextIO):
    def on_event(kind: str, payload: dict) -> None:
        if kind == "attempt":
            out.write(
                f"-- Trying to disprove {payload['variable']} >= {payload['t']} "
                f"with prime factor {payload['p']} of {payload['base']} ...\n"
            )
        elif kind == "try_prime":
            out.write(f"-- Trying prime {payload['prime']}...\n")
        elif kind == "succeeded":
            out.write("-- Succeeded.\n")

    return on_event


def cmd_solve(args: argparse.Namespace) -> int:
    instance = _parse_instance(args.a, args.b, args.c)
    config = build_config(args)
    on_event = _verbose_printer(sys.stdout) if args.verbose else None
    result = solve(instance, config, on_event=on_event)

    if args.json:
        print(record_from_result(instance, result).to_json())
    else:
        print(f"{instance.equation_text()}: {result.status.value}")
        if result.solutions:
            print(" ".join(f"({x},{y})" for x, y in result.solutions))
        else:
            print("no solutions")

    cert = result.certificate
    if cert is not None:
        if args.cert:
            try:
                Path(args.cert).write_text(serialize_certificate(cert), encoding="utf-8")
            except OSError as exc:
                raise CliError(f"cannot write certificate: {exc}") from exc
        try:
            if args.emit_lean:
                emit.write_proof_files(cert, args.emit_lean, lean=True, text=False)
            if args.emit_text:
                emit.write_proof_files(cert, args.emit_text, lean=False, text=True)
        except (emit.EmitRefusedError, OSError) as exc:
            raise CliError(f"cannot emit proof: {exc}") from exc
    elif args.cert or args.emit_lean or args.emit_text:
        print("no certificate produced (instance unresolved); nothing written", file=sys.stderr)

    return EXIT_OK if result.status is SolveStatus.SOLVED else EXIT_UNRESOLVED


# ---------------------------------------------------------------------------
# scan

def _scan_worker(
    config: SolverConfig, keep_certs: bool, triple: tuple[int, int, int]
) -> tuple[str, str, tuple[int, int, int], str | None]:
    """Solve one triple: its record line, its status, the triple, and the certificate if kept."""
    instance = EquationInstance(*triple)
    result = solve(instance, config)
    record = record_from_result(instance, result)
    cert_text = None
    if keep_certs and result.certificate is not None:
        cert_text = serialize_certificate(result.certificate)
    return record.to_json(), record.status, triple, cert_text


def _terminate_partial_line(path: Path) -> None:
    """Close off a half-written trailing line of a non-empty file so appends start fresh."""
    with open(path, "rb+") as handle:
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) != b"\n":
            handle.write(b"\n")


def iter_cube(a_max: int, b_max: int, c_max: int) -> Iterable[tuple[int, int, int]]:
    for a in range(2, a_max + 1):
        for b in range(1, b_max + 1):
            for c in range(2, c_max + 1):
                yield (a, b, c)


def _lines(path: str | Path) -> Iterator[str | None]:
    """The non-blank lines of a results file, stripped; None for a line that is not UTF-8."""
    try:
        with open(path, "rb") as handle:
            for raw in handle:
                try:
                    line = raw.decode("utf-8").strip()
                except UnicodeDecodeError:
                    yield None
                    continue
                if line:
                    yield line
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def iter_records(path: str | Path) -> Iterator[ScanRecord | None]:
    """Parse each non-blank line of a JSONL results file; a malformed line yields None."""
    for line in _lines(path):
        if line is None:
            yield None
            continue
        try:
            yield ScanRecord.from_json(line)
        except (KeyError, TypeError, ValueError, RecursionError):
            yield None


def _run_pool(
    triples: Iterable[tuple[int, int, int]],
    config: SolverConfig,
    jobs: int,
    keep_certs_dir: Path | None,
    out_handle: TextIO,
) -> tuple[int, int]:
    """Solve triples on a worker pool; stream records through one writer.

    Returns (records written, Unresolved among them).  Small fixed chunks
    keep results reaching the writer on multi-million-instance sweeps,
    and the input iterable is consumed lazily.
    """
    processed = unresolved = 0

    start = time.perf_counter()

    def consume(payload: tuple[str, str, tuple[int, int, int], str | None]) -> None:
        nonlocal processed, unresolved
        line, status, (a, b, c), cert_text = payload
        out_handle.write(line + "\n")
        processed += 1
        unresolved += status != SolveStatus.SOLVED.value
        if cert_text is not None and keep_certs_dir is not None:
            name = f"cert_{a}_{b}_{c}.json"
            (keep_certs_dir / name).write_text(cert_text, encoding="utf-8")
        if processed % 250_000 == 0:
            rate = processed / (time.perf_counter() - start)
            print(
                f"... {processed} instances done ({rate:.0f}/s, {unresolved} unresolved)",
                file=sys.stderr,
            )

    worker = functools.partial(_scan_worker, config, keep_certs_dir is not None)
    if jobs == 1:
        for triple in triples:
            consume(worker(triple))
    else:
        import multiprocessing  # here, so a solve or verify process does not load the pool stack

        with multiprocessing.Pool(processes=jobs) as pool:
            for payload in pool.imap_unordered(worker, triples, chunksize=64):
                consume(payload)
    return processed, unresolved


def cmd_scan(args: argparse.Namespace) -> int:
    if args.a_max < 2 or args.c_max < 2 or args.b_max < 1:
        raise CliError("ranges must satisfy a-max >= 2, c-max >= 2, b-max >= 1")
    config = build_config(args)
    jobs = (os.cpu_count() or 1) if args.jobs is None else args.jobs
    if jobs < 1:
        raise CliError(f"jobs must be >= 1, got {jobs}")
    out_path = Path(args.out)
    keep_certs_dir = Path(args.keep_certs) if args.keep_certs else None
    if keep_certs_dir is not None:
        try:
            keep_certs_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliError(f"cannot create {keep_certs_dir}: {exc}") from exc

    # one byte per cube position, in iter_cube order: set once the file holds that triple
    done = bytearray((args.a_max - 1) * args.b_max * (args.c_max - 1))
    held = held_unresolved = 0  # the file's rows before this run, for the closing summary
    retry = []
    dropped = set()  # positions among the file's lines that a retry rewrite leaves out
    existing = os.path.isfile(out_path) and os.path.getsize(out_path) > 0
    if existing:
        for position, record in enumerate(iter_records(out_path)):
            if record is None:
                dropped.add(position)
                continue
            held += 1
            a, b, c = record.a, record.b, record.c
            # a row of a larger cube marks nothing
            if a <= args.a_max and b <= args.b_max and c <= args.c_max:
                done[((a - 2) * args.b_max + b - 1) * (args.c_max - 1) + c - 2] = 1
            if record.status == SolveStatus.UNRESOLVED.value:
                held_unresolved += 1
                if args.retry_unresolved:
                    retry.append((a, b, c))
                    dropped.add(position)
    # the rewrite copies kept rows as lines and replaces retried ones: `done` and `held` stand
    if retry:
        tmp_path = out_path.with_suffix(out_path.suffix + ".tmp")
        try:
            with open(tmp_path, "w", encoding="utf-8", buffering=1) as handle:
                for position, line in enumerate(_lines(out_path)):
                    if position not in dropped:
                        handle.write(line + "\n")
                # the prime cap is the budget that binds: a retry raises it to the verifier's limit
                retry_config = replace(config, prime_budget_cap=MODULUS_CAP)
                _, held_unresolved = _run_pool(retry, retry_config, jobs, keep_certs_dir, handle)
            os.replace(tmp_path, out_path)
        except OSError as exc:
            raise CliError(f"cannot rewrite {out_path}: {exc}") from exc

    cube = iter_cube(args.a_max, args.b_max, args.c_max)
    todo = (t for t, skip in zip(cube, done) if not skip)
    start = time.perf_counter()
    try:
        if existing:
            _terminate_partial_line(out_path)
        with open(out_path, "a", encoding="utf-8", buffering=1) as handle:
            processed, unresolved = _run_pool(todo, config, jobs, keep_certs_dir, handle)
    except OSError as exc:
        raise CliError(f"cannot write {out_path}: {exc}") from exc
    elapsed = time.perf_counter() - start

    print(
        f"scanned {processed} instances in {elapsed:.1f}s "
        f"(jobs={jobs}, new solved={processed - unresolved}, new unresolved={unresolved}); "
        f"file now holds {held + processed} records, {held_unresolved + unresolved} unresolved"
    )
    return EXIT_OK if held_unresolved + unresolved == 0 else EXIT_UNRESOLVED


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args: argparse.Namespace) -> int:
    try:
        data = Path(args.certificate).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {args.certificate}: {exc}") from exc
    try:
        cert = parse_certificate(data.decode("utf-8"))
    except (UnicodeDecodeError, MalformedCertificateError) as exc:
        raise CliError(f"malformed certificate: {exc}") from exc
    verdict = verify_certificate(cert)
    if verdict.accepted:
        print(f"Accept: {cert.instance.equation_text()} has solutions {list(cert.solutions)}")
        return EXIT_OK
    where = "" if verdict.claim_index is None else f" at claim {verdict.claim_index}"
    print(f"Reject{where}: {verdict.reason}")
    return EXIT_REJECTED


# ---------------------------------------------------------------------------
# stats

def cmd_stats(args: argparse.Namespace) -> int:
    """Summarize a results file in one pass, holding only the rows it prints."""
    histogram: dict[int, int] = {}
    tags: dict[str, int] = {}
    unresolved: list[ScanRecord] = []
    top: list[ScanRecord] = []  # the rows at the largest solution count so far
    malformed = 0
    for record in iter_records(args.results):
        if record is None:
            malformed += 1
            continue
        count = record.solution_count
        histogram[count] = histogram.get(count, 0) + 1
        tags[record.class_tag] = tags.get(record.class_tag, 0) + 1
        if record.status == SolveStatus.UNRESOLVED.value:
            unresolved.append(record)
        if not top or count > top[0].solution_count:
            top = [record]
        elif count == top[0].solution_count:
            top.append(record)

    print(f"records: {sum(histogram.values())} ({malformed} malformed lines)")
    print("solution count histogram:")
    for k in sorted(histogram):
        print(f"  {k}: {histogram[k]}")
    max_count = max(histogram) if histogram else 0
    print(f"max solution count: {max_count}")
    if histogram:
        print("instances attaining the maximum:")
        for record in sorted(top, key=lambda r: (r.a, r.b, r.c)):
            inst = EquationInstance(record.a, record.b, record.c)
            sols = " ".join(f"({x},{y})" for x, y in record.solutions) or "-"
            print(f"  {inst.equation_text()}: {sols}")
    print("class breakdown:")
    for tag in sorted(tags):
        print(f"  {tag}: {tags[tag]}")
    if unresolved:
        print(f"unresolved ({len(unresolved)}):")
        for record in sorted(unresolved, key=lambda r: (r.a, r.b, r.c)):
            print(f"  ({record.a}, {record.b}, {record.c})")
    else:
        print("unresolved: none")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expodio",
        description="Solve a^x + b = c^y, generate proof certificates, verify them, scan ranges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance")
    p_solve.add_argument("a", type=int)
    p_solve.add_argument("b", type=int)
    p_solve.add_argument("c", type=int)
    p_solve.add_argument("--emit-lean", metavar="DIR", help="write the Lean proof script here")
    p_solve.add_argument("--emit-text", metavar="DIR", help="write the prose proof here")
    p_solve.add_argument("--cert", metavar="FILE", help="write the serialized certificate here")
    p_solve.add_argument("--json", action="store_true", help="print a scan-record JSON line")
    p_solve.add_argument("--verbose", "-v", action="store_true", help="log the search progress")
    _add_config_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_scan = sub.add_parser("scan", help="solve every instance in a parameter cube")
    p_scan.add_argument("--a-max", type=int, required=True)
    p_scan.add_argument("--b-max", type=int, required=True)
    p_scan.add_argument("--c-max", type=int, required=True)
    p_scan.add_argument("--out", required=True, metavar="FILE", help="JSONL output, resumed if present")
    p_scan.add_argument("--jobs", type=int, help="worker count (default: CPUs)")
    p_scan.add_argument("--keep-certs", metavar="DIR", help="also store certificate files here")
    p_scan.add_argument(
        "--retry-unresolved",
        action="store_true",
        help="first re-run unresolved records with the prime cap raised to 2^62",
    )
    _add_config_flags(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_verify = sub.add_parser("verify", help="re-validate a certificate file")
    p_verify.add_argument("certificate", metavar="FILE")
    p_verify.set_defaults(func=cmd_verify)

    p_stats = sub.add_parser("stats", help="summarize a scan results file")
    p_stats.add_argument("results", metavar="FILE")
    p_stats.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; this tool reports 1
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout may surface only here
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader went away; devnull takes the interpreter's closing flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
