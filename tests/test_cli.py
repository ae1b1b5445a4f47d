from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest
from conftest import HOSTILE_DEEP, HOSTILE_DIGITS, read_rows
from oracle import brute_force_solutions

import expodio.cli as cli_module
from expodio import certificate_digest, parse_certificate, verify_certificate
from expodio.cli import ScanRecord, build_parser, iter_cube, main

SRC = Path(__file__).resolve().parent.parent / "src"
README = Path(__file__).resolve().parent.parent / "README.md"

# The (2, 6, 9) certificate in the retired format /3.
_FORMAT_3_CERTIFICATE = (
    '{"format":"diophantine1-certificate/3","instance":{"a":2,"b":6,"c":9},'
    '"shape":"DivisibilityNoSolution","mode":"Forward","witness_prime":3,'
    '"modulus_exponent":1,"bound_threshold":1,"solutions":[],'
    '"claims":[{"kind":"pow_mod_eq_zero","params":{"base":9,"variable":"y","threshold":1,'
    '"modulus":3},"premises":[]},{"kind":"observe_mod_cycle","params":{"base":2,'
    '"variable":"x","target":0,"modulus":3,"order":2,"order_factors":[2],'
    '"outcome":"impossible"},"premises":[0]}]}'
)


def run_cli(args: list[str], capsys) -> tuple[int, str, str]:
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_summary_recounts(out: str, path) -> None:
    """The closing summary's totals are those of a recount of the file."""
    rows, _ = read_rows(path)
    unresolved = sum(r.status == "Unresolved" for r in rows)
    assert f"file now holds {len(rows)} records, {unresolved} unresolved" in out, out


class TestSolveCommand:
    def test_two_solutions(self, capsys):
        code, out, _ = run_cli(["solve", "5", "3", "2"], capsys)
        assert code == 0
        assert "(1,3) (3,7)" in out
        assert "Solved" in out

    def test_no_solutions(self, capsys):
        code, out, _ = run_cli(["solve", "3", "5", "7"], capsys)
        assert code == 0
        assert "no solutions" in out

    def test_usage_error(self, capsys):
        code, _, err = run_cli(["solve", "1", "3", "2"], capsys)
        assert code == 1
        assert "a must be >= 2" in err

    def test_unresolved_exit_code(self, capsys):
        code, out, _ = run_cli(["solve", "5", "3", "2", "--prime-count", "0"], capsys)
        assert code == 2
        assert "Unresolved" in out

    def test_unresolved_skips_proof_outputs(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.json"
        code, _, err = run_cli(
            ["solve", "5", "3", "2", "--prime-count", "0", "--cert", str(cert_file)],
            capsys,
        )
        assert code == 2
        assert not cert_file.exists()
        assert "no certificate produced" in err

    def test_prime_cap_above_the_verifier_limit_rejected(self, capsys, tmp_path):
        # a magic prime past 2^62 would make a certificate that verify rejects
        cert_file = tmp_path / "cert.json"
        code, _, err = run_cli(
            ["solve", "2756340000392378401", "1", "3109674063836340001",
             "--prime-cap", str(1 << 64), "--cert", str(cert_file)],
            capsys,
        )
        assert code == 1
        assert "invalid solver configuration" in err
        assert not cert_file.exists()

    def test_large_budget_flags_accepted(self, capsys):
        # a budget past 2^64 is an int like any other
        code, out, _ = run_cli(
            ["solve", "5", "3", "2", "--time-limit", "30", "--prime-count", str(10**30)], capsys
        )
        assert code == 0
        assert "(1,3) (3,7)" in out

    def test_nan_time_limit_rejected(self, capsys):
        code, _, err = run_cli(["solve", "5", "3", "2", "--time-limit", "nan"], capsys)
        assert code == 1
        assert "wall limit must be positive" in err

    def test_no_queue_pop_budget(self, capsys):
        # the queue empties by itself: each prime factor adds at most 62 moduli
        code, _, err = run_cli(["solve", "5", "3", "2", "--max-pops", "1"], capsys)
        assert code == 1
        assert "unrecognized arguments: --max-pops" in err

    def test_no_config_file_option(self, capsys):
        # budgets are set by their flags alone
        code, _, err = run_cli(["solve", "5", "3", "2", "--config", "f.json"], capsys)
        assert code == 1
        assert "unrecognized arguments: --config" in err

    @pytest.mark.parametrize("flag", ["--ceiling", "--max-modulus"])
    def test_derived_bounds_are_no_options(self, capsys, flag):
        # the initial search's ceiling comes from the instance, the modulus cap is the verifier's
        code, _, err = run_cli(["solve", "5", "3", "2", flag, "10"], capsys)
        assert code == 1
        assert f"unrecognized arguments: {flag}" in err

    def test_json_output(self, capsys):
        code, out, _ = run_cli(["solve", "2", "1", "3", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "Solved"
        assert doc["solutions"] == [[1, 1], [3, 2]]
        assert doc["class_tag"] == "ClassII"
        assert doc["certificate_digest"]

    def test_cert_and_proof_outputs(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.json"
        proof_dir = tmp_path / "proofs"
        code, _, _ = run_cli(
            ["solve", "2", "89", "91", "--cert", str(cert_file),
             "--emit", str(proof_dir)],
            capsys,
        )
        assert code == 0
        cert = parse_certificate(cert_file.read_text())
        assert verify_certificate(cert).accepted
        # the file holds the canonical bytes, whatever the platform's line separator
        assert hashlib.sha256(cert_file.read_bytes()).hexdigest() == certificate_digest(cert)
        assert (proof_dir / "diophantine1_2_89_91.lean").exists()
        assert (proof_dir / "diophantine1_2_89_91.txt").exists()
        assert (proof_dir / "prelude.lean").exists()

    def test_verbose_trace(self, capsys):
        code, out, _ = run_cli(["solve", "2", "89", "91", "-v"], capsys)
        assert code == 0
        assert "-- Trying to disprove y >= 3 with prime factor 7 of 91 ..." in out
        assert "-- Trying prime 883..." in out
        assert "-- Trying prime 2647..." in out
        assert "-- Succeeded." in out

    def test_module_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "expodio", "solve", "5", "3", "2"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "(1,3) (3,7)" in proc.stdout

    @pytest.mark.parametrize("command", ["solve", "stats"])
    def test_closed_stdout_ends_quietly(self, tmp_path, command):
        # the reader closes the pipe before the first write: exit 1, with no
        # traceback and no failed flush at interpreter exit
        results = tmp_path / "results.jsonl"
        results.write_text("{}\n")
        argv = {"solve": ["solve", "2", "1", "3", "--prime-count", "0", "-v"],
                "stats": ["stats", str(results)]}[command]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "expodio", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 1, err
        assert "Traceback" not in err and "Exception ignored" not in err, err

    def test_import_leaves_the_pool_and_the_hash_unloaded(self):
        # what `expodio solve` and `expodio verify` load: a scan loads
        # multiprocessing at its first pool and hashlib at its first digest
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        probe = (
            "import sys, expodio, expodio.cli; "
            "print(sorted({'multiprocessing', 'hashlib'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestScanRecord:
    @pytest.mark.parametrize(
        "solutions, digest, text",
        [
            (((1, 1), (3, 2)), "ab" * 32,
             '{"a":2,"b":1,"c":3,"status":"Solved","class_tag":"ClassII","solution_count":2,'
             '"solutions":[[1,1],[3,2]],"certificate_digest":"' + "ab" * 32 + '",'
             '"elapsed_ms":1.235}'),
            ((), None,
             '{"a":2,"b":1,"c":3,"status":"Solved","class_tag":"ClassII","solution_count":0,'
             '"solutions":[],"certificate_digest":null,"elapsed_ms":1.235}'),
        ],
    )
    def test_row_bytes_and_round_trip(self, solutions, digest, text):
        record = ScanRecord(
            a=2, b=1, c=3, status="Solved", class_tag="ClassII", solution_count=len(solutions),
            solutions=solutions, certificate_digest=digest, elapsed_ms=1.23456,
        )
        assert record.to_json() == text
        assert ScanRecord.from_json(text) == dataclasses.replace(record, elapsed_ms=1.235)


class TestScanCommand:
    def test_small_scan_and_stats(self, capsys, tmp_path):
        out_file = tmp_path / "scan.jsonl"
        code, out, _ = run_cli(
            ["scan", "--a-max", "6", "--b-max", "6", "--c-max", "6",
             "--jobs", "1", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        records, malformed = read_rows(out_file)
        assert malformed == 0
        assert len(records) == 5 * 6 * 5
        assert all(r.status == "Solved" for r in records)
        by_triple = {(r.a, r.b, r.c): r for r in records}
        assert by_triple[(2, 4, 6)].solutions == ((1, 1), (5, 2))
        assert by_triple[(2, 1, 3)].solution_count == 2

        code, out, _ = run_cli(["stats", str(out_file)], capsys)
        assert code == 0
        assert "max solution count: 2" in out
        assert "2 ^ x + 1 = 3 ^ y" in out
        assert "unresolved: none" in out

    def test_twelve_cube_two_solution_set(self, capsys, tmp_path):
        # the 12-cube contains four of the known two-solution equations;
        # brute force over the cube confirms the counts
        out_file = tmp_path / "scan12.jsonl"
        code, out, _ = run_cli(
            ["scan", "--a-max", "12", "--b-max", "12", "--c-max", "12",
             "--jobs", "2", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        records, _ = read_rows(out_file)
        assert len(records) == 11 * 12 * 11
        assert max(r.solution_count for r in records) == 2
        attained = {(r.a, r.b, r.c) for r in records if r.solution_count == 2}
        assert attained == {(2, 1, 3), (2, 4, 6), (3, 5, 2), (5, 3, 2)}
        for record in records:
            if record.solution_count == 2:
                a, b, c = record.a, record.b, record.c
                assert list(record.solutions) == brute_force_solutions(a, b, c)

        code, out, _ = run_cli(["stats", str(out_file)], capsys)
        assert code == 0
        assert "max solution count: 2" in out

    def test_jobs_invariance(self, capsys, tmp_path):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        args = ["scan", "--a-max", "5", "--b-max", "5", "--c-max", "5"]
        assert run_cli(args + ["--jobs", "1", "--out", str(serial)], capsys)[0] == 0
        assert run_cli(args + ["--jobs", "2", "--out", str(parallel)], capsys)[0] == 0

        def canonical(path):
            records, _ = read_rows(path)
            return sorted(
                (r.a, r.b, r.c, r.status, r.class_tag, r.solutions, r.certificate_digest)
                for r in records
            )

        assert canonical(serial) == canonical(parallel)

    def test_resume_completes_without_duplicates(self, capsys, tmp_path):
        out_file = tmp_path / "scan.jsonl"
        args = ["scan", "--a-max", "5", "--b-max", "5", "--c-max", "5", "--jobs", "1",
                "--out", str(out_file)]
        assert run_cli(args, capsys)[0] == 0
        full_records, _ = read_rows(out_file)

        lines = out_file.read_text().splitlines(keepends=True)
        keep = len(lines) // 2
        # truncate mid-line to model a crash during a write
        out_file.write_text("".join(lines[:keep]) + lines[keep][: len(lines[keep]) // 2])

        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert_summary_recounts(out, out_file)
        resumed, malformed = read_rows(out_file)
        keys = [(r.a, r.b, r.c) for r in resumed]
        assert len(keys) == len(set(keys)) == len(full_records)
        assert {(r.a, r.b, r.c, r.solutions) for r in resumed} == {
            (r.a, r.b, r.c, r.solutions) for r in full_records
        }

    def test_resume_skips_foreign_and_broken_rows(self, capsys, tmp_path):
        # rows of a larger cube and a row that is no instance mark nothing,
        # and a line that is not UTF-8 and a truncated last line are not
        # rows: every triple of the smaller cube ends up in the file exactly once
        out_file = tmp_path / "scan.jsonl"
        args = ["scan", "--a-max", "4", "--b-max", "3", "--c-max", "4", "--jobs", "1",
                "--out", str(out_file)]

        def row(a, b, c):
            return ScanRecord(
                a=a, b=b, c=c, status="Solved", class_tag="ClassII", solution_count=0,
                solutions=(), certificate_digest=None, elapsed_ms=1.0,
            ).to_json()

        # unchecked, (2, 4, 2) and (2, 1, 5) would mark the positions of
        # (3, 1, 2) and (2, 2, 2), (5, 1, 2) would index past the end,
        # (1, 3, 4) would mark the last position, (4, 3, 4), from the end,
        # and a = 3.5 read as 3 would mark (3, 2, 2)
        foreign = [row(2, 4, 2), row(2, 1, 5), row(5, 1, 2), row(1, 3, 4), row(3.5, 2, 2)]
        hostile = [HOSTILE_DEEP, row(2, 3, 2).replace('"b":3', '"b":' + HOSTILE_DIGITS)]
        text = "\n".join([*foreign, *hostile, row(2, 1, 2), row(3, 2, 3)[:20]])
        out_file.write_bytes(b"\xff\xfe bad\n" + text.encode())
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert_summary_recounts(out, out_file)
        rows, malformed = read_rows(out_file)
        # the a = 1 and a = 3.5 rows, the two hostile rows, the line that is
        # not UTF-8 and the truncated line
        assert malformed == 6
        cube = list(iter_cube(4, 3, 4))
        keys = [(r.a, r.b, r.c) for r in rows if (r.a, r.b, r.c) in cube]
        assert sorted(keys) == sorted(cube)

    def test_resume_holds_no_rows(self, capsys, tmp_path):
        # the 17-cube, fully recorded: resuming solves nothing, and holds one
        # byte per cube position rather than the 4,352 rows
        out_file = tmp_path / "scan.jsonl"
        lines = [
            ScanRecord(
                a=a, b=b, c=c, status="Solved", class_tag="ClassII", solution_count=0,
                solutions=(), certificate_digest="ab" * 32, elapsed_ms=0.5,
            ).to_json() + "\n"
            for a, b, c in iter_cube(17, 17, 17)
        ]
        assert len(lines) == 4352
        out_file.write_text("".join(lines))
        del lines

        tracemalloc.start()
        try:
            code = main(["scan", "--a-max", "17", "--b-max", "17", "--c-max", "17",
                         "--jobs", "1", "--out", str(out_file)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert code == 0
        assert "scanned 0 instances" in out
        assert "file now holds 4352 records, 0 unresolved" in out
        # parsing every row into a set of triples peaked at about 2.4 MB
        assert peak < 1_000_000, peak

    def test_keep_certs(self, capsys, tmp_path):
        out_file = tmp_path / "scan.jsonl"
        certs_dir = tmp_path / "certs"
        code, _, _ = run_cli(
            ["scan", "--a-max", "3", "--b-max", "3", "--c-max", "3", "--jobs", "1",
             "--out", str(out_file), "--keep-certs", str(certs_dir)],
            capsys,
        )
        assert code == 0
        cert_files = sorted(certs_dir.glob("cert_*.json"))
        records, _ = read_rows(out_file)
        assert len(cert_files) == sum(1 for r in records if r.certificate_digest)
        for r in records:
            if r.certificate_digest:
                data = (certs_dir / f"cert_{r.a}_{r.b}_{r.c}.json").read_bytes()
                assert hashlib.sha256(data).hexdigest() == r.certificate_digest
        sample = parse_certificate((certs_dir / "cert_2_1_3.json").read_text())
        assert verify_certificate(sample).accepted

    def test_retry_unresolved(self, capsys, tmp_path):
        out_file = tmp_path / "scan.jsonl"
        tiny = ["--prime-count", "0"]
        args = ["scan", "--a-max", "5", "--b-max", "3", "--c-max", "3", "--jobs", "1",
                "--out", str(out_file)]
        # exit code 2 reports that unresolved records remain
        assert run_cli(args + tiny, capsys)[0] == 2
        records, _ = read_rows(out_file)
        assert any(r.status == "Unresolved" for r in records)

        code, out, _ = run_cli(args + ["--retry-unresolved"], capsys)
        assert code == 0
        assert_summary_recounts(out, out_file)
        retried, _ = read_rows(out_file)
        assert all(r.status == "Solved" for r in retried)
        keys = [(r.a, r.b, r.c) for r in retried]
        assert len(keys) == len(set(keys)) == len(records)

    def test_retry_raises_the_prime_cap(self, capsys, tmp_path):
        # the same command, budgets included, resolves its rows once the
        # retry lifts the cap to 2^62; the prime count and pops were never short
        out_file = tmp_path / "scan.jsonl"
        args = ["scan", "--a-max", "5", "--b-max", "3", "--c-max", "3", "--jobs", "1",
                "--prime-cap", "2", "--out", str(out_file)]
        assert run_cli(args, capsys)[0] == 2
        records, _ = read_rows(out_file)
        unresolved = [(r.a, r.b, r.c) for r in records if r.status == "Unresolved"]
        assert unresolved == [(2, 1, 3), (5, 1, 3), (5, 2, 3), (5, 3, 2)]

        code, out, _ = run_cli(args + ["--retry-unresolved"], capsys)
        assert code == 0
        assert_summary_recounts(out, out_file)
        retried, _ = read_rows(out_file)
        assert len(retried) == len(records)
        assert all(r.status == "Solved" for r in retried)

    def test_retry_copies_kept_rows_as_written(self, capsys, tmp_path):
        # the rewrite copies each kept row byte for byte, here one written
        # with spaces after its separators, instead of encoding it again;
        # the Unresolved row it retries, the line that is not UTF-8 ahead of
        # the kept row and the truncated line are left out
        out_file = tmp_path / "scan.jsonl"

        def row(c, status):
            return ScanRecord(
                a=2, b=1, c=c, status=status, class_tag="ClassII", solution_count=0,
                solutions=(), certificate_digest=None, elapsed_ms=1.0,
            )

        kept = json.dumps(vars(row(2, "Solved")))
        assert ", " in kept and ": " in kept
        text = "\n".join([kept, row(3, "Unresolved").to_json(), '{"truncated": '])
        out_file.write_bytes(b"\xff\xfe bad\n" + text.encode())
        code, out, _ = run_cli(
            ["scan", "--a-max", "2", "--b-max", "1", "--c-max", "3", "--jobs", "1",
             "--out", str(out_file), "--retry-unresolved"],
            capsys,
        )
        assert code == 0
        assert_summary_recounts(out, out_file)
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert lines[0] == kept
        assert len(lines) == 2
        retried = ScanRecord.from_json(lines[1])
        assert (retried.a, retried.b, retried.c, retried.status) == (2, 1, 3, "Solved")

    def test_summary_counts_rows_already_in_the_file(self, capsys, tmp_path):
        # the closing summary covers the whole file: an Unresolved row from
        # an earlier run sets exit code 2, and a malformed line is not counted
        out_file = tmp_path / "scan.jsonl"
        old = ScanRecord(
            a=40, b=1, c=3, status="Unresolved", class_tag="ClassII", solution_count=0,
            solutions=(), certificate_digest=None, elapsed_ms=1.0,
        )
        out_file.write_text(old.to_json() + "\n" + '{"truncated": ')
        code, out, _ = run_cli(
            ["scan", "--a-max", "3", "--b-max", "2", "--c-max", "3", "--jobs", "1",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 2
        assert "new solved=8, new unresolved=0" in out
        assert "file now holds 9 records, 1 unresolved" in out

    def test_reads_the_file_once_per_pass_it_needs(self, capsys, tmp_path, monkeypatch):
        # the summary is counted while scanning: a fresh scan parses no row,
        # and a scan into a non-empty file parses it once; a retry's rewrite
        # copies the rows it keeps as lines
        calls = []
        real = cli_module.iter_records

        def counted(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(cli_module, "iter_records", counted)
        out_file = tmp_path / "scan.jsonl"
        args = ["scan", "--a-max", "5", "--b-max", "3", "--c-max", "3", "--jobs", "1"]
        tiny = ["--prime-count", "0"]
        other = tmp_path / "other.jsonl"
        other.write_text("")
        for extra, out_path, code, reads in [
            (tiny, out_file, 2, 0),  # a new file, left with Unresolved rows
            ([], other, 0, 0),  # an empty file, then filled
            ([], other, 0, 1),
            (["--retry-unresolved"], out_file, 0, 1),
        ]:
            calls.clear()
            got, out, _ = run_cli(args + ["--out", str(out_path)] + extra, capsys)
            assert (got, len(calls)) == (code, reads), extra
            assert_summary_recounts(out, out_path)

    def test_resume_is_no_option(self, capsys, tmp_path):
        # every scan skips the triples its file holds
        code, _, err = run_cli(
            ["scan", "--a-max", "3", "--b-max", "3", "--c-max", "3", "--jobs", "1",
             "--out", str(tmp_path / "scan.jsonl"), "--resume"],
            capsys,
        )
        assert code == 1
        assert "unrecognized arguments: --resume" in err

    def test_jobs_default_to_the_cpu_count(self, capsys, tmp_path, monkeypatch):
        # without --jobs the worker count is the CPU count; no variable is read
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setenv("EXPODIO_JOBS", "x")
        out_file = tmp_path / "scan.jsonl"
        code, out, _ = run_cli(
            ["scan", "--a-max", "3", "--b-max", "3", "--c-max", "3", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        assert "jobs=1" in out

    def test_jobs_below_one_rejected(self, capsys, tmp_path):
        out_file = tmp_path / "scan.jsonl"
        code, _, err = run_cli(
            ["scan", "--a-max", "3", "--b-max", "3", "--c-max", "3", "--jobs", "0",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 1
        assert "jobs must be >= 1" in err
        assert not out_file.exists()

    def test_keep_certs_dir_that_cannot_be_made(self, tmp_path):
        # a directory under a regular file: an error line, not a traceback
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "expodio", "scan", "--a-max", "3", "--b-max", "2",
             "--c-max", "3", "--jobs", "1", "--out", str(tmp_path / "scan.jsonl"),
             "--keep-certs", str(blocker / "sub")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: cannot create "), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unwritable_output(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["scan", "--a-max", "3", "--b-max", "2", "--c-max", "3",
             "--jobs", "1", "--out", str(tmp_path / "missing" / "out.jsonl")],
            capsys,
        )
        assert code == 1
        assert "error" in err


class TestVerifyCommand:
    def test_accepts_golden_file(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.json"
        assert run_cli(["solve", "2", "89", "91", "--cert", str(cert_file)], capsys)[0] == 0
        code, out, _ = run_cli(["verify", str(cert_file)], capsys)
        assert code == 0
        assert out.startswith("Accept")

    def test_rejects_tampered_file(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.json"
        assert run_cli(["solve", "3", "7", "2", "--cert", str(cert_file)], capsys)[0] == 0
        doc = json.loads(cert_file.read_text())
        doc["prime_order"][0] += 1
        cert_file.write_text(json.dumps(doc))
        code, out, _ = run_cli(["verify", str(cert_file)], capsys)
        assert code == 3
        assert "Reject" in out

    def test_retired_format_exits_1(self, capsys, tmp_path):
        # a format /3 file, whose claim list restated what the verifier re-derives
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(_FORMAT_3_CERTIFICATE)
        code, _, err = run_cli(["verify", str(cert_file)], capsys)
        assert code == 1
        assert "diophantine1-certificate/3" in err

    def test_empty_file(self, capsys, tmp_path):
        cert_file = tmp_path / "empty.json"
        cert_file.write_text("")
        code, _, err = run_cli(["verify", str(cert_file)], capsys)
        assert code == 1

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run_cli(["verify", str(tmp_path / "nope.json")], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "data",
        [HOSTILE_DEEP.encode(), b'{"format": %s}' % HOSTILE_DIGITS.encode(), b"\xff\xfe{}"],
        ids=["deep", "digits", "not-utf8"],
    )
    def test_hostile_json_is_malformed(self, capsys, tmp_path, data):
        cert_file = tmp_path / "cert.json"
        cert_file.write_bytes(data)
        code, _, err = run_cli(["verify", str(cert_file)], capsys)
        assert code == 1
        assert err.startswith("error: malformed certificate: "), err


class TestStatsCommand:
    def test_empty_file(self, capsys, tmp_path):
        results = tmp_path / "empty.jsonl"
        results.write_text("")
        code, out, _ = run_cli(["stats", str(results)], capsys)
        assert code == 0
        assert "records: 0" in out

    def test_malformed_lines_counted(self, capsys, tmp_path):
        results = tmp_path / "results.jsonl"
        record = ScanRecord(
            a=2, b=1, c=3, status="Solved", class_tag="ClassII", solution_count=2,
            solutions=((1, 1), (3, 2)), certificate_digest="ab" * 32, elapsed_ms=1.0,
        )
        row = record.to_json()
        hostile = [HOSTILE_DEEP, row.replace('"b":1', '"b":' + HOSTILE_DIGITS)]
        # each field of a type to_json does not write, rather than coerced
        mistyped = [
            row.replace("[[1,1],", "[[1.9,1],"),
            row.replace(",[3,2]]", ",[3,true]]"),
            row.replace('"Solved"', "5"),
            row.replace('"ClassII"', "null"),
            row.replace('"solution_count":2', '"solution_count":"2"'),
            row.replace('"' + "ab" * 32 + '"', "5"),
            row.replace('"elapsed_ms":1.0', '"elapsed_ms":"1.0"'),
            row.replace('"elapsed_ms":1.0', '"elapsed_ms":true'),
        ]
        assert all(line != row for line in mistyped)
        text = "\n".join([row, *hostile, *mistyped, '{"truncated": \n'])
        results.write_bytes(text.encode() + b"\xff\xfe bad\n")
        code, out, _ = run_cli(["stats", str(results)], capsys)
        assert code == 0
        assert "records: 1 (12 malformed lines)" in out

    def test_row_that_is_no_instance_is_malformed(self, capsys, tmp_path):
        # a = 1 is outside the parameter domain; such a row on top must not
        # reach the instance the maximum is printed with
        results = tmp_path / "results.jsonl"
        record = ScanRecord(
            a=2, b=1, c=3, status="Solved", class_tag="ClassII", solution_count=2,
            solutions=((1, 1), (3, 2)), certificate_digest="ab" * 32, elapsed_ms=1.0,
        )
        bad = dataclasses.replace(record, a=1, solution_count=3)
        results.write_text(bad.to_json() + "\n" + record.to_json() + "\n")
        code, out, _ = run_cli(["stats", str(results)], capsys)
        assert code == 0
        assert "records: 1 (1 malformed lines)" in out
        assert "max solution count: 2" in out

    def test_streams_the_file(self, capsys, tmp_path):
        # 20,000 rows in cube order: (2, 1, 3), the second row, has two
        # solutions and two rows are unresolved; every other row has none
        results = tmp_path / "results.jsonl"
        lines = []
        for a, b, c in islice(iter_cube(30, 30, 30), 20_000):
            solutions = ((1, 1), (3, 2)) if (a, b, c) == (2, 1, 3) else ()
            status = "Unresolved" if (a, b, c) in ((5, 7, 3), (9, 2, 11)) else "Solved"
            record = ScanRecord(
                a=a, b=b, c=c, status=status, class_tag="ClassII",
                solution_count=len(solutions), solutions=solutions,
                certificate_digest="ab" * 32, elapsed_ms=0.5,
            )
            lines.append(record.to_json() + "\n")
        results.write_text("".join(lines))
        del lines

        tracemalloc.start()
        try:
            code = main(["stats", str(results)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert code == 0
        assert "records: 20000 (0 malformed lines)" in out
        assert "  0: 19999\n  2: 1\nmax solution count: 2\n" in out
        assert "instances attaining the maximum:\n  2 ^ x + 1 = 3 ^ y: (1,1) (3,2)\n" in out
        assert "unresolved (2):\n  (5, 7, 3)\n  (9, 2, 11)\n" in out
        # holding every row took about 8 MB
        assert peak < 2_000_000, peak

        # with no solutions anywhere, every row attains the maximum, 0: none is listed
        zeros = tmp_path / "zeros.jsonl"
        with zeros.open("w") as handle:
            for a, b, c in islice(iter_cube(30, 30, 30), 20_000):
                record = ScanRecord(
                    a=a, b=b, c=c, status="Solved", class_tag="ClassII",
                    solution_count=0, solutions=(),
                    certificate_digest="ab" * 32, elapsed_ms=0.5,
                )
                handle.write(record.to_json() + "\n")
        tracemalloc.start()
        try:
            code = main(["stats", str(zeros)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert code == 0
        assert "max solution count: 0\nclass breakdown:\n" in out
        assert "instances attaining the maximum" not in out
        assert peak < 2_000_000, peak


class TestReadme:
    @staticmethod
    def command_line_options() -> set[str]:
        """The option strings that README's `## Command line` section names."""
        section = README.read_text(encoding="utf-8").split("\n## Command line\n")[1]
        section = section.split("\n## ")[0]
        return set(re.findall(r"(?<![\w-])(--?[a-z][a-z-]*)", section))

    @staticmethod
    def parser_options() -> dict[str, list[list[str]]]:
        """Each subcommand's options, each as its option strings; -h left out."""
        subparsers = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        return {
            name: [
                action.option_strings
                for action in sub._actions
                if action.option_strings and not isinstance(action, argparse._HelpAction)
            ]
            for name, sub in subparsers.choices.items()
        }

    def test_every_option_is_documented(self):
        named = self.command_line_options()
        missing = [
            f"{command} {strings[0]}"
            for command, options in self.parser_options().items()
            for strings in options
            if named.isdisjoint(strings)
        ]
        assert missing == []

    def test_every_documented_flag_exists(self):
        defined = {s for options in self.parser_options().values() for o in options for s in o}
        flags = {o for o in self.command_line_options() if o.startswith("--")}
        assert sorted(flags - defined) == []
