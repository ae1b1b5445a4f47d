from __future__ import annotations

import re

import pytest
from goldens import (
    COPRIME200_DIGEST,
    COPRIME200_PROOFS_DIGEST,
    CUBE12_DIGEST,
    CUBE12_PROOFS_DIGEST,
    coprime_triples,
    cube_output_digests,
    output_digests,
)

from expodio import (
    EquationInstance,
    Mode,
    emit_lean,
    emit_text,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from expodio import emit as emit_module
from expodio.certificate import CertShape
from expodio.emit import (
    PRELUDE,
    PRELUDE_FILENAME,
    EmitRefusedError,
    theorem_name,
    write_proof_files,
)
from expodio.engine import (
    ModulusCandidate,
    build_direct_exclusion_certificate,
    build_magic_prime_certificate,
    exclusion_step,
    magic_prime_search,
)

_KIND_SEQUENCES = {
    CertShape.DIVISIBILITY_NO_SOLUTION: ["pow_mod_eq_zero", "observe_mod_cycle"],
    CertShape.COMMON_FACTOR_BOUND: [
        "pow_mod_eq_zero",
        "pow_mod_eq_zero",
        "diophantine1_enumeration",
    ],
    CertShape.DIRECT_MODULAR_EXCLUSION: [
        "pow_mod_eq_zero",
        "observe_mod_cycle",
        "diophantine1_enumeration",
    ],
    CertShape.MAGIC_PRIME_EXCLUSION: [
        "pow_mod_eq_zero",
        "observe_mod_cycle",
        "utilize_mod_cycle",
        None,  # compute_mod_add or compute_mod_sub, by mode
        "exhaust_mod_cycle",
        "diophantine1_enumeration",
    ],
}


def _direct_cert_7_3_10():
    # the textbook route: no magic prime, exclusion at y >= 3 modulo 8
    inst = EquationInstance(7, 3, 10)
    return build_direct_exclusion_certificate(inst, Mode.FORWARD, 2, 3, 3, [(1, 1)])


def _magic_cert_2_1_3():
    # the textbook route: forward mode, magic prime 19 on x = 9 (mod 18)
    inst = EquationInstance(2, 1, 3)
    cand = ModulusCandidate(Mode.FORWARD, 3, 3, 3)
    step = exclusion_step(inst, cand)
    prime, lift = magic_prime_search(inst, step.constraint)
    assert prime == 19
    return build_magic_prime_certificate(
        inst, Mode.FORWARD, 3, 3, 3, step.constraint.residue, prime, lift, [(1, 1), (3, 2)]
    )


class TestEmitText:
    def test_direct_exclusion_narrative(self):
        text = emit_text(_direct_cert_7_3_10())
        assert "if y >= 3, 7 ^ x = 5 (mod 8)." in text
        assert "However, this is impossible." in text
        assert "Therefore, y < 3." in text
        assert "Further examination shows that (x, y) = (1, 1)." in text

    def test_bound_zero_narrative(self, golden_certificates):
        text = emit_text(golden_certificates[(3, 1, 9)])
        assert "if x >= 1 and y >= 1," in text
        assert "1 = 0 (mod 3), which is impossible." in text
        assert "Therefore, x < 1 or y < 1." in text
        assert "So 3 ^ x + 1 = 9 ^ y is impossible." in text

    def test_magic_prime_narrative_with_lift(self, golden_certificates):
        text = emit_text(golden_certificates[(2, 89, 91)])
        assert "(Class II, Front Mode, with magic prime 2647)" in text
        assert "So x = 76 (mod 147)," in text
        assert "which implies x = 76, 223, 370, 517, 664, 811, 958, 1105, 1252 (mod 1323)." in text
        assert "Therefore, 2 ^ x = 1994, 852, 1811, 957, 1447, 1513, 2343, 348, 1970 (mod 2647)." in text
        assert "So 91 ^ y = 2083, 941, 1900, 1046, 1536, 1602, 2432, 437, 2059 (mod 2647)," in text

    def test_magic_prime_narrative_with_reduction(self, golden_certificates):
        text = emit_text(golden_certificates[(3, 7, 2)])
        assert "So y = 16 (mod 18)," in text
        assert "which implies y = 7 (mod 9)." in text
        assert "Therefore, 2 ^ y = 55 (mod 73)." in text
        assert "So 3 ^ x = 48 (mod 73), but this is impossible." in text

    def test_forward_magic_narrative(self):
        text = emit_text(_magic_cert_2_1_3())
        assert "if y >= 3, 2 ^ x = 26 (mod 27)." in text
        assert "So x = 9 (mod 18)." in text
        assert "Therefore, 2 ^ x = 18 (mod 19)." in text
        assert "So 3 ^ y = 0 (mod 19), but this is impossible." in text

    def test_class_one_narratives(self, golden_certificates):
        assert "because it implies that 2 ^ x = 0 (mod 3)." in emit_text(
            golden_certificates[(2, 6, 9)]
        )
        assert "because it implies that 7 ^ y = 0 (mod 2)." in emit_text(
            golden_certificates[(2, 4, 7)]
        )

    def test_refuses_tampered_certificate(self, golden_certificates):
        import dataclasses

        cert = golden_certificates[(5, 3, 2)]
        broken = dataclasses.replace(cert, solutions=((1, 3),))
        with pytest.raises(EmitRefusedError):
            emit_text(broken)


class TestEmitLean:
    def test_theorem_naming(self, golden_certificates):
        cert = golden_certificates[(2, 89, 91)]
        assert theorem_name(cert) == "diophantine1_2_89_91"
        assert "theorem diophantine1_2_89_91 (x : Nat) (y : Nat)" in emit_lean(cert)

    def test_goal_is_false_iff_no_solutions(self, golden_certificates):
        for triple, cert in golden_certificates.items():
            # the theorem statement: what follows the prose comment, up to the proof
            statement = emit_lean(cert).partition("\n-/\n")[2].split(":= by")[0]
            if cert.solutions:
                assert "  False\n" not in statement
                assert f"List.Mem (x, y)" in statement
            else:
                assert statement.endswith("\n  False\n  ")

    def test_membership_goal_format(self, golden_certificates):
        assert "List.Mem (x, y) [(1, 1), (5, 2)]" in emit_lean(golden_certificates[(2, 4, 6)])

    def test_claim_kinds_follow_templates(self, golden_certificates):
        extra = {"direct": _direct_cert_7_3_10(), "magic": _magic_cert_2_1_3()}
        for cert in list(golden_certificates.values()) + list(extra.values()):
            quoted = re.findall(r'\] "([a-z0-9_]+)"', emit_lean(cert))
            expected = list(_KIND_SEQUENCES[cert.shape])
            if cert.shape is CertShape.MAGIC_PRIME_EXCLUSION:
                expected[3] = (
                    "compute_mod_add" if cert.mode is Mode.FORWARD else "compute_mod_sub"
                )
            assert quoted == expected, cert.instance

    def test_revalidator_strings_verbatim(self):
        lean = emit_lean(_magic_cert_2_1_3())
        for kind in (
            "pow_mod_eq_zero",
            "observe_mod_cycle",
            "utilize_mod_cycle",
            "compute_mod_add",
            "exhaust_mod_cycle",
            "diophantine1_enumeration",
        ):
            assert f'"{kind}"' in lean

    def test_hypotheses_and_case_split(self):
        body = emit_lean(_magic_cert_2_1_3())
        assert "(h1 : x >= 1) (h2 : y >= 1)" in body
        assert "(h3 : 2 ^ x + 1 = 3 ^ y) :" in body
        assert "by_cases h6 : y >= 3" in body
        assert "{prop := x % 18 = 9, proof := h9}," in body

    def test_each_render_lifts_once(self, golden_certificates, monkeypatch, tmp_path):
        # the prose and the script share one computation of the magic
        # prime's lists: one _lift per emit_lean, emit_text or write_proof_files
        cert = golden_certificates[(2, 89, 91)]
        assert cert.shape is CertShape.MAGIC_PRIME_EXCLUSION
        assert verify_certificate(cert).accepted
        calls = []
        lift = emit_module._lift
        monkeypatch.setattr(emit_module, "_lift", lambda *args: calls.append(args) or lift(*args))
        emit_lean(cert)
        assert len(calls) == 1
        emit_text(cert)
        assert len(calls) == 2
        write_proof_files(cert, tmp_path)
        assert len(calls) == 3

    def test_deterministic_output(self, golden_certificates):
        for cert in golden_certificates.values():
            assert emit_lean(cert) == emit_lean(cert)
            assert emit_text(cert) == emit_text(cert)


def _frozen(path) -> str:
    return path.read_text(encoding="utf-8").strip()


@pytest.fixture(scope="module")
def cube12_digests():
    # every shape in both modes and every wrap rule; regen_golden.py writes the files
    return cube_output_digests(12)


@pytest.fixture(scope="module")
def coprime200_digests():
    # magic primes above 41^2 and lifts of up to 73 residues, which the
    # 12-cube never reaches; regen_golden.py writes the files
    return output_digests(coprime_triples())


def test_cube12_output_bytes_match_frozen_digest(cube12_digests):
    assert cube12_digests[0] == _frozen(CUBE12_DIGEST)


def test_coprime200_output_bytes_match_frozen_digest(coprime200_digests):
    assert coprime200_digests[0] == _frozen(COPRIME200_DIGEST)


def test_cube12_proof_bytes_match_frozen_digest(cube12_digests):
    # the proofs alone, which no certificate format change may move
    assert cube12_digests[1] == _frozen(CUBE12_PROOFS_DIGEST)


def test_coprime200_proof_bytes_match_frozen_digest(coprime200_digests):
    assert coprime200_digests[1] == _frozen(COPRIME200_PROOFS_DIGEST)


class TestWriteProofFiles:
    def test_writes_lean_text_and_prelude(self, tmp_path, golden_certificates):
        cert = golden_certificates[(3, 7, 2)]
        written = write_proof_files(cert, tmp_path)
        names = {p.name for p in written}
        assert names == {PRELUDE_FILENAME, "diophantine1_3_7_2.lean", "diophantine1_3_7_2.txt"}
        assert (tmp_path / PRELUDE_FILENAME).read_text(encoding="utf-8") == PRELUDE
        lean = (tmp_path / "diophantine1_3_7_2.lean").read_text(encoding="utf-8")
        assert lean.startswith("/-\n(Class II, Back Mode, with magic prime 73)")
        assert "structure VerifiedFact" in PRELUDE and "axiom Claim" in PRELUDE
        assert lean == emit_lean(cert)
        assert (tmp_path / "diophantine1_3_7_2.txt").read_text(encoding="utf-8") == emit_text(cert)

    def test_rejected_certificate_writes_nothing(self, tmp_path, golden_certificates):
        # 883 is the first prime of the progression, which fails as a magic prime
        import dataclasses

        broken = dataclasses.replace(golden_certificates[(2, 89, 91)], prime=883)
        target = tmp_path / "proofs"
        with pytest.raises(EmitRefusedError):
            write_proof_files(broken, target)
        assert not target.exists()

    def test_rewrite_is_byte_identical(self, tmp_path, golden_certificates):
        cert = golden_certificates[(5, 3, 2)]
        write_proof_files(cert, tmp_path)
        first = (tmp_path / "diophantine1_5_3_2.lean").read_bytes()
        write_proof_files(cert, tmp_path)
        assert (tmp_path / "diophantine1_5_3_2.lean").read_bytes() == first


class TestVerifyOnce:
    @pytest.fixture
    def verify_calls(self, monkeypatch):
        """Count the verifier runs the renderers make through emit.verify_certificate."""
        import expodio.emit as emit_module

        calls = []
        real = emit_module.verify_certificate

        def counting(cert):
            calls.append(cert)
            return real(cert)

        monkeypatch.setattr(emit_module, "verify_certificate", counting)
        return calls

    @staticmethod
    def _fresh(cert):
        return parse_certificate(serialize_certificate(cert))

    def test_renderers_reuse_an_acceptance(self, verify_calls, golden_certificates):
        for cert in golden_certificates.values():
            cert = self._fresh(cert)
            assert verify_certificate(cert).accepted
            emit_lean(cert)
            emit_text(cert)
        assert verify_calls == []

    def test_write_proof_files_verifies_once(self, verify_calls, tmp_path, golden_certificates):
        cert = self._fresh(golden_certificates[(2, 89, 91)])
        written = write_proof_files(cert, tmp_path)
        assert len(written) == 3
        assert verify_calls == [cert]

    def test_cli_solve_with_both_outputs_verifies_once(self, verify_calls, tmp_path, capsys):
        from expodio.cli import main

        out = str(tmp_path)
        assert main(["solve", "5", "3", "2", "--emit", out]) == 0
        capsys.readouterr()
        assert len(verify_calls) == 1
        assert (tmp_path / "diophantine1_5_3_2.lean").exists()
        assert (tmp_path / "diophantine1_5_3_2.txt").exists()

    def test_rejected_certificate_is_verified_each_time(self, verify_calls, golden_certificates):
        import dataclasses

        broken = dataclasses.replace(golden_certificates[(5, 3, 2)], solutions=((1, 3),))
        for render in (emit_text, emit_lean, emit_text):
            with pytest.raises(EmitRefusedError):
                render(broken)
        assert len(verify_calls) == 3
