from __future__ import annotations

import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldens import GOLDEN_SUITE
from oracle import brute_force_cycle, brute_force_solutions

from expodio import (
    Constraint,
    EquationInstance,
    Mode,
    SolverConfig,
    SolveStatus,
    arith,
    emit_lean,
    final_enumeration,
    initial_search,
    magic_prime_search,
    parse_certificate,
    serialize_certificate,
    solve,
    verify_certificate,
    witness_for_prime,
)
from expodio.certificate import MODULUS_CAP, CertShape, _expected_target, _lift
from expodio.classify import ClassTag, classify
from expodio.cli import iter_cube
from expodio.engine import (
    CertificateBuildError,
    ExclusionKind,
    ModulusCandidate,
    _conclude,
    _in_cycle,
    build_magic_prime_certificate,
    exclusion_step,
)


def _lists(inst, con, found):
    """The lifted residues, power values and shifted values of `con` at a found (P, L)."""
    mode = Mode.FORWARD if con.variable == "x" else Mode.BACKWARD
    return _lift(inst, mode, con.residue, con.period, *found)


def _pairwise_coprime(a: int, b: int, c: int) -> bool:
    return math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1


def _large_range_sample(seed: int) -> list[tuple[int, int, int]]:
    """About 300 seeded triples with a, c <= 10^6 and b <= 10^9.

    100 share a factor, so the divisibility classes appear at scale; 150
    are pairwise coprime; 50 more are pairwise coprime and built as
    b = c^y - a^x, so that their solution lists are not empty.
    """
    rng = random.Random(seed)
    shared: set[tuple[int, int, int]] = set()
    coprime: set[tuple[int, int, int]] = set()
    built: set[tuple[int, int, int]] = set()
    while len(shared) < 100 or len(coprime) < 150:
        triple = (rng.randint(2, 10**6), rng.randint(1, 10**9), rng.randint(2, 10**6))
        if _pairwise_coprime(*triple):
            if len(coprime) < 150:
                coprime.add(triple)
        elif len(shared) < 100:
            shared.add(triple)
    while len(built) < 50:
        # log-uniform bases, so that squares and cubes fit under 10^9 too
        a, c = (int(10 ** rng.uniform(0.31, 6)) for _ in range(2))
        b = c ** rng.randint(1, 3) - a ** rng.randint(1, 3)
        if 1 <= b <= 10**9 and _pairwise_coprime(a, b, c):
            built.add((a, b, c))
    return sorted(shared | coprime | built)


class TestInitialSearch:
    def test_examples(self):
        assert initial_search(EquationInstance(5, 3, 2)) == ((1, 3), (3, 7))
        assert initial_search(EquationInstance(3, 5, 7)) == ()
        assert initial_search(EquationInstance(2, 1, 3)) == ((1, 1), (3, 2))

    def test_ceiling_reaches_past_a_large_b(self):
        # every solution has c^y > b: a fixed ceiling of 2^64 would find none here
        assert initial_search(EquationInstance(3, 2**70 - 3, 2)) == ((1, 70),)

    def test_sorted_by_y(self):
        found = initial_search(EquationInstance(2, 1, 3))
        ys = [y for _, y in found]
        assert ys == sorted(ys)


class TestExclusionStep:
    def test_direct_exclusion(self):
        inst = EquationInstance(7, 3, 10)
        cand = ModulusCandidate(Mode.FORWARD, 2, 3, 3)
        assert cand.key == 8
        step = exclusion_step(inst, cand)
        assert step.kind is ExclusionKind.DIRECT

    def test_conditional_forward(self):
        inst = EquationInstance(5, 3, 2)
        cand = ModulusCandidate(Mode.FORWARD, 2, 8, 8)
        assert cand.key == 256
        step = exclusion_step(inst, cand)
        assert step.kind is ExclusionKind.CONDITIONAL
        assert step.constraint == Constraint(variable="x", residue=35, period=64)
        assert _expected_target(inst, Mode.FORWARD, cand.key) == 253

    def test_conditional_backward(self):
        inst = EquationInstance(3, 7, 2)
        cand = ModulusCandidate(Mode.BACKWARD, 3, 3, 3)
        step = exclusion_step(inst, cand)
        assert step.kind is ExclusionKind.CONDITIONAL
        assert step.constraint == Constraint(variable="y", residue=16, period=18)
        assert _expected_target(inst, Mode.BACKWARD, cand.key) == 7

    def test_exponent_scales_with_valuation(self):
        # (1, 1) is known, so the first attempt attacks y >= 2; v_2(20) = 2,
        # so it works modulo 2^(2*2)
        attempts = []

        def on_event(kind, payload):
            if kind == "attempt":
                attempts.append(payload)

        solve(EquationInstance(17, 3, 20), on_event=on_event)
        first = attempts[0]
        assert (first["p"], first["t"], first["modulus"]) == (2, 2, 16)

    def test_constraint_soundness_small_moduli(self):
        # every conditional constraint pins the target to exactly one
        # residue class of the full cycle
        cases = [
            (EquationInstance(5, 3, 2), Mode.FORWARD, 2, 8),
            (EquationInstance(3, 7, 2), Mode.BACKWARD, 3, 3),
            (EquationInstance(2, 1, 3), Mode.FORWARD, 3, 3),
            (EquationInstance(2, 1, 3), Mode.BACKWARD, 2, 4),
            (EquationInstance(3, 10, 13), Mode.BACKWARD, 3, 8),
        ]
        for inst, mode, p, t in cases:
            # each base is p itself, so k = t
            step = exclusion_step(inst, ModulusCandidate(mode, p, t, t))
            con = step.constraint
            assert con is not None
            base = inst.a if con.variable == "x" else inst.c
            m = p**t
            cycle = brute_force_cycle(base, m)
            assert len(cycle) == con.period
            target = _expected_target(inst, mode, m)
            hits = [j + 1 for j, v in enumerate(cycle) if v == target]
            assert len(hits) == 1
            assert hits[0] % con.period == con.residue % con.period

    def test_cycle_membership_matches_the_discrete_log(self):
        # one pow decides, for every pair of units, what the log search
        # decides; 2^k with k >= 3 has a group that is not cyclic
        for p, k in [(2, 1), (2, 2), (2, 3), (2, 4), (2, 7), (3, 1), (3, 3), (5, 2), (7, 2), (11, 1)]:
            m = p**k
            units = [u for u in range(1, m) if u % p]
            for base in units:
                order = arith.multiplicative_order(base, m)
                for target in units:
                    in_cycle = arith.cycle_discrete_log(base, target, m) is not None
                    assert _in_cycle(base, target, m, order) == in_cycle, (base, target, m)

    def test_no_log_when_no_magic_prime_fits_under_the_cap(self):
        # at a cap of 2 every period K >= 2 leaves no prime nK + 1: each
        # step keeps its kind, and a conditional one carries no constraint
        steps = 0
        for triple in iter_cube(12, 12, 12):
            inst = EquationInstance(*triple)
            if classify(inst).tag is not ClassTag.CLASS_II:
                continue
            for mode, base in ((Mode.FORWARD, inst.c), (Mode.BACKWARD, inst.a)):
                for p, v in arith.factorize(base):
                    for t in range(1, 5):
                        cand = ModulusCandidate(mode, p, t, t * v)
                        full, cut = exclusion_step(inst, cand), exclusion_step(inst, cand, 2)
                        assert cut.kind is full.kind, (triple, cand)
                        assert cut.constraint in (None, full.constraint), (triple, cand)
                        steps += cut.constraint is None
        assert steps > 1000


class TestMagicPrimeSearch:
    def test_forward_small(self):
        inst = EquationInstance(2, 1, 3)
        con = Constraint(variable="x", residue=9, period=18)
        found = magic_prime_search(inst, con)
        assert found is not None
        assert found[0] == 19
        _, values, shifted = _lists(inst, con, found)
        assert values == (18,)
        assert shifted == (0,)

    def test_forward_with_lift_expansion(self):
        inst = EquationInstance(5, 3, 2)
        con = Constraint(variable="x", residue=35, period=64)
        found = magic_prime_search(inst, con)
        assert found == (257, 256)
        lifted, values, shifted = _lists(inst, con, found)
        assert lifted == (35, 99, 163, 227)
        assert values == (14, 224, 243, 33)
        assert shifted == (17, 227, 246, 36)

    def test_backward_large(self):
        inst = EquationInstance(3, 10, 13)
        con = Constraint(variable="y", residue=1461, period=2187)
        found = magic_prime_search(inst, con)
        assert found == (17497, 8748)
        lifted, values, shifted = _lists(inst, con, found)
        assert lifted == (1461, 3648, 5835, 8022)
        assert values == (11616, 6486, 5881, 11011)
        assert shifted == (11606, 6476, 5871, 11001)

    def test_budget_exhaustion_returns_none(self):
        inst = EquationInstance(7, 3, 10)
        con = Constraint(variable="x", residue=0, period=2)
        config = SolverConfig(prime_budget_count=3)
        assert magic_prime_search(inst, con, config) is None

    def test_pinned_primes(self):
        inst = EquationInstance(5, 3, 2)
        con = Constraint(variable="x", residue=35, period=64)
        assert witness_for_prime(inst, con, 257) == 256
        # a prime that is no witness yields nothing
        assert witness_for_prime(inst, con, 193) is None

    def test_prime_cap_stops_the_search(self):
        inst = EquationInstance(5, 3, 2)
        con = Constraint(variable="x", residue=35, period=64)
        # 193 fails and 257 is the first witness
        tried = []
        config = SolverConfig(prime_budget_cap=256)
        on_event = lambda _, payload: tried.append(payload["prime"])
        assert magic_prime_search(inst, con, config, on_event=on_event) is None
        assert tried == [193]
        found = magic_prime_search(inst, con, SolverConfig(prime_budget_cap=257))
        assert found is not None and found[0] == 257

    def test_zero_budget_tries_no_prime(self):
        # the count is checked before a prime is tried; 883 would come first
        inst = EquationInstance(2, 89, 91)
        con = exclusion_step(inst, ModulusCandidate(Mode.FORWARD, 7, 3, 3)).constraint
        tried = []
        config = SolverConfig(prime_budget_count=0)
        on_event = lambda _, payload: tried.append(payload["prime"])
        assert magic_prime_search(inst, con, config, on_event=on_event) is None
        assert tried == []

    def test_candidates_dividing_parameters_are_skipped(self):
        inst = EquationInstance(2, 19, 3)
        con = Constraint(variable="x", residue=3, period=18)
        # 19 divides b, so it cannot serve as a magic prime here
        assert witness_for_prime(inst, con, 19) is None
        # the search skips it without spending budget on it: 37 is its one try
        tried = []
        config = SolverConfig(prime_budget_count=1)
        on_event = lambda _, payload: tried.append(payload["prime"])
        magic_prime_search(inst, con, config, on_event=on_event)
        assert tried == [37]

    def test_witness_soundness_by_brute_force(self):
        inst = EquationInstance(3, 7, 2)
        con = Constraint(variable="y", residue=16, period=18)
        found = magic_prime_search(inst, con)
        assert found is not None and found[0] == 73
        P, L = found
        # the bound x < 3 that y = 16 (mod 18) modulo 3^3 yields
        cert = build_magic_prime_certificate(
            inst, Mode.BACKWARD, 3, 3, 3, con.residue, P, L, final_enumeration(inst, "x", 3)
        )
        assert (cert.prime, cert.lifted_period) == (P, L)
        lifted, values, shifted = _lists(inst, con, found)
        lhs = {
            (pow(inst.c, y, P) - inst.b) % P
            for y in range(1, 4 * L + 1)
            if y % con.period == con.residue % con.period
        }
        assert lhs == set(shifted)
        assert {pow(inst.c, r, P) for r in lifted} == set(values)
        rhs = set(brute_force_cycle(inst.a, P))
        assert not (lhs & rhs)

    def test_decision_matches_every_12_cube_certificate(self):
        # the per-prime decision and the certificate state one lift: at each
        # magic prime of the 12-cube, witness_for_prime returns the stated L
        # for the stated residue and period
        checked = 0
        for triple in iter_cube(12, 12, 12):
            inst = EquationInstance(*triple)
            cert = solve(inst).certificate
            if cert.shape is not CertShape.MAGIC_PRIME_EXCLUSION:
                continue
            candidate = ModulusCandidate(
                cert.mode, cert.witness_prime, cert.bound_threshold, cert.modulus_exponent
            )
            con = exclusion_step(inst, candidate).constraint
            assert (con.residue, con.period) == (cert.residue, cert.order[0]), triple
            assert witness_for_prime(inst, con, cert.prime) == cert.lifted_period, triple
            checked += 1
        assert checked > 100


class TestFinalEnumeration:
    def test_examples(self):
        assert final_enumeration(EquationInstance(2, 89, 91), "y", 3) == ((1, 1), (13, 2))
        assert final_enumeration(EquationInstance(2, 5, 11), "x", 3) == ()
        assert final_enumeration(EquationInstance(3, 7, 2), "x", 3) == ((2, 4),)

    def test_rejects_unknown_variable(self):
        with pytest.raises(ValueError):
            final_enumeration(EquationInstance(2, 5, 11), "z", 3)

    def test_exclusion_contradicting_a_known_solution_is_refused(self):
        # 2^x + 1 = 3^y has (3, 2), so y >= 2 must not be excluded
        inst = EquationInstance(2, 1, 3)
        cand = ModulusCandidate(Mode.FORWARD, 3, 2, 2)
        with pytest.raises(CertificateBuildError):
            _conclude(inst, cand, ((1, 1), (3, 2)), None, None)


class TestSolve:
    def test_golden_solutions(self, golden_results):
        for triple, expected in GOLDEN_SUITE.items():
            result = golden_results[triple]
            assert result.status is SolveStatus.SOLVED, triple
            assert list(result.solutions) == expected, triple

    def test_golden_certificates_verify(self, golden_certificates):
        for triple, cert in golden_certificates.items():
            assert verify_certificate(cert).accepted, triple

    def test_solution_exactness(self, golden_results):
        for triple, result in golden_results.items():
            a, b, c = triple
            for x, y in result.solutions:
                assert a**x + b == c**y

    def test_derived_instance_matches_oracle(self):
        result = solve(EquationInstance(6, 2, 10))
        assert result.status is SolveStatus.SOLVED
        assert list(result.solutions) == brute_force_solutions(6, 2, 10)

    def test_queue_monotonicity_and_trace(self):
        popped = []

        def on_event(kind, payload):
            if kind == "attempt":
                popped.append(payload["modulus"])

        for triple in [(5, 3, 2), (2, 5, 11), (7, 3, 10), (3, 10, 13), (2, 1, 3)]:
            popped.clear()
            solve(EquationInstance(*triple), on_event=on_event)
            assert popped == sorted(popped), triple

    def test_completeness_handoff(self, golden_results):
        # every initial-search solution must sit below the proved bound
        for triple, result in golden_results.items():
            cert = result.certificate
            if cert.shape is CertShape.DIVISIBILITY_NO_SOLUTION:
                assert result.solutions == ()
                continue
            # the closing enumeration bounds the zeroed variable, or either for a common factor
            index = {Mode.FORWARD: 1, Mode.BACKWARD: 0, None: None}[cert.mode]
            for sol in initial_search(EquationInstance(*triple)):
                assert sol in result.solutions
                if index is not None:
                    assert sol[index] <= cert.bound_threshold - 1

    def test_unresolved_on_tiny_budget(self):
        config = SolverConfig(prime_budget_count=0)
        result = solve(EquationInstance(5, 3, 2), config)
        assert result.status is SolveStatus.UNRESOLVED
        assert result.certificate is None
        # the initial search still reports what it found
        assert list(result.solutions) == [(1, 3), (3, 7)]

    def test_unresolved_lists_a_solution_above_two_to_the_64(self):
        config = SolverConfig(prime_budget_count=0)
        result = solve(EquationInstance(3, 2**70 - 3, 2), config)
        assert result.status is SolveStatus.UNRESOLVED
        assert result.solutions == ((1, 70),)

    def test_zero_prime_budget_is_unresolved(self):
        result = solve(EquationInstance(5, 3, 2), SolverConfig(prime_budget_count=0))
        assert result.status is SolveStatus.UNRESOLVED
        assert list(result.solutions) == [(1, 3), (3, 7)]

    def test_modulus_lines_dropped_at_the_default_cap(self):
        # with no magic prime every step of (2, 1, 3) is conditional: the
        # lines 2^4 .. 2^62 (Backward) and 3^3 .. 3^39 (Forward) are
        # re-pushed until their next modulus would pass 2^62
        kinds = []
        config = SolverConfig(prime_budget_count=0)
        on_event = lambda kind, _: kinds.append(kind)
        result = solve(EquationInstance(2, 1, 3), config, on_event=on_event)
        assert result.status is SolveStatus.UNRESOLVED
        assert kinds == ["attempt"] * 96

    @pytest.mark.parametrize("limit", [0.0, -1.0, float("nan")])
    def test_wall_limit_must_be_positive(self, limit):
        # a NaN limit compares false both ways, and would mean "no limit"
        with pytest.raises(ValueError, match="wall limit must be positive"):
            SolverConfig(wall_limit=limit)

    def test_prime_cap_at_most_the_verifier_limit(self):
        # the verifier rejects a magic prime above 2^62
        assert SolverConfig(prime_budget_cap=1 << 62).prime_budget_cap == 1 << 62
        with pytest.raises(ValueError, match=r"a cap in \[2, 2\^62\]"):
            SolverConfig(prime_budget_cap=(1 << 62) + 1)

    def test_unresolved_on_expired_wall_clock(self):
        config = SolverConfig(wall_limit=1e-9)
        result = solve(EquationInstance(5, 3, 2), config)
        assert result.status is SolveStatus.UNRESOLVED
        assert list(result.solutions) == [(1, 3), (3, 7)]

    def test_wall_limit_stops_a_discrete_log(self):
        # at the raised cap this census triple runs for seconds without a
        # limit; its logs are quick (every prime of each period is below
        # 2^16), so the limit ends it between moduli or before a magic prime
        config = SolverConfig(prime_budget_cap=MODULUS_CAP, wall_limit=0.5)
        start = time.perf_counter()
        result = solve(EquationInstance(30605155958633, 36, 30903787254083), config)
        elapsed = time.perf_counter() - start
        assert result.status is SolveStatus.UNRESOLVED
        assert result.certificate is None
        assert elapsed < 1.5, elapsed

    def test_wall_limit_reaches_the_discrete_log(self, monkeypatch):
        # at the raised cap the first modulus popped is a, where 36 has the
        # period 2 * 15,451,893,627,041: Pohlig-Hellman hands that prime to
        # baby-step/giant-step, which raises once past the deadline
        raises = []
        check = arith._check_deadline

        def counting(deadline):
            try:
                check(deadline)
            except TimeoutError:
                raises.append(deadline)
                raise

        monkeypatch.setattr(arith, "_check_deadline", counting)
        config = SolverConfig(prime_budget_cap=MODULUS_CAP, wall_limit=0.1)
        start = time.perf_counter()
        result = solve(EquationInstance(30903787254083, 36, 30903787254101), config)
        elapsed = time.perf_counter() - start
        assert result.status is SolveStatus.UNRESOLVED
        assert result.certificate is None
        assert len(raises) == 1
        assert elapsed < 1.0, elapsed

    def test_wall_limit_holds_inside_the_magic_prime_search(self):
        # at the raised cap each constraint of this census triple tries up to
        # 64 large magic primes; without a check per prime a 0.05 s limit
        # let 46 of them start late
        limit, tries = 0.05, []
        config = SolverConfig(prime_budget_cap=MODULUS_CAP, wall_limit=limit)
        on_event = lambda kind, _: kind == "try_prime" and tries.append(time.perf_counter())
        start = time.perf_counter()
        result = solve(EquationInstance(30605155958633, 36, 30903787254083), config, on_event)
        assert result.status is SolveStatus.UNRESOLVED
        assert tries
        assert sum(t > start + limit for t in tries) <= 2

    def test_a_log_no_magic_prime_can_use_is_skipped(self):
        # both steps have K + 1 > 2^40, the default cap: K = c - 1, then
        # K = a - 1; the second log once built a 15-million-entry table
        # (11.5 s of CPU, 1.6 GB) for a constraint no prime could use
        kinds = []
        tracemalloc.start()
        cpu = time.process_time()
        try:
            result = solve(
                EquationInstance(937309884106109, 55, 331888661888881),
                on_event=lambda kind, _: kinds.append(kind),
            )
            cpu = time.process_time() - cpu
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.status is SolveStatus.UNRESOLVED
        assert kinds == ["attempt", "attempt"]
        assert cpu < 1.0, cpu
        assert peak < 50_000_000, peak

    # Census triples, prime a and c in [10^12, 10^15) and b <= 100, that
    # end Unresolved at the default cap: four from an earlier census, then
    # the three of tests/census-seed3.json that the raised cap proves in
    # under 10 ms
    CENSUS_UNRESOLVED = [
        (467939402755073, 90, 801096207847849),
        (728143039777339, 23, 881692975910657),
        (448133911238833, 9, 876089585348441),
        (937309884106109, 55, 331888661888881),
        (707437820378417, 64, 121182798389857),
        (925286709344773, 22, 801096207847849),
        (926322131315393, 1, 442409134599371),
    ]

    @pytest.mark.parametrize("triple", CENSUS_UNRESOLVED)
    def test_census_triple_needs_the_raised_prime_cap(self, triple):
        # the cap is the budget that binds: a retry's 2^62 proves each one
        inst = EquationInstance(*triple)
        assert solve(inst).status is SolveStatus.UNRESOLVED
        raised = solve(inst, SolverConfig(prime_budget_cap=MODULUS_CAP))
        assert raised.status is SolveStatus.SOLVED
        assert verify_certificate(raised.certificate).accepted

    def test_effort_counters(self):
        def effort(triple):
            kinds = []
            result = solve(EquationInstance(*triple), on_event=lambda kind, _: kinds.append(kind))
            return (kinds.count("attempt"), kinds.count("try_prime")), result.elapsed_ms

        # one modulus popped (7^3), three primes tried (883, 1471, 2647)
        counts, elapsed_ms = effort((2, 89, 91))
        assert counts == (1, 3)
        assert elapsed_ms > 0
        # 193 fails, 257 succeeds
        assert effort((5, 3, 2))[0] == (1, 2)

    def test_oracle_equivalence_cube(self):
        for a in range(2, 13):
            for b in range(1, 13):
                for c in range(2, 13):
                    result = solve(EquationInstance(a, b, c))
                    if result.status is not SolveStatus.SOLVED:
                        continue
                    expected = brute_force_solutions(a, b, c, ceiling=10**9)
                    got_small = [s for s in result.solutions if c ** s[1] <= 10**9]
                    assert got_small == expected, (a, b, c)
                    assert verify_certificate(result.certificate).accepted, (a, b, c)

    @given(
        st.integers(2, 60),
        st.integers(1, 120),
        st.integers(2, 60),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_instances_match_oracle(self, a, b, c):
        result = solve(EquationInstance(a, b, c))
        if result.status is not SolveStatus.SOLVED:
            return
        oracle = brute_force_solutions(a, b, c, ceiling=10**12)
        mine = [s for s in result.solutions if c ** s[1] <= 10**12]
        assert mine == oracle
        assert verify_certificate(result.certificate).accepted

    def test_large_range_sample_matches_oracle(self):
        # parameters far past the benchmark's, through the whole pipeline:
        # solve, serialize, parse, verify, emit.  No equation has more than
        # two solutions (M. A. Bennett, Canad. J. Math. 53, 2001).
        class_one = solvable = 0
        for a, b, c in _large_range_sample(17):
            result = solve(EquationInstance(a, b, c))
            assert result.status is SolveStatus.SOLVED, (a, b, c)
            oracle = brute_force_solutions(a, b, c, ceiling=2**100)
            assert list(result.solutions) == oracle, (a, b, c)
            assert len(result.solutions) <= 2, (a, b, c)
            parsed = parse_certificate(serialize_certificate(result.certificate))
            assert verify_certificate(parsed).accepted, (a, b, c)
            assert emit_lean(parsed) == emit_lean(result.certificate), (a, b, c)
            class_one += result.classification.tag is not ClassTag.CLASS_II
            solvable += bool(result.solutions)
        assert class_one >= 100 and solvable >= 50
