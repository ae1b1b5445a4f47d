"""Census of where the method stops: seeded large triples at two budget sets.

Draws `--count` distinct triples (a, b, c) with a and c distinct primes
in [10^12, 10^15) and b in [1, 100], from `--seed`.  Such triples are
pairwise coprime, so every one reaches the exclusion engine.  Each
triple is solved twice, each solve in a fresh child process so that its
peak memory is its own:

- default: the solver's default budgets;
- retry: the budgets `expodio scan --retry-unresolved` uses, the
  defaults with the prime cap raised to 2^62.

A child reports its status, the CPU time of the solve alone, and its
peak resident memory (VmHWM, which includes the interpreter, about
20 MB).  A child runs under a 4 GB address-space limit, so a runaway
solve cannot take the machine's memory; one that exceeds it, fails in
any other way, or builds a certificate that `verify_certificate`
rejects, counts as `Failed`.  For each budget set the census prints and
writes: counts per status, total and largest CPU, largest peak memory
and the five slowest triples.

Not part of tier-1: it starts two interpreters per triple.

    python tests/census.py [--seed N] [--count N] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from expodio import EquationInstance, solve, verify_certificate  # noqa: E402
from expodio.arith import is_prime  # noqa: E402
from expodio.certificate import MODULUS_CAP  # noqa: E402
from expodio.engine import DEFAULT_CONFIG  # noqa: E402

BUDGETS = {
    "default": DEFAULT_CONFIG,
    "retry": replace(DEFAULT_CONFIG, prime_budget_cap=MODULUS_CAP),
}
PRIME_RANGE = (10**12, 10**15)
B_RANGE = (1, 100)
SLOWEST = 5
MEMORY_LIMIT = 4 << 30  # bytes of address space per child


def draw_triples(seed: int, count: int) -> list[tuple[int, int, int]]:
    """`count` distinct triples in draw order: a, then b, then a prime c other than a."""
    rng = random.Random(seed)

    def prime() -> int:
        while True:
            n = rng.randrange(*PRIME_RANGE)
            if is_prime(n):
                return n

    triples: list[tuple[int, int, int]] = []
    while len(triples) < count:
        a, b = prime(), rng.randint(*B_RANGE)
        c = prime()
        if c != a and (a, b, c) not in triples:
            triples.append((a, b, c))
    return triples


def _peak_mb() -> float:
    """This process's resident high-water mark: VmHWM, which exec resets, else ru_maxrss."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child(budget: str, a: int, b: int, c: int) -> None:
    """Solve one triple at one budget set; print one JSON line."""
    cpu = time.process_time()
    result = solve(EquationInstance(a, b, c), BUDGETS[budget])
    cpu = time.process_time() - cpu
    status = result.status.value
    if result.certificate is not None and not verify_certificate(result.certificate).accepted:
        status = "Failed"
    print(json.dumps({"status": status, "cpu_s": round(cpu, 4), "peak_mb": round(_peak_mb(), 1)}))


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_child(budget: str, triple: tuple[int, int, int]) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--child", budget, *map(str, triple)],
        capture_output=True, text=True, preexec_fn=_limit_memory,
    )
    if done.returncode != 0:
        reason = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return {"status": "Failed", "cpu_s": None, "peak_mb": None, "reason": reason[:200]}
    return json.loads(done.stdout.splitlines()[-1])


def summarize(rows: list[dict], budget: str) -> dict:
    """The census of one budget set over rows of {"triple": ..., budget: child result}."""
    counts: dict[str, int] = {}
    for row in rows:
        counts[row[budget]["status"]] = counts.get(row[budget]["status"], 0) + 1
    timed = [row for row in rows if row[budget]["cpu_s"] is not None]
    slowest = sorted(timed, key=lambda row: -row[budget]["cpu_s"])[:SLOWEST]
    return {
        "counts": dict(sorted(counts.items())),
        "cpu_s_total": round(sum(row[budget]["cpu_s"] for row in timed), 3),
        "cpu_s_max": max((row[budget]["cpu_s"] for row in timed), default=None),
        "peak_mb_max": max((row[budget]["peak_mb"] for row in timed), default=None),
        "slowest": [
            [*row["triple"], row[budget]["status"], row[budget]["cpu_s"]] for row in slowest
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--out", metavar="FILE", help="also write the census as JSON here")
    parser.add_argument("--child", nargs=4, metavar=("BUDGET", "A", "B", "C"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        budget, *triple = args.child
        child(budget, *map(int, triple))
        return 0

    triples = draw_triples(args.seed, args.count)
    census = {
        "seed": args.seed,
        "count": args.count,
        "prime_range": list(PRIME_RANGE),
        "b_range": list(B_RANGE),
        "budgets": {name: asdict(config) for name, config in BUDGETS.items()},
        "rows": [],
    }
    for triple in triples:
        row = {"triple": list(triple), **{name: run_child(name, triple) for name in BUDGETS}}
        census["rows"].append(row)
        print(triple, *(f"{n}={row[n]['status']}/{row[n]['cpu_s']}s" for n in BUDGETS),
              file=sys.stderr)
    census["summary"] = {name: summarize(census["rows"], name) for name in BUDGETS}

    print(f"census: seed {args.seed}, {args.count} triples, prime a != c in "
          f"[10^12, 10^15), b in [1, 100]")
    print("| budgets | Solved | Unresolved | Failed | CPU total (s) | CPU max (s) | peak max (MB) |")
    print("|---|---|---|---|---|---|---|")
    for name, s in census["summary"].items():
        counts = s["counts"]
        print(f"| {name} | {counts.get('Solved', 0)} | {counts.get('Unresolved', 0)} | "
              f"{counts.get('Failed', 0)} | {s['cpu_s_total']} | {s['cpu_s_max']} | {s['peak_mb_max']} |")
    for name, s in census["summary"].items():
        print(f"slowest at {name}:")
        for a, b, c, status, cpu in s["slowest"]:
            print(f"  ({a}, {b}, {c}) {status} {cpu} s")
    if args.out:
        Path(args.out).write_text(json.dumps(census, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
