"""Sweep a whole parameter box and tally how many solutions occur.

Every instance with a, c up to 20 and b up to 20 gets solved with a
certificate; results stream into a JSONL file that can be resumed and
summarized.  The striking empirical pattern: no equation in range has
more than two solutions.
"""

import tempfile
from collections import Counter
from pathlib import Path

from expodio.cli import iter_records, main

with tempfile.TemporaryDirectory() as scratch:
    out = Path(scratch) / "scan20.jsonl"

    main(["scan", "--a-max", "20", "--b-max", "20", "--c-max", "20", "--out", str(out)])

    # iter_records yields None for a malformed line
    records = [r for r in iter_records(out) if r is not None]
    histogram = Counter(r.solution_count for r in records)
    print(f"\nsolution-count histogram over {len(records)} instances:")
    for count in sorted(histogram):
        print(f"  {count} solutions: {histogram[count]} equations")

    print("\nequations attaining the maximum:")
    best = max(histogram)
    for r in records:
        if r.solution_count == best:
            sols = " ".join(f"({x},{y})" for x, y in r.solutions)
            print(f"  {r.a}^x + {r.b} = {r.c}^y: {sols}")

    # the same file drives the stats subcommand
    print()
    main(["stats", str(out)])
