"""In-memory span recorder and the wrappers that attach it to expodio.

A span is one call of a wrapped function: its layer name, start and end
(perf_counter_ns) and the span that was open when it began.  A span's
self time is its duration minus the durations of its direct children;
calls are nested and single-threaded, so children never overlap.

The wrappers replace names in the namespace of the caller, because
expodio binds several functions at import time (for instance `engine`
calls its own `classify` and `witness_for_prime` names, and reaches the
kernel through the `arith.` attribute).  Nothing in expodio changes;
only this module's recorder sees the spans.
"""

from __future__ import annotations

import time
from array import array

# name, unit, which direction is better
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("classify.calls", "count", "lower"),
    ("classify.self_s", "s", "lower"),
    ("engine.solve.self_s", "s", "lower"),
    ("engine.initial_search.self_s", "s", "lower"),
    ("engine.final_enumeration.self_s", "s", "lower"),
    ("engine.exclusion_step.calls", "count", "lower"),
    ("engine.exclusion_step.self_s", "s", "lower"),
    ("engine.exclusion_step.direct_ratio", "ratio", "higher"),
    ("engine.magic_prime_search.calls", "count", "lower"),
    ("engine.magic_prime_search.self_s", "s", "lower"),
    ("engine.magic_prime_search.success_ratio", "ratio", "higher"),
    ("engine.witness_for_prime.calls", "count", "lower"),
    ("engine.witness_for_prime.self_s", "s", "lower"),
    ("engine.witness_for_prime.hit_ratio", "ratio", "higher"),
    ("arith.multiplicative_order.calls", "count", "lower"),
    ("arith.multiplicative_order.self_s", "s", "lower"),
    ("arith.multiplicative_order.reuse_ratio", "ratio", "higher"),
    ("arith.cycle_discrete_log.calls", "count", "lower"),
    ("arith.cycle_discrete_log.self_s", "s", "lower"),
    ("arith.is_prime.calls", "count", "lower"),
    ("arith.is_prime.self_s", "s", "lower"),
    ("arith.factorize.calls", "count", "lower"),
    ("arith.factorize.self_s", "s", "lower"),
    ("certificate.build.calls", "count", "lower"),
    ("certificate.build.self_s", "s", "lower"),
    ("certificate.serialize.self_s", "s", "lower"),
    ("certificate.serialized_bytes", "bytes", "lower"),
    ("certificate.serialized_bytes_mean", "bytes", "lower"),
    ("certificate.digest.self_s", "s", "lower"),
    ("certificate.parse.self_s", "s", "lower"),
    ("certificate.verify.calls", "count", "lower"),
    ("certificate.verify.self_s", "s", "lower"),
    ("certificate.verify.kernel_s", "s", "lower"),
    ("certificate.verify.rejected", "count", "lower"),
    ("emit.lean.self_s", "s", "lower"),
    ("cli.record.self_s", "s", "lower"),
    ("cli.scan.other_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("cli.parallel_efficiency", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Metrics the run itself measures, outside the spans: file sizes, the
# parallel scan and the untraced comparison run.
RUN_METRICS = ("cli.output_bytes", "cli.parallel_efficiency", "trace.overhead_ratio")

KERNEL_PREFIX = "arith."


class Recorder:
    """Spans of one traced run, kept in flat arrays so a million calls stay small."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Append a finished span; returns its index.  Used to build span trees by hand."""
        self.name_id.append(self._id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, observe=None):
        """`fn` with a span named `name` around each call.

        `observe(recorder, args, result)` runs after the span has ended,
        so its cost is not charged to the layer.
        """
        nid = self._id(name)
        name_ids, parents, starts, ends, stack = (
            self.name_id, self.parent, self.start, self.end, self._open,
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), observe))


def self_times(parent, start, end) -> list[int]:
    """Per-span self time: duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def layer_totals(rec: Recorder) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s, and kernel_s (self time of arith spans it owns).

    A kernel span is owned by its nearest ancestor outside `arith.`, so
    the verifier's kernel calls are told apart from the solver's.
    """
    own = self_times(rec.parent, rec.start, rec.end)
    names = rec.names
    kernel = [n.startswith(KERNEL_PREFIX) for n in names]
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    kernel_ns = [0] * len(names)
    owner = array("q", bytes(8 * len(own)))
    for i, nid in enumerate(rec.name_id):
        calls[nid] += 1
        self_ns[nid] += own[i]
        p = rec.parent[i]
        if kernel[nid]:
            owner[i] = owner[p] if p >= 0 else -1
            if owner[i] >= 0:
                kernel_ns[rec.name_id[owner[i]]] += own[i]
        else:
            owner[i] = i
    return {
        name: {"calls": calls[k], "self_s": self_ns[k] / 1e9, "kernel_s": kernel_ns[k] / 1e9}
        for k, name in enumerate(names)
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Every LAYER_METRICS entry the spans determine (all but RUN_METRICS)."""
    totals = layer_totals(rec)

    def get(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0)

    counts = rec.counts
    metrics: dict[str, float] = {}
    for name, _unit, _better in LAYER_METRICS:
        if name in RUN_METRICS:
            continue
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s", "kernel_s"):
            metrics[name] = get(layer, field)
    metrics["cli.scan.other_s"] = get("cli.scan", "self_s")
    metrics["engine.exclusion_step.direct_ratio"] = _ratio(
        counts.get("engine.exclusion_step.direct", 0), get("engine.exclusion_step", "calls")
    )
    metrics["engine.magic_prime_search.success_ratio"] = _ratio(
        counts.get("engine.magic_prime_search.success", 0),
        get("engine.magic_prime_search", "calls"),
    )
    metrics["engine.witness_for_prime.hit_ratio"] = _ratio(
        counts.get("engine.witness_for_prime.hit", 0), get("engine.witness_for_prime", "calls")
    )
    order_calls = get("arith.multiplicative_order", "calls")
    metrics["arith.multiplicative_order.reuse_ratio"] = (
        1.0 - _ratio(len(rec.distinct.get("arith.multiplicative_order", ())), order_calls)
        if order_calls
        else 0.0
    )
    serialized = counts.get("certificate.serialized_bytes", 0)
    metrics["certificate.serialized_bytes"] = serialized
    metrics["certificate.serialized_bytes_mean"] = _ratio(
        serialized, get("certificate.serialize", "calls")
    )
    metrics["certificate.verify.rejected"] = counts.get("certificate.verify.rejected", 0)
    return metrics


# ---------------------------------------------------------------------------
# observers: record outcomes after the span closes


def _direct(rec: Recorder, args, result) -> None:
    if result.kind.value == "DirectExclusion":
        rec.count("engine.exclusion_step.direct")


def _found(key: str):
    def observe(rec: Recorder, args, result) -> None:
        if result is not None:
            rec.count(key)

    return observe


def _distinct_args(rec: Recorder, args, result) -> None:
    rec.distinct.setdefault("arith.multiplicative_order", set()).add(args)


def _serialized(rec: Recorder, args, result) -> None:
    rec.count("certificate.serialized_bytes", len(result.encode("utf-8")))


def _verdict(rec: Recorder, args, result) -> None:
    if not result.accepted:
        rec.count("certificate.verify.rejected")


def instrument(rec: Recorder) -> dict:
    """Wrap expodio's layer boundaries in place; returns the wrapped public functions.

    The returned dict holds `solve`, `serialize_certificate`,
    `parse_certificate`, `verify_certificate` and `emit_lean`, traced,
    for a caller that drives the single-solve path itself.
    """
    from expodio import arith, certificate, cli, emit, engine

    rec.patch(engine, "classify", "classify")
    rec.patch(engine, "bounded_case_solutions", "classify")
    rec.patch(engine, "initial_search", "engine.initial_search")
    rec.patch(engine, "exclusion_step", "engine.exclusion_step", _direct)
    rec.patch(engine, "magic_prime_search", "engine.magic_prime_search",
              _found("engine.magic_prime_search.success"))
    rec.patch(engine, "witness_for_prime", "engine.witness_for_prime",
              _found("engine.witness_for_prime.hit"))
    rec.patch(engine, "final_enumeration", "engine.final_enumeration")
    for build in (
        "build_divisibility_certificate",
        "build_common_factor_certificate",
        "build_direct_exclusion_certificate",
        "build_magic_prime_certificate",
    ):
        rec.patch(engine, build, "certificate.build")
    rec.patch(arith, "multiplicative_order", "arith.multiplicative_order", _distinct_args)
    rec.patch(arith, "cycle_discrete_log", "arith.cycle_discrete_log")
    rec.patch(arith, "is_prime", "arith.is_prime")
    rec.patch(arith, "factorize", "arith.factorize")
    # certificate_digest calls the module-level serialize_certificate
    rec.patch(certificate, "serialize_certificate", "certificate.serialize", _serialized)
    rec.patch(cli, "certificate_digest", "certificate.digest")
    rec.patch(cli, "solve", "engine.solve")
    rec.patch(cli, "record_from_result", "cli.record")
    rec.patch(cli.ScanRecord, "to_json", "cli.record")
    # emit_lean re-verifies before rendering; that time belongs to verify
    rec.patch(emit, "verify_certificate", "certificate.verify", _verdict)
    return {
        "solve": rec.wrap("engine.solve", engine.solve),
        "serialize_certificate": certificate.serialize_certificate,
        "parse_certificate": rec.wrap("certificate.parse", certificate.parse_certificate),
        "verify_certificate": emit.verify_certificate,
        "emit_lean": rec.wrap("emit.lean", emit.emit_lean),
    }
