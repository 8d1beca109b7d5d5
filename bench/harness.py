"""Shared measurement machinery: the operation recorder, the closed loop
over seeded rounds, latency statistics and the per-layer metric table."""

from __future__ import annotations

import hashlib
import math
import statistics
from array import array
from time import perf_counter_ns as clock

from calibrate import Calibrator
from layers import Layers
from tracer import Tracer

TAIL_LADDER = (50, 90)
MAX_ERRORS_KEPT = 20


class Recorder:
    """Counts operations and failures, times each operation (untraced) or
    opens a span around it (traced), and hashes the exact outputs.

    ``discrepancies`` counts known, pinned disagreements between a closed
    form and its arbiter; they are reported, not counted as failures.
    """

    def __init__(self, tracer: Tracer | None = None, calibrator=None):
        self.tracer = tracer
        self.calibrator = calibrator
        self.latency_ns = array("q")
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.discrepancies: dict = {}
        self.counts: dict = {}
        self._hash = hashlib.sha256()
        self._t0 = 0
        self._timed = True

    # -- operations -------------------------------------------------------

    def begin_op(self, timed: bool = True) -> None:
        """Start an operation; only timed ones give a latency sample."""
        self.attempted += 1
        self._timed = timed
        if self.tracer is None:
            self._t0 = clock()
        else:
            self.tracer.op = self.attempted
            self.tracer.begin()

    def end_op(self, ok: bool) -> None:
        if self.tracer is None:
            now = clock()
            if self._timed:
                self.latency_ns.append(now - self._t0)
            if self.calibrator is not None:
                self.calibrator.tick(len(self.latency_ns), now)
        else:
            self.tracer.finish("bench.op")
        if not ok:
            self.failed += 1

    def tick(self) -> None:
        """Let the calibrator run between the steps of a long operation
        that is not timed on its own."""
        if self.calibrator is not None:
            self.calibrator.tick(len(self.latency_ns), clock())

    def error(self, message: str) -> None:
        """Record why the current operation failed."""
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(message)

    # -- outputs ----------------------------------------------------------

    def digest(self, text: str) -> None:
        self._hash.update(text.encode())
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

    def discrepancy(self, name: str) -> None:
        self.discrepancies[name] = self.discrepancies.get(name, 0) + 1

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def pins(self) -> dict:
        """The values pinned for the default seed (taken after the first
        round)."""
        return {"digest": self.hexdigest(),
                "attempted": self.attempted,
                "discrepancies": dict(sorted(self.discrepancies.items()))}


# ---------------------------------------------------------------------------
# untraced and traced runs of the warm workloads


def measure_warm(workload, seconds: float) -> dict:
    """Untraced closed-loop run, calibrated: whole rounds, one after
    another, until ``seconds`` have passed (the round in progress always
    completes, so every run holds the same mix of operations)."""
    pinned = {}
    with Calibrator() as calibrator:
        rec = Recorder(calibrator=calibrator)
        layers = Layers()
        calibrator.force(0)
        deadline = clock() + int(seconds * 1e9)
        rounds = 0
        while rounds == 0 or clock() < deadline:
            workload.round(rounds, layers, rec)
            rounds += 1
            if rounds == 1:
                pinned = rec.pins()
        calibrator.force(len(rec.latency_ns))
    return {"rec": rec, "rounds": rounds, "pinned": pinned,
            "calibrator": calibrator}


def trace_warm(workload, seconds: float) -> dict:
    """The same fixed rounds untraced and traced, alternating round by round
    after one unrecorded warm-up round, so that neither the warm-up nor the
    machine's drift falls on one side of the comparison.

    The round count depends only on ``seconds`` so that span counts repeat
    exactly for a given seed."""
    rounds = workload.trace_rounds(seconds)
    plain_layers = Layers()
    workload.round(0, plain_layers, Recorder())
    tracer = Tracer()
    layers = Layers(tracer)
    plain, rec = Recorder(), Recorder(tracer)
    pinned = {}
    untraced_ns = 0
    for r in range(rounds):
        t0 = clock()
        workload.round(r, plain_layers, plain)
        untraced_ns += clock() - t0
        if r == 0:
            pinned = plain.pins()
        tracer.begin()
        workload.round(r, layers, rec)
        tracer.finish("bench.run")
    summary = tracer.summary()
    if rec.hexdigest() != plain.hexdigest():
        plain.failed += 1
        plain.error("traced and untraced passes produced different outputs")
    return {"rec": plain, "rounds": rounds, "summary": summary,
            "untraced_ns": untraced_ns,
            "traced_ns": summary["bench.run"]["total_ns"],
            "pinned": pinned, "tracer": tracer}


# ---------------------------------------------------------------------------
# statistics


def nearest_rank(sorted_values, p: float):
    """The p-th percentile by nearest rank and the number of samples above
    its rank."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100 * n))
    return sorted_values[rank - 1], n - rank


def latency_stats(latency_ns) -> dict:
    """Median and tail of per-operation latency, in milliseconds.

    The tail is the highest percentile of ``TAIL_LADDER`` with at least ten
    samples beyond it (the median itself when that is p50), or the maximum
    when there are fewer than twenty samples."""
    values = sorted(latency_ns)
    median = statistics.median(values)
    tail_p, tail, beyond = 100.0, values[-1], 0
    for p in TAIL_LADDER:
        v, above = nearest_rank(values, p)
        if above >= 10:
            tail_p, tail, beyond = p, (median if p == 50 else v), above
    return {"p50_ms": median / 1e6,
            "tail_ms": tail / 1e6, "tail_percentile": tail_p,
            "tail_beyond": beyond, "samples": len(values)}


# ---------------------------------------------------------------------------
# per-layer metrics


CLI_COMMANDS = ("check", "sweep", "sweep_te", "equilibrium", "population",
                "qre", "validate")

# (span name, which of calls / self_s / p50_us to report)
SPAN_METRICS = (
    ("closed_form.cooperation_condition", ("calls", "self_s", "p50_us")),
    ("closed_form.undercut", ("calls", "self_s")),
    ("beliefs.verdict", ("calls", "self_s", "p50_us")),
    ("beliefs.scanner_build", ("calls", "self_s")),
    ("beliefs.cooperation_rational", ("calls", "self_s")),
    ("games.make_dilemma", ("calls", "self_s")),
    ("games.two_point", ("self_s",)),
    ("games.verify_social_dilemma", ("calls", "self_s")),
    ("equilibrium.checker_build", ("calls", "self_s")),
    ("equilibrium.coherence", ("calls", "self_s", "p50_us")),
    ("equilibrium.is_coherent", ("calls", "self_s")),
    ("equilibrium.te_in_structure", ("calls", "self_s", "p50_us")),
    ("equilibrium.te_condition", ("self_s",)),
    ("equilibrium.te_condition_typed", ("calls", "self_s")),
    ("counterfactual.build_coherent", ("calls", "self_s")),
    ("counterfactual.build_typed", ("calls", "self_s")),
    ("counterfactual.is_rational_at", ("calls", "self_s", "p50_us")),
    ("counterfactual.validate", ("calls", "self_s")),
    ("counterfactual.to_json", ("self_s",)),
    ("counterfactual.from_json", ("self_s",)),
    ("alt_models.logit_qre", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
)
UNITS = {"calls": "count", "self_s": "s", "p50_us": "us"}

# metric name -> unit, for every per-layer metric not derived from a span
OTHER_METRICS = {
    "beliefs.verdicts_per_scanner": "ratio",
    "counterfactual.states": "count",
    "counterfactual.belief_entries": "count",
    "counterfactual.json_bytes": "bytes",
    "alt_models.qre_iterations": "count",
    "alt_models.numpy_import_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.{c}.main_ms": "ms" for c in CLI_COMMANDS},
    **{f"cli.{c}.stdout_bytes": "bytes" for c in CLI_COMMANDS},
    **{f"{c}_ms": "ms" for c in CLI_COMMANDS},
    "bench.harness.self_s": "s",
    "bench.untraced_wall_s": "s",
    "bench.traced_wall_s": "s",
    "bench.tracing_overhead_s": "s",
}


def per_layer_names() -> dict:
    """Every per-layer metric with its unit, in reporting order."""
    names = {}
    for span, kinds in SPAN_METRICS:
        for kind in kinds:
            names[f"{span}.{kind}"] = UNITS[kind]
    names.update(OTHER_METRICS)
    return names


def per_layer_metrics(summary: dict, extra: dict, untraced_ns: int,
                      traced_ns: int) -> dict:
    """Assemble every per-layer metric; layers a workload never calls
    report zero calls and zero time."""
    values = {name: 0 for name in per_layer_names()}
    for span, kinds in SPAN_METRICS:
        agg = summary.get(span)
        if agg is None:
            continue
        for kind in kinds:
            values[f"{span}.{kind}"] = {
                "calls": agg["calls"],
                "self_s": agg["self_ns"] / 1e9,
                "p50_us": agg["p50_ns"] / 1e3,
            }[kind]
    builds = values["beliefs.scanner_build.calls"]
    if builds:
        values["beliefs.verdicts_per_scanner"] = (
            values["beliefs.verdict.calls"] / builds)
    values["bench.harness.self_s"] = sum(
        agg["self_ns"] for name, agg in summary.items()
        if name.startswith("bench.")) / 1e9
    values["bench.untraced_wall_s"] = untraced_ns / 1e9
    values["bench.traced_wall_s"] = traced_ns / 1e9
    values["bench.tracing_overhead_s"] = (traced_ns - untraced_ns) / 1e9
    for name, value in extra.items():
        if name not in values:
            raise KeyError(f"unknown per-layer metric {name}")
        values[name] = value
    return values


def unaccounted_s(summary: dict) -> float:
    """How far the self times of all spans miss the traced wall time (the
    root span); zero when every span nests and the accounting closes."""
    self_total = sum(agg["self_ns"] for agg in summary.values())
    return abs(self_total - summary["bench.run"]["total_ns"]) / 1e9
