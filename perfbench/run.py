"""The repository benchmark: one workload, measured end to end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload fabric-tpp --seed 1 --seconds 20 --trace 0

``--trace 0`` runs a warm-up run, then a closed loop of untraced runs for
``--seconds`` host seconds, checks every run's outputs and prints the
end-to-end metrics.  ``--trace 1`` runs untraced reference runs, then one
run with span wrappers installed on every layer, checks that the traced run
simulated exactly what the untraced ones did, writes the spans as a
Perfetto trace under ``.perfbench/`` and prints the per-layer metrics.
Either way the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
status is non-zero when any output check failed.

The metric names, units and bounds are listed in ``BENCHMARK.json``;
``perfbench/NOTES.md`` says why each workload exists and which layer metric
should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import multiprocessing
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics: name -> unit.  Every workload reports every one.
END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "events_per_s": "1/s",
    "experiments_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "cpu_per_wall": "ratio",
}

#: Untraced reference runs the traced run is compared with (after warm-up).
TRACE_REFERENCE_RUNS = 2
#: Fewest measured runs, however long each one takes.
MIN_RUNS = 3
#: Layer self times must sum to the traced total within this share.
SELF_SUM_TOLERANCE = 0.05
TRACE_DIR = ".perfbench"


def per_layer_units() -> dict[str, str]:
    """Per-layer metrics: name -> unit, in the order they are printed."""
    from perfbench.tracer import LAYERS
    from perfbench.workloads import DROP_CATEGORIES

    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update({
        "net.sim.events": "count",
        "net.sim.schedule_calls": "count",
        **{f"net.port.drops.{category}": "count" for category in DROP_CATEGORIES},
        "switches.receives": "count",
        "switches.stats_updates": "count",
        "core.tcpu.tpp_hops": "count",
        "core.tcpu.instructions": "count",
        "core.tcpu.plan_cache_hit_ratio": "ratio",
        "core.tcpu.trace_hit_ratio": "ratio",
        "endhost.tpp_completion_ratio": "ratio",
        "collect.delivered_ratio": "ratio",
        "collect.bytes_on_wire": "bytes",
        "faults.polls": "count",
        "faults.events_applied": "count",
        "obs.flightrec.records_written": "count",
        "obs.flightrec.overwrite_ratio": "ratio",
        "session.build_s": "s",
        "session.finish_s": "s",
        "session.summary_s": "s",
        "sweep.worker_busy_ratio": "ratio",
        "sweep.pickle_bytes_per_task": "bytes",
        "sweep.retries": "count",
        "trace.total_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.self_sum_ratio": "ratio",
        "trace.spans": "count",
    })
    return units


# -------------------------------------------------------------- statistics
def percentile(values: list[float], q: float) -> tuple[float, float]:
    """Nearest-rank percentile, lowered until >= 10 samples lie beyond it.

    Returns (value, the quantile actually used).
    """
    ordered = sorted(values)
    n = len(ordered)
    q = min(q, max(0.5, 1.0 - 10.0 / n))
    return ordered[max(0, math.ceil(q * n) - 1)], q


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped worker, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


# ----------------------------------------------------------------- checks
class Checker:
    """Counts failed operations and keeps the first run as the reference."""

    def __init__(self, workload: str) -> None:
        self.sweep = workload == "app-sweep"
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, run, label: str) -> None:
        problems = list(run.failures)
        if self.reference is None:
            self.reference = run
        else:
            mine, first = run.checked_counts(), self.reference.checked_counts()
            if mine != first:
                diff = sorted(k for k in set(mine) | set(first)
                              if mine.get(k) != first.get(k))
                problems.append(f"simulated counts differ from the first run: {diff}")
            if run.digest != self.reference.digest:
                problems.append("result digest differs from the first run")
        if self.sweep:
            # Operations are tasks; a sweep-level mismatch counts once more.
            self.attempted += run.counts["tasks"]
            self.failed += run.tasks_failed + (1 if len(problems) > run.tasks_failed
                                               else 0)
        else:
            self.attempted += 1
            self.failed += 1 if problems else 0
        for problem in problems:
            self.messages.append(f"{label}: {problem}")
            print(f"CHECK FAILED {label}: {problem}", file=sys.stderr)


def describe(run, label: str) -> None:
    print(f"{label}: setup {run.setup_s * 1e3:.2f} ms, total {run.total_s:.3f} s, "
          f"{run.events:,} events ({run.events / run.run_s:,.0f}/s), "
          f"cpu/wall {run.cpu_s / run.total_s:.2f}")


def _no_span(name: str, layer: str) -> contextlib.nullcontext:
    return contextlib.nullcontext()


# ---------------------------------------------------------------- measured
def measure(workload: str, seed: int, seconds: float) -> tuple[dict, Checker]:
    from perfbench.workloads import RUNNERS

    runner = RUNNERS[workload]
    checker = Checker(workload)
    warm = runner(seed, _no_span)             # fills process-wide caches
    checker.check(warm, "warm-up")
    describe(warm, "warm-up")
    runs = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        run = runner(seed, _no_span)
        checker.check(run, f"run {len(runs) + 1}")
        describe(run, f"run {len(runs) + 1}")
        # Keep no sweep results alive, so peak_rss_mb does not grow with
        # the number of runs that fit in the measured time.
        run.sweep = run.sweep_tasks = None
        runs.append(run)
    steps = [step for run in runs for step in run.steps_ms]
    p50, _ = percentile(steps, 0.5)
    p90, q90 = percentile(steps, 0.9)
    metrics = {
        "setup_s": statistics.median(run.setup_s for run in runs),
        "total_s": statistics.median(run.total_s for run in runs),
        "events_per_s": statistics.median(run.events / run.run_s for run in runs),
        "experiments_per_s": statistics.median(run.experiments / run.total_s
                                               for run in runs),
        "step_p50_ms": p50,
        "step_p90_ms": p90,
        "peak_rss_mb": peak_rss_mb(),
        "cpu_per_wall": statistics.median(run.cpu_s / run.total_s for run in runs),
    }
    print(f"{len(runs)} measured runs, {len(steps)} steps "
          f"(step_p90_ms is the p{q90 * 100:g})")
    print(f"sim_digest = {checker.reference.digest}")
    print("counts = " + json.dumps(checker.reference.counts, sort_keys=True))
    return {name: (value, END_TO_END[name]) for name, value in metrics.items()}, checker


# ------------------------------------------------------------------ traced
def traced(workload: str, seed: int) -> tuple[dict, Checker]:
    from perfbench.tracer import LAYERS, Tracer, write_perfetto
    from perfbench.workloads import RUNNERS, experiment_facts, pickle_bytes_per_task
    from tools.check_trace_schema import validate_trace

    runner = RUNNERS[workload]
    checker = Checker(workload)
    references = []
    for index in range(1 + TRACE_REFERENCE_RUNS):
        run = runner(seed, _no_span)
        label = "warm-up" if index == 0 else f"untraced {index}"
        checker.check(run, label)
        describe(run, label)
        if index:
            references.append(run)

    tracer = Tracer(facts=experiment_facts)
    kwargs = {"on_summary": tracer.harvest} if workload == "app-sweep" else {}
    with tracer:
        run = runner(seed, tracer.span, **kwargs)
    budget = tracer.layer_budget()
    total = budget["total_s"]
    self_sum_ratio = ratio(sum(budget["self_s"].values()), total)
    if abs(1.0 - self_sum_ratio) > SELF_SUM_TOLERANCE:
        run.failures.append(f"layer self times sum to {self_sum_ratio:.3f} "
                            f"of the traced total")
    checker.check(run, "traced")
    describe(run, "traced")
    overhead = run.total_s / statistics.median(r.total_s for r in references)

    out_dir = Path(TRACE_DIR)
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{workload}.json"
    events = write_perfetto(tracer, str(trace_path), validate_trace)
    print(f"trace: {events:,} events -> {trace_path} (schema valid)")

    facts = tracer.facts
    calls = tracer.call_counts()
    spent = tracer.name_durations()
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = budget["calls"][layer]
        values[f"{layer}.self_s"] = budget["self_s"][layer]
        values[f"{layer}.share"] = ratio(budget["self_s"][layer], total)
    values.update({
        "net.sim.events": facts["events"],
        "net.sim.schedule_calls": tracer.schedule_calls,
        **{name.replace("drops.", "net.port.drops.", 1): value
           for name, value in facts.items() if name.startswith("drops.")},
        "switches.receives": facts["switch_receives"],
        "switches.stats_updates": calls.get("event:TPPSwitch._update_port_stats", 0),
        "core.tcpu.tpp_hops": facts["tpp_hops"],
        "core.tcpu.instructions": facts["instructions"],
        "core.tcpu.plan_cache_hit_ratio": ratio(
            facts["plan_cache_hits"],
            facts["plan_cache_hits"] + facts["plan_cache_misses"]),
        "core.tcpu.trace_hit_ratio": ratio(
            facts["trace_cache_hits"],
            facts["trace_cache_hits"] + facts["trace_cache_misses"]),
        "endhost.tpp_completion_ratio": ratio(facts["tpps_received"],
                                              facts["tpps_attached"]),
        "collect.delivered_ratio": ratio(
            facts["collect_delivered"],
            facts["collect_delivered"] + facts["collect_dropped"]),
        "collect.bytes_on_wire": facts["collect_bytes"],
        "faults.polls": calls.get("RemediationController.detect", 0),
        "faults.events_applied": facts["fault_events_applied"],
        "obs.flightrec.records_written": facts["flightrec_written"],
        "obs.flightrec.overwrite_ratio": ratio(facts["flightrec_overwritten"],
                                               facts["flightrec_written"]),
        "session.build_s": spent.get("Scenario.build", 0.0),
        "session.finish_s": spent.get("Experiment.finish", 0.0),
        "session.summary_s": spent.get("ResultSummary.from_result", 0.0),
        "sweep.worker_busy_ratio": 0.0,
        "sweep.pickle_bytes_per_task": 0.0,
        "sweep.retries": 0,
        "trace.total_s": total,
        "trace.overhead_ratio": overhead,
        "trace.self_sum_ratio": self_sum_ratio,
        "trace.spans": sum(len(block) for block in tracer.blocks()),
    })
    if run.sweep is not None:
        sweep = run.sweep
        values["sweep.worker_busy_ratio"] = ratio(
            sum(outcome.wall_s for outcome in sweep.outcomes),
            sweep.workers * sweep.wall_s)
        values["sweep.pickle_bytes_per_task"] = pickle_bytes_per_task(run)
        values["sweep.retries"] = sweep.retries
    print(f"sim_digest = {checker.reference.digest}")
    print(f"tracing overhead: traced total_s / untraced total_s = {overhead:.2f}")
    units = per_layer_units()
    return {name: (values[name], unit) for name, unit in units.items()}, checker


# -------------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fabric-tpp", "lossy-monitor", "app-sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "tools").is_dir():
        print(f"perfbench: no program to measure under {ROOT} "
              f"(src/repro and tools/ are missing)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"{'traced run' if args.trace else f'{args.seconds:g} s measured'}")
    try:
        if args.trace:
            metrics, checker = traced(args.workload, args.seed)
        else:
            metrics, checker = measure(args.workload, args.seed, args.seconds)
    finally:
        # The sweep runner terminates its pool workers; wait for every one.
        for child in multiprocessing.active_children():
            child.join()
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ratio = {ratio(checker.failed, checker.attempted):.6g} "
          f"({checker.failed} of {checker.attempted} operations)")
    for message in checker.messages:
        print(f"check failed: {message}")
    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
