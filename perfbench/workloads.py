"""The benchmark's three workloads: scenario definitions, one run, its checks.

Every workload is a closed loop of runs (the next run starts when the
previous one has finished); :data:`RUNNERS` maps each workload to the function that performs one run
and returns a :class:`Run` with its host timings, its simulated counts, the canonical
result digest and the correctness failures it found.  The same code path
serves the untraced runs and the traced run: the traced run only has a
:class:`~perfbench.tracer.Tracer` installed around it, and ``span(name,
layer)`` opens the tracer's spans around the benchmark's own calls (a no-op
context when untraced).

* ``fabric-tpp`` — per-packet cost: a k=4 fat tree at 1 Gb/s, 8-packet
  bursts of 64-byte UDP payloads from every host to a cross-pod partner
  every 100 us through ``DataplaneShim.send_burst``, each packet carrying
  ``PUSH [Switch:SwitchID]; PUSH [Queue:QueueOccupancy]``.
* ``lossy-monitor`` — the layers ``fabric-tpp`` never touches: the loss
  localization scenario at 100 Mb/s with a corrupting edge-aggregation
  link, a polling remediation loop, a 4-shard delta-encoded collect plane
  behind a fan-in-2 tree with 1 ms epochs, and the flight recorder.
* ``app-sweep`` — per-experiment fixed costs: ``SweepRunner`` over 100
  short experiments of the five sweepable app scenarios.

``--seed`` reaches the program only as generated inputs: the ECMP salt of
``fabric-tpp``, the Poisson arrivals and corruption draws of
``lossy-monitor``, and the seeds of the sweep's experiments.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net.port import (DROP_CORRUPTED, DROP_LINK_DOWN, DROP_PEER_DOWN,
                            DROP_QUEUE_OVERFLOW)

DROP_CATEGORIES = (DROP_LINK_DOWN, DROP_QUEUE_OVERFLOW, DROP_PEER_DOWN,
                   DROP_CORRUPTED)

# ----------------------------------------------------------------- fabric-tpp
FABRIC_TPP = "PUSH [Switch:SwitchID]\nPUSH [Queue:QueueOccupancy]"
FABRIC_DURATION_S = 10e-3
FABRIC_SLICES = 100            # one 100 us burst round per slice

# -------------------------------------------------------------- lossy-monitor
LOSSY_LINK = "edge0_0<->agg0_0"
LOSSY_DURATION_S = 0.1
LOSSY_SLICES = 100             # one 1 ms collect epoch per slice

# ------------------------------------------------------------------ app-sweep
SWEEP_APPS = ("microburst", "netsight", "sketches", "rcp", "conga")
SWEEP_SEEDS_PER_APP = 20
SWEEP_DURATION_S = 0.1
SWEEP_TIMEOUT_S = 60.0

WORKLOADS = ("fabric-tpp", "lossy-monitor", "app-sweep")

#: Counts reported but left out of the run-to-run identity check.  Flow ids
#: come from a process-wide counter (``repro.net.flows``), so the flight
#: recorder's flow sampling picks other flows in the n-th run of a process
#: than in the first, and its record count moves with it.
UNCHECKED_COUNTS = ("flightrec_written", "flightrec_overwritten")


def sweep_workers() -> int:
    """At most two pool workers, and no more than the CPUs we may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


@dataclass
class Run:
    """One closed-loop iteration: host timings, simulated counts, checks."""

    setup_s: float
    total_s: float
    run_s: float                   # the simulating phase (events_per_s base)
    cpu_s: float                   # this process plus reaped workers
    experiments: int
    steps_ms: list[float]          # sim slices, or per-task wall for a sweep
    counts: dict[str, int]
    digest: str
    failures: list[str] = field(default_factory=list)
    tasks_failed: int = 0
    sweep: Optional[object] = None       # the SweepResult of a sweep run
    sweep_tasks: Optional[list] = None

    @property
    def events(self) -> int:
        return self.counts["events"]

    def checked_counts(self) -> dict[str, int]:
        return {name: value for name, value in self.counts.items()
                if name not in UNCHECKED_COUNTS}


def canonical_digest(jsonable) -> str:
    """blake2b of sorted JSON with object addresses masked.

    Some app summaries (the sketch suite) render parts with ``repr``, which
    embeds an address that changes between any two runs in one process.
    """
    text = json.dumps(jsonable, sort_keys=True)
    return hashlib.blake2b(re.sub(r"0x[0-9a-f]+", "0x-", text).encode(),
                           digest_size=16).hexdigest()


def experiment_facts(result) -> dict[str, int]:
    """The simulated counts of one finished experiment.

    These are modelled quantities: for a fixed seed they are identical on
    every run, traced or not, and a change that only speeds the simulator
    up must leave every one of them unchanged.
    """
    network = result.experiment.network
    switches = network.switches.values()
    tcpu = [switch.tcpu.telemetry_counters() for switch in switches]
    flightrec = result.flightrec or {}
    facts = {
        "events": result.events_executed,
        "tpp_hops": sum(t["tpps_executed"] for t in tcpu),
        "instructions": sum(t["instructions_executed"] for t in tcpu),
        "plan_cache_hits": sum(t["plan_cache_hits"] for t in tcpu),
        "plan_cache_misses": sum(t["plan_cache_misses"] for t in tcpu),
        "trace_cache_hits": sum(t["trace_cache_hits"] for t in tcpu),
        "trace_cache_misses": sum(t["trace_cache_misses"] for t in tcpu),
        "packets_forwarded": sum(s.packets_forwarded for s in switches),
        "switch_receives": sum(port.rx_packets for s in switches
                               for port in s.ports),
        "deliveries": sum(h.packets_received for h in network.hosts.values()),
        "tpps_attached": result.tpps_attached,
        "tpps_received": result.tpps_received,
        "collect_delivered": result.summary_parts_delivered,
        "collect_dropped": result.summary_parts_dropped,
        "collect_bytes": result.summary_bytes_on_wire,
        "fault_events_applied": result.fault_events_applied,
        "flightrec_written": flightrec.get("records_written", 0),
        "flightrec_overwritten": flightrec.get("records_overwritten", 0),
    }
    for category in DROP_CATEGORIES:
        facts[f"drops.{category}"] = result.drop_reasons.get(category, 0)
    return facts


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


# ------------------------------------------------------------------ scenarios
def fabric_scenario(seed: int):
    from repro.endhost.filters import PacketFilter
    from repro.net.link import gbps
    from repro.session import Scenario

    return (Scenario("fat-tree", seed=seed, name="fabric-tpp", seed_ecmp=True,
                     k=4, link_rate_bps=gbps(1), link_delay_s=5e-6)
            .tpp("fabric-tpp", FABRIC_TPP, num_hops=8,
                 filter=PacketFilter(protocol="udp"))
            .workload("cross-pod-bursts", burst_packets=8,
                      burst_interval_s=100e-6, payload_bytes=64,
                      use_batch=True))


def lossy_scenario(seed: int):
    from repro.apps.losslocal import losslocal_scenario
    from repro.faults import FaultEvent, FaultPlan
    from repro.net import mbps

    plan = FaultPlan(events=(FaultEvent(0.0, LOSSY_LINK, "loss", 0.1),),
                     seed=seed)
    return (losslocal_scenario(k=4, link_rate_bps=mbps(100), offered_load=0.3,
                               seed=seed, faults=plan)
            .remediation("do-nothing")
            .collector(shards=4, epoch_s=1e-3, delta=True, tree=2)
            .flight_recorder(sample_every=8))


def _app_sweeps(seed: int):
    """One SweepSpec per app, each over ``SWEEP_SEEDS_PER_APP`` seeds."""
    from repro.apps.conga import conga_scenario
    from repro.apps.microburst import microburst_scenario
    from repro.apps.netsight import netsight_scenario
    from repro.apps.rcp import ALPHA_MAXMIN, rcp_scenario
    from repro.apps.sketches import sketch_scenario
    from repro.net import mbps
    from repro.sweep import SweepSpec

    seeds = [seed * 1000 + i for i in range(SWEEP_SEEDS_PER_APP)]
    bases = {
        "microburst": microburst_scenario(link_rate_bps=mbps(10),
                                          offered_load=0.4),
        "netsight": netsight_scenario(link_rate_bps=mbps(10)),
        "sketches": sketch_scenario(),
        "rcp": rcp_scenario(alpha=ALPHA_MAXMIN, link_rate_bps=mbps(10)),
        "conga": conga_scenario("conga", link_rate_bps=mbps(10),
                                warmup_s=0.02),
    }
    sweeps = {}
    for app in SWEEP_APPS:
        sweep = SweepSpec(bases[app], mode="zip").axis("seed", seeds)
        if app in ("microburst", "netsight"):
            # Their message workloads carry their own seed.
            sweep.axis("workload.messages.seed", seeds)
        sweeps[app] = sweep
    return sweeps


def sweep_tasks(seed: int) -> list:
    """The expanded, validated and fingerprinted task list of one sweep."""
    from repro.sweep.plan import SweepTask

    tasks = []
    for app, sweep in _app_sweeps(seed).items():
        for task in sweep.expand():
            tasks.append(SweepTask(index=len(tasks), label=f"{app}/{task.label}",
                                   overrides=task.overrides, spec=task.spec,
                                   fingerprint=task.fingerprint))
    return tasks


# ------------------------------------------------------------------- one run
def _run_experiment(build: Callable, duration_s: float, slices: int,
                    seed: int, span: Callable) -> tuple:
    """Build, advance in ``slices`` equal slices, finish, summarise."""
    from repro.session import ResultSummary

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    with span("perfbench.run", "bench"):
        experiment = build(seed).build(duration_s)
        t1 = time.perf_counter()
        steps_ms = []
        run = experiment.sim.run
        for index in range(1, slices + 1):
            before = time.perf_counter()
            run(until=duration_s * index / slices)
            steps_ms.append((time.perf_counter() - before) * 1e3)
        t2 = time.perf_counter()
        result = experiment.finish()
        summary = ResultSummary.from_result(result)
    t3 = time.perf_counter()
    cpu_s = _cpu_s() - cpu0
    facts = experiment_facts(result)
    digest = canonical_digest(summary.as_jsonable())
    return (Run(setup_s=t1 - t0, total_s=t3 - t0, run_s=t2 - t1, cpu_s=cpu_s,
                experiments=1, steps_ms=steps_ms, counts=facts, digest=digest),
            result)


def run_fabric(seed: int, span: Callable) -> Run:
    run, _ = _run_experiment(fabric_scenario, FABRIC_DURATION_S,
                             FABRIC_SLICES, seed, span)
    counts = run.counts
    if counts["tpp_hops"] != counts["packets_forwarded"]:
        run.failures.append(f"TPP hops {counts['tpp_hops']} != packets "
                            f"forwarded {counts['packets_forwarded']}")
    if counts["tpp_hops"] == 0:
        run.failures.append("no TPP executed")
    return run


def run_lossy(seed: int, span: Callable) -> Run:
    from repro.apps.losslocal import localize

    run, result = _run_experiment(lossy_scenario, LOSSY_DURATION_S,
                                  LOSSY_SLICES, seed, span)
    suspects = localize(result)
    if not suspects or suspects[0].link != LOSSY_LINK:
        accused = suspects[0].link if suspects else None
        run.failures.append(f"localize() ranked {accused!r} first, "
                            f"injected {LOSSY_LINK!r}")
    if run.counts["collect_delivered"] == 0:
        run.failures.append("the collect plane delivered nothing")
    return run


def run_sweep(seed: int, span: Callable,
              on_summary: Optional[Callable] = None) -> Run:
    """One sweep: expand (the set-up), run on the pool, fold the artifact."""
    from repro.sweep import SweepRunner

    workers = sweep_workers()

    def on_outcome(outcome) -> None:
        if on_summary is not None and outcome.summary is not None:
            on_summary(outcome.summary)

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    with span("perfbench.run", "bench"):
        with span("sweep.expand", "sweep"):
            tasks = sweep_tasks(seed)
        t1 = time.perf_counter()
        runner = SweepRunner(workers=workers, duration_s=SWEEP_DURATION_S,
                             timeout_s=SWEEP_TIMEOUT_S)
        result = runner.run(tasks, on_outcome=on_outcome)
    t2 = time.perf_counter()
    cpu_s = _cpu_s() - cpu0
    counts: dict[str, int] = {"tasks": len(tasks),
                              "completed": len(result.completed)}
    for outcome in result.completed:
        for name, value in outcome.summary.counters.items():
            counts[name] = counts.get(name, 0) + value
    counts["events"] = counts.get("events_executed", 0)
    run = Run(setup_s=t1 - t0, total_s=t2 - t0, run_s=t2 - t1, cpu_s=cpu_s,
              experiments=len(result.completed),
              steps_ms=[outcome.wall_s * 1e3 for outcome in result.completed],
              counts=counts, digest=canonical_digest(result.canonical_artifact()),
              sweep=result, sweep_tasks=tasks)
    run.tasks_failed = len(tasks) - len(result.completed)
    for outcome in result.outcomes:
        if outcome.status != "done":
            run.failures.append(f"task {outcome.label} {outcome.status}: "
                                f"{outcome.error}")
    return run


def pickle_bytes_per_task(run: Run) -> float:
    """Mean bytes a task moves across the pool: its spec plus its summary."""
    by_index = {outcome.index: outcome for outcome in run.sweep.completed}
    sizes = [len(pickle.dumps(task.spec)) + len(pickle.dumps(by_index[task.index].summary))
             for task in run.sweep_tasks if task.index in by_index]
    return sum(sizes) / len(sizes) if sizes else 0.0


RUNNERS = {"fabric-tpp": run_fabric, "lossy-monitor": run_lossy,
           "app-sweep": run_sweep}
