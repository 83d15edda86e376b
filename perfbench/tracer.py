"""Span tracing for the benchmark's traced run, installed from outside ``src/``.

The traced run needs per-layer host time without touching the program, so
:class:`Tracer` wraps each layer's public entry points at class level, before
the scenario is built (bound methods captured at build time, such as the
shim's tx/rx hooks and the aggregators' ``on_tpp``, are then the wrapped
ones).  Every wrapper records one span: name, start, end, parent and a group
identifier shared by the spans of one dispatched event (or one sweep task).

Spans live in flat ``array`` columns so a run of ~10^6 spans stays small.
:meth:`Tracer.layer_budget` folds them into per-layer call counts and self
time (a span's duration minus its children's), and :func:`write_perfetto`
writes them once, at the end, as Chrome/Perfetto trace-event JSON, each chunk
checked with ``tools/check_trace_schema.py``'s ``validate_trace``.

A span's layer is fixed by its name: method spans by the layer they wrap,
event and hook spans by the module that owns the callback (see
:func:`layer_of_module`).
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from collections import Counter
from typing import Callable, Iterable, Optional

#: The layers the per-layer budget reports, in the order they are printed.
LAYERS = ("net.sim", "net.port", "switches", "core.tcpu", "endhost",
          "collect", "faults", "obs.flightrec", "session", "sweep")

#: Spans of the benchmark's own glue; not a layer of the program.
BENCH_LAYER = "bench"

#: Module prefix -> layer, most specific first.  ``repro.apps`` holds the
#: end-host applications (aggregators, per-flow controllers), so it is
#: folded into ``endhost``; ``repro.stats`` and ``repro.baselines`` are
#: helpers the apps call from the end hosts.
_MODULE_LAYERS = (
    ("repro.net.sim", "net.sim"),
    ("repro.net", "net.port"),
    ("repro.switches", "switches"),
    ("repro.core", "core.tcpu"),
    ("repro.endhost", "endhost"),
    ("repro.apps", "endhost"),
    ("repro.stats", "endhost"),
    ("repro.baselines", "endhost"),
    ("repro.collect", "collect"),
    ("repro.faults", "faults"),
    ("repro.obs", "obs.flightrec"),
    ("repro.session", "session"),
    ("repro.sweep", "sweep"),
)

#: Trace events validated and written per batch.
_CHUNK = 20_000

#: Set while a tracer is installed: the pool's forked workers reach the
#: parent's tracer through it (a function crossing the pool is pickled by
#: reference, so it cannot carry the tracer itself).
_INSTALLED: Optional["Tracer"] = None


def layer_of_module(module: str) -> str:
    """The layer that owns code defined in ``module``."""
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return BENCH_LAYER


class SpanBlock:
    """The spans one process recorded: a name table plus flat columns."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.group = array("i")

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[int]:
        """Each span's duration minus its children's, in nanoseconds."""
        duration = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(duration)
        for index, up in enumerate(self.parent):
            if up >= 0:
                child[up] += duration[index]
        return [d - c for d, c in zip(duration, child)]

    def root_ns(self) -> int:
        """Summed duration of the spans that have no parent."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent)
                   if p < 0)


class Tracer:
    """Records spans around the program's layer entry points.

    ``install()`` patches the classes; ``uninstall()`` restores every
    original attribute.  Use it as a context manager around one traced run.
    """

    def __init__(self, facts: Optional[Callable[[object], dict]] = None) -> None:
        # facts(result) -> simulated counts of one finished experiment,
        # summed into self.facts after every Experiment.finish.
        self._facts = facts
        self.facts: Counter = Counter()
        self.pid = os.getpid()
        self.block = SpanBlock(self.pid)
        self.worker_blocks: list[SpanBlock] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._callbacks: dict = {}            # code object -> name id
        self._patches: list[tuple[object, str, object]] = []
        self.schedule_calls = 0

    def harvest(self, summary) -> None:
        """Fold a worker's shipped spans (see :func:`traced_execute_task`)
        into this tracer and strip them from the summary."""
        shipped = summary.__dict__.pop("bench_trace", None)
        if shipped is not None:
            self.worker_blocks.append(shipped["block"])
            self.schedule_calls += shipped["schedule_calls"]
            self.facts.update(shipped["facts"])

    # ------------------------------------------------------------ recording
    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.block.names)
            self.block.names.append(name)
            self.block.layers.append(layer)
        return nid

    def begin(self, nid: int, new_group: bool = False) -> None:
        block = self.block
        index = len(block.start)
        stack = self._stack
        if stack:
            up = stack[-1]
            group = index if new_group else block.group[up]
        else:
            up = -1
            group = index
        block.name.append(nid)
        block.parent.append(up)
        block.group.append(group)
        block.end.append(0)
        stack.append(index)
        block.start.append(time.perf_counter_ns())

    def finish(self) -> None:
        now = time.perf_counter_ns()
        self.block.end[self._stack.pop()] = now

    def span(self, name: str, layer: str) -> "_Span":
        """A context-manager span from the benchmark's own code."""
        return _Span(self, self.name_id(name, layer))

    def call_counts(self) -> dict[str, int]:
        """Span name -> number of spans, across every block."""
        counts: dict[str, int] = {}
        for block in self.blocks():
            per_name = [0] * len(block.names)
            for nid in block.name:
                per_name[nid] += 1
            for name, count in zip(block.names, per_name):
                if count:
                    counts[name] = counts.get(name, 0) + count
        return counts

    def name_durations(self) -> dict[str, float]:
        """Span name -> summed duration in seconds, across every block."""
        spent: dict[str, float] = {}
        for block in self.blocks():
            for nid, start, end in zip(block.name, block.start, block.end):
                name = block.names[nid]
                spent[name] = spent.get(name, 0.0) + (end - start) / 1e9
        return spent

    def blocks(self) -> list[SpanBlock]:
        return [self.block, *self.worker_blocks]

    # ------------------------------------------------------------- patching
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_method(self, cls: type, attr: str, layer: str) -> None:
        original = cls.__dict__[attr]
        nid = self.name_id(f"{cls.__name__}.{attr}", layer)
        begin, finish = self.begin, self.finish

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            begin(nid)
            try:
                return original(*args, **kwargs)
            finally:
                finish()

        self._patch(cls, attr, wrapper)

    def _callback_id(self, callback: Callable, prefix: str) -> int:
        """Name id of a callback's span, named and layered by its owner."""
        target = callback
        while True:
            if isinstance(target, functools.partial):
                target = target.func
            elif isinstance(getattr(target, "__self__", None), self._periodic):
                target = target.__self__.callback
            else:
                break
        func = getattr(target, "__func__", target)
        key = getattr(func, "__code__", func)
        nid = self._callbacks.get(key)
        if nid is None:
            qualname = getattr(func, "__qualname__", type(func).__name__)
            module = getattr(func, "__module__", None) or ""
            nid = self._callbacks[key] = self.name_id(
                f"{prefix}:{qualname}", layer_of_module(module))
        return nid

    def _traced_callback(self, callback: Callable, prefix: str,
                         new_group: bool) -> Callable:
        nid = self._callback_id(callback, prefix)
        begin, finish = self.begin, self.finish

        def traced(*args):
            begin(nid, new_group)
            try:
                return callback(*args)
            finally:
                finish()

        return traced

    def install(self) -> "Tracer":
        """Wrap every layer entry point the per-layer budget reads."""
        global _INSTALLED
        if _INSTALLED is not None:
            raise RuntimeError("a tracer is already installed")
        from repro.collect.virtual import CollectPlane
        from repro.core.tcpu import TCPU
        from repro.endhost.aggregator import Aggregator
        from repro.endhost.dataplane import DataplaneShim
        from repro.faults.policy import RemediationController
        from repro.net.link import Link
        from repro.net.node import Host
        from repro.net.port import Port
        from repro.net.sim import PeriodicProcess, Simulator
        from repro.obs.flightrec import FlightRecorder
        from repro.session.experiment import Experiment
        from repro.session.scenario import Scenario
        from repro.session.spec import ResultSummary
        from repro.sweep import runner
        from repro.switches.switch import TPPSwitch

        self._periodic = PeriodicProcess
        tracer = self
        traced_callback = self._traced_callback
        schedule = Simulator.schedule
        schedule_at = Simulator.schedule_at
        schedule_many = Simulator.schedule_many

        def traced_schedule(sim, delay, callback, *args, name=""):
            tracer.schedule_calls += 1
            return schedule(sim, delay, traced_callback(callback, "event", True),
                            *args, name=name)

        def traced_schedule_at(sim, when, callback, *args, name=""):
            tracer.schedule_calls += 1
            return schedule_at(sim, when,
                               traced_callback(callback, "event", True),
                               *args, name=name)

        def traced_schedule_many(sim, specs, name=""):
            wrapped = [(spec[0], traced_callback(spec[1], "event", True),
                        *spec[2:]) for spec in specs]
            tracer.schedule_calls += len(wrapped)
            return schedule_many(sim, wrapped, name=name)

        self._patch(Simulator, "schedule", traced_schedule)
        self._patch(Simulator, "schedule_at", traced_schedule_at)
        self._patch(Simulator, "schedule_many", traced_schedule_many)
        self._wrap_method(Simulator, "run", "net.sim")

        add_tx_hook, add_rx_hook = Host.add_tx_hook, Host.add_rx_hook
        self._patch(Host, "add_tx_hook", lambda host, hook: add_tx_hook(
            host, traced_callback(hook, "hook", False)))
        self._patch(Host, "add_rx_hook", lambda host, hook: add_rx_hook(
            host, traced_callback(hook, "hook", False)))

        methods = [
            (Port, ("send", "send_many"), "net.port"),
            (Link, ("deliver_burst",), "net.port"),
            (TPPSwitch, ("receive", "receive_batch"), "switches"),
            (TCPU, ("execute_program",), "core.tcpu"),
            (DataplaneShim, ("send_burst",), "endhost"),
            (CollectPlane, ("route", "flush_all", "merge"), "collect"),
            (RemediationController, ("detect",), "faults"),
            (FlightRecorder, tuple(attr for attr in vars(FlightRecorder)
                                   if attr.startswith("on_")), "obs.flightrec"),
            (Scenario, ("build",), "session"),
            (runner.SweepRunner, ("run",), "sweep"),
        ]
        # Aggregator subclasses override on_tpp (and call super()), so each
        # class that defines it is wrapped; the app modules must be imported
        # first for their subclasses to exist.
        aggregators = [Aggregator]
        for cls in aggregators:
            aggregators.extend(cls.__subclasses__())
        methods.extend((cls, ("on_tpp",), "endhost") for cls in aggregators
                       if "on_tpp" in cls.__dict__)
        for cls, attrs, layer in methods:
            for attr in attrs:
                self._wrap_method(cls, attr, layer)
        finish = Experiment.finish
        finish_nid = self.name_id("Experiment.finish", "session")

        def traced_finish(experiment):
            tracer.begin(finish_nid)
            try:
                result = finish(experiment)
            finally:
                tracer.finish()
            if tracer._facts is not None:
                tracer.facts.update(tracer._facts(result))
            return result

        self._patch(Experiment, "finish", traced_finish)
        from_result = ResultSummary.__dict__["from_result"].__func__
        summary_nid = self.name_id("ResultSummary.from_result", "session")

        def traced_from_result(cls, result):
            tracer.begin(summary_nid)
            try:
                return from_result(cls, result)
            finally:
                tracer.finish()

        self._patch(ResultSummary, "from_result", classmethod(traced_from_result))
        self._execute_task = runner._execute_task
        self._patch(runner, "_execute_task", traced_execute_task)
        _INSTALLED = self
        return self

    def uninstall(self) -> None:
        global _INSTALLED
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _INSTALLED = None

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------- reduction
    def layer_budget(self) -> dict:
        """Per-layer calls and self time, plus the traced total.

        The traced total is the summed duration of every process's root
        spans: the parent's whole run plus, for a sweep, each worker's task
        spans.  Self time of the benchmark's own root span is not a layer.
        """
        calls = {layer: 0 for layer in LAYERS}
        self_ns = {layer: 0 for layer in LAYERS}
        total_ns = 0
        for block in self.blocks():
            layers = block.layers
            for nid, own in zip(block.name, block.self_times()):
                layer = layers[nid]
                if layer in calls:
                    calls[layer] += 1
                    self_ns[layer] += own
            total_ns += block.root_ns()
        return {"calls": calls, "self_s": {k: v / 1e9 for k, v in self_ns.items()},
                "total_s": total_ns / 1e9}


class _Span:
    __slots__ = ("_tracer", "_nid")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._tracer, self._nid = tracer, nid

    def __enter__(self) -> None:
        self._tracer.begin(self._nid, new_group=True)

    def __exit__(self, *exc) -> None:
        self._tracer.finish()


def traced_execute_task(spec, duration_s, run_until_idle,
                        telemetry_slices=None):
    """The sweep's task entry point while a tracer is installed.

    In a forked pool worker it records the task's spans into a fresh block
    and ships them home on the summary, as ``bench_trace`` (an attribute no
    canonical rendering reads), with the task's simulated counts and
    schedule calls.  In the parent (a serial sweep) it only
    adds a span.
    """
    tracer = _INSTALLED
    execute = tracer._execute_task
    if os.getpid() == tracer.pid:
        with tracer.span("sweep.execute_task", "sweep"):
            return execute(spec, duration_s, run_until_idle, telemetry_slices)
    block = SpanBlock(os.getpid())
    block.names = list(tracer.block.names)
    block.layers = list(tracer.block.layers)
    tracer.block, tracer._stack = block, []
    tracer.schedule_calls, tracer.facts = 0, Counter()
    with tracer.span("sweep.execute_task", "sweep"):
        summary = execute(spec, duration_s, run_until_idle, telemetry_slices)
    summary.bench_trace = {"block": block, "facts": dict(tracer.facts),
                           "schedule_calls": tracer.schedule_calls}
    return summary


def write_perfetto(tracer: Tracer, path: str,
                   validate: Callable[[dict], list]) -> int:
    """Write every span as trace-event JSON; return the event count.

    Each process is one Perfetto process track.  Events are written in
    chunks, and each chunk is validated (with the metadata records) before
    it is written, so the whole trace is never held as dicts at once.
    """
    blocks = tracer.blocks()
    origin = min((block.start[0] for block in blocks if len(block)), default=0)
    pids = dict.fromkeys(block.pid for block in blocks)     # one per process
    meta = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": "perfbench" if pid == tracer.pid
                      else f"sweep worker {pid}"}}
            for pid in pids]
    errors = validate({"traceEvents": meta})
    written = 0
    with open(path, "w", encoding="utf-8") as out:
        out.write('{"displayTimeUnit": "ns", "traceEvents": [\n')
        out.write(",\n".join(json.dumps(event) for event in meta))
        for block in blocks:
            for events in _chunks(_block_events(block, origin), _CHUNK):
                errors.extend(validate({"traceEvents": meta + events}))
                out.write(",\n")
                out.write(",\n".join(json.dumps(event) for event in events))
                written += len(events)
        out.write("\n]}\n")
    if errors:
        raise ValueError(f"trace {path} failed schema validation: {errors[:5]}")
    return written + len(meta)


def _block_events(block: SpanBlock, origin: int) -> Iterable[dict]:
    names, layers = block.names, block.layers
    for index in range(len(block)):
        nid = block.name[index]
        start = block.start[index]
        yield {"ph": "X", "name": names[nid], "cat": layers[nid],
               "ts": (start - origin) / 1e3,
               "dur": (block.end[index] - start) / 1e3,
               "pid": block.pid, "tid": 0,
               "args": {"group": block.group[index],
                        "parent": block.parent[index]}}


def _chunks(items: Iterable[dict], size: int) -> Iterable[list[dict]]:
    batch: list[dict] = []
    for item in items:
        batch.append(item)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch
