"""The benchmark's own tests.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q

Short variants of the workloads (fewer slices, fewer sweep tasks) keep the
suite quick; the seed test runs the full-size workloads.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench import workloads
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def short_workloads(monkeypatch):
    """Every workload, shrunk to a fraction of a second of host time."""
    monkeypatch.setattr(workloads, "FABRIC_DURATION_S", 1e-3)
    monkeypatch.setattr(workloads, "FABRIC_SLICES", 10)
    monkeypatch.setattr(workloads, "LOSSY_DURATION_S", 0.01)
    monkeypatch.setattr(workloads, "LOSSY_SLICES", 10)
    monkeypatch.setattr(workloads, "SWEEP_SEEDS_PER_APP", 2)
    monkeypatch.setattr(workloads, "SWEEP_DURATION_S", 0.02)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrappers_leave_counts_unchanged(short_workloads, workload):
    runner = workloads.RUNNERS[workload]
    untraced = runner(3, bench._no_span)
    tracer = Tracer(facts=workloads.experiment_facts)
    kwargs = {"on_summary": tracer.harvest} if workload == "app-sweep" else {}
    with tracer:
        traced = runner(3, tracer.span, **kwargs)
    assert traced.checked_counts() == untraced.checked_counts()
    assert traced.digest == untraced.digest
    assert traced.events > 0
    # Every original attribute is back once the tracer is uninstalled.
    from repro.net.sim import Simulator
    from repro.sweep import runner as sweep_runner
    assert Simulator.schedule.__qualname__ == "Simulator.schedule"
    assert sweep_runner._execute_task.__name__ == "_execute_task"
    budget = tracer.layer_budget()
    assert sum(budget["self_s"].values()) == pytest.approx(
        budget["total_s"], rel=bench.SELF_SUM_TOLERANCE)
    assert tracer.facts["events"] == untraced.counts["events"]


def test_metric_names_are_well_formed():
    for name, unit in {**bench.END_TO_END, **bench.per_layer_units()}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)


def test_benchmark_json_lists_the_metrics():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_listed_ones(short_workloads, monkeypatch,
                                             tmp_path, capsys, trace):
    monkeypatch.chdir(tmp_path)            # the traced run writes its trace here
    code = bench.main(["--workload", "fabric-tpp", "--seed", "2",
                       "--seconds", "0", "--trace", str(trace)])
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    section = "per_layer" if trace else "end_to_end"
    assert code == 0
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] and printed["failed"] == 0
    assert set(printed["metrics"]) == {m["name"] for m in _benchmark_json()[section]}
    if trace:
        trace_file = tmp_path / ".perfbench" / "trace-fabric-tpp.json"
        from tools.check_trace_schema import validate_trace
        assert validate_trace(json.loads(trace_file.read_text())) == []
    else:
        assert all(metric["value"] > 0 for metric in printed["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_another_seed_passes_every_output_check(workload):
    run = workloads.RUNNERS[workload](7, bench._no_span)
    assert run.failures == []
    assert run.tasks_failed == 0


def test_checker_counts_a_diverging_run_as_failed():
    def fake(events, digest, failures=()):
        return workloads.Run(setup_s=1, total_s=1, run_s=1, cpu_s=1,
                             experiments=1, steps_ms=[1.0],
                             counts={"events": events}, digest=digest,
                             failures=list(failures))

    checker = bench.Checker("fabric-tpp")
    checker.check(fake(10, "a"), "first")
    checker.check(fake(10, "a"), "same")
    checker.check(fake(11, "a"), "counts")
    checker.check(fake(10, "b"), "digest")
    checker.check(fake(10, "a", ["localization"]), "check")
    assert (checker.attempted, checker.failed) == (5, 3)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "fabric-tpp", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
