"""Self-tests of the benchmark: its checks catch faults, its output
follows BENCHMARK.json, and every workload runs at toy size in seconds.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

(The file name keeps it out of the repository's own test collection.)
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import worker  # noqa: E402
from checks import check_field, check_schedule, check_service  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def toy_spec(workload, seed=0):
    from repro.experiments import build
    name, kw, changes = worker.spec_args(workload, seed, "toy")
    spec = build(name, **kw)
    return spec.replace(**changes) if changes else spec


def toy_service():
    from repro.service import run_service_detailed, summarize_record
    record, _cluster = run_service_detailed(toy_spec("service"))
    return record, summarize_record(record)


def toy_distributed(workload):
    """``run_scenario`` at toy size with the untraced run's hooks."""
    from repro.experiments import run_scenario
    spec = toy_spec(workload)
    tracer, capture = Tracer(), worker.Capture()
    worker.install(tracer, False, capture, worker.Kernel())
    try:
        record = run_scenario(spec)
    finally:
        tracer.restore()
    return spec, record, capture


def bench(workload, trace, cwd=ROOT, script=None):
    """``run.py`` at toy size; ``(returncode, stdout lines, seconds)``."""
    script = script or os.path.join(HERE, "run.py")
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines(), \
        perf_counter() - t0


# -- the checks catch faults -------------------------------------------------
def test_service_check_passes_then_catches_offered_off_by_one():
    record, summary = toy_service()
    spec = toy_spec("service")
    args = (spec.cluster.num_nodes, spec.cluster.cores_per_node)
    record.service_events = list(record.service_events)
    assert check_service(record, summary, *args) == []
    assert check_service(record, dict(summary, offered=summary["offered"]
                                      + 1), *args)
    # an arrival dropped from the stream: the summary no longer matches
    first = next(i for i, e in enumerate(record.service_events)
                 if e["kind"] == "arrival")
    del record.service_events[first]
    assert check_service(record, summary, *args)


def test_drift_check_passes_then_catches_perturbed_field():
    from repro.solver.serial import SerialSolver
    spec, _record, capture = toy_distributed("drift")
    prob, solver = capture.problem, capture.solver
    reference = SerialSolver(
        prob.model, prob.grid, source=prob.source, dt=solver.dt,
        operator=solver.operator).run(prob.initial_condition(),
                                      spec.num_steps).u
    field = capture.result.u
    assert check_field(field, reference) == []
    bad = field.copy()
    bad[bad.shape[0] // 2, bad.shape[1] // 3] += 1e-6
    assert check_field(bad, reference)


def test_schedule_check_passes_then_catches_byte_mismatch():
    from repro.experiments import build_problem, ownership_timeline
    for workload in ("scale", "drift"):
        spec, record, _capture = toy_distributed(workload)
        op, _m, _g, sd_grid = build_problem(spec)
        frames = ownership_timeline(spec, record)
        assert check_schedule(spec, record, frames, sd_grid,
                              op.radius) == []
        record.ghost_bytes += 1
        assert check_schedule(spec, record, frames, sd_grid, op.radius)


# -- names and output format -------------------------------------------------
def test_metric_names_and_units_are_well_formed():
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64
        assert UNIT.fullmatch(m["unit"])
    assert {w["name"] for w in BENCH["workloads"]} <= set(worker.WORKLOADS)


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_workload_runs_at_toy_size_in_seconds(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines, seconds = bench(workload, trace)
        assert code == 0, lines
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in BENCH[key]}
        got = {name: v["unit"] for name, v in result["metrics"].items()}
        assert got == expected
        for name in got:
            assert NAME.fullmatch(name)
        assert seconds < 90


def test_exits_nonzero_without_the_program():
    """Only BENCHMARK.json and the benchmark: no result, non-zero exit."""
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("tmp*", "traces",
                                                      "__pycache__"))
        code, lines, _s = bench("scale", 0, cwd=tmp,
                                script=os.path.join(tmp, "perfbench",
                                                    "run.py"))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    totals = tracer.totals()
    outer, inner = totals["outer"], totals["inner"]
    assert np.isclose(outer["self_s"] + inner["total_s"], outer["total_s"])
    assert inner["self_s"] == inner["total_s"]


def test_tracer_wrap_hooks_see_arguments_and_result_then_restore():
    class Owner:
        def double(self, x):
            return 2 * x

    seen = []
    tracer = Tracer()
    tracer.wrap(Owner, "double", "owner.double",
                on_call=lambda *a: seen.append(("call", a[1:])),
                on_return=lambda r, *a: seen.append(("return", r, a[1:])))
    assert Owner().double(3) == 6
    tracer.restore()
    assert Owner().double(4) == 8
    assert seen == [("call", (3,)), ("return", 6, (3,))]
    assert tracer.totals()["owner.double"]["calls"] == 1
