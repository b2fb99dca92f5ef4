"""The benchmark's measuring process: one workload, one seed.

``run.py`` starts it with ``src`` on ``PYTHONPATH``::

    python3 perfbench/worker.py --workload drift --seed 3 --seconds 30 \
        --trace 0

It imports every ``repro`` module once, then runs each iteration in a
forked child, so every iteration starts from a process in which
nothing has run yet (empty operator cache, fresh DES state) without
paying the import again.  Each iteration prints one JSON line.

Iteration modes:

* ``timed`` — only ``SimCluster.run`` is wrapped (it splits set-up from
  run time); host metrics are measured here.
* ``traced`` — every layer boundary is wrapped and the DES event
  profiler is on; gives the per-layer metrics.
* ``never`` — the schedule-only ``balanced=False`` twin of a balancing
  workload, for ``core.gain_vs_never``.

Timed region: from the first ``repro`` call (the registry ``build``)
to a summarized ``RunRecord``.  Correctness checks and the digest run
after it, untraced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import traceback
from time import perf_counter
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import check_field, check_schedule, check_service, digest  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("scale", "drift", "service")

#: fewest timed iterations a ``--trace 0`` run medians over
MIN_ITERATIONS = 3

#: no iteration starts that would end later than this after the start
RUN_LIMIT_S = 160.0

#: DES event classes reported one by one (``amt.events.<class>``)
EVENT_CLASSES = ("delivery", "completion", "wave", "arrival", "timer")


def spec_args(workload: str, seed: int, size: str):
    """``(registry name, factory overrides, spec changes)`` of a workload.

    ``full`` is the benchmark size; ``toy`` is a seconds-long version of
    the same configuration for the self-tests.
    """
    if workload == "scale":
        # the registry's stress tier as registered; its factory takes no
        # seed, so every seed runs the same inputs
        kw = {} if size == "full" else {"mesh": 256, "sd_axis": 16,
                                         "nodes": 32}
        return "scale_extreme", kw, {}
    if workload == "drift":
        kw = ({"mesh": 512, "sd_axis": 32, "nodes": 64} if size == "full"
              else {"mesh": 64, "sd_axis": 8, "nodes": 8, "steps": 6})
        kw["seed"] = seed
        return "hetero_drift", kw, {"compute_numerics": True}
    if workload == "service":
        horizon = 2e-2 if size == "full" else 5e-4
        return "service_extreme", {"seed": seed}, {"horizon": horizon}
    raise ValueError(f"unknown workload {workload!r}")


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Kernel:
    """Work counted at ``NonlocalOperator.apply_block`` from block shapes."""

    def __init__(self) -> None:
        self.flops = 0.0
        self.bytes = 0.0

    def on_apply(self, op, padded, radius=None) -> None:
        r = op.radius
        rows, cols = padded.shape[0] - 2 * r, padded.shape[1] - 2 * r
        self.flops += rows * cols * op.flops_per_dp()
        # read the padded block, write the interior update (float64)
        self.bytes += 8.0 * (padded.size + rows * cols)


def import_all() -> None:
    """Import every ``repro`` module (not the CLI entry point), so no
    import lands in a timed region."""
    import importlib
    import pkgutil

    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


class Capture:
    """What the checks and metrics need from inside the program's run,
    taken through the tracer's call and return hooks: the clusters
    ``SimCluster.run`` drove, the manufactured problem with the peak RSS
    around its build, and the distributed solver with its result."""

    def __init__(self) -> None:
        self.clusters: List[Any] = []
        self.problem = self.solver = self.result = None
        self.rss_before: Optional[float] = None
        self.rss_after: Optional[float] = None

    def on_cluster_run(self, cluster, *_args) -> None:
        self.clusters.append(cluster)

    def on_problem(self, problem, *_args) -> None:
        self.problem = problem
        if self.rss_before is None:
            self.rss_before = peak_rss_mb()

    def on_initial_condition(self, _u0, *_args) -> None:
        self.rss_after = peak_rss_mb()

    def on_solved(self, result, solver, *_args) -> None:
        self.solver, self.result = solver, result

    def rss_delta_mb(self) -> float:
        """Growth of peak RSS across the manufactured-problem build."""
        if self.rss_before is None or self.rss_after is None:
            return 0.0
        return self.rss_after - self.rss_before


def install(tracer: Tracer, traced: bool, capture: Capture,
            kernel: Kernel) -> None:
    """Wrap the layer boundaries.

    Untraced runs wrap only what is called once or a few times per run:
    ``SimCluster.run`` (it splits set-up from run time), and the
    manufactured problem and ``DistributedSolver.run``, whose objects
    the checks read.
    """
    from repro.amt.cluster import SimCluster
    from repro.solver.distributed import DistributedSolver
    from repro.solver.exact import ManufacturedProblem
    tracer.wrap(SimCluster, "run", "amt.run",
                on_call=capture.on_cluster_run)
    tracer.wrap(ManufacturedProblem, "__init__", "exact.setup",
                on_call=capture.on_problem)
    tracer.wrap(ManufacturedProblem, "initial_condition", "exact.setup",
                on_return=capture.on_initial_condition)
    tracer.wrap(DistributedSolver, "run", "solver.run",
                on_return=capture.on_solved)
    if not traced:
        return
    from repro.core.strategies.base import BalanceStrategy
    from repro.costmodel.flat import FlatCostModel
    from repro.costmodel.hierarchy import HierarchyCostModel
    from repro.experiments.spec import PartitionSpec
    from repro.mesh.decomposition import Decomposition
    from repro.service import runner as service_runner
    from repro.solver.kernel import NonlocalOperator
    tracer.wrap(PartitionSpec, "build", "partition.build")
    tracer.wrap(Decomposition, "ghost_messages", "mesh.ghost_messages")
    tracer.wrap(Decomposition, "case_split", "mesh.case_split")
    tracer.wrap(FlatCostModel, "task_work", "costmodel.task_work")
    tracer.wrap(HierarchyCostModel, "task_work", "costmodel.task_work")
    tracer.wrap(NonlocalOperator, "__init__", "kernel.operator_build")
    tracer.wrap(NonlocalOperator, "apply_block", "kernel.apply",
                on_call=kernel.on_apply)
    tracer.wrap(BalanceStrategy, "balance_step", "core.balance")
    for method in ("send_many", "send_group"):
        tracer.wrap(SimCluster, method, "amt.send")
    for method in ("submit", "submit_group"):
        tracer.wrap(SimCluster, method, "amt.submit")
    tracer.wrap(service_runner, "generate_arrival_arrays",
                "service.arrivals")


# -- the workloads -----------------------------------------------------------
def sim_metrics(spec, record, summary: Optional[Dict[str, Any]]
                ) -> Dict[str, float]:
    """Virtual-time outcomes; service-only ones read 0 on solver runs."""
    capacity = (spec.cluster.num_nodes * spec.cluster.cores_per_node
                * record.makespan)
    out = {"sim_makespan_s": record.makespan,
           "sim_idle_frac": 1.0 - sum(record.busy_total) / capacity,
           "sim_p99_wait_s": 0.0, "sim_goodput_jobs_per_s": 0.0,
           "sim_shed_frac": 0.0}
    if summary is not None:
        out["sim_p99_wait_s"] = summary["p99_wait"]
        out["sim_goodput_jobs_per_s"] = summary["goodput"]
        out["sim_shed_frac"] = summary["shed"] / summary["offered"]
    return out


def iterate(workload: str, seed: int, mode: str, size: str,
            trace_out: Optional[str]) -> Dict[str, Any]:
    """One timed (or traced) run plus its checks; the worker's result."""
    traced = mode == "traced"
    tracer = Tracer()
    capture = Capture()
    kernel = Kernel()
    name, kw, changes = spec_args(workload, seed, size)
    if mode == "never":
        kw = dict(kw, balanced=False)
        changes = {}

    from repro.experiments import build, run_scenario
    from repro.service import run_service_detailed, summarize_record
    install(tracer, traced, capture, kernel)
    summary = None
    try:
        t0 = perf_counter()
        spec = tracer.call("experiments.build", build, name, **kw)
        if changes:
            spec = spec.replace(**changes)
        if workload == "service":
            record, _cluster = run_service_detailed(spec)
            summary = tracer.call("service.summarize", summarize_record,
                                  record)
        else:
            record = run_scenario(spec)
        t_end = perf_counter()
        peak = peak_rss_mb()
    finally:
        tracer.restore()

    run_start = tracer.first_start("amt.run")
    totals = tracer.totals()
    metrics: Dict[str, float] = {
        "setup_s": run_start - t0,
        "run_s": totals["amt.run"]["total_s"],
        "wall_s": t_end - t0,
        "peak_rss_mb": peak,
    }
    metrics.update(sim_metrics(spec, record, summary))
    if traced:
        metrics.update(layer_metrics(record, summary, totals, capture,
                                     kernel))
        if trace_out:
            tracer.write(trace_out, {"workload": workload, "seed": seed,
                                     "size": size})

    # render the service's columnar event log once for the digest and
    # the checks (its contents, and so the record, are unchanged)
    record.service_events = list(record.service_events)
    fails = run_checks(workload, spec, record, summary, capture)
    return {"workload": workload, "seed": seed, "mode": mode,
            "metrics": metrics, "digest": digest(record), "failures": fails}


def layer_metrics(record, summary, totals, capture: Capture,
                  kernel: Kernel) -> Dict[str, float]:
    """Per-layer numbers of a traced run (0 where a layer did no work)."""
    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    m: Dict[str, float] = {
        "experiments.spec_build_s": self_s("experiments.build"),
        "partition.build_s": self_s("partition.build"),
        "exact.setup_s": self_s("exact.setup"),
        "exact.rss_delta_mb": capture.rss_delta_mb(),
        "mesh.ghost_messages_calls": calls("mesh.ghost_messages"),
        "mesh.ghost_messages_s": self_s("mesh.ghost_messages"),
        "mesh.case_split_calls": calls("mesh.case_split"),
        "mesh.case_split_s": self_s("mesh.case_split"),
        "costmodel.task_work_calls": calls("costmodel.task_work"),
        "costmodel.task_work_s": self_s("costmodel.task_work"),
        "kernel.operator_build_s": self_s("kernel.operator_build"),
        "kernel.apply_calls": calls("kernel.apply"),
        "kernel.apply_s": self_s("kernel.apply"),
        "kernel.flops_computed": kernel.flops,
        "kernel.bytes_computed": kernel.bytes,
        "kernel.flops_per_byte": (kernel.flops / kernel.bytes
                                  if kernel.bytes else 0.0),
        "amt.loop_self_s": self_s("amt.run"),
        "amt.send_s": self_s("amt.send"),
        "amt.submit_s": self_s("amt.submit"),
        "solver.run_self_s": self_s("solver.run"),
        "service.arrivals_s": self_s("service.arrivals"),
        "service.summarize_s": self_s("service.summarize"),
    }
    # balancing outcomes from the record's balance events
    events = record.balance_events
    m["core.balance_calls"] = calls("core.balance")
    m["core.balance_s"] = self_s("core.balance")
    m["core.sds_moved"] = record.sds_moved
    m["core.migration_mb"] = record.migration_bytes / 1e6
    m["core.useful_frac"] = (
        sum(e["imbalance_after"] < e["imbalance_before"] for e in events)
        / len(events) if events else 0.0)
    m["core.imbalance_final"] = (record.imbalance_history[-1]
                                 if record.imbalance_history else 0.0)
    # DES counters of the (single) cluster the run drove
    sim = capture.clusters[-1].sim
    network = capture.clusters[-1].network
    profile = sim.profile or {}
    m["amt.events"] = sim.events_processed
    for klass in EVENT_CLASSES:
        count, secs = profile.get(klass, (0, 0.0))
        m[f"amt.events.{klass}"] = count
        m[f"amt.event_s.{klass}"] = secs
    m["amt.messages"] = network.messages_sent
    m["amt.sent_mb"] = network.bytes_sent / 1e6
    m["service.pump_s"] = profile.get("arrival", (0, 0.0))[1]
    for key in ("offered", "admitted", "shed", "completed"):
        m[f"service.{key}"] = summary[key] if summary is not None else 0
    return m


def run_checks(workload, spec, record, summary, capture: Capture
               ) -> List[str]:
    """Every correctness check that applies to the workload's run."""
    if workload == "service":
        return check_service(record, summary, spec.cluster.num_nodes,
                             spec.cluster.cores_per_node)
    from repro.experiments import build_problem, ownership_timeline
    op, _model, _grid, sd_grid = build_problem(spec)
    fails = check_schedule(spec, record, ownership_timeline(spec, record),
                           sd_grid, op.radius)
    if spec.compute_numerics:
        from repro.solver.serial import SerialSolver
        prob, solver = capture.problem, capture.solver
        serial = SerialSolver(prob.model, prob.grid, source=prob.source,
                              dt=solver.dt, operator=op)
        reference = serial.run(prob.initial_condition(), spec.num_steps).u
        fails += check_field(capture.result.u, reference)
    return fails


def forked(workload: str, seed: int, mode: str, size: str,
           trace_out: Optional[str]) -> Dict[str, Any]:
    """:func:`iterate` in a forked child; its result, or the failure."""
    os.environ.pop("REPRO_DES_PROFILE", None)
    if mode == "traced":
        os.environ["REPRO_DES_PROFILE"] = "1"
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: run, report through the pipe, never return
        code = 1
        try:
            os.close(read_fd)
            try:
                result = iterate(workload, seed, mode, size, trace_out)
                code = 0
            except Exception as exc:  # noqa: BLE001 - reported as failed
                traceback.print_exc()
                result = {"mode": mode,
                          "failures": [f"{type(exc).__name__}: {exc}"]}
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(result))
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "r", encoding="utf-8") as fh:
        payload = fh.read()
    _pid, status = os.waitpid(pid, 0)
    if not payload:
        return {"mode": mode,
                "failures": [f"iteration died (wait status {status})"]}
    return json.loads(payload)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full", choices=("full", "toy"))
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    import_all()
    if threading.active_count() != 1:
        raise RuntimeError("the worker must be single-threaded to fork")

    def emit(mode, trace_out=None):
        print(json.dumps(forked(args.workload, args.seed, mode, args.size,
                                trace_out)), flush=True)

    start = perf_counter()
    if args.trace:
        emit("timed")
        emit("traced", args.trace_out)
        if args.workload == "drift":
            emit("never")
        return 0
    count = 0
    while True:
        t_iter = perf_counter()
        emit("timed")
        count += 1
        now = perf_counter()
        if now + (now - t_iter) > start + RUN_LIMIT_S:
            break
        if count >= MIN_ITERATIONS and now - start >= args.seconds:
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
