"""The DES fast path: step-plan cache invalidation and run parity.

The solver compiles each ownership's ghost messages and task works into
a step plan once and replays it until ownership or membership changes.
A replayed plan must equal a fresh compile after a balancing migration,
a node failure and a join, and a whole run must not change when the
plan is rebuilt every step instead.  Repeating a whole scenario run in the same
process must reproduce every :class:`RunRecord` field bit for bit.
(The committed goldens pin the same property against the repository
history; these tests pin it within one checkout, over scenarios with
balancing, faults, and hierarchical topologies.)
"""

import json

import pytest

from repro.amt.cluster import ConstantSpeed
from repro.amt.faults import ChurnEvent, FaultSchedule
from repro.core.policy import IntervalPolicy
from repro.experiments import build, run_scenario
from repro.mesh.grid import UniformGrid
from repro.mesh.subdomain import SubdomainGrid
from repro.partition.geometric import block_partition
from repro.solver.distributed import DistributedSolver
from repro.solver.model import NonlocalHeatModel

#: small but feature-covering: balancing + drift, fault + recovery,
#: rack topology with per-link contention, and real numerics on
#: constant-speed nodes
SCENARIOS = [
    ("hetero_drift", {"steps": 6}),
    ("fault_recovery", {"steps": 4}),
    ("rack_locality", {"steps": 4}),
    ("quickstart", {"steps": 4}),
]


def _record(name, overrides):
    rec = run_scenario(build(name, **overrides))
    return json.dumps(rec.to_dict(), sort_keys=True)


def rebuild_plan_every_step(monkeypatch):
    """Make every solver drop its cached step plan before each step."""
    start_step = DistributedSolver._start_step

    def uncached_start_step(self, step):
        self._plan = None
        start_step(self, step)

    monkeypatch.setattr(DistributedSolver, "_start_step",
                        uncached_start_step)


@pytest.mark.parametrize("name,overrides", SCENARIOS)
def test_plan_cache_produces_identical_records(name, overrides, monkeypatch):
    cached = _record(name, overrides)
    rebuild_plan_every_step(monkeypatch)
    assert _record(name, overrides) == cached


def _churn_solver(faults=None):
    """4 heterogeneous nodes balancing with ``tree`` every 4th step."""
    grid = UniformGrid(32, 32)
    speeds = [ConstantSpeed(r) for r in (1e9, 1e9, 3e9, 1e9)]
    return DistributedSolver(
        NonlocalHeatModel(epsilon=2 * grid.h), grid,
        SubdomainGrid(32, 32, 4, 4), block_partition(4, 4, 4),
        num_nodes=4, speeds=speeds, balancer="tree",
        policy=IntervalPolicy(4), compute_numerics=False, faults=faults)


def test_replayed_plan_equals_fresh_build_after_migration_fail_and_join():
    """Every cached plan the solver replays equals ``_build_plan()``.

    The failure lands in step 2, between balance steps, so only its own
    invalidation keeps step 3 from replaying the dead node's tasks; the
    join's forced balance already recompiles, so the join's own
    invalidation is checked where it happens.
    """
    step = _churn_solver().run(None, 1).step_durations[0]
    solver = _churn_solver(FaultSchedule(4, (
        ChurnEvent("fail", 2.5 * step, 1),
        ChurnEvent("join", 7.5 * step, 4, rate=2e9))))
    replayed = []
    start_step, on_join = solver._start_step, solver._on_join

    def checked_start_step(k):
        plan = solver._plan
        if plan is not None:
            fresh = solver._build_plan()
            assert plan.messages == fresh.messages, k
            assert plan.ghost_sds == fresh.ghost_sds, k
            assert plan.tasks == fresh.tasks, k
            replayed.append(k)
        start_step(k)

    def checked_on_join(event):
        on_join(event)
        assert solver._plan is None  # compiled for the old membership

    solver._start_step = checked_start_step
    solver._on_join = checked_on_join
    res = solver.run(None, 10)
    fail, join = res.recovery_events
    assert (fail.kind, join.kind) == ("fail", "join")
    assert (fail.step + 1) % 4 != 0  # not an interval balance step
    assert any(e.sds_moved > 0 and not e.recovery
               for e in res.balance_events)  # a balancing migration
    assert len(replayed) >= 4  # the cache did serve steps


@pytest.mark.parametrize("name,overrides", SCENARIOS)
def test_repeat_run_in_one_process_is_identical(name, overrides):
    """A second run in the same process, after the first has warmed
    every cache it touches, reproduces the first record exactly."""
    assert _record(name, overrides) == _record(name, overrides)


class TestScaleExtreme:
    def test_tiny_run_is_schedule_only(self):
        spec = build("scale_extreme", mesh=128, sd_axis=4, nodes=4, steps=2)
        assert spec.cluster.num_nodes == 4
        rec = run_scenario(spec)
        assert rec.scenario == "scale_extreme"
        assert rec.makespan > 0
        assert len(rec.step_durations) == 2

    def test_default_shape(self):
        spec = build("scale_extreme")
        assert spec.mesh.nx == 2048
        assert spec.mesh.sd_nx == 64  # 4096 SDs
        assert spec.cluster.num_nodes == 512
        assert spec.cluster.cores_per_node == 1
        assert spec.partition.method == "blocks"
        assert not spec.compute_numerics  # pure schedule measurement
        assert spec.cluster.spawn_overhead == 0.0
