"""End-to-end parity of the DES fast path across whole scenarios.

The solver's step-plan cache (``REPRO_DES_PLANCACHE``) must leave
every :class:`RunRecord` field bit-identical on full scenario runs,
including makespans, step durations, imbalance history, and byte
accounting; so must repeating a run in the same process.  (The
committed goldens pin the same property against the repository
history; these tests pin it pairwise within one checkout, over
scenarios with balancing, faults, and hierarchical topologies.)
"""

import json

import pytest

from repro.experiments import build, run_scenario

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


@pytest.mark.parametrize("name,overrides", SCENARIOS)
def test_plan_cache_produces_identical_records(name, overrides, monkeypatch):
    monkeypatch.setenv("REPRO_DES_PLANCACHE", "0")
    uncached = _record(name, overrides)
    monkeypatch.setenv("REPRO_DES_PLANCACHE", "1")
    assert _record(name, overrides) == uncached


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
