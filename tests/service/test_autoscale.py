"""Closed-loop autoscaling: controller invariants, policy hysteresis,
spec plumbing, and the no-op equivalence contract.

The controller owns the actuation invariants (floor, ceiling,
cooldown, drain-before-retire), so the property suite drives it with
*scripted* adversarial policies — the invariants must hold for any
decide() whatsoever.  The reference policy's hysteresis is unit-tested
on hand-built observations, and the end-to-end layer pins seeded
determinism, sweep parity, and the strongest regression of all: a
policy that can never fire leaves the whole record bit-identical to a
run with autoscaling disabled (poll events, busy-time flushes and
pump-cut interactions included).
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amt.autoscale import (AutoscaleController, AutoscaleObservation,
                                 TargetUtilizationPolicy, node_seconds)
from repro.amt.cluster import (ConstantSpeed, SimCluster, SimulationError,
                               StraggleSpeed)
from repro.experiments import ClusterSpec, build, run_sweep
from repro.experiments.runner import run_scenario
from repro.reporting.service import format_scale_events
from repro.service import (ArrivalSpec, AutoscaleSpec, ServiceSpec,
                           TenantSpec, run_service_detailed,
                           summarize_record)


def _obs(**kw):
    base = dict(time=0.0, interval=1.0, nodes=4, pending_joins=0,
                draining=0, utilization=0.5, p99_wait=0.0, shed_rate=0.0,
                queue_depth=0, min_nodes=1, max_nodes=8)
    base.update(kw)
    return AutoscaleObservation(**base)


class ScriptedPolicy:
    """decide() replays a fixed decision sequence, cycling."""

    def __init__(self, decisions):
        self._it = itertools.cycle(decisions)

    def decide(self, obs):
        return next(self._it)


# ---------------------------------------------------------------------------
# reference policy: threshold + hysteresis
# ---------------------------------------------------------------------------

class TestTargetUtilizationPolicy:
    def test_sustained_breach_scales_out_once(self):
        p = TargetUtilizationPolicy(scale_out_utilization=0.8,
                                    breach_polls=3)
        hot = _obs(utilization=0.95)
        assert [p.decide(hot) for _ in range(3)] == [0, 0, 1]
        # the emitted request restarts the streak
        assert [p.decide(hot) for _ in range(3)] == [0, 0, 1]

    def test_mixed_polls_reset_the_streak(self):
        p = TargetUtilizationPolicy(scale_out_utilization=0.8,
                                    breach_polls=2)
        assert p.decide(_obs(utilization=0.9)) == 0
        assert p.decide(_obs(utilization=0.5)) == 0  # streak broken
        assert p.decide(_obs(utilization=0.9)) == 0
        assert p.decide(_obs(utilization=0.9)) == 1

    def test_any_armed_signal_counts_as_hot(self):
        p = TargetUtilizationPolicy(breach_polls=1, max_p99_wait=1e-3,
                                    max_shed_rate=10.0, max_queue_depth=5)
        assert p.decide(_obs(utilization=0.3, p99_wait=2e-3)) == 1
        assert p.decide(_obs(utilization=0.3, shed_rate=11.0)) == 1
        assert p.decide(_obs(utilization=0.3, queue_depth=6)) == 1
        # defaults leave the service signals unarmed (inf thresholds)
        q = TargetUtilizationPolicy(breach_polls=1)
        assert q.decide(_obs(utilization=0.3, p99_wait=1e6,
                             shed_rate=1e9, queue_depth=10**6)) == 0

    def test_scale_in_needs_low_util_and_empty_queue(self):
        p = TargetUtilizationPolicy(scale_in_utilization=0.25, low_polls=2)
        cold = _obs(utilization=0.1)
        assert [p.decide(cold) for _ in range(2)] == [0, -1]
        # a queued job blocks scale-in no matter how idle the fleet
        p2 = TargetUtilizationPolicy(scale_in_utilization=0.25, low_polls=1)
        assert p2.decide(_obs(utilization=0.0, queue_depth=1)) == 0

    def test_thresholds_must_be_ordered(self):
        with pytest.raises(ValueError):
            TargetUtilizationPolicy(scale_out_utilization=0.5,
                                    scale_in_utilization=0.5)
        with pytest.raises(ValueError):
            TargetUtilizationPolicy(breach_polls=0)


# ---------------------------------------------------------------------------
# controller invariants (hold for ANY policy)
# ---------------------------------------------------------------------------

class TestControllerInvariants:
    def _drive(self, decisions, *, start, min_nodes, max_nodes,
               cooldown=0.0, provision_delay=0.5, horizon=40.0):
        cluster = SimCluster(start, batching=True)
        ctl = AutoscaleController(
            cluster, ScriptedPolicy(decisions),
            poll_interval=1.0, min_nodes=min_nodes, max_nodes=max_nodes,
            cooldown=cooldown, provision_delay=provision_delay)
        ctl.start()
        cluster.run(until=horizon)
        return cluster, ctl

    @settings(max_examples=30, deadline=None)
    @given(decisions=st.lists(st.sampled_from([-1, 0, 1]),
                              min_size=1, max_size=20),
           min_nodes=st.integers(min_value=1, max_value=3),
           band=st.integers(min_value=0, max_value=4),
           start_off=st.integers(min_value=0, max_value=4),
           cooldown=st.sampled_from([0.0, 1.5, 3.0]))
    def test_floor_ceiling_cooldown_for_any_policy(
            self, decisions, min_nodes, band, start_off, cooldown):
        max_nodes = min_nodes + band
        start = min(min_nodes + start_off, max_nodes)
        cluster, ctl = self._drive(
            decisions, start=start, min_nodes=min_nodes,
            max_nodes=max_nodes, cooldown=cooldown)
        # floor: the dispatchable set never shrank below min_nodes
        # (every row records the dispatchable count after the action)
        for e in ctl.events:
            assert e["nodes"] >= min_nodes
        assert len(ctl.dispatchable()) >= min_nodes
        # ceiling: alive + in-flight joins never exceed max_nodes
        assert len(cluster.active_node_ids()) <= max_nodes
        for e in ctl.events:
            assert e["nodes"] <= max_nodes
        # cooldown: consecutive *decisions* are spaced by >= cooldown
        times = [e["t"] for e in ctl.events
                 if e["action"] in ("scale_out", "drain")]
        for a, b in zip(times, times[1:]):
            assert b - a >= cooldown - 1e-12

    def test_scale_in_refused_at_the_floor(self):
        _, ctl = self._drive([-1], start=2, min_nodes=2, max_nodes=4)
        assert ctl.events == []
        assert len(ctl.dispatchable()) == 2

    def test_scale_out_refused_at_the_ceiling(self):
        cluster, ctl = self._drive([1], start=2, min_nodes=1, max_nodes=3)
        joins = [e for e in ctl.events if e["action"] == "join"]
        assert len(joins) == 1
        assert len(cluster.active_node_ids()) == 3

    def test_join_lands_after_provision_delay_with_warmup(self):
        cluster = SimCluster(1, batching=True, default_rate=4.0)
        ctl = AutoscaleController(
            cluster, ScriptedPolicy([1, 0]), poll_interval=1.0,
            min_nodes=1, max_nodes=2, provision_delay=2.5,
            warmup=3.0, warmup_factor=0.5)
        ctl.start()
        cluster.run(until=10.0)
        (req,) = [e for e in ctl.events if e["action"] == "scale_out"]
        (join,) = [e for e in ctl.events if e["action"] == "join"]
        assert join["t"] == req["t"] + 2.5
        trace = cluster.nodes[join["node"]].trace
        assert isinstance(trace, StraggleSpeed)
        # half speed inside the warm-up window, full speed after
        assert trace.windows == [(join["t"], join["t"] + 3.0, 0.5)]
        assert trace.base.rate(join["t"]) == pytest.approx(4.0)

    def test_drain_waits_for_inflight_work_then_retires(self):
        cluster = SimCluster(2, batching=True, default_rate=1.0)
        # node 0 shows a completed busy delta at the first poll; node 1
        # looks idle (its interval is still open) but holds 5s of work,
        # so the drain lands exactly on the node with in-flight work
        cluster.submit(0, 0.5)
        cluster.submit(1, 5.0)
        ctl = AutoscaleController(
            cluster, ScriptedPolicy([-1] + [0] * 100),
            poll_interval=1.0, min_nodes=1, max_nodes=2)
        ctl.start()
        cluster.run(until=20.0)
        drain = next(e for e in ctl.events if e["action"] == "drain")
        retire = next(e for e in ctl.events if e["action"] == "retire")
        assert drain["node"] == retire["node"] == 1
        # retirement happened at the first poll after the work finished
        # (t=5), never before — no in-flight work was lost
        assert retire["t"] >= 5.0
        assert retire["tasks_requeued"] == 0
        assert not cluster.nodes[retire["node"]].alive

    def test_idlest_node_is_drained(self):
        cluster = SimCluster(3, batching=True, default_rate=8.0)
        # nodes 0 and 2 are busy through the poll window that precedes
        # the drain decision at t=2; node 1 stays idle and must be the
        # one drained (idleness is judged on the last window's delta)
        cluster.submit(0, 16.0)
        cluster.submit(2, 16.0)
        ctl = AutoscaleController(
            cluster, ScriptedPolicy([0, -1] + [0] * 50),
            poll_interval=1.0, min_nodes=1, max_nodes=3)
        ctl.start()
        cluster.run(until=30.0)
        drain = next(e for e in ctl.events if e["action"] == "drain")
        assert drain["node"] == 1

    def test_controller_validates_its_knobs(self):
        cluster = SimCluster(2)
        policy = TargetUtilizationPolicy()
        with pytest.raises(SimulationError):
            AutoscaleController(cluster, policy, poll_interval=0.0,
                                min_nodes=1, max_nodes=2)
        with pytest.raises(SimulationError):
            AutoscaleController(cluster, policy, poll_interval=1.0,
                                min_nodes=3, max_nodes=2)
        with pytest.raises(SimulationError):
            AutoscaleController(cluster, policy, poll_interval=1.0,
                                min_nodes=3, max_nodes=4)  # starts below
        with pytest.raises(SimulationError):
            AutoscaleController(cluster, policy, poll_interval=1.0,
                                min_nodes=1, max_nodes=2,
                                warmup_factor=0.0)


def test_node_seconds_bills_from_request_to_retirement():
    events = [
        {"t": 2.0, "action": "scale_out", "node": None, "nodes": 2},
        {"t": 3.0, "action": "join", "node": 2, "nodes": 3},
        {"t": 6.0, "action": "drain", "node": 0, "nodes": 2},
        {"t": 7.0, "action": "retire", "node": 0, "nodes": 2},
    ]
    # 2 nodes * 10s, + the joiner billed from its request (8s), - the
    # retiree's unused tail (3s); the join row itself is not billable
    assert node_seconds(events, 2, 10.0) == pytest.approx(20.0 + 8.0 - 3.0)
    assert node_seconds([], 4, 10.0) == pytest.approx(40.0)


# ---------------------------------------------------------------------------
# spec plumbing
# ---------------------------------------------------------------------------

class TestAutoscaleSpec:
    def test_round_trips_including_inf_thresholds(self):
        a = AutoscaleSpec(min_nodes=2, max_nodes=6, max_shed_rate=0.0)
        assert AutoscaleSpec.from_dict(a.to_dict()) == a
        assert a.to_dict()["max_p99_wait"] == math.inf

    def test_service_spec_round_trips_with_and_without(self):
        base = build("flash_crowd")
        assert base.autoscale is not None
        again = ServiceSpec.from_dict(base.to_dict())
        assert again == base and again.autoscale == base.autoscale
        off = base.replace(autoscale=None)
        assert ServiceSpec.from_dict(off.to_dict()).autoscale is None

    def test_cluster_must_start_inside_the_band(self):
        with pytest.raises(ValueError):
            build("flash_crowd", min_nodes=3).replace(
                cluster=ClusterSpec(num_nodes=2))

    def test_jobs_must_split_over_the_widest_fleet(self):
        with pytest.raises(ValueError):
            ServiceSpec(
                name="bad",
                tenants=(TenantSpec(name="a", nx=4),),
                cluster=ClusterSpec(num_nodes=2),
                autoscale=AutoscaleSpec(min_nodes=2, max_nodes=8))

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            AutoscaleSpec(policy="nonsense")
        with pytest.raises(ValueError):
            AutoscaleSpec(min_nodes=0)
        with pytest.raises(ValueError):
            AutoscaleSpec(poll_interval=0.0)
        with pytest.raises(ValueError):
            AutoscaleSpec(warmup_factor=1.5)


# ---------------------------------------------------------------------------
# end to end: the closed loop over a real service run
# ---------------------------------------------------------------------------

def _autoscaled_spec(rate=60000.0, seed=0, horizon=1.5e-3):
    """A tiny flash-crowd-shaped spec that provokes both directions."""
    return ServiceSpec(
        name="autoscale-e2e",
        tenants=(TenantSpec(name="a", nx=16, steps=2),
                 TenantSpec(name="b", weight=2.0, nx=16, steps=2)),
        cluster=ClusterSpec(num_nodes=2),
        arrival=ArrivalSpec(process="bursty", rate=rate, seed=seed,
                            burst_on=4e-4, burst_off=8e-4),
        horizon=horizon, max_queue_depth=8, max_concurrent=4,
        autoscale=AutoscaleSpec(
            min_nodes=1, max_nodes=4, poll_interval=5e-5,
            cooldown=1e-4, provision_delay=1e-4, warmup=1e-4,
            warmup_factor=0.5, scale_out_utilization=0.8,
            scale_in_utilization=0.3, max_shed_rate=0.0,
            breach_polls=2, low_polls=3))


class TestClosedLoopEndToEnd:
    def test_flash_crowd_scales_out_and_back(self):
        spec = build("flash_crowd")
        rec = run_scenario(spec)
        actions = [e["action"] for e in rec.scale_events]
        assert "scale_out" in actions and "join" in actions
        assert "drain" in actions and "retire" in actions
        fleets = [e["nodes"] for e in rec.scale_events]
        assert max(fleets) > spec.autoscale.min_nodes
        assert max(fleets) <= spec.autoscale.max_nodes
        # drained back to the floor once the crowd passed
        assert fleets[-1] == spec.autoscale.min_nodes
        # joiners really joined: retired ids' busy totals stay indexed
        assert len(rec.busy_total) == max(
            e["node"] for e in rec.scale_events if e["node"] is not None) + 1

    def test_no_admitted_job_is_lost_to_scale_in(self):
        # long quiet tail: every admitted job must complete even
        # though the whole surge fleet drains away behind them
        spec = build("flash_crowd", horizon=2.4e-2)
        rec = run_scenario(spec)
        assert any(e["action"] == "retire" for e in rec.scale_events)
        s = summarize_record(rec)
        assert s["in_flight"] == 0
        assert s["completed"] == s["admitted"]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           rate=st.sampled_from([3e4, 6e4, 1.2e5]))
    def test_seeded_runs_bit_identical(self, seed, rate):
        spec = _autoscaled_spec(rate=rate, seed=seed)
        a, _ = run_service_detailed(spec)
        b, _ = run_service_detailed(spec)
        assert a.to_dict() == b.to_dict()

    def test_sweep_parity_serial_vs_processes(self):
        specs = [_autoscaled_spec(seed=s) for s in (0, 1)]
        serial = run_sweep(specs, serial=True)
        parallel = run_sweep(specs, serial=False, max_workers=2)
        assert [r.to_dict() for r in serial] == \
            [r.to_dict() for r in parallel]

    @pytest.mark.parametrize("batching", [True, False])
    def test_noop_policy_is_bit_identical_to_disabled(self, batching):
        """A policy that can never fire must leave the record untouched
        — polls, busy-time flushes and pump-cut clamps included."""
        base = build("flash_crowd")
        noop = AutoscaleSpec(
            min_nodes=2, max_nodes=8,
            scale_out_utilization=math.inf, scale_in_utilization=-1.0)
        off, _ = run_service_detailed(base.replace(autoscale=None),
                                      batching=batching)
        on, _ = run_service_detailed(base.replace(autoscale=noop),
                                     batching=batching)
        assert on.scale_events == []
        d_off, d_on = off.to_dict(), on.to_dict()
        d_off.pop("spec"), d_on.pop("spec")  # specs differ by design
        assert d_off == d_on

    def test_batching_on_off_bit_identical_with_autoscaling(self):
        spec = _autoscaled_spec()
        on, _ = run_service_detailed(spec, batching=True)
        off, _ = run_service_detailed(spec, batching=False)
        assert on.to_dict() == off.to_dict()

    def test_scale_events_render_as_a_table(self):
        rec = run_scenario(build("flash_crowd"))
        text = format_scale_events(rec.scale_events)
        assert "scale_out" in text and "retire" in text
        assert len(text.splitlines()) == len(rec.scale_events) + 3
