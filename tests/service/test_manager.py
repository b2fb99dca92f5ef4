"""Unit tests of admission control, dispatch order, and telemetry."""

import pytest

from repro.experiments import ClusterSpec
from repro.service import (ArrivalSpec, ServiceSpec, TenantSpec,
                           jain_fairness, percentile, run_service,
                           summarize_service)


def _spec(**overrides):
    base = dict(
        name="mgr-test",
        tenants=(TenantSpec(name="a", nx=16, steps=1),
                 TenantSpec(name="b", nx=16, steps=1)),
        cluster=ClusterSpec(num_nodes=2),
        arrival=ArrivalSpec(rate=1e5, seed=0),
        horizon=1e-3)
    base.update(overrides)
    return ServiceSpec(**base)


class TestAdmission:
    def test_queue_depth_one_sheds_aggressively(self):
        deep = run_service(_spec(max_queue_depth=64,
                                 max_concurrent=1)).service_events
        shallow = run_service(_spec(max_queue_depth=1,
                                    max_concurrent=1)).service_events
        n_shed = lambda evs: sum(1 for e in evs if e["kind"] == "shed")
        assert n_shed(shallow) > n_shed(deep)

    def test_shed_events_carry_the_depth(self):
        events = run_service(_spec(
            arrival=ArrivalSpec(rate=2e6, seed=0),
            max_queue_depth=2, max_concurrent=1)).service_events
        sheds = [e for e in events if e["kind"] == "shed"]
        assert sheds
        assert all(e["depth"] == 2 for e in sheds)

    def test_max_concurrent_caps_running_jobs(self):
        events = run_service(_spec(max_concurrent=2)).service_events
        running = 0
        for e in events:
            if e["kind"] == "start":
                running += 1
                assert running <= 2
            elif e["kind"] == "finish":
                running -= 1

    def test_round_robin_interleaves_tenants(self):
        """With both tenants backlogged and one slot, starts alternate."""
        from repro.amt.cluster import SimCluster
        from repro.service.arrivals import Arrival
        from repro.service.manager import JobManager

        spec = _spec(max_concurrent=1, max_queue_depth=8)
        cluster = SimCluster(2, batching=False)
        manager = JobManager(cluster, spec, {0: 26.0, 1: 26.0})
        # 4 jobs per tenant, all in the queue before anything finishes
        manager.feed([Arrival(0.0, k % 2, k // 2) for k in range(8)])
        cluster.run()
        starts = [e["tenant"] for e in manager.events
                  if e["kind"] == "start"]
        assert starts == ["a", "b", "a", "b", "a", "b", "a", "b"]


class TestTelemetryHelpers:
    def test_percentile_nearest_rank(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert percentile(data, 50) == 2.0
        assert percentile(data, 99) == 4.0
        assert percentile(data, 100) == 4.0
        assert percentile([], 99) == 0.0

    def test_percentile_rejects_bad_q(self):
        with pytest.raises(ValueError, match="percentile"):
            percentile([1.0], 0)

    def test_percentile_rejects_bad_q_on_empty_sample(self):
        """q is validated before the empty-sample shortcut: percentile
        used to return 0.0 for ``([], 0)`` while raising for
        ``([1], 0)`` — the same bad q must fail either way."""
        with pytest.raises(ValueError, match="percentile"):
            percentile([], 0)
        with pytest.raises(ValueError, match="percentile"):
            percentile([], 101)

    def test_jain_bounds(self):
        assert jain_fairness([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_fairness([1.0, 0.0, 0.0]) == pytest.approx(1 / 3)
        assert jain_fairness([]) == 1.0

    def test_summary_weights_normalize_fairness(self):
        events = [
            {"kind": "arrival", "t": 0.0, "tenant": "a", "job": 0},
            {"kind": "start", "t": 0.0, "tenant": "a", "job": 0,
             "wait": 0.0},
            {"kind": "finish", "t": 1.0, "tenant": "a", "job": 0,
             "wait": 0.0, "makespan": 1.0, "service": 1.0},
            {"kind": "arrival", "t": 0.0, "tenant": "b", "job": 0},
            {"kind": "start", "t": 0.0, "tenant": "b", "job": 0,
             "wait": 0.0},
            {"kind": "finish", "t": 1.0, "tenant": "b", "job": 0,
             "wait": 0.0, "makespan": 1.0, "service": 1.0},
            {"kind": "arrival", "t": 0.0, "tenant": "b", "job": 1},
            {"kind": "start", "t": 0.0, "tenant": "b", "job": 1,
             "wait": 0.0},
            {"kind": "finish", "t": 2.0, "tenant": "b", "job": 1,
             "wait": 0.0, "makespan": 2.0, "service": 2.0},
        ]
        raw = summarize_service(events, 2.0)
        weighted = summarize_service(events, 2.0,
                                     weights={"a": 1.0, "b": 2.0})
        assert raw["fairness"] < 1.0       # 1 vs 2 completions
        assert weighted["fairness"] == pytest.approx(1.0)
        assert raw["completed"] == 3
        assert raw["p99_makespan"] == 2.0

    def test_fairness_counts_starved_zero_event_tenants(self):
        """The share list is seeded from the weights mapping: an
        entitled tenant absent from the event stream contributes a 0
        share.  Two equal-weight tenants with completions [1, 0] must
        read 0.5 — the starved tenant used to vanish and the index
        read a perfect 1.0."""
        events = [
            {"kind": "arrival", "t": 0.0, "tenant": "a", "job": 0},
            {"kind": "start", "t": 0.0, "tenant": "a", "job": 0,
             "wait": 0.0},
            {"kind": "finish", "t": 1.0, "tenant": "a", "job": 0,
             "wait": 0.0, "makespan": 1.0, "service": 1.0},
        ]
        summary = summarize_service(events, 2.0,
                                    weights={"a": 1.0, "b": 1.0})
        assert summary["fairness"] == pytest.approx(0.5)
        # three entitled tenants, one served: Jain reads 1/3
        three = summarize_service(
            events, 2.0, weights={"a": 1.0, "b": 1.0, "c": 1.0})
        assert three["fairness"] == pytest.approx(1 / 3)


class TestPumpRunBoundary:
    """The arrival pump's drain-ahead must respect ``run(until=t)``.

    With the fleet saturated and the next queued DES event far beyond
    the cut, the pump used to consume the whole remaining trace inline
    — a mid-horizon observer of ``manager.events`` saw arrivals with
    timestamps from the future.
    """

    def _saturated_manager(self):
        from repro.amt.cluster import SimCluster
        from repro.service.manager import JobManager

        spec = _spec(
            tenants=(TenantSpec(name="a", nx=16, steps=1),),
            cluster=ClusterSpec(num_nodes=1), max_concurrent=1)
        cluster = SimCluster(1, batching=True)
        # one admitted job runs for ~256 virtual seconds at rate 1.0:
        # the fleet saturates on the first arrival and the only queued
        # cluster event sits far past any mid-horizon cut
        manager = JobManager(cluster, spec, {0: 1.0})
        times = [k * 1e-4 for k in range(10)]
        manager.feed_columnar(times, [0] * 10, list(range(10)))
        return cluster, manager

    def test_cut_observes_no_future_arrivals(self):
        cluster, manager = self._saturated_manager()
        cluster.run(until=3.5e-4)
        stamps = [e["t"] for e in manager.events]
        assert stamps, "pump never fired"
        assert max(stamps) <= 3.5e-4, (
            f"drain-ahead leaked arrivals past the cut: {stamps}")

    def test_cut_and_resume_match_the_uncut_stream(self):
        cluster, manager = self._saturated_manager()
        cluster.run(until=3.5e-4)
        cluster.run(until=1.0)
        uncut_cluster, uncut_manager = self._saturated_manager()
        uncut_cluster.run(until=1.0)
        assert list(manager.events) == list(uncut_manager.events)
