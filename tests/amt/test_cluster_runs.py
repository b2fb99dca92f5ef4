"""Per-task schedules, cluster run cuts, mid-run failures and batched sends.

A node's backlog must run exactly like a direct FIFO list-scheduling
model of it — one completion event per task, on any speed trace and
core count.  ``run(until=...)`` cuts must leave the schedule unchanged
and, past a drained queue, still land the clock on ``until``; a node
failed mid-run keeps its completed prefix, truncates the in-flight
task's busy time and orphans the rest; and ``send_many`` must match
individual ``send`` calls message for message.
"""

import heapq
import itertools
from collections import deque

import pytest

from repro.amt.cluster import (ConstantSpeed, PiecewiseSpeed, RampSpeed,
                               SimCluster, StraggleSpeed)
from repro.amt.future import local_when_all
from repro.amt.topology import (FlatTopology, HierarchicalTopology,
                                SwitchedTopology)

WORKS = [1e-4 * (1 + (k % 7)) for k in range(64)]

#: factories, so every run starts from a fresh trace object
TRACES = {
    "constant": lambda: ConstantSpeed(1.0),
    "piecewise": lambda: PiecewiseSpeed([0.002, 0.004], [1.0, 0.25, 2.0]),
    "ramp": lambda: RampSpeed(1.0, 0.25, 0.001, 0.006),
    "straggle": lambda: StraggleSpeed(ConstantSpeed(1.0),
                                      [(0.001, 0.003, 0.5)]),
}


def _reference_node(trace, cores, works):
    """Direct model of one FIFO node with every task queued at t=0.

    Returns per-task ``(start, finish)`` pairs and the busy time summed
    in completion order, as the node's counter accumulates it.
    """
    seq = itertools.count()
    queue = deque(range(len(works)))
    running = []  # heap of (finish, seq, start, task index)
    spans = [None] * len(works)
    busy = 0.0

    def dispatch(now):
        while len(running) < cores and queue:
            k = queue.popleft()
            finish = now + trace.time_to_complete(works[k], now)
            heapq.heappush(running, (finish, next(seq), now, k))

    dispatch(0.0)
    while running:
        finish, _, start, k = heapq.heappop(running)
        spans[k] = (start, finish)
        busy += finish - start
        dispatch(finish)
    return spans, busy


def _observe(cluster):
    """Everything solver-visible about a cluster."""
    return {
        "now": cluster.now,
        "busy": [cluster.busy_time(n) for n in range(len(cluster.nodes))],
        "tasks": [n.tasks_completed for n in cluster.nodes],
        "work": [n.work_completed for n in cluster.nodes],
    }


class TestPerTaskSchedule:
    @pytest.mark.parametrize("cores", [1, 2, 4])
    @pytest.mark.parametrize("trace", sorted(TRACES))
    def test_backlog_matches_list_scheduling_model(self, trace, cores):
        """Every task completes at the model's finish time, bit for bit,
        with one completion event per task."""
        cluster = SimCluster(1, cores_per_node=cores,
                             speeds=[TRACES[trace]()])
        stamps = []
        for k, w in enumerate(WORKS):
            cluster.submit(0, work=w)._add_callback(
                lambda _f, k=k: stamps.append((k, cluster.now)))
        cluster.run()
        spans, busy = _reference_node(TRACES[trace](), cores, WORKS)
        expect = sorted(((k, f) for k, (_, f) in enumerate(spans)),
                        key=lambda kf: (kf[1], kf[0]))
        assert sorted(stamps, key=lambda kf: (kf[1], kf[0])) == expect
        assert cluster.now == max(f for _, f in spans)
        assert cluster.busy_time(0) == busy
        assert cluster.nodes[0].tasks_completed == len(WORKS)
        assert cluster.sim.events_processed == len(WORKS)

    def test_barrier_fires_at_the_last_completion(self):
        cluster = SimCluster(2)
        futs = [cluster.submit(k % 2, work=w) for k, w in enumerate(WORKS)]
        stamp = []
        local_when_all(futs)._add_callback(
            lambda _f: stamp.append(cluster.now))
        cluster.run()
        ends = [max(f for _, f in _reference_node(
            ConstantSpeed(1.0), 1, WORKS[n::2])[0]) for n in (0, 1)]
        assert stamp == [max(ends)] == [cluster.now]

    def test_actions_run_at_completion_in_fifo_order(self):
        cluster = SimCluster(1)
        seen = []
        futs = []
        for k, w in enumerate(WORKS):
            action = None
            if k % 5 == 0:
                def action(k=k):
                    seen.append((k, cluster.now))
                    return k
            futs.append(cluster.submit(0, work=w, action=action))
        cluster.run()
        spans, _ = _reference_node(ConstantSpeed(1.0), 1, WORKS)
        assert seen == [(k, spans[k][1]) for k in range(0, len(WORKS), 5)]
        assert [futs[k].get() for k in range(0, len(WORKS), 5)] \
            == list(range(0, len(WORKS), 5))


class TestRunInterruption:
    def _loaded(self):
        cluster = SimCluster(2)
        for w in WORKS:
            cluster.submit(0, work=w)
        cluster.submit(1, work=1.0)  # keeps node 1 alive as survivor
        return cluster

    @pytest.mark.parametrize("until", [1.5e-4, 12.3e-4, 0.5])
    def test_cut_and_resume_matches_one_shot(self, until):
        """Stopping mid-backlog shows exactly the completed prefix, and
        the resumed run ends identically to an uninterrupted one."""
        one_shot = self._loaded()
        one_shot.run()
        spans, _ = _reference_node(ConstantSpeed(1.0), 1, WORKS)
        done = [k for k, (_, f) in enumerate(spans) if f <= until]
        cluster = self._loaded()
        cluster.run(until=until)
        mid = _observe(cluster)
        assert mid["now"] == until
        assert mid["tasks"] == [len(done), 0]
        assert mid["busy"][0] == sum(spans[k][1] - spans[k][0]
                                     for k in done)
        cluster.run()
        assert _observe(cluster) == _observe(one_shot)

    @pytest.mark.parametrize("until", [1.5e-4, 12.3e-4])
    def test_fail_node_mid_run(self, until):
        """The completed prefix keeps its results, the in-flight task's
        busy time is truncated at the failure, and the in-flight task
        plus the queue come back as orphans in FIFO order."""
        cluster = self._loaded()
        cluster.run(until=until)
        orphans = cluster.fail_node(0)
        spans, _ = _reference_node(ConstantSpeed(1.0), 1, WORKS)
        k = sum(1 for _, f in spans if f <= until)
        busy = 0.0
        for start, finish in spans[:k]:
            busy += finish - start
        busy += until - spans[k][0]
        assert [t.work for t in orphans] == WORKS[k:]
        assert not any(t.future.is_ready() for t in orphans)
        assert cluster.nodes[0].tasks_completed == k
        assert cluster.busy_time(0) == busy

    def test_run_until_past_drained_queue_lands_on_until(self):
        """``run(until=...)`` beyond the last event advances the clock
        to ``until``, so busy-fraction windows measured against ``now``
        span the full requested window."""
        cluster = self._loaded()
        cluster.run(until=2.0)  # all work (incl. node 1's 1s task) done
        assert cluster.now == 2.0
        assert sum(n.tasks_completed for n in cluster.nodes) == len(WORKS) + 1
        # the window denominator now covers the idle tail too
        assert cluster.busy_fraction(0) < 1.0

    def test_orphans_resubmit_after_mid_run_failure(self):
        cluster = self._loaded()
        cluster.run(until=5e-4)
        orphans = cluster.fail_node(0)
        for task in orphans:
            cluster.resubmit(task, 1)
        cluster.run()
        assert all(t.future.is_ready() for t in orphans)
        done = sum(n.tasks_completed for n in cluster.nodes)
        assert done == len(WORKS) + 1


#: network models ``send_many`` must plan exactly like ``send`` on
#: (factories: FIFO link state must start fresh for every run)
NETWORKS = {
    "flat": FlatTopology,
    "switched": lambda: SwitchedTopology(rack_size=2, latency=1e-6,
                                         bandwidth=1e8,
                                         oversubscription=8.0),
    "hierarchical": lambda: HierarchicalTopology(rack_size=2),
}


class TestSendMany:
    @pytest.mark.parametrize("network", sorted(NETWORKS))
    def test_matches_individual_sends(self, network):
        msgs = [((i * 7) % 4, (i * 13) % 4, 1024 + 64 * i)
                for i in range(40)]

        def run(batched):
            cluster = SimCluster(4, network=NETWORKS[network]())
            stamps = []
            if batched:
                futs = cluster.send_many([m for m in msgs])
            else:
                futs = [cluster.send(s, d, b) for s, d, b in msgs]
            for fut in futs:
                fut._add_callback(lambda _f: stamps.append(cluster.now))
            cluster.run()
            return (stamps, cluster.now,
                    [cluster.bytes_sent(n) for n in range(4)],
                    [cluster.bytes_received(n) for n in range(4)],
                    dict(cluster.network.bytes_by_class))

        assert run(True) == run(False)

    def test_self_sends_resolve_immediately(self):
        cluster = SimCluster(2)
        futs = cluster.send_many([(0, 0, 4096), (1, 1, 4096)])
        assert all(f.is_ready() for f in futs)
        assert cluster.bytes_sent(0) == 0  # loopback is not NIC traffic

    def test_unknown_node_rejected(self):
        from repro.amt.des import SimulationError
        cluster = SimCluster(2)
        with pytest.raises(SimulationError, match="unknown node"):
            cluster.send_many([(0, 5, 100)])
        with pytest.raises(SimulationError, match="unknown node"):
            cluster.send_many([(-1, 0, 100)])
