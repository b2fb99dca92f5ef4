"""The task-group fast path: ``submit_group`` / ``send_group``.

A group batches one task per listed node (or one message per send)
into a single DES event.  These tests pin that it produces
bit-identical telemetry, busy time and barrier firing times to the
per-task path, including:

* repeated node ids, which queue FIFO on their node;
* a mid-horizon ``run(until=...)`` cut, which materializes in-flight
  groups back into per-task form with no observable difference.

Each scenario runs once with batching on and once off and asserts the
observable streams are equal.
"""

import pytest

from repro.amt.cluster import SimCluster
from repro.amt.des import SimulationError


class TestTaskGroups:
    def test_group_chain_matches_per_event_path(self):
        """A 3-step submit_group/send_group chain over 3 nodes: same
        barrier times, same busy time, far fewer events."""
        logs = {}
        events = {}
        for mode in (True, False):
            c = SimCluster(3, batching=mode)
            log = []

            def step(k, c=c, log=log):
                if k == 3:
                    return
                fut = c.submit_group([10.0, 20.0, 15.0])
                fut._add_callback(lambda _f: (
                    log.append((k, c.now)),
                    send(k)))

            def send(k, c=c):
                fut = c.send_group([(0, 1, 800), (1, 2, 800)])
                fut._add_callback(lambda _f: step(k + 1))

            step(0)
            c.run()
            log.append(("busy", [round(c.busy_time(n), 9)
                                 for n in range(3)]))
            logs[mode] = log
            events[mode] = c.sim.events_processed
        assert logs[True] == logs[False]
        assert events[True] < events[False]

    def test_repeated_nodes_match_per_task_path(self):
        """More tasks than nodes, with a node listed twice: its entries
        queue FIFO behind each other, exactly like per-task submits."""
        results = {}
        events = {}
        for mode in (True, False):
            c = SimCluster(2, batching=mode)
            times = []
            c.submit_group([1.0, 2.0, 3.0], nodes=[0, 0, 1])._add_callback(
                lambda _f, c=c: times.append(c.now))
            c.run()
            results[mode] = (times, c.now,
                             [c.busy_time(n) for n in range(2)],
                             [n.tasks_completed for n in c.nodes])
            events[mode] = c.sim.events_processed
        assert results[True] == results[False]
        assert results[True][:2] == ([3.0], 3.0)
        assert events[True] == 1  # one group event, no per-task fallback

    @pytest.mark.parametrize("nodes", [[1, 1, 1], [0, 1, 0, 1],
                                       [2, 0, 2, 1, 2], [0, 0, 0, 0, 2]])
    def test_repeated_node_layouts_match_per_task_path(self, nodes):
        """Any node multiset, idle nodes included: the barrier fires at
        the longest node's FIFO sum, identically on both paths."""
        works = [1.0 + 0.5 * k for k in range(len(nodes))]
        results = {}
        for mode in (True, False):
            c = SimCluster(3, batching=mode)
            times = []
            c.submit_group(works, nodes=nodes)._add_callback(
                lambda _f, c=c: times.append(c.now))
            c.run()
            results[mode] = (times, c.now,
                             [c.busy_time(n) for n in range(3)],
                             [n.tasks_completed for n in c.nodes],
                             [n.work_completed for n in c.nodes])
        assert results[True] == results[False]
        per_node = [sum(w for w, m in zip(works, nodes) if m == n)
                    for n in range(3)]
        assert results[True][0] == [max(per_node)]
        assert results[True][2] == per_node
        assert results[True][3] == [nodes.count(n) for n in range(3)]

    @pytest.mark.parametrize("mode", [True, False])
    def test_default_nodes_past_the_fleet_rejected(self, mode):
        c = SimCluster(2, batching=mode)
        with pytest.raises(SimulationError, match="unknown node id 2"):
            c.submit_group([1.0, 2.0, 3.0])

    def test_group_callback_mode_matches_future_mode(self):
        """submit_group(callback=...) fires exactly where the barrier
        future would have resolved."""
        fired = {}
        for label, use_cb in (("cb", True), ("fut", False)):
            c = SimCluster(2, batching=True)
            times = []
            if use_cb:
                c.submit_group([10.0, 30.0],
                               callback=lambda: times.append(c.now))
            else:
                c.submit_group([10.0, 30.0])._add_callback(
                    lambda _f: times.append(c.now))
            c.run()
            fired[label] = times
        assert fired["cb"] == fired["fut"] == [30.0]

    def test_mid_horizon_cut_and_resume(self):
        """run(until=) through in-flight groups, then resume: the
        materialized continuation must finish identically."""
        results = {}
        for mode in (True, False):
            c = SimCluster(1, batching=mode)
            log = []

            def chain(k, c=c, log=log):
                if k == 4:
                    return
                c.submit_group([20.0])._add_callback(
                    lambda _f: (log.append((k, c.now)), chain(k + 1)))

            chain(0)
            c.run(until=25.0)
            mid_busy = round(c.busy_time(0), 9)
            mid_now = c.now
            c.run()
            results[mode] = (log, mid_busy, mid_now,
                             round(c.busy_time(0), 9))
        assert results[True] == results[False]
        assert results[True][0] == [(0, 20.0), (1, 40.0), (2, 60.0),
                                    (3, 80.0)]

    def test_group_falls_back_on_ineligible_node(self):
        """Multi-core nodes take the classic path but the barrier
        semantics are unchanged."""
        c = SimCluster(2, cores_per_node=2, batching=True)
        times = []
        c.submit_group([10.0, 30.0])._add_callback(
            lambda _f: times.append(c.now))
        c.run()
        assert times == [30.0]

    def test_counters_flush_through_busy_time_reads(self):
        """busy_time() mid-run sees the completed prefix of pending
        group entries without materializing them."""
        c = SimCluster(1, batching=True)
        c.submit_group([10.0])
        c.submit_group([10.0])
        c.run(until=15.0)
        assert c.busy_time(0) == 10.0
        c.run()
        assert c.busy_time(0) == 20.0
