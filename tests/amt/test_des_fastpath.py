"""DES fast-path contracts: event order, run controls and profiling.

The heap must pop events in exactly ``(time, priority, seq)`` order —
the determinism contract everything downstream (goldens, benches, the
paper figures) rests on — through cancellations, lazy compaction and
events scheduled from inside actions.  The ``run(until=, max_events=)``
edges and the O(1) live count are what every batching layer above the
simulator leans on (the service's back-to-back windows, the cluster's
``until`` cuts); they must hold whatever cancelled entries the heap
still carries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amt.des import _COMPACT_MIN, SimulationError, Simulator

#: (time, priority) pairs with heavy collisions so tie-breaking matters
_specs = st.lists(
    st.tuples(st.floats(min_value=0, max_value=100, allow_nan=False),
              st.integers(min_value=-2, max_value=2)),
    max_size=120)


def _reference_order(specs, cancelled=frozenset()):
    """Indices of ``specs`` in ``(time, priority, insertion)`` order."""
    live = [i for i in range(len(specs)) if i not in cancelled]
    return sorted(live, key=lambda i: (specs[i][0], specs[i][1], i))


def _pop_order(specs, cancel_every=0):
    """Fire a schedule; return the observed event order."""
    sim = Simulator()
    order = []
    events = [sim.schedule(t, lambda i=idx: order.append(i), priority=prio)
              for idx, (t, prio) in enumerate(specs)]
    if cancel_every:
        for ev in events[::cancel_every]:
            ev.cancel()
    sim.run()
    return order


class TestEventOrder:
    @given(_specs)
    @settings(max_examples=80, deadline=None)
    def test_pops_in_time_priority_seq_order(self, specs):
        assert _pop_order(specs) == _reference_order(specs)

    @given(_specs, st.integers(min_value=2, max_value=5))
    @settings(max_examples=80, deadline=None)
    def test_order_under_cancellation(self, specs, cancel_every):
        cancelled = frozenset(range(0, len(specs), cancel_every))
        assert (_pop_order(specs, cancel_every)
                == _reference_order(specs, cancelled))

    @given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False),
                    max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_nested_scheduling_matches_reference(self, times):
        """Actions scheduling more events insert behind the clock's
        current position; a linear-scan reference queue must agree on
        the whole firing order."""
        sim = Simulator()
        order = []

        def fire(i, t):
            order.append(i)
            sim.schedule_after(t % 3.0, lambda: order.append(-i - 1))

        for idx, t in enumerate(times):
            sim.schedule(t, lambda i=idx, tt=t: fire(i, tt))
        sim.run()

        queue = [(t, i, i) for i, t in enumerate(times)]
        seq = len(times)
        expect = []
        while queue:
            head = min(queue)
            queue.remove(head)
            t, _, label = head
            expect.append(label)
            if label >= 0:
                queue.append((t + times[label] % 3.0, seq, -label - 1))
                seq += 1
        assert order == expect

    @given(_specs, st.lists(st.floats(min_value=0, max_value=100,
                                      allow_nan=False), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_until_windows_fire_like_one_run(self, specs, cuts):
        """Back-to-back ``run(until=...)`` windows fire the same events
        in the same order, at the same times, as one uninterrupted run."""
        sim = Simulator()
        fired = []
        for idx, (t, prio) in enumerate(specs):
            sim.schedule(t, lambda i=idx: fired.append((i, sim.now)),
                         priority=prio)
        for cut in sorted(cuts):
            sim.run(until=cut)
            assert all(now <= cut for _, now in fired)
        sim.run()
        expect = [(i, specs[i][0]) for i in _reference_order(specs)]
        assert fired == expect

    def test_identical_time_storm_orders_by_priority_then_seq(self):
        sim = Simulator()
        order = []
        for i in range(3000):
            sim.schedule(1.0, lambda i=i: order.append(i),
                         priority=i % 3 - 1)
        sim.run()
        assert order == sorted(range(3000), key=lambda i: (i % 3 - 1, i))
        assert sim.now == 1.0

    def test_compaction_keeps_survivor_order(self):
        """Cancelling past the compaction threshold rebuilds the heap;
        the survivors, colliding in time and priority, still pop in
        ``(time, priority, seq)`` order."""
        specs = [(float((i * 37) % 101), (i * 7) % 3 - 1)
                 for i in range(3 * _COMPACT_MIN)]
        cancelled = frozenset(i for i in range(len(specs)) if i % 4)
        sim = Simulator()
        order = []
        events = [sim.schedule(t, lambda i=idx: order.append(i),
                               priority=prio)
                  for idx, (t, prio) in enumerate(specs)]
        for i in sorted(cancelled):
            events[i].cancel()
        assert len(sim._queue._heap) < len(specs)  # compaction ran
        assert sim.pending() == len(specs) - len(cancelled)
        sim.run()
        assert order == _reference_order(specs, cancelled)

    def test_peek_time_skips_cancelled_head(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.peek_time() == 1.0
        first.cancel()
        assert sim.peek_time() == 2.0
        sim.run()
        assert sim.peek_time() is None


def _tombstoned(count):
    """A simulator carrying ``count`` cancelled events, none fired.

    Their times collide with the live events the run-control tests
    schedule (and one lies far beyond them), so every edge below also
    meets cancelled heads and a cancelled tail.
    """
    sim = Simulator()
    events = [sim.schedule(0.5 * (k % 11),
                           lambda: pytest.fail("cancelled event fired"))
              for k in range(count - 1)]
    events.append(sim.schedule(1e9, lambda: pytest.fail("cancelled tail")))
    for ev in events:
        ev.cancel()
    return sim


@pytest.fixture(params=["fresh", "tombstones", "compacted"])
def sim(request):
    """An idle simulator at t=0 with an empty, lingering-tombstone or
    already-compacted heap."""
    if request.param == "fresh":
        sim = Simulator()
    elif request.param == "tombstones":
        sim = _tombstoned(64)  # below the threshold: all stay queued
        assert len(sim._queue._heap) == 64
    else:
        sim = _tombstoned(_COMPACT_MIN + 100)
        assert len(sim._queue._heap) < _COMPACT_MIN  # compaction ran
    assert sim.pending() == 0 and sim.now == 0.0
    return sim


class TestRunControlEdges:
    def test_max_events_raises_before_popping(self, sim):
        """The guard fires *before* the offending event is popped or
        counted, so the schedule can resume exactly where it stopped
        (regression: the seed popped and counted event N+1 first)."""
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=2)
        assert fired == [1.0, 2.0]
        assert sim.events_processed == 2
        assert sim.pending() == 1
        # the untouched tail drains on the next run
        assert sim.run() == 3.0
        assert fired == [1.0, 2.0, 3.0]

    def test_max_events_exact_budget_completes(self, sim):
        for t in (1.0, 2.0):
            sim.schedule(t, lambda: None)
        assert sim.run(max_events=2) == 2.0

    def test_event_exactly_at_until_fires(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append("at"))
        sim.schedule(5.0 + 1e-12, lambda: fired.append("after"))
        assert sim.run(until=5.0) == 5.0
        assert fired == ["at"]

    def test_cancelled_head_at_until_boundary(self, sim):
        """A cancelled event at the boundary is skipped, not fired, and
        must not stop the clock short of ``until``."""
        fired = []
        ev = sim.schedule(5.0, lambda: fired.append("dead"))
        sim.schedule(9.0, lambda: fired.append("late"))
        ev.cancel()
        assert sim.run(until=7.0) == 7.0
        assert fired == []
        assert sim.pending() == 1

    def test_until_in_past_leaves_clock(self, sim):
        sim.schedule(4.0, lambda: None)
        sim.run()
        assert sim.run(until=1.0) == 4.0
        assert sim.now == 4.0

    def test_until_with_empty_queue_advances_clock(self, sim):
        # the drained-queue path lands on `until` just like the
        # later-event path does — empty windows still tile virtual time
        assert sim.run(until=3.0) == 3.0
        assert sim.run(until=2.0) == 3.0  # never backwards

    def test_pending_is_live_count(self, sim):
        events = [sim.schedule(float(i), lambda: None) for i in range(10)]
        assert sim.pending() == 10
        for ev in events[::2]:
            ev.cancel()
        assert sim.pending() == 5
        events[1].cancel()
        assert sim.pending() == 4
        sim.run()
        assert sim.pending() == 0

    def test_mass_cancellation_compacts(self, sim):
        """Cancelling nearly everything triggers lazy compaction; the
        survivors still fire in order."""
        fired = []
        events = [sim.schedule(float(i), lambda i=i: fired.append(i))
                  for i in range(4000)]
        for ev in events:
            if ev.time % 100 != 0.0:
                ev.cancel()
        sim.run()
        assert fired == list(range(0, 4000, 100))


class TestProfiling:
    def test_counters_accumulate_by_class(self):
        sim = Simulator(profile=True)
        sim.schedule(1.0, lambda: None, klass="delivery")
        sim.schedule(2.0, lambda: None, klass="delivery")
        sim.schedule(3.0, lambda: None)  # untagged -> "event"
        sim.run()
        assert sim.profile["delivery"][0] == 2
        assert sim.profile["event"][0] == 1
        assert sim.profile["delivery"][1] >= 0.0
        report = sim.profile_report()
        assert "delivery" in report and "total" in report

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_DES_PROFILE", raising=False)
        sim = Simulator()
        assert sim.profile is None
        assert "disabled" in sim.profile_report()

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_DES_PROFILE", "1")
        assert Simulator().profile == {}
