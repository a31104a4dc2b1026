"""Tests for the discrete-event simulator core."""

import pytest

from repro.sim.core import SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_run_fifo():
    sim = Simulator()
    order = []
    for tag in "abc":
        sim.schedule(1.0, lambda tag=tag: order.append(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(5.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.5]
    assert sim.now == 5.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append(1))
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0
    sim.run()
    assert fired == [1]


def test_run_for_is_relative():
    sim = Simulator()
    sim.run_for(3.0)
    assert sim.now == 3.0
    sim.run_for(2.0)
    assert sim.now == 5.0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(1))
    event.cancel()
    sim.run()
    assert fired == []


def test_schedule_during_event():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(1.0, lambda: order.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert order == ["first", "second"]
    assert sim.now == 2.0


def test_cannot_schedule_into_the_past():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_stop_when_predicate():
    sim = Simulator()
    count = []
    for i in range(10):
        sim.schedule(float(i + 1), lambda: count.append(1))
    sim.run(stop_when=lambda: len(count) >= 3)
    assert len(count) == 3


def test_max_events():
    sim = Simulator()
    count = []
    for i in range(10):
        sim.schedule(float(i + 1), lambda: count.append(1))
    sim.run(max_events=4)
    assert len(count) == 4


def test_stop_exits_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]


def test_determinism_same_seed():
    def trace(seed):
        sim = Simulator(seed=seed)
        values = []
        for _ in range(20):
            sim.schedule(sim.rng.uniform(0, 10),
                         lambda: values.append(sim.now))
        sim.run()
        return values

    assert trace(42) == trace(42)
    assert trace(42) != trace(43)


def test_fork_rng_streams_are_independent():
    sim = Simulator(seed=1)
    a = sim.fork_rng("a")
    b = sim.fork_rng("b")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    event = sim.schedule(2.0, lambda: None)
    event.cancel()
    assert sim.pending_events == 1


def test_pending_events_tracks_schedule_cancel_pop():
    # Regression for the O(1) tombstone accounting: the count must stay
    # exact through any interleaving of scheduling, cancellation (before
    # and after compaction), and event execution.
    sim = Simulator()
    events = [sim.schedule(float(i % 7) + 1.0, lambda: None)
              for i in range(2000)]
    assert sim.pending_events == 2000
    for ev in events[::2]:
        ev.cancel()
    assert sim.pending_events == 1000
    # Cancelling twice must not double-decrement.
    events[0].cancel()
    assert sim.pending_events == 1000
    sim.run(max_events=300)
    assert sim.pending_events == 700
    extra = sim.schedule(50.0, lambda: None)
    assert sim.pending_events == 701
    extra.cancel()
    assert sim.pending_events == 700
    sim.run()
    assert sim.pending_events == 0
    assert sim.events_processed == 1000


def test_cancel_after_fire_is_harmless():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, lambda: fired.append(1))
    later = sim.schedule(2.0, lambda: fired.append(2))
    sim.run(max_events=1)
    ev.cancel()  # already fired: must not disturb live bookkeeping
    assert sim.pending_events == 1
    sim.run()
    assert fired == [1, 2]


def test_call_at_and_call_later_pass_args():
    sim = Simulator()
    seen = []
    sim.call_at(2.0, lambda a, b: seen.append((sim.now, a, b)), "x", 1)
    sim.call_later(1.0, seen.append, "first")
    sim.run()
    assert seen == ["first", (2.0, "x", 1)]


def test_schedule_args_passed_to_callback():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "a")
    sim.schedule_at(2.0, lambda x, y: seen.append(x + y), 1, 2)
    sim.run()
    assert seen == ["a", 3]


def test_schedule_many_bulk():
    sim = Simulator()
    order = []
    n = sim.schedule_many(
        (float(3 - i), lambda i=i: order.append(i)) for i in range(3)
    )
    assert n == 3
    assert sim.pending_events == 3
    sim.run()
    assert order == [2, 1, 0]  # delays 3,2,1 -> reverse scheduling order
    with pytest.raises(SimulationError):
        sim.schedule_many([(-1.0, lambda: None)])


def test_fifo_interleaves_handles_and_fast_path():
    # Same-time events fire in scheduling order regardless of which
    # scheduling API queued them.
    sim = Simulator()
    order = []
    sim.schedule(1.0, order.append, "a")
    sim.call_at(1.0, order.append, "b")
    sim.call_later(1.0, order.append, "c")
    sim.schedule_many([(1.0, lambda: order.append("d"))])
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_compaction_preserves_order_and_count():
    # Drive the heap well past the compaction threshold with mostly
    # cancelled events; survivors must still fire in (time, seq) order.
    sim = Simulator()
    order = []
    keep = []
    for i in range(3000):
        ev = sim.schedule(float(i % 11) + 1.0, lambda i=i: order.append(i))
        if i % 10:
            ev.cancel()
        else:
            keep.append(i)
    assert sim.pending_events == len(keep)
    sim.run()
    expected = sorted(keep, key=lambda i: (float(i % 11) + 1.0, i))
    assert order == expected


def test_compaction_inside_callback_keeps_run_loop_live():
    # Regression: _compact() must mutate the heap in place, not rebind
    # self._heap — run() caches the heap list as a local, so a rebind
    # would strand the loop on the old list and silently drop every event
    # scheduled after a mid-run compaction (the crash/failure-injection
    # pattern: a callback cancels a large batch of timers, then the next
    # schedule trips the tombstone threshold).
    sim = Simulator()
    fired = []
    timers = [sim.schedule(100.0 + i, lambda: fired.append("timer"))
              for i in range(1500)]

    def crash_and_reschedule():
        for ev in timers:  # cancel >50% of a >512-entry heap
            ev.cancel()
        # This schedule trips the compaction threshold; the follow-up
        # event must still fire even though run() is mid-loop.
        sim.schedule(1.0, lambda: fired.append("after-compact"))
        sim.call_later(2.0, lambda: fired.append("fast-path"))

    sim.schedule(1.0, crash_and_reschedule)
    sim.run()
    assert fired == ["after-compact", "fast-path"]
    assert sim.pending_events == 0


def test_fast_paths_trigger_compaction():
    # call_at and schedule_many must also sweep tombstones once they
    # dominate the heap, not just schedule_at.
    for fast_schedule in (
        lambda sim: sim.call_at(sim.now + 500.0, lambda: None),
        lambda sim: sim.schedule_many([(500.0, lambda: None)]),
    ):
        sim = Simulator()
        events = [sim.schedule(1000.0 + i, lambda: None) for i in range(1400)]
        for ev in events:
            ev.cancel()
        assert len(sim._heap) == 1400  # tombstones still resident
        fast_schedule(sim)
        assert len(sim._heap) == 1  # sweep ran; only the live entry remains
        assert sim.pending_events == 1


def test_until_skips_past_cancelled_head():
    # A cancelled event inside the horizon must not let a live event
    # beyond the horizon run.
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, lambda: fired.append("dead"))
    sim.schedule(10.0, lambda: fired.append("late"))
    ev.cancel()
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0
    sim.run()
    assert fired == ["late"]


def test_stop_when_with_until_horizon():
    sim = Simulator()
    count = []
    for i in range(10):
        sim.schedule(float(i + 1), lambda: count.append(1))
    sim.run(until=20.0, stop_when=lambda: len(count) >= 3)
    assert len(count) == 3
    assert sim.now == 3.0
    sim.run(until=20.0)
    assert len(count) == 10
    assert sim.now == 20.0


def test_fork_rng_deterministic_per_seed_and_label():
    def draws(seed, label):
        return [Simulator(seed=seed).fork_rng(label).random()
                for _ in range(1)][0]

    assert draws(7, "net") == draws(7, "net")
    assert draws(7, "net") != draws(8, "net")
    assert draws(7, "net") != draws(7, "clock")


def test_fork_rng_independent_of_fork_order():
    # A label's stream depends only on (seed, label, occurrence index) --
    # forking other labels first must not reseed it.
    a = Simulator(seed=3)
    a.fork_rng("x")
    stream_after_x = a.fork_rng("net").random()

    b = Simulator(seed=3)
    stream_first = b.fork_rng("net").random()
    assert stream_after_x == stream_first

    # Repeated forks of the same label yield distinct streams, themselves
    # reproducible by position.
    c = Simulator(seed=3)
    first = c.fork_rng("net").random()
    second = c.fork_rng("net").random()
    assert first != second
    d = Simulator(seed=3)
    d.fork_rng("net")
    assert d.fork_rng("net").random() == second


def test_fork_rng_site_namespacing():
    # A sited fork is its own stream -- distinct from the bare label and
    # from other sites -- but identical across simulators with the same
    # seed, so a group's streams do not depend on its siblings' forks.
    a = Simulator(seed=5)
    bare = a.fork_rng("network").random()
    g0 = a.fork_rng("network", site="g0").random()
    g1 = a.fork_rng("network", site="g1").random()
    assert len({bare, g0, g1}) == 3

    b = Simulator(seed=5)
    assert b.fork_rng("network", site="g0").random() == g0

