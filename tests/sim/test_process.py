"""Tests for the process abstraction: timers, tasks, crash/recovery."""

from dataclasses import dataclass

import pytest

from repro.sim.clocks import ClockModel
from repro.sim.core import Simulator
from repro.sim.latency import FixedDelay
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.tasks import Future, Sleep, TaskCancelled, Until


@dataclass(frozen=True)
class Note:
    text: str


class Host(Process):
    def __init__(self, *args):
        super().__init__(*args)
        self.notes = []

    def on_message(self, src, msg):
        self.notes.append(msg.text)


def build(n=2, epsilon=0.0, offsets=None):
    sim = Simulator(seed=1)
    clocks = ClockModel(n, epsilon=epsilon, offsets=offsets)
    net = Network(sim, delta=10.0, post_gst_delay=FixedDelay(1.0),
                  clocks=clocks)
    procs = [Host(pid, net) for pid in range(n)]
    return sim, net, procs


class TestTimers:
    def test_timer_fires_after_local_delay(self):
        sim, net, (a, b) = build()
        fired = []
        a.set_timer(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_timer_respects_clock_offset(self):
        sim, net, procs = build(n=2, epsilon=4.0, offsets=[2.0, -2.0])
        fired = []
        # Local clock of process 0 is 2 ahead: local delay 5 happens at
        # real time 5 regardless of offset (rate is 1).
        procs[0].set_timer(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [pytest.approx(5.0)]

    def test_every_repeats_until_crash(self):
        sim, net, (a, b) = build()
        ticks = []
        a.every(2.0, lambda: ticks.append(sim.now))
        sim.run(until=7.0)
        assert ticks == [2.0, 4.0, 6.0]
        a.crash()
        sim.run(until=20.0)
        assert ticks == [2.0, 4.0, 6.0]

    def test_crash_cancels_timers(self):
        sim, net, (a, b) = build()
        fired = []
        a.set_timer(5.0, lambda: fired.append(1))
        a.crash()
        sim.run()
        assert fired == []


class TestTasks:
    def test_sleep(self):
        sim, net, (a, b) = build()
        log = []

        def task():
            log.append(("start", sim.now))
            yield Sleep(3.0)
            log.append(("end", sim.now))

        a.spawn(task())
        sim.run()
        assert log == [("start", 0.0), ("end", 3.0)]

    def test_until_already_true_resumes_immediately(self):
        sim, net, (a, b) = build()
        log = []

        def task():
            yield Until(lambda: True)
            log.append(sim.now)

        a.spawn(task())
        assert log == [0.0]

    def test_until_wakes_on_message(self):
        sim, net, (a, b) = build()
        log = []

        def task():
            yield Until(lambda: bool(a.notes))
            log.append((a.notes[0], sim.now))

        a.spawn(task())
        sim.run_for(5.0)
        assert log == []
        net.send(1, 0, Note("hi"))
        sim.run()
        assert log == [("hi", 6.0)]

    def test_timed_wait_ends_when_its_timer_fires(self):
        # A deadline's round trip through real time can land one ulp
        # short of it: with this offset, a 100-unit wait started at real
        # 99.64537928838946 has its timer fire at local
        # 199.54838640848527, below the deadline 199.5483864084853.
        # Nothing else wakes the process; the timer alone ends the wait.
        start = 99.64537928838946
        sim, net, (a, b) = build(epsilon=1.0,
                                 offsets=[-0.09699287990416394, 0.0])
        log = []

        def task():
            deadline = a.local_time + 100.0
            yield from a.wait_for(lambda: False, timeout=100.0)
            log.append((sim.now, a.local_time < deadline))

        sim.call_at(start, a.spawn, task())
        sim.run()
        assert log == [(pytest.approx(start + 100.0), True)]

    def test_future_resume(self):
        sim, net, (a, b) = build()
        future = Future()
        log = []

        def task():
            value = yield future
            log.append(value)

        a.spawn(task())
        sim.run_for(1.0)
        assert log == []
        future.resolve(42)
        assert log == [42]

    def test_future_already_done(self):
        sim, net, (a, b) = build()
        future = Future()
        future.resolve("x")
        log = []

        def task():
            value = yield future
            log.append(value)

        a.spawn(task())
        assert log == ["x"]

    def test_future_double_resolve_rejected(self):
        future = Future()
        future.resolve(1)
        with pytest.raises(RuntimeError):
            future.resolve(2)

    def test_task_result(self):
        sim, net, (a, b) = build()

        def task():
            yield Sleep(1.0)
            return "done"

        handle = a.spawn(task())
        sim.run()
        assert handle.finished
        assert handle.result == "done"

    def test_yield_from_subprotocol(self):
        sim, net, (a, b) = build()
        log = []

        def sub():
            yield Sleep(2.0)
            return 10

        def task():
            value = yield from sub()
            log.append((value, sim.now))

        a.spawn(task())
        sim.run()
        assert log == [(10, 2.0)]

    def test_task_chain_wakes_dependent_task(self):
        sim, net, (a, b) = build()
        state = {"x": 0}
        log = []

        def setter():
            yield Sleep(1.0)
            state["x"] = 1

        def waiter():
            yield Until(lambda: state["x"] == 1)
            log.append(sim.now)

        a.spawn(waiter())
        a.spawn(setter())
        sim.run()
        assert log == [1.0]

    def test_crash_cancels_tasks(self):
        sim, net, (a, b) = build()
        log = []

        def task():
            try:
                yield Sleep(100.0)
                log.append("finished")
            except TaskCancelled:
                log.append("cancelled")
                raise

        a.spawn(task())
        a.crash()
        sim.run()
        assert log == ["cancelled"]

    def test_unsupported_yield_raises(self):
        sim, net, (a, b) = build()

        def task():
            yield 42

        with pytest.raises(TypeError):
            a.spawn(task())


class TestCrashRecovery:
    def test_crashed_flag_and_repr(self):
        sim, net, (a, b) = build()
        assert "up" in repr(a)
        a.crash()
        assert a.crashed
        assert "crashed" in repr(a)

    def test_send_after_crash_is_noop(self):
        sim, net, (a, b) = build()
        a.crash()
        a.send(1, Note("x"))
        sim.run()
        assert b.notes == []

    def test_stable_storage_survives_crash(self):
        sim, net, (a, b) = build()
        a.stable["key"] = 7
        a.crash()
        a.recover()
        assert a.stable["key"] == 7

    def test_recover_is_noop_when_up(self):
        sim, net, (a, b) = build()
        a.recover()
        assert not a.crashed

    def test_double_crash_is_noop(self):
        sim, net, (a, b) = build()
        a.crash()
        a.crash()
        assert a.crashed
