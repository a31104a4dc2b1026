"""Transport-conformance battery: one contract, every runtime.

Each test here states a property of the :class:`repro.net.runtime
.Runtime` contract — delivery, FIFO per ordered pair, timer ordering
and cancellation, deterministic RNG streams, self-send rejection,
disconnect/reconnect recovery — and runs it against both substrates
through one parametrized harness:

* ``sim`` — a bare simulator :class:`Network` (the simulator's
  runtime) with zero clock skew and no faults;
* ``asyncio`` — one :class:`AsyncioRuntime` per pid, real loopback TCP
  between them, each on its own event-loop thread.

The battery is what keeps the backends from drifting: a new runtime
earns its place by passing this file unchanged.
"""

import threading
import time
from dataclasses import dataclass

import pytest

from repro.net.asyncio_rt import AsyncioRuntime
from repro.net.launch import free_ports
from repro.sim.clocks import ClockModel
from repro.sim.core import Simulator
from repro.sim.network import Network
from repro.sim.process import Process

N = 3  # processes per harness


@dataclass(frozen=True)
class Note:
    """Picklable test message."""

    seq: int
    body: str = ""

    category = "test"


class Recorder(Process):
    """Records every delivered message."""

    def __init__(self, pid, runtime):
        super().__init__(pid, runtime)
        self.received = []

    def on_message(self, src, msg):
        self.received.append((src, msg))


class SimHarness:
    name = "sim"

    def __init__(self):
        self.sim = Simulator(seed=42)
        self.clocks = ClockModel(N, epsilon=0.0,
                                 rng=self.sim.fork_rng("clocks"))
        self.runtime = Network(self.sim, delta=5.0, gst=0.0,
                               clocks=self.clocks)
        self.procs = {
            pid: Recorder(pid, self.runtime) for pid in range(N)
        }

    def call(self, pid, fn):
        """Run ``fn()`` in the pid's execution context; return result."""
        return fn()

    def run_until(self, predicate, timeout=5.0):
        # One wall second of budget maps to 10k sim-ms: far beyond any
        # delivery or timer in this battery.
        self.sim.run(until=self.sim.now + timeout * 10_000.0,
                     stop_when=predicate)
        return predicate()

    def restart(self, pid):
        """Sever and re-join pid: crash drops in-window deliveries,
        recover resumes."""
        self.procs[pid].crash()
        self.sim.run_for(50.0)
        self.procs[pid].recover()

    def close(self):
        pass


class AsyncioHarness:
    name = "asyncio"

    def __init__(self):
        ports = free_ports(N)
        self.addrs = {pid: ("127.0.0.1", ports[pid]) for pid in range(N)}
        self.runtimes = {}
        self.procs = {}
        for pid in range(N):
            self._start(pid)

    def _start(self, pid):
        rt = AsyncioRuntime(
            pid,
            peers={p: a for p, a in self.addrs.items() if p != pid},
            listen=self.addrs[pid],
            epoch=time.time(),
            seed=42,
            broadcast_pids=list(range(N)),
            reconnect_min=0.02,
            reconnect_max=0.2,
        )
        rt.start_background()
        self.runtimes[pid] = rt
        self.procs[pid] = rt.build(lambda: Recorder(pid, rt))

    def call(self, pid, fn):
        return self.runtimes[pid].call(fn)

    def run_until(self, predicate, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.01)
        return predicate()

    def restart(self, pid):
        """Kill pid's runtime (connections drop) and bring up a fresh
        one on the same address; peers must redial."""
        self.runtimes[pid].close()
        time.sleep(0.05)
        self._start(pid)

    def close(self):
        for rt in self.runtimes.values():
            rt.close()


@pytest.fixture(params=["sim", "asyncio"])
def harness(request):
    h = SimHarness() if request.param == "sim" else AsyncioHarness()
    yield h
    h.close()


# ----------------------------------------------------------------------
# Delivery
# ----------------------------------------------------------------------
def test_directed_send_is_delivered(harness):
    harness.call(0, lambda: harness.procs[0].send(1, Note(1, "hello")))
    assert harness.run_until(lambda: len(harness.procs[1].received) == 1)
    src, msg = harness.procs[1].received[0]
    assert src == 0
    assert msg == Note(1, "hello")
    assert harness.procs[2].received == []


def test_broadcast_reaches_every_other_process(harness):
    harness.call(0, lambda: harness.procs[0].broadcast(Note(7)))
    assert harness.run_until(
        lambda: all(len(harness.procs[p].received) == 1 for p in (1, 2))
    )
    assert harness.procs[0].received == []  # never to self


def test_self_send_is_rejected(harness):
    rt = (harness.runtimes[0] if hasattr(harness, "runtimes")
          else harness.runtime)
    # Both substrates refuse self-sends (sim: SimulationError, asyncio:
    # ValueError) — the contract is "raises", message naming the self-send.
    with pytest.raises(Exception, match="self"):
        harness.call(0, lambda: rt.send(0, 0, Note(0)))


# ----------------------------------------------------------------------
# FIFO per ordered pair
# ----------------------------------------------------------------------
def test_fifo_per_pair(harness):
    count = 200

    def blast():
        for i in range(count):
            harness.procs[0].send(1, Note(i))

    harness.call(0, blast)
    assert harness.run_until(
        lambda: len(harness.procs[1].received) == count, timeout=15.0
    )
    seqs = [m.seq for _, m in harness.procs[1].received]
    assert seqs == list(range(count))


def test_fifo_holds_across_interleaved_pairs(harness):
    def blast(pid):
        def go():
            for i in range(50):
                harness.procs[pid].send(2, Note(i, body=f"from{pid}"))
        return go

    harness.call(0, blast(0))
    harness.call(1, blast(1))
    assert harness.run_until(
        lambda: len(harness.procs[2].received) == 100, timeout=15.0
    )
    for src in (0, 1):
        seqs = [m.seq for s, m in harness.procs[2].received if s == src]
        assert seqs == list(range(50))


# ----------------------------------------------------------------------
# Timers
# ----------------------------------------------------------------------
def test_timers_fire_in_deadline_order(harness):
    fired = []

    def arm():
        p = harness.procs[0]
        p.set_timer(120.0, lambda: fired.append("late"))
        p.set_timer(40.0, lambda: fired.append("early"))
        p.set_timer(80.0, lambda: fired.append("mid"))

    harness.call(0, arm)
    assert harness.run_until(lambda: len(fired) == 3)
    assert fired == ["early", "mid", "late"]


def test_equal_deadline_timers_fire_in_arming_order(harness):
    fired = []

    def arm():
        p = harness.procs[0]
        for tag in ("a", "b", "c"):
            p.set_timer(30.0, lambda t=tag: fired.append(t))

    harness.call(0, arm)
    assert harness.run_until(lambda: len(fired) == 3)
    assert fired == ["a", "b", "c"]


def test_cancelled_timer_never_fires(harness):
    fired = []

    def arm():
        p = harness.procs[0]
        handle = p.set_timer(30.0, lambda: fired.append("no"))
        handle.cancel()
        p.set_timer(90.0, lambda: fired.append("yes"))

    harness.call(0, arm)
    assert harness.run_until(lambda: fired == ["yes"])
    assert harness.run_until(lambda: True)  # settle
    assert fired == ["yes"]


def test_periodic_timer_repeats_until_crash(harness):
    ticks = []
    harness.call(
        0, lambda: harness.procs[0].every(25.0, lambda: ticks.append(1)))
    assert harness.run_until(lambda: len(ticks) >= 4)
    harness.call(0, harness.procs[0].crash)
    seen = len(ticks)
    harness.run_until(lambda: False, timeout=0.2)
    assert len(ticks) <= seen + 1  # at most one in-flight tick


# ----------------------------------------------------------------------
# RNG streams
# ----------------------------------------------------------------------
def test_rng_streams_are_deterministic_and_labelled(harness):
    def streams(rt):
        """First 8 draws of: label A (1st fork), A again (2nd fork), B."""
        return (
            [rt.fork_rng("conformance-stream").random() for _ in range(8)],
            [rt.fork_rng("conformance-stream").random() for _ in range(8)],
            [rt.fork_rng("other-stream").random() for _ in range(8)],
        )

    rt = (harness.runtimes[0] if hasattr(harness, "runtimes")
          else harness.runtime)
    a1, a2, b = streams(rt)
    # Repeated forks of one label are independent streams...
    assert a1 != a2
    assert a1 != b
    # ...and an identically-seeded runtime reproduces them exactly.
    if hasattr(harness, "runtimes"):
        fresh = AsyncioRuntime(99, peers={}, seed=42)
    else:
        fresh = Network(Simulator(seed=42), delta=5.0,
                        clocks=harness.clocks)
    assert streams(fresh) == (a1, a2, b)


# ----------------------------------------------------------------------
# Disconnect / reconnect
# ----------------------------------------------------------------------
def test_pair_recovers_after_disconnect(harness):
    harness.call(0, lambda: harness.procs[0].send(1, Note(0, "pre")))
    assert harness.run_until(lambda: len(harness.procs[1].received) == 1)

    harness.restart(1)

    # Messages sent into the outage window may be lost (both models
    # allow loss); *new* messages after recovery must flow again.  The
    # sender keeps sending, as every protocol retransmission loop does.
    def delivered_post():
        return any(
            m.body == "post" for _, m in harness.procs[1].received
        )

    ok = False
    for i in range(1, 40):
        harness.call(0, lambda i=i: harness.procs[0].send(1, Note(i, "post")))
        if harness.run_until(delivered_post, timeout=0.5):
            ok = True
            break
    assert ok, "pair never recovered after disconnect"
