"""Tests for the partially synchronous network."""

from dataclasses import dataclass

import pytest

from repro.sim.clocks import ClockModel
from repro.sim.core import SimulationError, Simulator
from repro.sim.latency import FixedDelay, UniformDelay
from repro.sim.network import Network
from repro.sim.process import Process


@dataclass(frozen=True)
class Ping:
    payload: int = 0

    category = "test"


@dataclass(frozen=True)
class Pong:
    payload: int = 0


class Recorder(Process):
    """Records (src, msg, time) for every delivery."""

    def __init__(self, *args):
        super().__init__(*args)
        self.received = []

    def on_message(self, src, msg):
        self.received.append((src, msg, self.now))


def build(n=3, **net_kwargs):
    sim = Simulator(seed=1)
    clocks = ClockModel(n, epsilon=0.0)
    net = Network(sim, clocks=clocks, **net_kwargs)
    procs = [Recorder(pid, net) for pid in range(n)]
    return sim, net, procs


def test_delivery_within_delta():
    sim, net, procs = build(delta=10.0, post_gst_delay=FixedDelay(4.0))
    net.send(0, 1, Ping(7))
    sim.run()
    assert procs[1].received == [(0, Ping(7), 4.0)]


def test_post_gst_delay_bounded_by_delta():
    sim, net, procs = build(delta=10.0)
    for i in range(100):
        net.send(0, 1, Ping(i))
    sim.run()
    assert len(procs[1].received) == 100
    assert all(t <= 10.0 for (_, _, t) in procs[1].received)


def test_post_gst_model_exceeding_delta_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Network(sim, delta=5.0, post_gst_delay=UniformDelay(0.0, 6.0))


def test_self_send_rejected():
    sim, net, procs = build(delta=10.0)
    with pytest.raises(SimulationError):
        net.send(0, 0, Ping())


def test_unknown_destination_rejected():
    sim, net, procs = build(delta=10.0)
    with pytest.raises(SimulationError):
        net.send(0, 99, Ping())


def test_broadcast_excludes_sender():
    sim, net, procs = build(n=4, delta=10.0)
    net.broadcast(1, Ping())
    sim.run()
    assert procs[1].received == []
    for pid in (0, 2, 3):
        assert len(procs[pid].received) == 1


def test_pre_gst_messages_can_be_lost():
    sim, net, procs = build(delta=10.0, gst=1000.0, pre_gst_drop_prob=1.0)
    net.send(0, 1, Ping())
    sim.run()
    assert procs[1].received == []
    assert net.messages_dropped["Ping"] == 1


def test_pre_gst_message_arrives_by_gst_plus_delta():
    sim, net, procs = build(
        delta=10.0, gst=100.0,
        pre_gst_delay=UniformDelay(0.0, 10_000.0),
    )
    for i in range(50):
        net.send(0, 1, Ping(i))
    sim.run()
    assert len(procs[1].received) == 50
    assert all(t <= 110.0 for (_, _, t) in procs[1].received)


def test_post_gst_no_loss():
    sim, net, procs = build(delta=10.0, gst=0.0, pre_gst_drop_prob=1.0)
    net.send(0, 1, Ping())
    sim.run()
    assert len(procs[1].received) == 1


def test_partition_blocks_messages():
    sim, net, procs = build(n=4, delta=10.0)
    net.add_partition(frozenset({0, 1}), frozenset({2, 3}), start=0.0)
    net.send(0, 2, Ping())
    net.send(0, 1, Ping())
    sim.run()
    assert procs[2].received == []
    assert len(procs[1].received) == 1


def test_partition_window_ends():
    sim, net, procs = build(delta=10.0)
    net.add_partition(frozenset({0}), frozenset({1, 2}), start=0.0, end=50.0)
    net.send(0, 1, Ping(1))
    sim.run_for(60.0)
    net.send(0, 1, Ping(2))
    sim.run()
    payloads = [m.payload for (_, m, _) in procs[1].received]
    assert payloads == [2]


def test_partition_cuts_in_flight_messages():
    sim, net, procs = build(delta=10.0, post_gst_delay=FixedDelay(10.0))
    net.send(0, 1, Ping())
    net.add_partition(frozenset({0}), frozenset({1}), start=0.0)
    sim.run()
    assert procs[1].received == []


def test_isolate_and_heal():
    sim, net, procs = build(n=3, delta=10.0)
    net.isolate(2, start=0.0)
    net.send(0, 2, Ping(1))
    sim.run()
    assert procs[2].received == []
    net.heal_all()
    net.send(0, 2, Ping(2))
    sim.run()
    assert [m.payload for (_, m, _) in procs[2].received] == [2]


def test_crashed_process_receives_nothing():
    sim, net, procs = build(delta=10.0)
    procs[1].crash()
    net.send(0, 1, Ping())
    sim.run()
    assert procs[1].received == []


def test_message_counters():
    sim, net, procs = build(delta=10.0)
    net.send(0, 1, Ping())
    net.send(0, 1, Pong())
    sim.run()
    assert net.messages_sent == {"Ping": 1, "Pong": 1}
    assert net.total_sent() == 2
    assert net.sent_by_category() == {"test": 1, "other": 1}
    net.reset_counters()
    assert net.total_sent() == 0


def test_custom_drop_rule():
    sim, net, procs = build(delta=10.0)
    net.drop_rule = lambda src, dst, msg, now: isinstance(msg, Ping)
    net.send(0, 1, Ping())
    net.send(0, 1, Pong())
    sim.run()
    assert [type(m).__name__ for (_, m, _) in procs[1].received] == ["Pong"]


def test_trace_records_messages():
    sim, net, procs = build(delta=10.0, trace=True,
                            post_gst_delay=FixedDelay(2.0))
    net.send(0, 1, Ping(5))
    sim.run()
    assert len(net.trace) == 1
    record = net.trace[0]
    assert (record.src, record.dst) == (0, 1)
    assert record.deliver_at == 2.0


def test_duplicate_registration_rejected():
    sim, net, procs = build(delta=10.0)
    with pytest.raises(SimulationError):
        net.register(procs[0])


def test_no_duplication_without_rule():
    sim, net, procs = build(delta=10.0)
    for i in range(20):
        net.send(0, 1, Ping(i))
    sim.run()
    assert len(procs[1].received) == 20
    assert net.messages_duplicated == {}


def test_duplication_preserves_fifo_pair_order():
    sim, net, procs = build(delta=10.0)  # UniformDelay default: delays vary
    net.dup_rule = lambda src, dst, msg, now: True
    for i in range(25):
        net.send(0, 1, Ping(i))
    sim.run()
    payloads = [m.payload for (_, m, _) in procs[1].received]
    # Every message delivered twice, and on a FIFO link a duplicate never
    # overtakes the original nor any earlier message on the pair.
    assert payloads == sorted(payloads)
    assert len(payloads) == 50
    assert net.messages_duplicated["Ping"] == 25


def test_duplicates_respect_delta():
    sim, net, procs = build(delta=10.0)
    net.dup_rule = lambda src, dst, msg, now: True
    net.send(0, 1, Ping())
    sim.run()
    assert len(procs[1].received) == 2
    assert all(t <= 10.0 for (_, _, t) in procs[1].received)


def test_one_way_partition_blocks_single_direction():
    sim, net, procs = build(delta=10.0)
    net.add_one_way_partition(frozenset({0}), frozenset({1}), start=0.0)
    net.send(0, 1, Ping(1))  # blocked direction
    net.send(1, 0, Ping(2))  # reverse still works
    sim.run()
    assert procs[1].received == []
    assert [m.payload for (_, m, _) in procs[0].received] == [2]


def test_delay_burst_window_slows_messages():
    sim, net, procs = build(
        delta=10.0, post_gst_delay=FixedDelay(1.0),
    )
    net.add_delay_burst(start=0.0, end=100.0, low=5.0, high=8.0)
    net.send(0, 1, Ping(1))
    sim.run_for(200.0)
    net.send(0, 1, Ping(2))  # after the window: back to the base model
    sim.run()
    times = {m.payload: t for (_, m, t) in procs[1].received}
    assert 5.0 <= times[1] <= 8.0
    assert times[2] == 201.0


def test_delay_burst_clamped_to_delta_post_gst():
    sim, net, procs = build(delta=10.0)
    net.add_delay_burst(start=0.0, end=1000.0, low=5.0, high=500.0)
    for i in range(100):
        net.send(0, 1, Ping(i))
    sim.run()
    assert len(procs[1].received) == 100
    assert all(t <= 10.0 for (_, _, t) in procs[1].received)


def test_expired_partitions_are_pruned():
    sim, net, procs = build(delta=10.0)
    net.add_partition(frozenset({0}), frozenset({1}), start=0.0, end=50.0)
    net.add_partition(frozenset({0}), frozenset({2}), start=0.0, end=500.0)
    assert len(net.partitions) == 2
    sim.run_for(60.0)
    net.send(0, 1, Ping())  # first send past an expiry prunes the list
    assert len(net.partitions) == 1
    assert net.partitions[0].end == 500.0


def test_heal_all_drops_partitions_outright():
    sim, net, procs = build(delta=10.0)
    net.add_partition(frozenset({0}), frozenset({1}), start=0.0)
    net.add_partition(frozenset({1}), frozenset({2}), start=0.0, end=90.0)
    net.heal_all()
    assert net.partitions == []
    net.send(0, 1, Ping())
    sim.run()
    assert len(procs[1].received) == 1


def test_overlapping_partition_groups_rejected():
    sim, net, procs = build(delta=10.0)
    with pytest.raises(ValueError):
        net.add_partition(frozenset({0, 1}), frozenset({1, 2}), start=0.0)


def test_delay_burst_validates_window():
    with pytest.raises(ValueError):
        Network(Simulator(), delta=10.0).add_delay_burst(
            start=10.0, end=5.0, low=1.0, high=2.0
        )
    with pytest.raises(ValueError):
        Network(Simulator(), delta=10.0).add_delay_burst(
            start=0.0, end=5.0, low=3.0, high=2.0
        )
