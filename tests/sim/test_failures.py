"""Tests for fault-injection schedules."""

from dataclasses import dataclass

import pytest

from repro.sim.clocks import ClockModel
from repro.sim.core import Simulator
from repro.sim.failures import (
    ClockDesync,
    Crash,
    DelayBurstWindow,
    DuplicationWindow,
    FaultSchedule,
    LeaderCrash,
    LossWindow,
    OneWayPartitionWindow,
    PartitionWindow,
    Recover,
)
from repro.sim.latency import FixedDelay
from repro.sim.network import Network
from repro.sim.process import Process


@dataclass(frozen=True)
class Msg:
    pass


class Sink(Process):
    def __init__(self, *args):
        super().__init__(*args)
        self.count = 0

    def on_message(self, src, msg):
        self.count += 1


def build(n=3):
    sim = Simulator(seed=1)
    clocks = ClockModel(n, epsilon=2.0)
    net = Network(sim, delta=10.0, post_gst_delay=FixedDelay(1.0),
                  clocks=clocks)
    procs = [Sink(pid, net) for pid in range(n)]
    return sim, clocks, net, procs


def test_crash_and_recover_schedule():
    sim, clocks, net, procs = build()
    plan = FaultSchedule(
        crashes=[Crash(pid=1, at=10.0)],
        recoveries=[Recover(pid=1, at=20.0)],
    )
    plan.arm(sim, net, procs, clocks)
    sim.run(until=15.0)
    assert procs[1].crashed
    sim.run(until=25.0)
    assert not procs[1].crashed


def test_partition_window():
    sim, clocks, net, procs = build()
    plan = FaultSchedule(
        partitions=[PartitionWindow(frozenset({0}), frozenset({1, 2}),
                                    start=5.0, end=15.0)]
    )
    plan.arm(sim, net, procs, clocks)
    sim.run(until=6.0)
    net.send(0, 1, Msg())
    sim.run(until=10.0)
    assert procs[1].count == 0
    sim.run(until=16.0)
    net.send(0, 1, Msg())
    sim.run()
    assert procs[1].count == 1


def test_loss_window_drops_all_at_prob_one():
    sim, clocks, net, procs = build()
    plan = FaultSchedule(losses=[LossWindow(start=0.0, end=50.0, prob=1.0)])
    plan.arm(sim, net, procs, clocks)
    for _ in range(10):
        net.send(0, 1, Msg())
    sim.run(until=60.0)
    assert procs[1].count == 0
    net.send(0, 1, Msg())
    sim.run()
    assert procs[1].count == 1


def test_loss_window_preserves_existing_drop_rule():
    sim, clocks, net, procs = build()
    net.drop_rule = lambda src, dst, msg, now: dst == 2
    plan = FaultSchedule(losses=[LossWindow(start=0.0, end=1.0, prob=0.0)])
    plan.arm(sim, net, procs, clocks)
    net.send(0, 2, Msg())
    net.send(0, 1, Msg())
    sim.run()
    assert procs[2].count == 0
    assert procs[1].count == 1


def test_loss_window_validates_probability():
    with pytest.raises(ValueError):
        LossWindow(start=0.0, end=1.0, prob=1.5)


def test_clock_desync_schedule():
    sim, clocks, net, procs = build()
    plan = FaultSchedule(
        desyncs=[ClockDesync(pid=0, start=10.0, jump=30.0, end=40.0)]
    )
    plan.arm(sim, net, procs, clocks)
    sim.run(until=20.0)
    assert clocks.max_pairwise_skew(20.0) > 2.0
    sim.run(until=300.0)
    assert clocks.max_pairwise_skew(300.0) <= 2.0


def test_clock_desync_requires_clock_model():
    sim, clocks, net, procs = build()
    plan = FaultSchedule(desyncs=[ClockDesync(pid=0, start=1.0, jump=5.0)])
    with pytest.raises(ValueError):
        plan.arm(sim, net, procs, clocks=None)


def test_unknown_pid_rejected_at_arm_time():
    sim, clocks, net, procs = build()
    plan = FaultSchedule(crashes=[Crash(pid=9, at=10.0)])
    with pytest.raises(ValueError, match=r"unknown process 9"):
        plan.arm(sim, net, procs, clocks)


def test_unknown_pid_in_partition_names_the_entry():
    sim, clocks, net, procs = build()
    plan = FaultSchedule(
        partitions=[PartitionWindow(frozenset({0}), frozenset({7}),
                                    start=0.0, end=5.0)]
    )
    with pytest.raises(ValueError, match=r"PartitionWindow.*unknown process 7"):
        plan.arm(sim, net, procs, clocks)
    plan = FaultSchedule(
        one_way_partitions=[OneWayPartitionWindow(
            frozenset({7}), frozenset({0}), start=0.0, end=5.0)]
    )
    with pytest.raises(ValueError, match=r"unknown process 7"):
        plan.arm(sim, net, procs, clocks)


def test_leader_crash_requires_probe():
    sim, clocks, net, procs = build()
    plan = FaultSchedule(leader_crashes=[LeaderCrash(at=10.0)])
    with pytest.raises(ValueError, match="leader_probe"):
        plan.arm(sim, net, procs, clocks)


def test_leader_crash_hits_probed_leader_and_recovers():
    sim, clocks, net, procs = build()
    plan = FaultSchedule(leader_crashes=[LeaderCrash(at=10.0, downtime=30.0)])
    plan.arm(sim, net, procs, clocks, leader_probe=lambda: 2)
    sim.run(until=15.0)
    assert procs[2].crashed
    sim.run(until=45.0)
    assert not procs[2].crashed


def test_leader_crash_respects_majority_budget():
    sim, clocks, net, procs = build()  # n=3: at most 1 may be down
    plan = FaultSchedule(
        crashes=[Crash(pid=1, at=5.0)],
        recoveries=[Recover(pid=1, at=100.0)],
        leader_crashes=[LeaderCrash(at=10.0)],
    )
    plan.arm(sim, net, procs, clocks, leader_probe=lambda: 0)
    sim.run(until=20.0)
    # Crashing the leader would leave 1/3 alive; the guard skips it.
    assert not procs[0].crashed
    assert procs[1].crashed


def test_leader_crash_skipped_when_no_leader_known():
    sim, clocks, net, procs = build()
    plan = FaultSchedule(leader_crashes=[LeaderCrash(at=10.0)])
    plan.arm(sim, net, procs, clocks, leader_probe=lambda: None)
    sim.run(until=20.0)
    assert all(not p.crashed for p in procs)


def test_duplication_window_duplicates_only_inside_window():
    sim, clocks, net, procs = build()
    plan = FaultSchedule(
        duplications=[DuplicationWindow(start=0.0, end=50.0, prob=1.0)]
    )
    plan.arm(sim, net, procs, clocks)
    net.send(0, 1, Msg())
    sim.run(until=60.0)
    assert procs[1].count == 2
    net.send(0, 1, Msg())
    sim.run()
    assert procs[1].count == 3


def test_delay_burst_window_armed_through_schedule():
    sim, clocks, net, procs = build()
    plan = FaultSchedule(
        delay_bursts=[DelayBurstWindow(start=0.0, end=50.0, low=6.0, high=9.0)]
    )
    plan.arm(sim, net, procs, clocks)
    net.send(0, 1, Msg())
    sim.run(until=5.9)
    assert procs[1].count == 0  # the usual 1.0 delay got burst-stretched
    sim.run(until=9.1)
    assert procs[1].count == 1


def test_fault_count_sums_every_entry():
    plan = FaultSchedule(
        crashes=[Crash(pid=0, at=1.0)],
        recoveries=[Recover(pid=0, at=2.0)],
        losses=[LossWindow(start=0.0, end=1.0, prob=0.5)],
        desyncs=[ClockDesync(pid=1, start=1.0, jump=4.0)],
    )
    assert plan.fault_count() == 4
