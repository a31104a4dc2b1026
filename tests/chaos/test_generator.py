"""Schedule generation: determinism, structural constraints, serialization."""

import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.generator import (
    ScheduleGenerator,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.chaos.nemesis import NemesisRunner
from repro.sim.failures import (
    ClockDesync,
    Crash,
    CrashRestart,
    DelayBurstWindow,
    DiskFaultWindow,
    DuplicationWindow,
    FaultSchedule,
    LeaderCrash,
    LossWindow,
    OneWayPartitionWindow,
    PartitionWindow,
    Recover,
)


def test_generator_rejects_tiny_clusters():
    with pytest.raises(ValueError):
        ScheduleGenerator(n=2)


def test_generation_is_deterministic_per_index():
    a = ScheduleGenerator(n=5, num_clients=2, seed=7)
    b = ScheduleGenerator(n=5, num_clients=2, seed=7)
    for index in range(10):
        assert schedule_to_dict(a.generate(index)) == schedule_to_dict(
            b.generate(index)
        )


def test_different_seeds_differ():
    a = ScheduleGenerator(n=5, seed=1).generate(0)
    b = ScheduleGenerator(n=5, seed=2).generate(0)
    assert schedule_to_dict(a) != schedule_to_dict(b)


def test_schedules_are_never_empty():
    generator = ScheduleGenerator(n=3, seed=0)
    assert all(
        generator.generate(i).fault_count() >= 1 for i in range(50)
    )


def _max_concurrent_crashes(schedule):
    ends = {}
    for rec in schedule.recoveries:
        ends.setdefault(rec.pid, []).append(rec.at)
    intervals = []
    for crash in schedule.crashes:
        pid_ends = sorted(ends.get(crash.pid, []))
        end = next((e for e in pid_ends if e >= crash.at), float("inf"))
        intervals.append((crash.at, end))
    return max(
        (
            sum(1 for s, e in intervals if s <= at < e)
            for at, _ in intervals
        ),
        default=0,
    )


def test_majority_correct_with_leader_crash_reservation():
    for n in (3, 5, 7):
        generator = ScheduleGenerator(n=n, num_clients=2, seed=13)
        f_max = (n - 1) // 2
        for index in range(40):
            schedule = generator.generate(index)
            reserved = 1 if schedule.leader_crashes else 0
            assert _max_concurrent_crashes(schedule) + reserved <= f_max


def test_everything_heals_before_horizon():
    horizon = 2000.0
    generator = ScheduleGenerator(n=5, num_clients=2, seed=3, horizon=horizon)
    for index in range(30):
        schedule = generator.generate(index)
        crashed = {c.pid for c in schedule.crashes}
        recovered = {r.pid for r in schedule.recoveries}
        assert crashed == recovered
        for rec in schedule.recoveries:
            assert rec.at <= 0.9 * horizon
        windows = (
            list(schedule.partitions)
            + list(schedule.one_way_partitions)
            + list(schedule.losses)
            + list(schedule.duplications)
            + list(schedule.delay_bursts)
        )
        for window in windows:
            assert window.end <= 0.9 * horizon
        for desync in schedule.desyncs:
            assert desync.end is not None and desync.end <= 0.9 * horizon


def test_serialization_roundtrip():
    generator = ScheduleGenerator(n=5, num_clients=2, seed=11)
    for index in range(20):
        schedule = generator.generate(index)
        data = schedule_to_dict(schedule)
        rebuilt = schedule_from_dict(data)
        assert schedule_to_dict(rebuilt) == data
        assert rebuilt.fault_count() == schedule.fault_count()


def test_every_fault_kind_encodes_to_a_pinned_dict_and_back():
    # Open-ended windows (end=inf) must become JSON null and come back
    # as inf; a permanent desync (end=None) must stay None.
    schedule = FaultSchedule(
        crashes=[Crash(pid=1, at=10.0)],
        recoveries=[Recover(pid=1, at=20.0)],
        leader_crashes=[LeaderCrash(at=30.0, downtime=40.0)],
        crash_restarts=[CrashRestart(pid=2, at=50.0, downtime=60.0)],
        disk_faults=[DiskFaultWindow(pid=0, kind="slow", start=1.0,
                                     end=2.0, low=3.0, high=4.0)],
        partitions=[PartitionWindow(frozenset({2, 0}), frozenset({1}),
                                    start=5.0)],
        one_way_partitions=[OneWayPartitionWindow(frozenset({1}),
                                                  frozenset({2, 0}),
                                                  start=6.0)],
        losses=[LossWindow(start=7.0, end=8.0, prob=0.25)],
        duplications=[DuplicationWindow(start=9.0, end=10.0, prob=0.5)],
        delay_bursts=[DelayBurstWindow(start=11.0, end=12.0, low=13.0,
                                       high=14.0)],
        desyncs=[ClockDesync(pid=0, start=15.0, jump=16.0)],
    )
    # A new fault kind must be added here too.
    assert all(getattr(schedule, f.name) for f in fields(FaultSchedule))
    expected = {
        "crashes": [{"pid": 1, "at": 10.0}],
        "recoveries": [{"pid": 1, "at": 20.0}],
        "leader_crashes": [{"at": 30.0, "downtime": 40.0}],
        "crash_restarts": [{"pid": 2, "at": 50.0, "downtime": 60.0}],
        "disk_faults": [{"pid": 0, "kind": "slow", "start": 1.0,
                         "end": 2.0, "low": 3.0, "high": 4.0}],
        "partitions": [{"group_a": [0, 2], "group_b": [1], "start": 5.0,
                        "end": None}],
        "one_way_partitions": [{"from_group": [1], "to_group": [0, 2],
                                "start": 6.0, "end": None}],
        "losses": [{"start": 7.0, "end": 8.0, "prob": 0.25}],
        "duplications": [{"start": 9.0, "end": 10.0, "prob": 0.5}],
        "delay_bursts": [{"start": 11.0, "end": 12.0, "low": 13.0,
                          "high": 14.0}],
        "desyncs": [{"pid": 0, "start": 15.0, "jump": 16.0, "end": None}],
    }
    data = schedule_to_dict(schedule)
    assert data == expected
    wire = json.loads(json.dumps(data, allow_nan=False))
    assert schedule_from_dict(wire) == schedule


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), index=st.integers(0, 100))
def test_healed_schedules_reelect_leader_and_drain_ops(seed, index):
    """Any generated schedule, once healed, lets the cluster re-elect a
    leader and drain every pending operation (the nemesis's ok verdict
    asserts exactly that, plus invariants and linearizability)."""
    runner = NemesisRunner(
        system="cht", n=3, num_clients=1, seed=seed, ops_per_client=3
    )
    result = runner.run(runner.schedule(index))
    assert result.ok, result


def test_same_pid_desyncs_never_overlap_catch_up_windows():
    """Regression: n=3 seed=0 schedule 53 once generated two desyncs of
    pid 0 whose active-plus-catch-up windows overlapped; the second's
    resync appended a future clock segment and the first's jump then
    violated segment time order.  The generator must reject a desync
    that begins inside an earlier same-pid desync's window (end plus
    ~1.1x the jump of crawl-back)."""
    for n, seed in ((3, 0), (5, 0), (3, 7)):
        generator = ScheduleGenerator(n=n, num_clients=2, seed=seed)
        for index in range(80):
            desyncs = generator.generate(index).desyncs
            for i, a in enumerate(desyncs):
                for b in desyncs[i + 1:]:
                    if a.pid != b.pid:
                        continue
                    clear_a = a.end + 1.1 * a.jump
                    clear_b = b.end + 1.1 * b.jump
                    assert b.start >= clear_a or a.start >= clear_b, (
                        n, seed, index, a, b
                    )


def test_desync_rejection_preserves_other_schedules():
    """Dropping an overlapping desync consumes the same rng draws, so
    schedules without same-pid overlaps are untouched (the soak corpus
    stays comparable across the fix)."""
    schedule = ScheduleGenerator(n=3, num_clients=2, seed=0).generate(53)
    # The index that used to crash keeps exactly one of its two pid-0
    # desyncs...
    assert len(schedule.desyncs) == 1
    assert schedule.desyncs[0].pid == 0
    # ...and the nemesis now survives it end to end.
    runner = NemesisRunner(system="cht", n=3, num_clients=2,
                           ops_per_client=3)
    result = runner.run(schedule)
    assert result.ok, result
