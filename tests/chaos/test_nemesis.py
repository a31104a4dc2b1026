"""The nemesis runner: verdicts, determinism, and the mini soak."""

import pickle

import pytest

from repro.chaos.nemesis import SYSTEMS, NemesisRunner, last_disruption
from repro.sim.failures import (
    ClockDesync,
    Crash,
    DelayBurstWindow,
    FaultSchedule,
    LeaderCrash,
    LossWindow,
    PartitionWindow,
    Recover,
)


def test_unknown_system_rejected():
    with pytest.raises(ValueError, match="unknown system"):
        NemesisRunner(system="raft")


def test_a_runner_that_ran_still_pickles_as_its_description():
    # Soak and bench cells ship runners to pool workers; a runner that
    # already ran in the parent holds an unpicklable ObsContext.
    runner = NemesisRunner(system="cht", n=3, num_clients=1, ops_per_client=2)
    runner.run(FaultSchedule())
    assert runner.last_obs is not None
    clone = pickle.loads(pickle.dumps(runner))
    assert clone == runner and clone.last_obs is None


def test_last_disruption_covers_every_fault_family():
    schedule = FaultSchedule(
        crashes=[Crash(pid=0, at=100.0)],
        recoveries=[Recover(pid=0, at=300.0)],
        leader_crashes=[LeaderCrash(at=200.0, downtime=150.0)],
        partitions=[
            PartitionWindow(frozenset({0}), frozenset({1, 2}), 50.0, 400.0)
        ],
        losses=[LossWindow(start=0.0, end=250.0, prob=0.2)],
        delay_bursts=[DelayBurstWindow(start=0.0, end=350.0, low=5.0, high=9.0)],
    )
    assert last_disruption(schedule) == 400.0
    # A resyncing clock crawls back for ~1.1x its jump past the window end.
    schedule = FaultSchedule(
        desyncs=[ClockDesync(pid=1, start=100.0, jump=50.0, end=200.0)]
    )
    assert last_disruption(schedule) == pytest.approx(200.0 + 1.1 * 50.0)
    # An unbounded partition counts from its start.
    schedule = FaultSchedule(
        partitions=[PartitionWindow(frozenset({0}), frozenset({1, 2}), 70.0)]
    )
    assert last_disruption(schedule) == 70.0


def test_empty_schedule_run_is_clean():
    runner = NemesisRunner(system="cht", n=3, num_clients=1, ops_per_client=3)
    result = runner.run(FaultSchedule())
    assert result.ok
    assert result.ops_completed == 3


def test_mini_soak_passes_for_every_system():
    for system in SYSTEMS:
        runner = NemesisRunner(
            system=system, n=3, num_clients=1, seed=5, ops_per_client=3
        )
        for index in range(3):
            result = runner.run(runner.schedule(index))
            assert result.ok, f"{system} schedule {index}: {result}"


def test_runs_are_deterministic():
    runner = NemesisRunner(system="cht", n=3, num_clients=1, seed=9,
                           ops_per_client=3)
    schedule = runner.schedule(1)
    first = runner.run(schedule)
    second = runner.run(schedule)
    assert (first.ok, first.kind, first.ops_completed) == (
        second.ok, second.kind, second.ops_completed
    )


def test_paxos_phase2_survives_ballot_reset_under_partition():
    """Regression: the nemesis found (seed 3, schedule 5, shrunk to this
    one partition) that a failing phase-2 exchange reset the ballot and a
    sibling in-flight exchange then tripped a bare assert.  The op must
    instead return to pending and the run stay clean."""
    schedule = FaultSchedule(
        partitions=[
            PartitionWindow(
                frozenset({1, 3, 4}), frozenset({0, 2}),
                start=1009.27, end=1103.91,
            )
        ]
    )
    runner = NemesisRunner(system="multipaxos", n=5, num_clients=2, seed=3)
    result = runner.run(schedule)
    assert result.ok, result


def test_planted_bug_produces_failing_verdict():
    # skip_reply_cache: lost replies can never be re-answered, so some
    # retransmitted op hangs forever -> a liveness failure.  Schedule 3 is
    # the first of the seed-0 stream that catches it (3, 4 and 27 of the
    # first 30); CI's planted-bug soak scans a wider range.
    runner = NemesisRunner(system="cht", n=5, num_clients=2, seed=0,
                           bug="skip_reply_cache")
    kinds = []
    for index in range(3, 6):
        result = runner.run(runner.schedule(index))
        if not result.ok:
            kinds.append(result.kind)
            break
    assert kinds == ["liveness"]


def test_tiny_verify_budget_yields_undecided_verdict():
    # A one-configuration budget cannot decide any non-trivial history:
    # the verdict must be the structured "undecided" kind, not a crash
    # and not a (wrong) linearizability failure.
    runner = NemesisRunner(system="cht", n=3, num_clients=1,
                           ops_per_client=3, max_configurations=1)
    result = runner.run(FaultSchedule())
    assert not result.ok
    assert result.kind == "undecided"
    assert "max_configurations=1" in result.detail
