"""The sharded nemesis: routed workloads under faults with mid-run handoffs."""

from repro.chaos.generator import ScheduleGenerator
from repro.chaos.nemesis import NemesisRunner
from repro.sim.failures import FaultSchedule, LeaderCrash


def make_runner(**kwargs):
    defaults = dict(
        system="sharded", n=3, num_clients=2, seed=0, ops_per_client=4,
        groups=2, handoffs=1,
    )
    defaults.update(kwargs)
    return NemesisRunner(**defaults)


def test_empty_schedule_sharded_run_is_clean():
    result = make_runner().run(FaultSchedule())
    assert result.ok, result
    assert result.ops_completed == 8


def test_sharded_runs_are_deterministic():
    runner = make_runner(seed=3)
    schedule = runner.schedule(0)
    first = runner.run(schedule)
    second = make_runner(seed=3).run(schedule)
    assert (first.ok, first.kind, first.ops_completed) == (
        second.ok, second.kind, second.ops_completed
    )


def test_mini_sharded_soak_with_handoffs():
    runner = make_runner(seed=1, handoffs=2)
    for index in range(3):
        result = runner.run(runner.schedule(index))
        assert result.ok, f"schedule {index}: {result}"


def test_leader_crash_racing_the_handoff_is_survived():
    # A leader-targeted crash timed right at the first handoff point
    # (horizon/2): freeze or install loses its leader mid-commit and
    # must come back through session retransmission.
    schedule = FaultSchedule(
        leader_crashes=[LeaderCrash(at=1250.0, downtime=200.0)]
    )
    result = make_runner().run(schedule)
    assert result.ok, result


def test_planted_reply_cache_bug_is_caught_in_sharded_mode():
    # skip_reply_cache lets a retransmitted RMW apply twice; with a
    # handoff racing retries, the sharded verdict pipeline must catch
    # it (as a linearizability/invariant/liveness failure, depending on
    # where the double application lands).
    # Generator seed picked so the catch lands early in the budget for
    # the current rng streams and message pattern (seed 19 catches it at
    # schedule 0); re-scan seeds if either is ever re-baselined again.
    generator = ScheduleGenerator(n=3, num_clients=2, seed=19)
    runner = make_runner(bug="skip_reply_cache")
    caught = False
    for index in range(6):
        result = runner.run(generator.generate(index))
        if not result.ok and result.kind != "undecided":
            caught = True
            break
    assert caught, "planted reply-cache bug survived 6 sharded schedules"


def test_more_groups_than_slots_becomes_a_verdict_not_a_crash():
    # run() never raises; an impossible configuration surfaces as an
    # "exception" verdict carrying the ValueError.
    result = make_runner(groups=99).run(FaultSchedule())
    assert not result.ok
    assert result.kind == "exception"
    assert "slot per group" in result.detail
