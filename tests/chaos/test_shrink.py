"""Counterexample shrinking and repro artifacts, end to end."""

import json

import pytest

from repro.chaos.cli import main
from repro.chaos.generator import schedule_to_dict
from repro.chaos.nemesis import NemesisRunner
from repro.chaos.shrink import (
    logical_faults,
    run_artifact,
    save_artifact,
    shrink,
)
from repro.sim.failures import Crash, FaultSchedule, LossWindow, Recover


def test_logical_faults_pair_crash_with_recovery():
    schedule = FaultSchedule(
        crashes=[Crash(pid=1, at=10.0), Crash(pid=2, at=50.0)],
        recoveries=[Recover(pid=1, at=30.0), Recover(pid=2, at=90.0),
                    Recover(pid=0, at=5.0)],
        losses=[LossWindow(start=0.0, end=40.0, prob=0.3)],
    )
    units = logical_faults(schedule)
    paired = [entries for name, entries in units if name == "crashes"]
    assert sorted(len(e) for e in paired) == [2, 2]
    for entries in paired:
        crash, recover = entries
        assert crash.pid == recover.pid and recover.at >= crash.at
    # The unpaired recovery and the loss window are their own units.
    assert ("recoveries", (Recover(pid=0, at=5.0),)) in units
    assert len(units) == 4


def test_shrink_respects_zero_budget():
    runner = NemesisRunner(system="cht", n=3, num_clients=1, ops_per_client=2)
    schedule = runner.schedule(0)
    failure_stub = runner.run(FaultSchedule())  # ok result; kind None
    small, result = shrink(runner, schedule, failure_stub, budget=0)
    assert schedule_to_dict(small) == schedule_to_dict(schedule)
    assert result is failure_stub


def _first_failure(runner, limit=5):
    for index in range(limit):
        schedule = runner.schedule(index)
        result = runner.run(schedule)
        if not result.ok:
            return schedule, result
    raise AssertionError("planted bug was not caught")


def test_planted_bug_shrinks_small_and_reproduces(tmp_path):
    runner = NemesisRunner(system="cht", n=5, num_clients=2, seed=0,
                           bug="skip_reply_cache")
    schedule, failure = _first_failure(runner)

    small, small_result = shrink(runner, schedule, failure, budget=150)
    assert not small_result.ok and small_result.kind == failure.kind
    assert len(logical_faults(small)) <= 5
    assert small.fault_count() <= schedule.fault_count()

    path = str(tmp_path / "repro.json")
    artifact = save_artifact(path, runner, small, small_result)
    assert artifact["bug"] == "skip_reply_cache"
    assert artifact["command"].endswith(f"repro {path}")
    on_disk = json.loads(open(path).read())
    assert on_disk["schedule"] == schedule_to_dict(small)

    reproduced, replay = run_artifact(path)
    assert reproduced and replay.kind == failure.kind

    # The CLI replay agrees: exit 0 iff the recorded failure reproduces.
    assert main(["repro", path]) == 0


def test_artifact_of_passing_schedule_does_not_reproduce(tmp_path):
    runner = NemesisRunner(system="cht", n=3, num_clients=1, ops_per_client=2)
    schedule = FaultSchedule(losses=[LossWindow(0.0, 100.0, 0.2)])
    failing = runner.run(schedule)
    assert failing.ok
    path = str(tmp_path / "clean.json")
    # Hand-craft an artifact claiming a liveness failure that is not there.
    from repro.chaos.nemesis import NemesisResult

    save_artifact(path, runner, schedule,
                  NemesisResult(False, "liveness", "fabricated"))
    reproduced, result = run_artifact(path)
    assert not reproduced and result.ok
    assert main(["repro", path]) == 1


def test_soak_cli_passes_clean(capsys):
    code = main([
        "soak", "--schedules", "2", "--systems", "cht", "--n", "3",
        "--clients", "1", "--ops-per-client", "2", "--seed", "4",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 schedules passed" in out
    # The summary reports workload volume, not just schedule count:
    # 2 schedules x 1 client x 2 ops = 4 checked client operations.
    assert "soak passed: 2 schedules, 4 client ops" in out


def test_verdicts_carry_metrics_snapshots():
    runner = NemesisRunner(system="cht", n=3, num_clients=1, ops_per_client=2)
    result = runner.run(FaultSchedule())
    assert result.ok
    assert result.metrics is not None
    assert result.metrics["messages"]["total_sent"] > 0
    assert any(
        name.startswith("commits_total")
        for name in result.metrics["counters"]
    )
    # Opting out must also work (and then verdicts carry nothing).
    bare = NemesisRunner(
        system="cht", n=3, num_clients=1, ops_per_client=2, obs=False
    )
    assert bare.run(FaultSchedule()).metrics is None


def test_artifact_references_metrics_sidecar(tmp_path):
    from repro.chaos.nemesis import NemesisResult

    runner = NemesisRunner(system="cht", n=3, num_clients=1, ops_per_client=2)
    schedule = FaultSchedule()
    result = runner.run(schedule)
    path = str(tmp_path / "repro.json")
    failure = NemesisResult(
        False, "liveness", "fabricated", metrics=result.metrics
    )
    artifact = save_artifact(path, runner, schedule, failure)
    metrics_path = str(tmp_path / "repro.metrics.json")
    assert artifact["metrics_path"] == metrics_path
    assert json.loads(open(path).read())["metrics_path"] == metrics_path
    sidecar = json.loads(open(metrics_path).read())
    assert sidecar == result.metrics

    # Without a snapshot the artifact records that explicitly.
    bare_path = str(tmp_path / "bare.json")
    bare = save_artifact(
        bare_path, runner, schedule,
        NemesisResult(False, "liveness", "fabricated"),
    )
    assert bare["metrics_path"] is None


def test_artifact_round_trips_sharded_parameters(tmp_path):
    from repro.chaos.nemesis import NemesisResult
    from repro.chaos.shrink import load_artifact

    runner = NemesisRunner(system="sharded", n=3, num_clients=2,
                           ops_per_client=2, groups=4, handoffs=3)
    schedule = FaultSchedule(losses=[LossWindow(0.0, 100.0, 0.2)])
    path = str(tmp_path / "sharded.json")
    artifact = save_artifact(path, runner, schedule,
                             NemesisResult(False, "liveness", "fabricated"))
    assert artifact["groups"] == 4 and artifact["handoffs"] == 3
    rebuilt, _, _ = load_artifact(path)
    assert rebuilt.system == "sharded"
    assert rebuilt.groups == 4 and rebuilt.handoffs == 3

    # Pre-sharding artifacts (no groups/handoffs keys) still load.
    data = json.loads(open(path).read())
    del data["groups"], data["handoffs"]
    legacy = str(tmp_path / "legacy.json")
    with open(legacy, "w") as fh:
        json.dump(data, fh)
    rebuilt, _, _ = load_artifact(legacy)
    assert rebuilt.groups == 2 and rebuilt.handoffs == 1


def test_sharded_soak_cli_passes_clean(capsys):
    code = main([
        "soak", "--schedules", "2", "--systems", "sharded", "--n", "3",
        "--clients", "1", "--ops-per-client", "2", "--seed", "4",
        "--groups", "2", "--handoffs", "1", "--workers", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "sharded: 2 schedules passed" in out


@pytest.mark.parametrize("content,problem", [
    (None, "No such file or directory"),
    ("{not json", "not a repro artifact"),
    ('{"version": 99}', "unsupported artifact version 99"),
])
def test_repro_cli_reports_unusable_artifacts(tmp_path, capsys, content,
                                              problem):
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_text(content)
    assert main(["repro", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1, out
    assert str(path) in out and problem in out, out


@pytest.mark.parametrize("flags,problem", [
    (["--n", "2"], "n >= 3"),
    (["--systems", "raft"], "unknown system"),
    (["--systems", "cht,multipaxos", "--durability"], "durable-storage"),
    (["--systems", "multipaxos", "--leaseholders", "1"], "lease machinery"),
])
def test_soak_cli_reports_invalid_runs(capsys, flags, problem):
    assert main(["soak", "--schedules", "1", *flags]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and problem in out, out


def test_planted_bug_soak_is_identical_serial_and_parallel(
    tmp_path, monkeypatch, capsys,
):
    # Cells are (runner, index) pairs pickled to forked workers; the
    # verdict stream, the shrunken artifact and its metrics sidecar must
    # not depend on that.
    runs = {}
    for workers in ("1", "2"):
        run_dir = tmp_path / f"workers{workers}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        code = main([
            "soak", "--schedules", "3", "--systems", "cht", "--n", "5",
            "--clients", "2", "--ops-per-client", "4", "--durability",
            "--bug", "skip_promise_fsync", "--seed", "0",
            "--shrink-budget", "10", "--workers", workers,
            "--artifact", "repro.json",
        ])
        assert code == 1
        runs[workers] = (
            capsys.readouterr().out,
            (run_dir / "repro.json").read_bytes(),
            (run_dir / "repro.metrics.json").read_bytes(),
        )
    assert "FAIL system=cht seed=0 schedule=0 kind=invariant" in runs["1"][0]
    assert runs["1"] == runs["2"]
