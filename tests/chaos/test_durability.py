"""Durability mode across the chaos stack: generation, arming, verdicts,
shrinking, and artifacts."""

import pytest

from repro.chaos.generator import (
    ScheduleGenerator,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.chaos.nemesis import NemesisRunner, last_disruption
from repro.chaos.shrink import (
    load_artifact,
    logical_faults,
    run_artifact,
    save_artifact,
    shrink,
)
from repro.core.client import ChtCluster
from repro.core.config import ChtConfig
from repro.objects.kvstore import KVStoreSpec
from repro.sim.failures import CrashRestart, DiskFaultWindow, FaultSchedule


class TestGeneration:
    def test_durability_draws_are_strictly_additive(self):
        # The new draws come after every legacy draw, so for the same
        # (seed, index) a durability-on schedule is the durability-off
        # schedule plus crash-restarts/disk-faults — bit-for-bit.
        legacy = ScheduleGenerator(n=5, num_clients=2, seed=3)
        durable = ScheduleGenerator(n=5, num_clients=2, seed=3,
                                    durability=True)
        for index in range(5):
            off = schedule_to_dict(legacy.generate(index))
            on = schedule_to_dict(durable.generate(index))
            assert off["crash_restarts"] == []
            assert off["disk_faults"] == []
            assert on["crash_restarts"], f"schedule {index} has no restart"
            for key, entries in off.items():
                if key not in ("crash_restarts", "disk_faults"):
                    assert on[key] == entries, key

    def test_serialization_roundtrip(self):
        gen = ScheduleGenerator(n=5, num_clients=2, seed=0, durability=True)
        for index in range(3):
            schedule = gen.generate(index)
            data = schedule_to_dict(schedule)
            assert schedule_to_dict(schedule_from_dict(data)) == data

    def test_old_artifacts_without_durability_keys_still_load(self):
        schedule = ScheduleGenerator(n=3, num_clients=1, seed=1).generate(0)
        data = schedule_to_dict(schedule)
        del data["crash_restarts"], data["disk_faults"]
        loaded = schedule_from_dict(data)
        assert loaded.crash_restarts == [] and loaded.disk_faults == []

    def test_last_disruption_covers_durability_faults(self):
        schedule = FaultSchedule(
            crash_restarts=[CrashRestart(pid=0, at=500.0, downtime=300.0)],
            disk_faults=[DiskFaultWindow(pid=1, kind="torn", start=0.0,
                                         end=900.0)],
        )
        assert last_disruption(schedule) == 900.0
        schedule = FaultSchedule(
            crash_restarts=[CrashRestart(pid=0, at=500.0, downtime=600.0)],
        )
        assert last_disruption(schedule) == 1100.0

    def test_durability_faults_are_shrinkable_units(self):
        schedule = FaultSchedule(
            crash_restarts=[CrashRestart(pid=0, at=10.0)],
            disk_faults=[DiskFaultWindow(pid=1, kind="stall", start=0.0,
                                         end=100.0)],
        )
        names = sorted(name for name, _ in logical_faults(schedule))
        assert names == ["crash_restarts", "disk_faults"]


class TestArming:
    def test_disk_fault_requires_a_durable_target(self):
        cluster = ChtCluster(KVStoreSpec(), ChtConfig(n=3), seed=0)
        schedule = FaultSchedule(
            disk_faults=[DiskFaultWindow(pid=0, kind="slow", start=0.0,
                                         end=50.0, low=1.0, high=2.0)]
        )
        with pytest.raises(ValueError, match="durability layer"):
            schedule.arm(cluster.sim, cluster.net, cluster.replicas)

    def test_crash_restart_pid_validated(self):
        cluster = ChtCluster(KVStoreSpec(), ChtConfig(n=3), seed=0,
                             durability=True)
        schedule = FaultSchedule(
            crash_restarts=[CrashRestart(pid=9, at=1.0)]
        )
        with pytest.raises(ValueError, match="unknown process"):
            schedule.arm(cluster.sim, cluster.net, cluster.replicas)

    def test_crash_restart_erases_then_restores(self):
        cluster = ChtCluster(KVStoreSpec(), ChtConfig(n=3), seed=0,
                             durability=True)
        schedule = FaultSchedule(
            crash_restarts=[CrashRestart(pid=2, at=300.0, downtime=100.0)]
        )
        schedule.arm(cluster.sim, cluster.net, cluster.replicas)
        cluster.start()
        cluster.run_until_leader()
        cluster.run_until(lambda: cluster.replicas[2].crashed, 5_000.0)
        cluster.run_until(lambda: not cluster.replicas[2].crashed, 5_000.0)
        assert not cluster.replicas[2].crashed


class TestVerdicts:
    def test_multipaxos_has_no_durability_seam(self):
        with pytest.raises(ValueError, match="multipaxos"):
            NemesisRunner(system="multipaxos", durability=True)

    def test_durable_schedule_passes_on_serial_cht(self):
        runner = NemesisRunner(system="cht", n=5, num_clients=2, seed=0,
                               ops_per_client=4, durability=True)
        result = runner.run(runner.schedule(1))
        assert result.ok, result

    def test_durable_schedule_passes_on_sharded_cluster(self):
        runner = NemesisRunner(system="sharded", n=5, num_clients=2, seed=0,
                               ops_per_client=4, durability=True)
        result = runner.run(runner.schedule(1))
        assert result.ok, result

    @pytest.mark.parametrize("system", ["cht", "sharded"])
    def test_planted_fsync_bug_detected_shrunk_and_replayed(
        self, system, tmp_path,
    ):
        # Same cell on both run paths: the sharded one arms the schedule
        # on every group and reports per-group invariant failures.
        runner = NemesisRunner(system=system, n=5, num_clients=2, seed=0,
                               ops_per_client=4, durability=True,
                               bug="skip_promise_fsync")
        schedule = runner.schedule(0)
        result = runner.run(schedule)
        assert not result.ok
        assert result.kind == "invariant"
        assert "promise regressed" in result.detail

        small, small_result = shrink(runner, schedule, result, budget=20)
        assert small_result.kind == "invariant"
        assert len(logical_faults(small)) <= 3

        path = str(tmp_path / "repro.json")
        artifact = save_artifact(path, runner, small, small_result)
        assert artifact["system"] == system
        assert artifact["durability"] is True
        loaded_runner, loaded_schedule, loaded = load_artifact(path)
        assert loaded_runner.durability is True
        assert schedule_to_dict(loaded_schedule) == artifact["schedule"]
        reproduced, replay = run_artifact(path)
        assert reproduced, replay
