"""The leaseholder tier across the chaos stack: generation, arming,
verdicts, the planted stale-read bug, and repro artifacts."""

import pytest

from repro.chaos.cli import _build
from repro.chaos.generator import ScheduleGenerator, schedule_to_dict
from repro.chaos.nemesis import NemesisRunner
from repro.chaos.shrink import load_artifact, run_artifact, save_artifact, shrink
from repro.core.client import ChtCluster
from repro.core.config import ChtConfig
from repro.objects.kvstore import KVStoreSpec
from repro.sim.failures import Crash, FaultSchedule, Recover


class TestGeneration:
    def test_leaseholder_draws_are_strictly_additive(self):
        # New draws come after every legacy + durability draw: for the
        # same (seed, index) a leaseholder-on schedule is the old
        # schedule plus leaseholder faults — every legacy entry
        # bit-identical.
        legacy = ScheduleGenerator(n=5, num_clients=2, seed=3)
        tiered = ScheduleGenerator(n=5, num_clients=2, seed=3,
                                   num_leaseholders=2)
        lh_pids = {7, 8}  # n + num_clients ..
        for index in range(5):
            off = schedule_to_dict(legacy.generate(index))
            on = schedule_to_dict(tiered.generate(index))
            for key, entries in off.items():
                if key in ("crashes", "recoveries", "partitions"):
                    # Legacy entries are a prefix of the tiered list.
                    assert on[key][: len(entries)] == entries, key
                else:
                    assert on[key] == entries, key
            extra_crash_pids = {
                c["pid"] for c in on["crashes"][len(off["crashes"]):]
            }
            assert extra_crash_pids <= lh_pids

    def test_leaseholder_partition_isolates_holder_from_all_replicas(self):
        generator = ScheduleGenerator(n=5, num_clients=2, seed=0,
                                      num_leaseholders=2)
        saw_partition = False
        for index in range(10):
            schedule = generator.generate(index)
            for window in schedule.partitions:
                if any(pid >= 7 for pid in window.group_a):
                    saw_partition = True
                    assert window.group_b == frozenset(range(5))
                    # The co-partitioned client (if any) prefers the
                    # isolated holder: client i reads holder i mod L.
                    holders = {p for p in window.group_a if p >= 7}
                    clients = {p for p in window.group_a if 5 <= p < 7}
                    for client_pid in clients:
                        assert (client_pid - 5) % 2 == min(holders) - 7
        assert saw_partition, "no leaseholder partition in 10 schedules"

    def test_leaseholder_base_override_for_sharded_groups(self):
        generator = ScheduleGenerator(n=5, num_clients=2, seed=0,
                                      num_leaseholders=2,
                                      leaseholder_base=8)
        pids = set()
        for index in range(10):
            schedule = generator.generate(index)
            pids |= {c.pid for c in schedule.crashes if c.pid >= 7}
            for window in schedule.partitions:
                pids |= {p for p in window.group_a if p >= 7}
        assert pids, "no leaseholder faults drawn"
        assert pids <= {8, 9}, (
            f"sharded leaseholder faults must skip the coordinator "
            f"session pid 7; drew {sorted(pids)}"
        )


class TestPidLayout:
    @pytest.mark.parametrize("system,groups", [("cht", [None]),
                                               ("sharded", ["g0", "g1"])])
    def test_generated_pids_are_the_leaseholders_the_runner_builds(
        self, system, groups, monkeypatch,
    ):
        generator, runner = _build(system=system, n=3, clients=2,
                                   horizon=1000.0, seed=0, ops_per_client=1,
                                   num_leaseholders=2)
        built = {}
        start = ChtCluster.start

        def recording_start(cluster):
            built[cluster.site] = {h.pid for h in cluster.leaseholders}
            return start(cluster)

        monkeypatch.setattr(ChtCluster, "start", recording_start)
        runner.run(generator.generate(0))
        assert sorted(built, key=str) == groups

        tier = set(range(generator.leaseholder_base,
                         generator.leaseholder_base + 2))
        drawn = set()
        for index in range(10):
            drawn |= {c.pid for c in generator.generate(index).crashes
                      if c.pid >= runner.n}
        assert drawn, "no leaseholder crashes drawn"
        for site in groups:
            assert built[site] == tier, site
            assert drawn <= built[site], site


class TestArming:
    def test_leaseholder_crash_faults_arm_and_fire(self):
        cluster = ChtCluster(KVStoreSpec(), ChtConfig(n=3), seed=0,
                             num_clients=1, num_leaseholders=2)
        schedule = FaultSchedule(
            crashes=[Crash(pid=4, at=300.0)],
            recoveries=[Recover(pid=4, at=600.0)],
        )
        schedule.arm(
            cluster.sim, cluster.net,
            list(cluster.replicas) + list(cluster.clients)
            + list(cluster.leaseholders),
        )
        cluster.start()
        cluster.run_until(lambda: cluster.leaseholders[0].crashed, 5_000.0)
        assert cluster.leaseholders[0].crashed
        cluster.run_until(
            lambda: not cluster.leaseholders[0].crashed, 5_000.0
        )
        assert not cluster.leaseholders[0].crashed

    def test_multipaxos_rejects_the_tier(self):
        with pytest.raises(ValueError, match="lease machinery"):
            NemesisRunner(system="multipaxos", num_leaseholders=2)


class TestVerdicts:
    def test_leaseholder_schedules_pass_on_serial_cht(self):
        generator = ScheduleGenerator(n=3, num_clients=2, seed=5,
                                      num_leaseholders=2)
        runner = NemesisRunner(system="cht", n=3, num_clients=2, seed=5,
                               ops_per_client=4, num_leaseholders=2)
        for index in range(2):
            result = runner.run(generator.generate(index))
            assert result.ok, f"schedule {index}: {result}"

    def test_leaseholder_schedule_passes_on_sharded_cluster(self):
        schedule = ScheduleGenerator(n=5, num_clients=2, seed=0,
                                     num_leaseholders=2,
                                     leaseholder_base=8).generate(1)
        runner = NemesisRunner(system="sharded", n=5, num_clients=2, seed=0,
                               ops_per_client=4, num_leaseholders=2)
        result = runner.run(schedule)
        assert result.ok, result


class TestPlantedBug:
    def test_skip_lease_shrink_detected_shrunk_and_replayed(self, tmp_path):
        # The planted bug drops the lease-expiry wait before committing
        # past an unresponsive holder; a partitioned holder's still-valid
        # lease then serves a stale local read, and the verdict is a
        # linearizability violation — not a crash, not an invariant trip.
        generator = ScheduleGenerator(n=5, num_clients=2, seed=0,
                                      num_leaseholders=2)
        runner = NemesisRunner(system="cht", n=5, num_clients=2, seed=0,
                               ops_per_client=6, num_leaseholders=2,
                               bug="skip_lease_shrink")
        schedule = generator.generate(3)
        result = runner.run(schedule)
        assert not result.ok
        assert result.kind == "linearizability", result

        small, small_result = shrink(runner, schedule, result, budget=60)
        assert small_result.kind == "linearizability"
        assert small.fault_count() <= schedule.fault_count()

        path = str(tmp_path / "repro.json")
        artifact = save_artifact(path, runner, small, small_result)
        assert artifact["num_leaseholders"] == 2
        loaded_runner, loaded_schedule, _ = load_artifact(path)
        assert loaded_runner.num_leaseholders == 2
        assert schedule_to_dict(loaded_schedule) == artifact["schedule"]
        reproduced, replay = run_artifact(path)
        assert reproduced, replay

    def test_unbugged_run_of_the_same_cell_is_clean(self):
        generator = ScheduleGenerator(n=5, num_clients=2, seed=0,
                                      num_leaseholders=2)
        runner = NemesisRunner(system="cht", n=5, num_clients=2, seed=0,
                               ops_per_client=6, num_leaseholders=2)
        result = runner.run(generator.generate(3))
        assert result.ok, result


class TestArtifacts:
    def test_old_artifacts_without_the_key_default_to_zero(self, tmp_path):
        generator = ScheduleGenerator(n=3, num_clients=1, seed=1)
        runner = NemesisRunner(system="cht", n=3, num_clients=1, seed=1,
                               ops_per_client=3)
        schedule = generator.generate(0)
        result = runner.run(schedule)
        path = str(tmp_path / "repro.json")
        artifact = save_artifact(path, runner, schedule, result)
        import json
        data = json.loads(open(path).read())
        del data["num_leaseholders"]
        with open(path, "w") as fh:
            json.dump(data, fh)
        loaded_runner, _, _ = load_artifact(path)
        assert loaded_runner.num_leaseholders == 0
