#!/usr/bin/env python3
"""A guided tour of the algorithm's fault tolerance.

One bank-accounts object rides through the full gauntlet the paper's
model allows — pre-stabilization message chaos, a leaseholder partition,
a leader crash, and a clock-desynchronization window — while invariant
monitors run inline and the linearizability checker audits the complete
history at the end.  Money is never created or destroyed.

The finale hands the keys to the chaos nemesis: randomized fault
schedules (crash storms, asymmetric partitions, loss/duplication/delay
windows, clock desyncs) driven through client sessions, with
linearizability, invariants, and liveness-after-heal checked on every
run.  See docs/ROBUSTNESS.md for the full workflow.

Run:  python examples/fault_injection_tour.py
"""

from repro import ChtCluster, ChtConfig
from repro.chaos import NemesisRunner
from repro.objects.bank import BankSpec, balance, deposit, total, transfer
from repro.sim.latency import SpikeDelay
from repro.verify import check_linearizable


def main() -> None:
    spec = BankSpec({"alice": 100, "bob": 100})
    cluster = ChtCluster(
        spec,
        ChtConfig(n=5),
        seed=21,
        gst=600.0,  # the first 600 ms are asynchronous
        pre_gst_delay=SpikeDelay(2.0, 10.0, 150.0, spike_prob=0.25),
        pre_gst_drop_prob=0.25,
    )
    cluster.start()

    print("phase 1: pre-stabilization chaos (losses, delay spikes)")
    chaos_ops = [
        (0, transfer("alice", "bob", 10)),
        (2, deposit("carol", 50)),
        (4, transfer("bob", "carol", 5)),
    ]
    futures = [cluster.submit(pid, op) for pid, op in chaos_ops]
    cluster.run(2000.0)
    print(f"  {sum(f.done for f in futures)}/3 transfers completed "
          "(all eventually do)")
    cluster.run_until(lambda: all(f.done for f in futures), timeout=20_000.0)

    leader = cluster.leader() or cluster.run_until_leader(timeout=20_000.0)
    print(f"phase 2: partition a leaseholder (leader is {leader.pid})")
    victim = max(r.pid for r in cluster.replicas if r.pid != leader.pid)
    cluster.net.isolate(victim, start=cluster.sim.now)
    cluster.execute(leader.pid, deposit("alice", 1), timeout=30_000.0)
    record = leader.commit_log[-1]
    print(f"  first write waited {record.latency:.0f} ms "
          f"(lease-expiry wait: {record.expiry_wait}); "
          f"{victim} dropped from leaseholders")
    cluster.execute(leader.pid, deposit("alice", 1), timeout=30_000.0)
    print(f"  next write took {leader.commit_log[-1].latency:.0f} ms")
    cluster.net.heal_all()

    print("phase 3: crash the leader")
    cluster.crash(leader.pid)
    new_leader = cluster.run_until_leader(timeout=30_000.0)
    print(f"  new leader: {new_leader.pid}")
    cluster.execute(new_leader.pid, transfer("carol", "alice", 20),
                    timeout=30_000.0)

    print("phase 4: desynchronize a clock by +400 ms")
    reader = next(r.pid for r in cluster.alive()
                  if r.pid != new_leader.pid)
    cluster.clocks.desynchronize(reader, cluster.sim.now, jump=400.0)
    stalled = cluster.replicas[reader].submit_read(balance("alice"))
    cluster.run(1000.0)
    print(f"  desynced reader's read stalled (never lies): "
          f"{not stalled.done}")
    cluster.clocks.resynchronize(reader, cluster.sim.now)
    cluster.run_until(lambda: stalled.done, timeout=60_000.0)
    print(f"  after resync it reads alice={stalled.value}")

    print("audit:")
    grand_total = cluster.execute(new_leader.pid, total(), timeout=30_000.0)
    print(f"  total money: {grand_total} "
          f"(started with 200, deposited 50 + 1 + 1)")
    assert grand_total == 252
    history = cluster.history()
    ok = check_linearizable(spec, history)
    print(f"  {len(history)} operations linearizable: {bool(ok)}")
    assert ok

    print("phase 5: unleash the chaos nemesis (randomized schedules)")
    runner = NemesisRunner(
        system="cht", n=3, num_clients=1, seed=7, ops_per_client=3
    )
    for index in range(3):
        schedule = runner.schedule(index)
        result = runner.run(schedule)
        print(f"  schedule {index}: {schedule.fault_count()} fault entries"
              f" -> {result!r}")
        assert result.ok
    print("  (scale this up with: PYTHONPATH=src python -m repro.chaos soak)")


if __name__ == "__main__":
    main()
