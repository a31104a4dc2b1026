"""Same-seed repeatability of the sharded cluster.

Each scenario drives two :class:`ShardedCluster` instances built with
the same seed through the same sequence of fixed-horizon runs and
control-plane actions, then compares per-group fingerprints — the full
operation history, replica states, and network counters, canonically
serialized.  Equality is exact string equality: a sharded run must be
a pure function of its seed, or chaos verdicts and shrunk repro
artifacts stop replaying.
"""

import json

import pytest

from repro.core.config import ChtConfig
from repro.objects.kvstore import KVStoreSpec, increment, put
from repro.shard import ShardedCluster

SEED = 11
SLOTS = 8
HORIZON = 2600.0


def _build(groups, **kwargs):
    return ShardedCluster(
        KVStoreSpec(),
        ChtConfig(n=3),
        num_groups=groups,
        num_slots=SLOTS,
        seed=SEED,
        num_clients=2,
        **kwargs,
    ).start()


def group_fingerprint(group):
    """One group's run trace, canonically serialized: the per-session
    operation history, each replica's applied prefix and state, and the
    group network's message accounting."""
    stats = [
        [
            list(record.op_id),
            record.pid,
            record.kind,
            repr(record.op),
            record.invoked_at,
            record.responded_at,
            repr(record.response),
            record.blocked,
        ]
        for record in group.stats.records
    ]
    replicas = [
        [replica.pid, replica.applied_upto, repr(replica.state)]
        for replica in group.replicas
    ]
    net = {
        "sent": sorted(group.net.messages_sent.items()),
        "delivered": sorted(group.net.messages_delivered.items()),
        "dropped": sorted(group.net.messages_dropped.items()),
        "duplicated": sorted(group.net.messages_duplicated.items()),
        "categories": sorted(group.net.category_sent.items()),
    }
    return json.dumps(
        {"stats": stats, "replicas": replicas, "net": net},
        sort_keys=True,
        separators=(",", ":"),
    )


def _drive_steady_writes(cluster):
    """Interleaved writes from two routers, submitted at aligned times."""
    cluster.run_to(500.0)  # elections settle
    r0, r1 = cluster.router(0), cluster.router(1)
    futures = []
    for round_index, at in enumerate((500.0, 900.0, 1300.0, 1700.0)):
        futures.append(r0.submit(put(f"p{round_index}", f"v{round_index}")))
        futures.append(r1.submit(increment(f"i{round_index % 2}")))
        cluster.run_to(at + 400.0)
    cluster.run_to(HORIZON)
    assert all(f.done for f in futures), "scenario ops must all complete"
    return [f.value for f in futures]


def _drive_handoff(cluster):
    """Writes racing a mid-run handoff of half of group 0's slots."""
    cluster.run_to(500.0)
    r0 = cluster.router(0)
    first = r0.submit(put("k1", "before"))
    cluster.run_to(900.0)
    handoff = cluster.spawn_handoff(0, 1)
    second = cluster.router(1).submit(increment("c1"))
    cluster.run_to(1600.0)
    third = r0.submit(put("k2", "after"))
    cluster.run_to(HORIZON)
    assert first.done and second.done and third.done
    assert handoff.done and len(cluster.handoffs) == 1
    return cluster.handoffs


def _crash_replica_zero(group, gid):
    # Scripted fault, scheduled on the groups' shared simulator.
    group.sim.schedule_at(700.0, group.replicas[0].crash)
    group.sim.schedule_at(1400.0, group.replicas[0].recover)


def _drive_through_crash(cluster):
    cluster.run_to(500.0)
    r0 = cluster.router(0)
    futures = [r0.submit(put("k3", "pre-crash"))]
    cluster.run_to(1000.0)  # replica 0 of every group is down here
    futures.append(r0.submit(increment("c3")))
    cluster.run_to(2000.0)  # recovered and caught up
    futures.append(r0.submit(put("k4", "post-recovery")))
    cluster.run_to(HORIZON)
    assert all(f.done for f in futures)
    return [f.value for f in futures]


def _fingerprints(cluster):
    return [group_fingerprint(group) for group in cluster.groups]


def _repeat(drive, groups, **kwargs):
    """Run ``drive`` twice on same-seed clusters; the drive results and
    every group's fingerprint must match exactly."""
    first = _build(groups, **kwargs)
    first_result = drive(first)
    second = _build(groups, **kwargs)
    assert drive(second) == first_result
    assert _fingerprints(second) == _fingerprints(first)


@pytest.mark.parametrize("groups", [2, 4])
def test_steady_writes_repeatable(groups):
    _repeat(_drive_steady_writes, groups)


@pytest.mark.parametrize("groups", [2, 4])
def test_mid_run_handoff_repeatable(groups):
    # The control-plane record — map versions, freeze/install
    # timestamps — must match to the float, not just the group traces.
    _repeat(_drive_handoff, groups)


@pytest.mark.parametrize("groups", [2, 4])
def test_leader_crash_repeatable(groups):
    _repeat(_drive_through_crash, groups, group_setup=_crash_replica_zero)
